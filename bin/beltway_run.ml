(* beltway-run: run one workload under one collector configuration and
   report collector statistics — the reproduction's analogue of picking
   a GC on the Jikes RVM command line (the paper's headline interface:
   "Beltway configurations, selected by command line options"). *)

let print_written = function
  | Session.Trace (f, r) ->
    Format.printf "trace:       %s (%d events, %d dropped)@." f
      (Beltway_obs.Recorder.event_count r)
      (Beltway_obs.Recorder.dropped r)
  | Session.Metrics f -> Format.printf "metrics:     %s@." f
  | Session.Profile (f, p) ->
    Format.printf "%a@." (Beltway_obs.Profiler.report ~top:10) p;
    Format.printf "profile:     %s@." f

let run (o : Session.options) bench_name quiet dump policy =
  let config =
    Session.config o ?policy ~list:(fun () ->
        if policy = Some "list" then
          Session.print_registry
            (List.map
               (fun (name, _) ->
                 (name, Beltway.Policy.describe name, Beltway.Policy.exemplar name))
               Beltway.Policy.registry))
  in
  let bench =
    match Beltway_workload.Spec.by_name bench_name with
    | Some bench -> bench
    | None ->
      Session.fail "unknown benchmark %S (have: %s)" bench_name
        (String.concat ", "
           (List.map (fun b -> b.Beltway_workload.Spec.name) Beltway_workload.Spec.all))
  in
  let s = Session.start o config in
  let gc = s.Session.gc in
  let export () =
    let written = Session.export s ~name:bench.Beltway_workload.Spec.name in
    if not quiet then List.iter print_written written
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    try
      bench.Beltway_workload.Spec.run gc;
      Ok ()
    with Beltway.Gc.Out_of_memory m -> Error m
  in
  let wall = Unix.gettimeofday () -. t0 in
  let stats = Beltway.Gc.stats gc in
  let model = Beltway_sim.Cost_model.default in
  match outcome with
  | Ok () ->
    if not quiet then begin
      Format.printf "benchmark:   %s (%s)@." bench.Beltway_workload.Spec.name
        bench.Beltway_workload.Spec.description;
      (* the collector itself is named by the summary header below *)
      Format.printf "heap:        %d KB (%d frames of %d KB)@."
        (Beltway.Gc.heap_bytes gc / 1024)
        (Beltway.Gc.heap_frames gc)
        (Beltway.Gc.frame_bytes gc / 1024);
      Format.printf "%a@." Beltway.Gc_stats.pp_summary stats;
      Format.printf "model time:  total %.3e units (GC %.3e, mutator %.3e — %.1f%% in GC)@."
        (Beltway_sim.Cost_model.total_time model stats)
        (Beltway_sim.Cost_model.gc_time model stats)
        (Beltway_sim.Cost_model.mutator_time model stats)
        (100.0
        *. Beltway_sim.Cost_model.gc_time model stats
        /. Float.max 1.0 (Beltway_sim.Cost_model.total_time model stats));
      Format.printf "wall clock:  %.3fs (simulation)@." wall;
      match s.Session.recorder with
      | Some r when Beltway_obs.Recorder.collections r > 0 ->
        let tl = Beltway_sim.Mmu.timeline model stats in
        Format.printf "%a@." Beltway_sim.Mmu.pp_drift
          (Beltway_sim.Mmu.crosscheck tl
             ~recorded_durs:(Beltway_obs.Recorder.pause_durs_us r))
      | _ -> ()
    end;
    export ();
    if dump then Format.printf "%a@." Beltway.Gc.pp_heap gc;
    Session.check s
  | Error m ->
    export ();
    Format.printf "OUT OF MEMORY after %d collections: %s@."
      (Beltway.Gc_stats.gcs stats) m;
    exit 3

open Cmdliner

let bench_arg =
  let doc = "Benchmark: jess, raytrace, db, javac, jack, pseudojbb." in
  Arg.(value & opt string "jess" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let quiet_arg =
  let doc = "Suppress the statistics report." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let dump_arg =
  let doc = "Print the final belt/increment structure." in
  Arg.(value & flag & info [ "dump" ] ~doc)

let policy_arg =
  let doc =
    "Select the collector policy from the registry by $(docv) (shorthand for \
     a +policy:$(docv) suffix on the configuration); $(b,--policy list) \
     prints the registry and exits."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)

let cmd =
  let doc = "run a synthetic benchmark under a Beltway collector configuration" in
  Cmd.v
    (Cmd.info "beltway-run" ~doc)
    Term.(
      const run $ Session.options ~heap_kb:1024 $ bench_arg $ quiet_arg $ dump_arg
      $ policy_arg)

let () = exit (Cmd.eval cmd)
