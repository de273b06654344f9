(* One run of a collector configuration, shared by beltway-run and
   beltlang: the collector options, their validation (exit 2),
   Gc.create with the sanitizer, flight recorder and profiler attached,
   the export of what they saw, and the integrity epilogue (exit 1).
   The session writes files and hands back what it wrote; what each
   tool prints about them is the tool's own business. *)

module Obs = Beltway_obs
module San = Beltway_check.Sanitizer

let fail fmt =
  Printf.ksprintf
    (fun e ->
      Printf.eprintf "error: %s\n" e;
      exit 2)
    fmt

type options = {
  config : string;
  heap_kb : int;
  verify : bool;
  sanitize : int option;
  trace : string option;
  metrics : string option;
  profile : string option;
  strategy : string option;
  gc_domains : int option;
}

(* A registry listing, two lines an entry (name and summary, then an
   exemplar configuration), then exit 0. *)
let print_registry entries =
  List.iter
    (fun (name, summary, exemplar) ->
      Printf.printf "%-12s %s\n%-12s exemplar: %s\n" name summary "" exemplar)
    entries;
  exit 0

(* The configuration the options select, or exit 2 with the first
   error: after [list], the caller's own listing option, and --strategy
   list, which both exit 0, the configuration string with its
   +policy:/+strategy: suffixes spliced on, then everything Gc.create
   would reject (the domain count among it). *)
let config ?(list = ignore) ?policy o =
  list ();
  if o.strategy = Some "list" then
    print_registry
      (List.map
         (fun (i : Beltway.Strategy.info) -> (i.key, i.summary, i.exemplar_config))
         Beltway.Strategy.infos);
  let suffix key = Option.fold ~none:"" ~some:(fun n -> "+" ^ key ^ ":" ^ n) in
  match Beltway.Config.parse (o.config ^ suffix "policy" policy ^ suffix "strategy" o.strategy) with
  | Error e -> fail "%s" e
  | Ok config -> (
    match Beltway.Gc.validate ?gc_domains:o.gc_domains config with
    | Ok () -> config
    | Error e -> fail "%s" e)

type t = {
  gc : Beltway.Gc.t;
  verify : bool;
  sanitizer : San.t;
  recorder : Obs.Recorder.t option;
  trace_file : string option;
  metrics_file : string option;
  profiler : (Obs.Profiler.t * string) option;
}

(* A fresh heap for [config] with every requested observer attached;
   the trace and profile files fall back to BELTWAY_TRACE and
   BELTWAY_PROFILE, the sanitizer level to BELTWAY_SANITIZE. *)
let start o config =
  let level =
    match o.sanitize with
    | None -> San.env_level ()
    | Some n -> (
      match San.level_of_int n with
      | Some l -> l
      | None -> fail "--sanitize takes 0, 1 or 2 (got %d)" n)
  in
  let gc =
    Beltway.Gc.create ~frame_log_words:Beltway_sim.Runner.frame_log_words
      ?gc_domains:o.gc_domains ~config
      ~heap_bytes:(o.heap_kb * 1024) ()
  in
  let sanitizer = San.attach ~level gc in
  let trace_file = if o.trace <> None then o.trace else Obs.Recorder.env_file () in
  let recorder =
    if trace_file <> None || o.metrics <> None then Some (Obs.Recorder.attach gc)
    else None
  in
  let profile_file = if o.profile <> None then o.profile else Obs.Profiler.env_file () in
  let profiler = Option.map (fun f -> (Obs.Profiler.attach gc, f)) profile_file in
  { gc; verify = o.verify; sanitizer; recorder; trace_file; metrics_file = o.metrics; profiler }

type written =
  | Trace of string * Obs.Recorder.t
  | Metrics of string
  | Profile of string * Obs.Profiler.t

(* Detach the observers and write their files, [name] naming the run
   in each; returns what was written, in this order. *)
let export s ~name =
  let written = ref [] in
  let wrote w = written := w :: !written in
  Option.iter
    (fun r ->
      Obs.Recorder.detach r;
      Option.iter
        (fun f ->
          Obs.Chrome_trace.write_file f (Obs.Chrome_trace.to_json ~process_name:name r);
          wrote (Trace (f, r)))
        s.trace_file;
      Option.iter
        (fun f ->
          Obs.Chrome_trace.write_file f (Obs.Metrics.to_json (Obs.Recorder.metrics r));
          wrote (Metrics f))
        s.metrics_file)
    s.recorder;
  Option.iter
    (fun (p, f) ->
      Obs.Profiler.detach p;
      Obs.Profiler.write_file f [ Obs.Profiler.run_json ~name p ];
      wrote (Profile (f, p)))
    s.profiler;
  List.rev !written

(* The epilogue of a completed run: --verify's full integrity check,
   then the sanitizer's final check and report; exit 1 on a failure. *)
let check s =
  if s.verify then begin
    match Beltway.Verify.check s.gc with
    | Ok () -> Format.printf "heap integrity: OK@."
    | Error e ->
      Format.printf "heap integrity: FAILED: %s@." e;
      exit 1
  end;
  if San.enabled s.sanitizer then begin
    San.check_now s.sanitizer;
    Format.printf "%a" San.report s.sanitizer;
    if not (San.ok s.sanitizer) then exit 1
  end

open Cmdliner

let options ~heap_kb =
  let make config heap_kb verify sanitize trace metrics profile strategy gc_domains =
    { config; heap_kb; verify; sanitize; trace; metrics; profile; strategy; gc_domains }
  in
  let file names doc = Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc) in
  Term.(
    const make
    $ Arg.(
        value & opt string "25.25.100"
        & info [ "g"; "gc" ] ~docv:"CONFIG"
            ~doc:
              "Collector configuration: ss, appel, appel3, fixed:N, ofm:N, of:N, \
               X.Y, X.Y.100, with +nofilter/+ttd:N/+remtrig:N/+halfreserve option \
               suffixes.")
    $ Arg.(value & opt int heap_kb & info [ "H"; "heap-kb" ] ~docv:"KB" ~doc:"Heap size in KiB.")
    $ Arg.(
        value & flag
        & info [ "verify" ] ~doc:"Run the full heap-integrity checker after a completed run.")
    $ Arg.(
        value
        & opt ~vopt:(Some 2) (some int) None
        & info [ "sanitize" ] ~docv:"LEVEL"
            ~doc:
              "Run under the differential heap sanitizer: 1 = shadow-heap diff at \
               every collection, 2 = also full integrity verification (default \
               when the level is omitted). Overrides $(b,BELTWAY_SANITIZE).")
    $ file [ "trace" ]
        "Attach the GC flight recorder and write a Chrome trace_event JSON trace \
         to $(docv) (load in chrome://tracing or Perfetto). Overrides \
         $(b,BELTWAY_TRACE)."
    $ file [ "metrics" ]
        "Attach the GC flight recorder and write a JSON metrics snapshot (pause \
         and occupancy distributions with p50/p90/p99, trigger and frame \
         counters) to $(docv)."
    $ file [ "profile" ]
        "Attach the object-demographics profiler and write a beltway-profile/1 \
         JSON report (per-site allocation/survival counts, per-belt age \
         histograms, promotion matrix, occupancy series; bytecode allocation \
         sites are labelled $(i,lambda@pc:kind)) to $(docv), and print a text \
         top-sites report (beltway-run: to stdout unless $(b,--quiet); \
         beltlang: to stderr, as stdout carries the program's output). \
         Overrides $(b,BELTWAY_PROFILE)."
    $ Arg.(
        value
        & opt (some string) None
        & info [ "strategy" ] ~docv:"NAME"
            ~doc:
              "Select the reclamation strategy from the registry by $(docv) — \
               copying (default), marksweep or markcompact (shorthand for a \
               +strategy:$(docv) suffix on the configuration); $(b,--strategy \
               list) prints the registry and exits.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "gc-domains" ] ~docv:"N"
            ~doc:
              "Shard each collection across $(docv) domains (work-stealing \
               parallel Cheney drain); 1 = sequential collector. Overrides \
               $(b,BELTWAY_GC_DOMAINS)."))
