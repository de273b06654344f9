let log_src = Logs.Src.create "beltway.runner" ~doc:"Beltway experiment runner"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  bench : string;
  config : string;
  heap_frames : int;
  heap_bytes : int;
  completed : bool;
  oom_reason : string option;
  stats : Beltway.Gc_stats.t;
  gc_time : float;
  mutator_time : float;
  total_time : float;
}

let frame_log_words = 10
let frame_bytes = (1 lsl frame_log_words) * Addr.bytes_per_word

let run_on gc ~model ~bench ~config ~heap_frames =
  let completed, oom_reason =
    try
      bench.Beltway_workload.Spec.run gc;
      (true, None)
    with Beltway.Gc.Out_of_memory m -> (false, Some m)
  in
  let stats = Beltway.Gc.stats gc in
  {
    bench = bench.Beltway_workload.Spec.name;
    config = Config.to_string config;
    heap_frames;
    heap_bytes = heap_frames * frame_bytes;
    completed;
    oom_reason;
    stats;
    gc_time = Cost_model.gc_time model stats;
    mutator_time = Cost_model.mutator_time model stats;
    total_time = Cost_model.total_time model stats;
  }

let make_gc ?gc_domains ~config ~heap_frames () =
  Beltway.Gc.create ~frame_log_words ?gc_domains ~config
    ~heap_bytes:(heap_frames * frame_bytes) ()

let run_one ?(model = Cost_model.default) ?gc_domains ~bench ~config
    ~heap_frames () =
  run_on
    (make_gc ?gc_domains ~config ~heap_frames ())
    ~model ~bench ~config ~heap_frames

let run_traced ?(model = Cost_model.default) ?capacity ?gc_domains ~bench
    ~config ~heap_frames () =
  let gc = make_gc ?gc_domains ~config ~heap_frames () in
  let recorder = Beltway_obs.Recorder.attach ?capacity gc in
  let result = run_on gc ~model ~bench ~config ~heap_frames in
  Beltway_obs.Recorder.detach recorder;
  (result, recorder)

let run_profiled ?(model = Cost_model.default) ?gc_domains ~bench ~config
    ~heap_frames () =
  let gc = make_gc ?gc_domains ~config ~heap_frames () in
  let profiler = Beltway_obs.Profiler.attach gc in
  let result = run_on gc ~model ~bench ~config ~heap_frames in
  Beltway_obs.Profiler.detach profiler;
  (result, profiler)

let crosscheck_mmu ?(model = Cost_model.default) result =
  let tl = Mmu.timeline model result.stats in
  Mmu.crosscheck tl
    ~recorded_durs:
      (Array.map
         (fun c -> float_of_int c.Gc_stats.pause_ns)
         (Beltway_util.Vec.to_array result.stats.Gc_stats.collections))

(* The memo is only ever touched from the submitting domain: pool
   tasks run the search below and results are recorded on return. *)
let memo : (string * string, int) Hashtbl.t = Hashtbl.create 16

let min_heap_key bench config =
  (bench.Beltway_workload.Spec.name, Config.to_string config)

(* The raw binary search, deterministic per (benchmark, config) and
   free of shared state, so it can run on any domain. *)
let min_heap_search ~config bench =
  let completes frames =
    (run_one ~bench ~config ~heap_frames:frames ()).completed
  in
  (* Grow an upper bound from the hint, then binary search. *)
  let hi = ref (max 8 bench.Beltway_workload.Spec.min_heap_hint_frames) in
  while not (completes !hi) do
    hi := !hi * 2;
    if !hi > 1 lsl 22 then
      failwith
        (Printf.sprintf "min_heap_frames: %s/%s does not complete even at %d frames"
           bench.Beltway_workload.Spec.name (Config.to_string config) !hi)
  done;
  let lo = ref (max 4 (!hi / 16)) in
  (* Ensure lo fails (or accept lo). *)
  if completes !lo then hi := !lo
  else begin
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if completes mid then hi := mid else lo := mid
    done
  end;
  !hi

let record_min_heap bench config mh =
  Log.info (fun m ->
      m "min heap for %s under %s: %d frames (%d KB)"
        bench.Beltway_workload.Spec.name (Config.to_string config) mh
        (mh * frame_bytes / 1024));
  Hashtbl.replace memo (min_heap_key bench config) mh

let min_heap_frames ?(config = Config.appel) bench =
  match Hashtbl.find_opt memo (min_heap_key bench config) with
  | Some v -> v
  | None ->
    let mh = min_heap_search ~config bench in
    record_min_heap bench config mh;
    mh

let prewarm_min_heaps ?(config = Config.appel) benches =
  let todo =
    List.filter
      (fun b -> not (Hashtbl.mem memo (min_heap_key b config)))
      benches
  in
  let found = Pool.map (min_heap_search ~config) todo in
  List.iter2 (fun b mh -> record_min_heap b config mh) todo found

let multipliers ~full =
  let n = if full then 33 else 9 in
  let ratio = 3.0 in
  List.init n (fun i ->
      let f = float_of_int i /. float_of_int (n - 1) in
      Float.pow ratio f)

let heap_ladder ~min_frames ~mults =
  List.map (fun m -> max 4 (int_of_float (Float.round (float_of_int min_frames *. m)))) mults

let sweep ?model ?pool ?gc_domains ~bench ~config ~heaps () =
  Pool.map ?pool
    (fun heap_frames -> run_one ?model ?gc_domains ~bench ~config ~heap_frames ())
    heaps
