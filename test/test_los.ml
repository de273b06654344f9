(* Tests for the large object space extension: objects at or above the
   configured threshold live as pinned single-object increments on a
   dedicated top belt — never copied, traced in place, reclaimed whole
   when a plan reaches them unreachable. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module State = Beltway.State

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* frame_log_words 8 = 256-word frames, so a 300-field object spans
   two frames. *)
let gc_of ?(heap_kb = 256) config_str =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(heap_kb * 1024) ()

let test_threshold_routing () =
  let gc = gc_of "appel+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let st = Gc.state gc in
  let small = Gc.alloc gc ~ty ~nfields:10 in
  let big = Gc.alloc gc ~ty ~nfields:200 in
  let inc_of a = Option.get (State.inc_of_frame st (State.frame_of_addr st a)) in
  checkb "small object not pinned" false (inc_of small).Beltway.Increment.pinned;
  checkb "big object pinned" true (inc_of big).Beltway.Increment.pinned;
  checki "pinned on the LOS belt" (Option.get (State.los_belt st))
    (inc_of big).Beltway.Increment.belt

let test_multi_frame_object () =
  let gc = gc_of "appel+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  (* 600 fields = 602 words: three 256-word frames *)
  let big = Gc.alloc gc ~ty ~nfields:600 in
  let g = Roots.new_global roots (Value.of_addr big) in
  for i = 0 to 599 do
    Gc.write gc big i (Value.of_int (i * 3))
  done;
  Gc.full_collect gc;
  let big = Value.to_addr (Roots.get_global roots g) in
  checki "600 fields" 600 (Gc.nfields gc big);
  let ok = ref true in
  for i = 0 to 599 do
    if Value.to_int (Gc.read gc big i) <> i * 3 then ok := false
  done;
  checkb "contents intact across frame seams" true !ok

let test_pinned_never_moves () =
  let gc = gc_of "ss+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let big = Gc.alloc gc ~ty ~nfields:300 in
  let g = Roots.new_global roots (Value.of_addr big) in
  let small = Gc.alloc gc ~ty ~nfields:2 in
  let gs = Roots.new_global roots (Value.of_addr small) in
  Gc.full_collect gc;
  checki "large object did not move" big (Value.to_addr (Roots.get_global roots g));
  checkb "small object moved" true
    (small <> Value.to_addr (Roots.get_global roots gs))

let test_unreachable_large_reclaimed () =
  let gc = gc_of "appel+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let big = Gc.alloc gc ~ty ~nfields:400 in
  let g = Roots.new_global roots (Value.of_addr big) in
  let used_with = Gc.frames_used gc in
  Roots.set_global roots g Value.null;
  Gc.full_collect gc;
  checkb "frames returned" true (Gc.frames_used gc < used_with);
  checki "nothing retained" 0 (Beltway.Oracle.retained_garbage_words gc)

let test_large_to_young_pointers () =
  let gc = gc_of "25.25.100+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let big = Gc.alloc gc ~ty ~nfields:200 in
  let g = Roots.new_global roots (Value.of_addr big) in
  (* store young refs into the old large object, then churn *)
  for round = 1 to 50 do
    let young = Gc.alloc gc ~ty ~nfields:4 in
    Gc.write gc young 0 (Value.of_int round);
    let big = Value.to_addr (Roots.get_global roots g) in
    Gc.write gc big (round mod 200) (Value.of_addr young);
    for _ = 1 to 200 do
      ignore (Gc.alloc gc ~ty ~nfields:6)
    done
  done;
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e);
  (* the young objects stored into the large object must be live *)
  let big = Value.to_addr (Roots.get_global roots g) in
  let v = Gc.read gc big 50 in
  checkb "field 50 holds a live young object" true
    (Value.is_ref v && Value.to_int (Gc.read gc (Value.to_addr v) 0) = 50)

let test_large_holds_structure_live () =
  let gc = gc_of "appel+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let big = Gc.alloc gc ~ty ~nfields:150 in
  let g = Roots.new_global roots (Value.of_addr big) in
  let child = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc child 0 (Value.of_int 777);
  Gc.write gc (Value.to_addr (Roots.get_global roots g)) 0 (Value.of_addr child);
  Gc.full_collect gc;
  Gc.full_collect gc;
  let big = Value.to_addr (Roots.get_global roots g) in
  let child = Value.to_addr (Gc.read gc big 0) in
  checki "child survived through the pinned parent" 777
    (Value.to_int (Gc.read gc child 0))

let test_large_cycle_between_los_objects () =
  let gc = gc_of "appel+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:150 in
  let ga = Roots.new_global roots (Value.of_addr a) in
  let b = Gc.alloc gc ~ty ~nfields:150 in
  (* a <-> b cycle; only a rooted *)
  Gc.write gc b 0 (Roots.get_global roots ga);
  Gc.write gc (Value.to_addr (Roots.get_global roots ga)) 0 (Value.of_addr b);
  Gc.full_collect gc;
  checki "LOS-to-LOS edge keeps both alive" 0
    (Beltway.Oracle.retained_garbage_words gc);
  (* drop the root: the whole cycle must go at the next full collection *)
  Roots.set_global roots ga Value.null;
  Gc.full_collect gc;
  checki "LOS cycle reclaimed" 0 (Gc.live_words_upper_bound gc)

let test_too_large_for_heap () =
  let gc = gc_of ~heap_kb:16 "appel+los:64" in
  let ty = Gc.register_type gc ~name:"t" in
  checkb "impossible large object raises" true
    (try
       ignore (Gc.alloc gc ~ty ~nfields:20_000);
       false
     with Gc.Out_of_memory _ -> true)

(* The memory's range is fixed at the budget plus the boot allowance:
   a large object that fits the budget but finds no contiguous run in
   a range fragmented by pinned survivors is an Out_of_memory naming
   the request and the range, and leaves a sound, usable heap. *)
let test_fragmented_range () =
  let gc = gc_of "25.25.100+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let mem = (Gc.state gc).State.mem in
  (* one-frame large objects (202 words) until the heap refuses one,
     then every other one dropped: the free frames alternate with
     pinned survivors up to the fresh mark *)
  let rec fill acc =
    match Gc.alloc gc ~ty ~nfields:200 with
    | a -> fill (Roots.new_global roots (Value.of_addr a) :: acc)
    | exception Gc.Out_of_memory _ -> acc
  in
  List.iteri
    (fun i g -> if i mod 2 = 0 then Roots.set_global roots g Value.null)
    (fill []);
  Gc.full_collect gc;
  let range = Memory.max_frames mem in
  checki "range is budget + boot allowance"
    (Gc.heap_frames gc + Boot_space.max_frames) range;
  (* the smallest run that the never-used indices cannot hold *)
  let k = range - Memory.fresh_frames mem + 2 in
  checkb "the budget has room for the run" true
    (Gc.frames_used gc + k <= Gc.heap_frames gc);
  let words = k * Memory.frame_words mem in
  let msg =
    match Gc.alloc gc ~ty ~nfields:(words - Object_model.header_words) with
    | _ -> Alcotest.failf "a %d-frame run was placed in a fragmented range" k
    | exception Gc.Out_of_memory m -> m
  in
  Alcotest.(check string) "message"
    (Printf.sprintf
       "large object of %d words: no run of %d contiguous free frames in frames [1, %d]"
       words k range)
    msg;
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity after the refusal: %s" e);
  (* still usable: a run that does fit, and a collection *)
  ignore (Gc.alloc gc ~ty ~nfields:200);
  Gc.full_collect gc;
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity after reuse: %s" e

let test_trace_differential_with_los () =
  (* random traces with a tiny threshold so some allocations are large *)
  List.iter
    (fun cs ->
      for seed = 1 to 8 do
        let tr = Beltway_workload.Trace.random ~seed ~nroots:8 ~len:1500 in
        let gc = gc_of cs in
        (match Beltway_workload.Trace.compare_with_mirror gc tr with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d under %s: %s" seed cs e);
        match Beltway.Verify.check gc with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d under %s: integrity: %s" seed cs e
      done)
    [ "appel+los:8"; "25.25.100+los:8"; "ss+los:8"; "of:25+los:8" ]

let test_los_benchmark_run () =
  (* a full synthetic benchmark with the LOS enabled stays sound *)
  let config = Result.get_ok (Config.parse "25.25.100+los:64") in
  let gc = Gc.create ~frame_log_words:8 ~config ~heap_bytes:(2048 * 1024) () in
  Beltway_workload.Spec.jess.Beltway_workload.Spec.run gc;
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let test_parse_and_validate () =
  checkb "parse" true (Result.is_ok (Config.parse "appel+los:256"));
  checkb "threshold >= 2" true (Result.is_error (Config.parse "appel+los:1"))

let suite =
  [
    ("threshold routing", `Quick, test_threshold_routing);
    ("multi-frame object", `Quick, test_multi_frame_object);
    ("pinned never moves", `Quick, test_pinned_never_moves);
    ("unreachable large reclaimed", `Quick, test_unreachable_large_reclaimed);
    ("large-to-young pointers", `Quick, test_large_to_young_pointers);
    ("large holds structure live", `Quick, test_large_holds_structure_live);
    ("LOS-to-LOS cycle", `Quick, test_large_cycle_between_los_objects);
    ("too large for heap", `Quick, test_too_large_for_heap);
    ("fragmented range", `Quick, test_fragmented_range);
    ("trace differential with LOS", `Quick, test_trace_differential_with_los);
    ("benchmark with LOS", `Slow, test_los_benchmark_run);
    ("parse and validate", `Quick, test_parse_and_validate);
  ]
