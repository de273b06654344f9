(* Tests for the measurement layer: cost model, MMU analysis and the
   experiment runner. *)

module Cost_model = Beltway_sim.Cost_model
module Mmu = Beltway_sim.Mmu
module Runner = Beltway_sim.Runner
module Figures = Beltway_sim.Figures
module Spec = Beltway_workload.Spec
module Gc = Beltway.Gc
module Config = Beltway.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

(* Build stats with a given collection log for MMU testing. *)
let stats_with ~words collections =
  let s = Beltway.Gc_stats.create () in
  s.Beltway.Gc_stats.words_allocated <- words;
  List.iter
    (fun (clock_words, copied_words) ->
      Beltway.Gc_stats.record_collection s
        {
          Beltway.Gc_stats.n = 0;
          reason = Beltway.Gc_stats.Forced;
          emergency = false;
          clock_words;
          plan_incs = 1;
          plan_frames = 1;
          plan_words = copied_words;
          full_heap = false;
          copied_words;
          copied_objects = 1;
          scanned_slots = 0;
          remset_slots = 0;
          roots_scanned = 0;
          marked_objects = 0;
          marked_words = 0;
          swept_words = 0;
          moved_words = 0;
          freed_frames = 1;
          heap_frames_after = 1;
          reserve_frames = 1;
          start_ns = 0;
          pause_ns = 0;
          phases = [||];
          phase_ns = [||];
          belt_frames = [| 1 |];
          remset_entries = 0;
          domains = [||];
        })
    collections;
  s

(* A unit-cost model making pause arithmetic exact: mutator = 1/word,
   pause = gc_setup + copied * 1. *)
let unit_model =
  {
    Cost_model.alloc_word = 1.0;
    alloc_object = 0.0;
    barrier_filtered = 0.0;
    barrier_fast = 0.0;
    barrier_slow = 0.0;
    gc_setup = 0.0;
    gc_root = 0.0;
    gc_copy_word = 1.0;
    gc_scan_slot = 0.0;
    gc_remset_slot = 0.0;
    gc_free_frame = 0.0;
    gc_mark_word = 0.0;
    gc_sweep_word = 0.0;
    gc_move_word = 0.0;
  }

let test_cost_model_arithmetic () =
  let s = stats_with ~words:1000 [ (500, 100) ] in
  checkf "mutator" 1000.0 (Cost_model.mutator_time unit_model s);
  checkf "gc" 100.0 (Cost_model.gc_time unit_model s);
  checkf "total" 1100.0 (Cost_model.total_time unit_model s)

let test_cost_model_default_positive () =
  let s = stats_with ~words:1000 [ (500, 100) ] in
  checkb "all components positive" true
    (Cost_model.mutator_time Cost_model.default s > 0.0
    && Cost_model.gc_time Cost_model.default s > 0.0)

let test_mmu_no_pauses () =
  let tl = Mmu.timeline unit_model (stats_with ~words:1000 []) in
  checkf "utilization 1" 1.0 (Mmu.utilization tl);
  checkf "mmu = 1 everywhere" 1.0 (Mmu.mmu tl ~window:10.0);
  checkf "max pause 0" 0.0 (Mmu.max_pause tl)

let test_mmu_single_pause () =
  (* 1000 units of mutator with a 100-unit pause at t=500 *)
  let tl = Mmu.timeline unit_model (stats_with ~words:1000 [ (500, 100) ]) in
  checkf "total" 1100.0 (Mmu.total_time tl);
  checkf "max pause" 100.0 (Mmu.max_pause tl);
  checkf "mmu at window=pause" 0.0 (Mmu.mmu tl ~window:100.0);
  checkf "mmu at window 200" 0.5 (Mmu.mmu tl ~window:200.0);
  checkf "mmu at window 400" 0.75 (Mmu.mmu tl ~window:400.0);
  checkf "asymptote" (1000.0 /. 1100.0) (Mmu.mmu tl ~window:1e9)

let test_mmu_clustered_pauses () =
  (* two 50-unit pauses separated by 10 units of mutator: a 110-window
     covering both has utilization 10/110 *)
  let tl = Mmu.timeline unit_model (stats_with ~words:1000 [ (500, 50); (510, 50) ]) in
  checkf "clustered window" (10.0 /. 110.0) (Mmu.mmu tl ~window:110.0);
  checki "pauses" 2 (Mmu.pause_count tl)

let mmu_monotone_prop =
  QCheck.Test.make ~name:"MMU is monotone in the window" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 1 999) (int_range 1 200)))
    (fun pauses ->
      let tl = Mmu.timeline unit_model (stats_with ~words:1000 pauses) in
      let windows = [ 10.0; 50.0; 100.0; 500.0; 2000.0 ] in
      let values = List.map (fun w -> Mmu.mmu tl ~window:w) windows in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono values)

let test_runner_ladder () =
  let mults = Runner.multipliers ~full:false in
  checki "9 points" 9 (List.length mults);
  checkf "starts at 1" 1.0 (List.hd mults);
  checkf "ends at 3" 3.0 (List.nth mults 8);
  checki "33 points full" 33 (List.length (Runner.multipliers ~full:true));
  let ladder = Runner.heap_ladder ~min_frames:100 ~mults in
  checki "ladder base" 100 (List.hd ladder);
  checki "ladder top" 300 (List.nth ladder 8)

let test_runner_min_heap () =
  (* the minimum heap must complete and one frame less must not *)
  let b = Spec.raytrace in
  let mh = Runner.min_heap_frames b in
  let completes frames =
    (Runner.run_one ~bench:b ~config:Config.appel ~heap_frames:frames ()).Runner.completed
  in
  checkb "min completes" true (completes mh);
  checkb "min-1 fails" false (completes (mh - 1))

let test_runner_oom_reported () =
  let r =
    Runner.run_one ~bench:Spec.jess ~config:Config.appel ~heap_frames:8 ()
  in
  checkb "not completed" false r.Runner.completed;
  checkb "reason given" true (r.Runner.oom_reason <> None)

(* ---- Pool ---- *)

module Pool = Beltway_sim.Pool

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_map_order () =
  with_pool 4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map ~pool:p (fun x -> x * x) xs));
  with_pool 1 (fun p ->
      Alcotest.(check (list int))
        "sequential pool" [ 2; 4 ]
        (Pool.map ~pool:p (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_exception () =
  with_pool 4 (fun p ->
      Alcotest.check_raises "worker exception propagates"
        (Failure "task 7") (fun () ->
          ignore
            (Pool.map ~pool:p
               (fun x -> if x = 7 then failwith "task 7" else x)
               (List.init 16 Fun.id))))

let test_pool_nested_map () =
  (* a task that itself calls Pool.map must not deadlock: nested maps
     run sequentially in the worker *)
  with_pool 2 (fun p ->
      let r =
        Pool.map ~pool:p
          (fun x -> List.fold_left ( + ) 0 (Pool.map ~pool:p (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 10 ]
      in
      Alcotest.(check (list int)) "nested" [ 6; 60 ] r)

(* The tentpole determinism guarantee: an evaluation sweep produces
   byte-identical tables at any job count. *)
let test_pool_sweep_deterministic () =
  let table_of results =
    let t =
      Beltway_util.Table.create ~title:"sweep"
        ~columns:[ "heap"; "completed"; "total" ]
    in
    List.iter
      (fun (r : Runner.result) ->
        Beltway_util.Table.add_row t
          [
            string_of_int r.Runner.heap_frames;
            string_of_bool r.Runner.completed;
            Printf.sprintf "%.6f" r.Runner.total_time;
          ])
      results;
    Beltway_util.Table.to_csv t
  in
  let heaps = [ 40; 60; 80; 120 ] in
  let run jobs =
    with_pool jobs (fun p ->
        table_of
          (Runner.sweep ~pool:p ~bench:Spec.raytrace ~config:Config.appel
             ~heaps ()))
  in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" (run 1) (run 4)

let test_figures_ids () =
  checki "13 artifacts" 13 (List.length Figures.all_ids);
  checkb "unknown id rejected" true
    (try
       Figures.run ~id:"fig99" ~full:false;
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ("cost model arithmetic", `Quick, test_cost_model_arithmetic);
    ("cost model default", `Quick, test_cost_model_default_positive);
    ("mmu no pauses", `Quick, test_mmu_no_pauses);
    ("mmu single pause", `Quick, test_mmu_single_pause);
    ("mmu clustered pauses", `Quick, test_mmu_clustered_pauses);
    Prop.to_alcotest mmu_monotone_prop;
    ("runner ladder", `Quick, test_runner_ladder);
    ("runner min heap", `Slow, test_runner_min_heap);
    ("runner OOM reported", `Quick, test_runner_oom_reported);
    ("pool map order", `Quick, test_pool_map_order);
    ("pool exception", `Quick, test_pool_exception);
    ("pool nested map", `Quick, test_pool_nested_map);
    ("pool sweep deterministic", `Slow, test_pool_sweep_deterministic);
    ("figure ids", `Quick, test_figures_ids);
  ]
