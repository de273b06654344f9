(* White-box tests of the collection schedule: plan shape (downward
   closure in stamp order — the soundness invariant), policy choices,
   and the reserve/plan interplay. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module State = Beltway.State
module Schedule = Beltway.Schedule
module Collector = Beltway.Collector
module Increment = Beltway.Increment

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let gc_of ?(heap_kb = 192) config_str =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(heap_kb * 1024) ()

(* Every plan, under every configuration, in every reachable state,
   must be a downward-closed prefix of the collect-stamp order — the
   property that makes the unidirectional barrier sound. *)
let downward_closure_prop =
  let configs =
    [| "ss"; "appel"; "appel3"; "fixed:25"; "ofm:25"; "of:25"; "25.25"; "25.25.100";
       "10.10.100"; "25.25.100+los:16"; "appel+cards" |]
  in
  QCheck.Test.make ~name:"plans are downward-closed in stamp order" ~count:80
    QCheck.(pair small_nat small_nat)
    (fun (seed, cfg_idx) ->
      let cs = configs.(cfg_idx mod Array.length configs) in
      let gc = gc_of cs in
      let tr = Beltway_workload.Trace.random ~seed:(seed + 1) ~nroots:8 ~len:1200 in
      (try Beltway_workload.Trace.execute gc tr
       with Gc.Out_of_memory _ -> ());
      let st = Gc.state gc in
      match Schedule.choose_plan st ~reason:Beltway.Gc_stats.Heap_full with
      | None -> true
      | Some plan ->
        let in_plan =
          let h = Hashtbl.create 16 in
          List.iter
            (fun (i : Increment.t) -> Hashtbl.replace h i.Increment.id ())
            plan.Collector.increments;
          fun (i : Increment.t) -> Hashtbl.mem h i.Increment.id
        in
        let max_stamp =
          List.fold_left
            (fun acc (i : Increment.t) -> max acc i.Increment.stamp)
            min_int plan.Collector.increments
        in
        List.for_all
          (fun (i : Increment.t) -> i.Increment.stamp > max_stamp || in_plan i)
          (State.live_increments st))

let test_appel_prefers_nursery () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  (* some survivors in the old generation, a busy nursery *)
  let g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:4 in
  Roots.set_global roots g (Value.of_addr a);
  Gc.full_collect gc;
  for _ = 1 to 2_000 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  let st = Gc.state gc in
  match Schedule.choose_plan st ~reason:Beltway.Gc_stats.Heap_full with
  | Some plan ->
    checkb "plan collects only belt 0" true
      (List.for_all
         (fun (i : Increment.t) -> i.Increment.belt = 0)
         plan.Collector.increments);
    checkb "not a full-heap plan" false plan.Collector.full_heap
  | None -> Alcotest.fail "no plan"

let test_empty_nursery_escalates () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:4 in
  Roots.set_global roots g (Value.of_addr a);
  (* empty the nursery into the old generation *)
  Gc.collect gc;
  let st = Gc.state gc in
  match Schedule.choose_plan st ~reason:Beltway.Gc_stats.Heap_full with
  | Some plan ->
    checkb "escalates to the old generation" true
      (List.exists
         (fun (i : Increment.t) -> i.Increment.belt = 1)
         plan.Collector.increments)
  | None -> Alcotest.fail "no plan"

let test_plan_none_on_empty_heap () =
  let gc = gc_of "25.25.100" in
  checkb "nothing collectible" true
    (Schedule.choose_plan (Gc.state gc) ~reason:Beltway.Gc_stats.Heap_full = None)

let test_fifo_takes_oldest () =
  let gc = gc_of "ofm:25" in
  let ty = Gc.register_type gc ~name:"t" in
  (* several increments on the single belt *)
  for _ = 1 to 30_000 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  let st = Gc.state gc in
  let front_stamp =
    match Beltway.Belt.front st.State.belts.(0) with
    | Some i -> i.Increment.stamp
    | None -> Alcotest.fail "empty belt"
  in
  match Schedule.choose_plan st ~reason:Beltway.Gc_stats.Heap_full with
  | Some { Collector.increments = [ i ]; _ } ->
    checki "the globally oldest increment" front_stamp i.Increment.stamp
  | Some _ -> Alcotest.fail "expected a single-increment plan"
  | None -> Alcotest.fail "no plan"

let test_collect_now_records_reason () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  for _ = 1 to 200 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  (match Schedule.collect_now (Gc.state gc) ~reason:Beltway.Gc_stats.Forced with
  | Some record ->
    Alcotest.(check string)
      "reason" "forced"
      (Beltway.Gc_stats.reason_to_string record.Beltway.Gc_stats.reason);
    checkb "not an emergency plan" false record.Beltway.Gc_stats.emergency
  | None -> Alcotest.fail "no collection");
  ()

(* Reserve/schedule interplay: an Appel heap's dynamic-equivalent
   behaviour — the reserve grows with both generations' occupancy. *)
let test_reserve_tracks_occupancy () =
  let gc = gc_of "100.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let r0 = Gc.reserve_frames gc in
  let keep = Array.init 300 (fun _ -> Roots.new_global roots Value.null) in
  for i = 0 to 299 do
    let a = Gc.alloc gc ~ty ~nfields:20 in
    Roots.set_global roots keep.(i) (Value.of_addr a)
  done;
  let r1 = Gc.reserve_frames gc in
  checkb "reserve grew with live data" true (r1 > r0);
  Gc.full_collect gc;
  (* after promotion, reserve ~ old occupancy + pad *)
  let st = Gc.state gc in
  let old_occ = Beltway.Belt.occupancy_frames st.State.belts.(1) in
  let r2 = Gc.reserve_frames gc in
  checkb "reserve covers evacuating the old generation" true (r2 >= old_occ)

let suite =
  [
    Prop.to_alcotest downward_closure_prop;
    ("appel prefers nursery", `Quick, test_appel_prefers_nursery);
    ("empty nursery escalates", `Quick, test_empty_nursery_escalates);
    ("no plan on empty heap", `Quick, test_plan_none_on_empty_heap);
    ("fifo takes oldest", `Quick, test_fifo_takes_oldest);
    ("collect_now records reason", `Quick, test_collect_now_records_reason);
    ("reserve tracks occupancy", `Quick, test_reserve_tracks_occupancy);
  ]
