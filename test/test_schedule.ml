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

(* ---- Free-list fallback vs a reference linear walk ---- *)

(* Whether [inc] has room for [size] words, decided from the flat free
   list and the bump tail alone, with no index or cache to trust. *)
let ref_room (inc : Increment.t) ~size =
  let fl = inc.Increment.free_list in
  let hole = ref false in
  let i = ref 1 in
  while (not !hole) && !i < Beltway_util.Vec.length fl do
    let w = Beltway_util.Vec.get fl !i in
    hole := w = size || w >= size + Object_model.header_words;
    i := !i + 2
  done;
  (not inc.Increment.sealed)
  && (!hole
     || (inc.Increment.cursor <> Addr.null
        && inc.Increment.cursor + size <= inc.Increment.limit))

(* The increment a mark-sweep allocation must land in: the nursery when
   it has room, else — once no whole frame is left — the first
   unsealed, unpinned increment with room in [State.live_increments]
   order. [`Cascade] when neither applies and the trigger cascade
   decides. *)
let ref_choice st ~size =
  let nur = Schedule.nursery st in
  if ref_room nur ~size then `Into nur
  else if State.free_frames st > 0 then `Cascade
  else
    match
      List.find_opt
        (fun (i : Increment.t) -> (not i.Increment.pinned) && ref_room i ~size)
        (State.live_increments st)
    with
    | Some i -> `Into i
    | None -> `Collect

(* A random mark-sweep mutator at a tight heap: objects of 0–30 fields
   into 400 root slots, so survivors scatter over every frame and the
   heap runs out of whole frames; a field store now and then, roots
   dropped at random. Before every allocation the reference choice is computed
   (after [Schedule.nursery], which may open an increment or flip the
   belts first, exactly as the allocation itself would); the object
   must land in that increment with no collection, or — when no
   increment has room — a collection must run. Returns how many
   allocations the fallback placed outside the nursery. *)
let fallback_run ~config ~seed =
  let gc = gc_of ~heap_kb:64 config in
  let st = Gc.state gc in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let slots = Array.init 400 (fun _ -> Roots.new_global roots Value.null) in
  let rng = Random.State.make [| seed |] in
  let fallback = ref 0 in
  (try
     for step = 1 to 10_000 do
       let nfields =
         if Random.State.int rng 8 = 0 then Random.State.int rng 31
         else Random.State.int rng 6
       in
       let size = Object_model.size_words ~nfields in
       let choice = ref_choice st ~size in
       let gcs = Beltway.Gc_stats.gcs (Gc.stats gc) in
       let a = Gc.alloc gc ~ty ~nfields in
       let collected = Beltway.Gc_stats.gcs (Gc.stats gc) > gcs in
       let got = State.inc_of_frame st (Memory.addr_frame st.State.mem a) in
       (match choice with
       | `Into (want : Increment.t) ->
         if collected then
           QCheck.Test.fail_reportf "%s seed %d step %d: collected with room in increment %d"
             config seed step want.Increment.id;
         (match got with
         | Some (g : Increment.t) when g == want -> ()
         | Some g ->
           QCheck.Test.fail_reportf
             "%s seed %d step %d: %d words placed in increment %d, reference %d" config
             seed step size g.Increment.id want.Increment.id
         | None -> QCheck.Test.fail_reportf "%s seed %d step %d: unowned frame" config seed step);
         if want != Schedule.nursery st then incr fallback
       | `Collect ->
         if not collected then
           QCheck.Test.fail_reportf
             "%s seed %d step %d: no increment has room for %d words, yet no collection"
             config seed step size
       | `Cascade -> ());
       let slot = slots.(Random.State.int rng (Array.length slots)) in
       (match Roots.get_global roots slot with
       | v when Value.is_ref v && nfields > 0 && Random.State.bool rng ->
         Gc.write gc a 0 v
       | _ -> ());
       Roots.set_global roots slot (Value.of_addr a);
       if Random.State.int rng 4 = 0 then
         Roots.set_global roots slots.(Random.State.int rng (Array.length slots)) Value.null
     done
   with Gc.Out_of_memory _ -> ());
  !fallback

(* Two generational belt layouts; a policy that reorders belts (BOF
   flips its two belts at every nursery refresh); and older-first on
   one belt, whose collections often free no frame and open no
   increment, so only the collection itself can invalidate the
   fallback's snapshot. *)
let fallback_configs =
  [|
    "25.25.100+strategy:marksweep";
    "appel+strategy:marksweep";
    "of:25+strategy:marksweep";
    "ofm:25+strategy:marksweep";
  |]

let fallback_prop =
  QCheck.Test.make ~name:"free-list fallback == reference linear walk" ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, cfg_idx) ->
      let config = fallback_configs.(cfg_idx mod Array.length fallback_configs) in
      ignore (fallback_run ~config ~seed);
      true)

(* The property above proves nothing if its runs never leave the
   nursery: each configuration must place allocations through the
   fallback (seed 1 places 60 under older-first, over 6,000 under the
   others). *)
let test_fallback_reached () =
  Array.iter
    (fun config ->
      let n = fallback_run ~config ~seed:1 in
      checkb (Printf.sprintf "%s: %d fallback placements" config n) true (n >= 25))
    fallback_configs

let suite =
  [
    Prop.to_alcotest downward_closure_prop;
    Prop.to_alcotest fallback_prop;
    ("free-list fallback is reached", `Quick, test_fallback_reached);
    ("appel prefers nursery", `Quick, test_appel_prefers_nursery);
    ("empty nursery escalates", `Quick, test_empty_nursery_escalates);
    ("no plan on empty heap", `Quick, test_plan_none_on_empty_heap);
    ("fifo takes oldest", `Quick, test_fifo_takes_oldest);
    ("collect_now records reason", `Quick, test_collect_now_records_reason);
    ("reserve tracks occupancy", `Quick, test_reserve_tracks_occupancy);
  ]
