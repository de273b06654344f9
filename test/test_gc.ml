(* End-to-end collector tests: survival, moving, completeness,
   triggers, OOM behaviour and heap integrity under every
   configuration. *)

module Gc = Beltway.Gc
module Config = Beltway.Config

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let all_configs =
  [
    "ss"; "appel"; "appel3"; "100.100"; "fixed:25"; "ofm:25"; "of:25";
    "25.25"; "25.25.100"; "10.10.100"; "50.50.100"; "appel+ttd:4";
    "25.25.100+remtrig:3000"; "25.25.100+nofilter";
  ]

let gc_of ?(heap_kb = 256) config_str =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(heap_kb * 1024) ()

(* Build a linked list keeping every [keep]th cell, return kept count. *)
let build_list gc ty ~cells ~keep =
  let roots = Gc.roots gc in
  let head = Roots.new_global roots Value.null in
  for i = 1 to cells do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc a 0 (Value.of_int i);
    if i mod keep = 0 then begin
      Gc.write gc a 1 (Roots.get_global roots head);
      Roots.set_global roots head (Value.of_addr a)
    end
  done;
  head

let list_contents gc head =
  let roots = Gc.roots gc in
  let rec go v acc =
    if Value.is_null v then List.rev acc
    else begin
      let a = Value.to_addr v in
      go (Gc.read gc a 1) (Value.to_int (Gc.read gc a 0) :: acc)
    end
  in
  go (Roots.get_global roots head) []

let test_survival config_str () =
  let gc = gc_of config_str in
  let ty = Gc.register_type gc ~name:"cons" in
  let head = build_list gc ty ~cells:30_000 ~keep:100 in
  checkb "collected at least once" true (Beltway.Gc_stats.gcs (Gc.stats gc) > 0);
  let expected = List.init 300 (fun i -> (300 - i) * 100) in
  Alcotest.(check (list int)) "list contents exact after collections" expected
    (list_contents gc head);
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e);
  checki "oracle live = 300 cells" (300 * 4) (Beltway.Oracle.live_words gc)

let test_objects_move () =
  let gc = gc_of "ss" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:1 in
  let g = Roots.new_global roots (Value.of_addr a) in
  Gc.write gc a 0 (Value.of_int 123);
  Gc.collect gc;
  let a' = Value.to_addr (Roots.get_global roots g) in
  checkb "address changed" true (a <> a');
  checki "contents preserved" 123 (Value.to_int (Gc.read gc a' 0))

let test_forced_collections () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let head = build_list gc ty ~cells:2_000 ~keep:10 in
  let before = Beltway.Gc_stats.gcs (Gc.stats gc) in
  Gc.full_collect gc;
  checki "one more collection" (before + 1) (Beltway.Gc_stats.gcs (Gc.stats gc));
  checki "still 200 cells" 200 (List.length (list_contents gc head));
  (* everything must be compacted: occupancy == live after full GC *)
  checki "no floating garbage after full collection" 0
    (Beltway.Oracle.retained_garbage_words gc)

let test_empty_heap_collect () =
  let gc = gc_of "appel" in
  Gc.collect gc;
  Gc.full_collect gc;
  checki "no-op on empty heap" 0 (Beltway.Gc_stats.gcs (Gc.stats gc))

let test_type_recovery () =
  let gc = gc_of "appel" in
  let t1 = Gc.register_type gc ~name:"alpha" in
  let t2 = Gc.register_type gc ~name:"beta" in
  let a = Gc.alloc gc ~ty:t1 ~nfields:1 in
  let b = Gc.alloc gc ~ty:t2 ~nfields:1 in
  Alcotest.(check (option int)) "alpha" (Some t1) (Gc.type_of gc a);
  Alcotest.(check (option int)) "beta" (Some t2) (Gc.type_of gc b)

let test_type_survives_collection () =
  let gc = gc_of "ss" in
  let ty = Gc.register_type gc ~name:"gamma" in
  let roots = Gc.roots gc in
  let g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:1 in
  Roots.set_global roots g (Value.of_addr a);
  Gc.collect gc;
  Alcotest.(check (option int)) "tib survives the move" (Some ty)
    (Gc.type_of gc (Value.to_addr (Roots.get_global roots g)))

let test_oom_too_small () =
  let gc = gc_of ~heap_kb:16 "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let head = Roots.new_global roots Value.null in
  checkb "live data beyond heap raises" true
    (try
       (* every cell is kept alive: live set grows past the heap *)
       for _ = 1 to 100_000 do
         let a = Gc.alloc gc ~ty ~nfields:2 in
         Gc.write gc a 1 (Roots.get_global roots head);
         Roots.set_global roots head (Value.of_addr a)
       done;
       false
     with Gc.Out_of_memory _ -> true)

let test_oversized_alloc_rejected () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  checkb "larger than a frame" true
    (try
       ignore (Gc.alloc gc ~ty ~nfields:100_000);
       false
     with Invalid_argument _ -> true)

let test_negative_fields_rejected () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  Alcotest.check_raises "negative" (Invalid_argument "Gc.alloc: negative field count")
    (fun () -> ignore (Gc.alloc gc ~ty ~nfields:(-1)))

(* Completeness: a dropped cyclic ring spanning increments. *)
let build_cycle gc ty n =
  let roots = Gc.roots gc in
  let first = Roots.new_global roots Value.null in
  let prev = Roots.new_global roots Value.null in
  for _ = 1 to n do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    (match Roots.get_global roots prev with
    | v when Value.is_null v -> Roots.set_global roots first (Value.of_addr a)
    | v -> Gc.write gc (Value.to_addr v) 1 (Value.of_addr a))
    ;
    Roots.set_global roots prev (Value.of_addr a)
  done;
  let last = Roots.get_global roots prev in
  Gc.write gc (Value.to_addr last) 1 (Roots.get_global roots first);
  Roots.set_global roots prev Value.null;
  first

let churn gc ty words =
  let start = Gc.words_allocated gc in
  while Gc.words_allocated gc - start < words do
    ignore (Gc.alloc gc ~ty ~nfields:6)
  done

let test_incomplete_retains_cycles () =
  let gc = gc_of ~heap_kb:512 "25.25" in
  let ty = Gc.register_type gc ~name:"t" in
  let ring = build_cycle gc ty 2_000 in
  churn gc ty 60_000 (* promote the ring across increments *);
  Roots.set_global (Gc.roots gc) ring Value.null;
  churn gc ty 200_000;
  checkb "cycle never reclaimed by 25.25" true
    (Beltway.Oracle.retained_garbage_words gc >= 2_000 * 4)

let test_complete_reclaims_cycles () =
  let gc = gc_of ~heap_kb:512 "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let ring = build_cycle gc ty 2_000 in
  churn gc ty 60_000;
  Roots.set_global (Gc.roots gc) ring Value.null;
  Gc.full_collect gc;
  checki "cycle reclaimed by the complete configuration" 0
    (Beltway.Oracle.retained_garbage_words gc)

let test_remset_trigger_fires () =
  let gc = gc_of "25.25.100+remtrig:500" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  (* park an old object, then hammer old->young stores *)
  let old_g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  Roots.set_global roots old_g (Value.of_addr a);
  Gc.full_collect gc (* make it old *);
  let saw_remset_reason = ref false in
  (try
     for _ = 1 to 200_000 do
       let young = Gc.alloc gc ~ty ~nfields:2 in
       let old_addr = Value.to_addr (Roots.get_global roots old_g) in
       Gc.write gc old_addr 0 (Value.of_addr young);
       let st = Gc.stats gc in
       let n = Beltway_util.Vec.length st.Beltway.Gc_stats.collections in
       if
         n > 0
         && (Beltway_util.Vec.get st.Beltway.Gc_stats.collections (n - 1))
              .Beltway.Gc_stats.reason = Beltway.Gc_stats.Remset
       then begin
         saw_remset_reason := true;
         raise Exit
       end
     done
   with Exit -> ());
  checkb "a remset-triggered collection happened" true !saw_remset_reason

let test_ttd_splits_nursery () =
  let gc = gc_of ~heap_kb:128 "appel+ttd:16" in
  let ty = Gc.register_type gc ~name:"t" in
  let st = Gc.state gc in
  let saw_two = ref false in
  for _ = 1 to 60_000 do
    ignore (Gc.alloc gc ~ty ~nfields:4);
    if Beltway.Belt.length st.Beltway.State.belts.(0) >= 2 then saw_two := true
  done;
  checkb "time-to-die opened a second nursery increment" true !saw_two

let test_bof_flips () =
  let gc = gc_of ~heap_kb:128 "of:25" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  (* survivors are needed: with pure garbage the copy belt stays empty
     and flipping is (correctly) never required *)
  let ring = Array.init 400 (fun _ -> Roots.new_global roots Value.null) in
  for i = 1 to 160_000 do
    let a = Gc.alloc gc ~ty ~nfields:4 in
    if i mod 50 = 0 then Roots.set_global roots ring.(i / 50 mod 400) (Value.of_addr a)
  done;
  let st = Gc.state gc in
  checkb "epoch advanced (belts flipped)" true (st.Beltway.State.epoch > 0);
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let test_counters_accumulate () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  for _ = 1 to 100 do
    ignore (Gc.alloc gc ~ty ~nfields:3)
  done;
  let st = Gc.stats gc in
  checki "objects" 100 st.Beltway.Gc_stats.objects_allocated;
  checki "words" 500 st.Beltway.Gc_stats.words_allocated;
  checki "bytes" 2000 (Gc.bytes_allocated gc);
  checki "barrier per alloc (tib)" 100 st.Beltway.Gc_stats.barrier_ops

(* Deep structure across many collections: a binary tree built with the
   shadow stack, verified node-by-node afterwards. *)
let test_deep_tree config_str () =
  let gc = gc_of config_str in
  let ty = Gc.register_type gc ~name:"node" in
  let roots = Gc.roots gc in
  let rec build depth =
    (* returns a rooted value on top of the shadow stack *)
    if depth = 0 then Roots.push roots Value.null
    else begin
      build (depth - 1);
      build (depth - 1);
      let n = Gc.alloc gc ~ty ~nfields:3 in
      Gc.write gc n 2 (Value.of_int depth);
      let right = Roots.pop roots in
      let left = Roots.pop roots in
      Gc.write gc n 0 left;
      Gc.write gc n 1 right;
      Roots.push roots (Value.of_addr n)
    end
  in
  (* interleave: build a tree, churn garbage, build another *)
  build 10;
  for _ = 1 to 20_000 do
    ignore (Gc.alloc gc ~ty ~nfields:2)
  done;
  build 10;
  let rec check_tree v depth =
    if depth = 0 then checkb "leaf" true (Value.is_null v)
    else begin
      let a = Value.to_addr v in
      checki "depth tag" depth (Value.to_int (Gc.read gc a 2));
      check_tree (Gc.read gc a 0) (depth - 1);
      check_tree (Gc.read gc a 1) (depth - 1)
    end
  in
  check_tree (Roots.pop roots) 10;
  check_tree (Roots.pop roots) 10;
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let suite =
  List.map
    (fun cs -> ("survival under " ^ cs, `Quick, test_survival cs))
    all_configs
  @ List.map
      (fun cs -> ("deep tree under " ^ cs, `Quick, test_deep_tree cs))
      [ "ss"; "appel"; "of:25"; "ofm:25"; "25.25.100"; "10.10.100" ]
  @ [
      ("objects move", `Quick, test_objects_move);
      ("forced collections", `Quick, test_forced_collections);
      ("empty heap collect", `Quick, test_empty_heap_collect);
      ("type recovery", `Quick, test_type_recovery);
      ("type survives collection", `Quick, test_type_survives_collection);
      ("OOM when live exceeds heap", `Quick, test_oom_too_small);
      ("oversized alloc rejected", `Quick, test_oversized_alloc_rejected);
      ("negative fields rejected", `Quick, test_negative_fields_rejected);
      ("25.25 retains cycles", `Quick, test_incomplete_retains_cycles);
      ("25.25.100 reclaims cycles", `Quick, test_complete_reclaims_cycles);
      ("remset trigger fires", `Quick, test_remset_trigger_fires);
      ("ttd splits nursery", `Quick, test_ttd_splits_nursery);
      ("bof flips", `Quick, test_bof_flips);
      ("counters accumulate", `Quick, test_counters_accumulate);
    ]

(* ---- pretenuring (segregation by allocation site, paper S5) ---- *)

let test_pretenured_lands_on_belt () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let st = Gc.state gc in
  let a = Gc.alloc_pretenured gc ~ty ~nfields:4 ~belt:2 in
  let inc =
    Option.get (Beltway.State.inc_of_frame st (Beltway.State.frame_of_addr st a))
  in
  checki "on belt 2" 2 inc.Beltway.Increment.belt;
  Alcotest.check_raises "belt 0 rejected"
    (Invalid_argument "Schedule.prepare_alloc_in: bad belt 0") (fun () ->
      ignore (Gc.alloc_pretenured gc ~ty ~nfields:4 ~belt:0));
  Alcotest.check_raises "out of range rejected"
    (Invalid_argument "Schedule.prepare_alloc_in: bad belt 9") (fun () ->
      ignore (Gc.alloc_pretenured gc ~ty ~nfields:4 ~belt:9))

let test_pretenured_avoids_nursery_copies () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let a = Gc.alloc_pretenured gc ~ty ~nfields:4 ~belt:2 in
  Gc.write gc a 0 (Value.of_int 31337);
  let g = Roots.new_global roots (Value.of_addr a) in
  (* plenty of nursery churn: nursery collections must not move it *)
  for _ = 1 to 40_000 do
    ignore (Gc.alloc gc ~ty ~nfields:3)
  done;
  let a' = Value.to_addr (Roots.get_global roots g) in
  checkb "top-belt object not moved by minor collections" true (a = a');
  checki "contents intact" 31337 (Value.to_int (Gc.read gc a' 0));
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let test_pretenured_young_edges_remembered () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let old_ = Gc.alloc_pretenured gc ~ty ~nfields:4 ~belt:2 in
  let g = Roots.new_global roots (Value.of_addr old_) in
  let young = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc young 0 (Value.of_int 7);
  Gc.write gc (Value.to_addr (Roots.get_global roots g)) 0 (Value.of_addr young);
  checkb "old-to-young store took the slow path" true
    ((Gc.stats gc).Beltway.Gc_stats.barrier_slow > 0);
  Gc.collect gc;
  let old_ = Value.to_addr (Roots.get_global roots g) in
  let young' = Value.to_addr (Gc.read gc old_ 0) in
  checki "young object survived via the pretenured parent" 7
    (Value.to_int (Gc.read gc young' 0))

let suite =
  suite
  @ [
      ("pretenured lands on belt", `Quick, test_pretenured_lands_on_belt);
      ("pretenured avoids nursery copies", `Quick, test_pretenured_avoids_nursery_copies);
      ("pretenured young edges remembered", `Quick, test_pretenured_young_edges_remembered);
    ]

(* ---- the verifier detects real corruption (tests of the oracle) ---- *)

let test_verify_detects_unremembered_pointer () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let old_g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  Roots.set_global roots old_g (Value.of_addr a);
  Gc.full_collect gc;
  let young = Gc.alloc gc ~ty ~nfields:2 in
  let old_addr = Value.to_addr (Roots.get_global roots old_g) in
  (* bypass the write barrier: raw store of an old-to-young pointer *)
  let st = Gc.state gc in
  Object_model.set_field st.Beltway.State.mem old_addr 0 (Value.of_addr young);
  checkb "unremembered pointer detected" true (Result.is_error (Beltway.Verify.check gc))

let test_verify_detects_dangling_pointer () =
  let gc = gc_of "ss" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let keep = Gc.alloc gc ~ty ~nfields:2 in
  let g = Roots.new_global roots (Value.of_addr keep) in
  let doomed = Gc.alloc gc ~ty ~nfields:2 in
  (* collect: [doomed] is unrooted and its frame is freed *)
  Gc.collect gc;
  let keep = Value.to_addr (Roots.get_global roots g) in
  let st = Gc.state gc in
  (* raw store of the stale address *)
  Object_model.set_field st.Beltway.State.mem keep 0 (Value.of_addr doomed);
  checkb "dangling pointer detected" true (Result.is_error (Beltway.Verify.check gc))

let test_verify_detects_accounting_drift () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  ignore (Gc.alloc gc ~ty ~nfields:2);
  let st = Gc.state gc in
  st.Beltway.State.frames_used <- st.Beltway.State.frames_used + 1;
  checkb "accounting drift detected" true (Result.is_error (Beltway.Verify.check gc));
  st.Beltway.State.frames_used <- st.Beltway.State.frames_used - 1;
  checkb "restored state passes" true (Result.is_ok (Beltway.Verify.check gc))

(* A mark-sweep sweep leaves the dead objects between survivors as
   free-list fillers; one payload word that is not an odd immediate
   (here: a zero, as a split that reused unfilled words would leave)
   must be rejected. *)
let test_verify_detects_corrupt_filler () =
  let gc = gc_of "25.25.100+strategy:marksweep" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  for i = 0 to 63 do
    let x = Gc.alloc gc ~ty ~nfields:4 in
    if i mod 2 = 0 then ignore (Roots.new_global roots (Value.of_addr x))
  done;
  Gc.full_collect gc;
  checkb "swept heap passes" true (Result.is_ok (Beltway.Verify.check gc));
  let st = Gc.state gc in
  let holey =
    List.find
      (fun (i : Beltway.Increment.t) ->
        Beltway_util.Vec.length i.Beltway.Increment.free_list > 0)
      (Beltway.State.live_increments st)
  in
  let hole = Beltway_util.Vec.get holey.Beltway.Increment.free_list 0 in
  Memory.set st.Beltway.State.mem (hole + 3) Value.null;
  match Beltway.Verify.check gc with
  | Ok () -> Alcotest.fail "corrupt filler payload accepted"
  | Error e ->
    let expected = Printf.sprintf "free-list filler at %#x" hole in
    checkb
      (Printf.sprintf "rejection names the filler (%s)" e)
      true
      (String.length e >= String.length expected
      && String.sub e 0 (String.length expected) = expected)

(* The free-list index must summarise the list it indexes: a leaf that
   no longer records its block's largest hole (as a split or exact fit
   that skipped its refresh would leave) makes first fit skip holes
   that fit, and must be rejected. *)
let test_verify_detects_stale_hole_index () =
  let gc = gc_of "25.25.100+strategy:marksweep" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  for i = 0 to 63 do
    let x = Gc.alloc gc ~ty ~nfields:4 in
    if i mod 2 = 0 then ignore (Roots.new_global roots (Value.of_addr x))
  done;
  Gc.full_collect gc;
  checkb "swept heap passes" true (Result.is_ok (Beltway.Verify.check gc));
  let holey =
    List.find
      (fun (i : Beltway.Increment.t) ->
        Beltway_util.Vec.length i.Beltway.Increment.free_list > 0)
      (Beltway.State.live_increments (Gc.state gc))
  in
  let idx = holey.Beltway.Increment.hole_index in
  let leaf = Array.length idx / 2 in
  checkb "block 0 records a hole" true (idx.(leaf) > 0);
  idx.(leaf) <- 0;
  match Beltway.Verify.check gc with
  | Ok () -> Alcotest.fail "stale hole index accepted"
  | Error e ->
    let expected =
      Printf.sprintf "free-list index of increment %d: node %d"
        holey.Beltway.Increment.id leaf
    in
    checkb
      (Printf.sprintf "rejection names the stale node (%s)" e)
      true
      (String.length e >= String.length expected
      && String.sub e 0 (String.length expected) = expected)

let suite =
  suite
  @ [
      ("verify detects corrupt filler", `Quick, test_verify_detects_corrupt_filler);
      ("verify detects stale hole index", `Quick, test_verify_detects_stale_hole_index);
      ("verify detects unremembered pointer", `Quick, test_verify_detects_unremembered_pointer);
      ("verify detects dangling pointer", `Quick, test_verify_detects_dangling_pointer);
      ("verify detects accounting drift", `Quick, test_verify_detects_accounting_drift);
    ]

(* ---- oracle and diagnostics ---- *)

let test_oracle_counts_exactly () =
  let gc = gc_of "appel" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  (* a diamond: root -> a -> {b, c}, b -> d, c -> d: d counted once *)
  let mk n =
    let x = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc x 0 (Value.of_int n);
    Roots.new_global roots (Value.of_addr x)
  in
  let d = mk 4 and b = mk 2 and c = mk 3 and a = mk 1 in
  let addr g = Value.to_addr (Roots.get_global roots g) in
  Gc.write gc (addr b) 1 (Value.of_addr (addr d));
  Gc.write gc (addr c) 1 (Value.of_addr (addr d));
  Gc.write gc (addr a) 1 (Value.of_addr (addr b));
  (* unroot everything except [a]; keep c reachable via nothing *)
  Roots.set_global roots b Value.null;
  Roots.set_global roots d Value.null;
  Roots.set_global roots c Value.null;
  (* reachable: a, b, d = 3 objects of 4 words *)
  checki "oracle live words" 12 (Beltway.Oracle.live_words gc);
  checki "reachable set size" 3 (Hashtbl.length (Beltway.Oracle.reachable gc));
  checkb "retained garbage counts c" true
    (Beltway.Oracle.retained_garbage_words gc >= 4)

let test_pp_heap_renders () =
  let gc = gc_of "25.25.100+los:128" in
  let ty = Gc.register_type gc ~name:"t" in
  ignore (Gc.alloc gc ~ty ~nfields:200) (* a pinned large object *);
  for _ = 1 to 500 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  let s = Format.asprintf "%a" Beltway.Gc.pp_heap gc in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions the LOS belt" true (contains s "LOS");
  checkb "mentions a pinned increment" true (contains s "pinned")

let test_zero_field_objects () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:0 in
  let g = Roots.new_global roots (Value.of_addr a) in
  for _ = 1 to 20_000 do
    ignore (Gc.alloc gc ~ty ~nfields:0)
  done;
  let a' = Value.to_addr (Roots.get_global roots g) in
  checki "zero-field object survives" 0 (Gc.nfields gc a');
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let test_self_referential_object () =
  let gc = gc_of "ss" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:1 in
  Gc.write gc a 0 (Value.of_addr a);
  let g = Roots.new_global roots (Value.of_addr a) in
  Gc.collect gc;
  let a' = Value.to_addr (Roots.get_global roots g) in
  checki "self loop follows the move" a' (Value.to_addr (Gc.read gc a' 0))

let suite =
  suite
  @ [
      ("oracle counts exactly", `Quick, test_oracle_counts_exactly);
      ("pp_heap renders", `Quick, test_pp_heap_renders);
      ("zero-field objects", `Quick, test_zero_field_objects);
      ("self-referential object", `Quick, test_self_referential_object);
    ]

(* ---- Gc.validate is Gc.create's own check ---- *)

(* Ok exactly when Gc.create succeeds on the same arguments, and the
   message Gc.create raises when it does not: the CLIs validate with
   it before making a heap. *)
let test_validate_matches_create () =
  List.iter
    (fun (cs, gc_domains) ->
      let config = Result.get_ok (Config.parse cs) in
      let created =
        match Gc.create ~frame_log_words:8 ?gc_domains ~config ~heap_bytes:(64 * 1024) () with
        | _ -> "ok"
        | exception Invalid_argument e -> e
      in
      let validated =
        match Gc.validate ?gc_domains config with
        | Ok () -> "ok"
        | Error e -> "Gc.create: " ^ e
      in
      Alcotest.(check string) cs created validated)
    [
      ("25.25.100", None); ("25.25.100", Some 4); ("appel", Some 0);
      ("25.25.100+strategy:marksweep", Some 1);
      ("25.25.100+strategy:marksweep", Some 2);
      ("25.25+strategy:markcompact", Some 100);
      ("25.25+policy:sweep", None); ("25.25+policy:nonesuch", Some 2);
      ("25.25+strategy:nonesuch", None); ("appel", Some 65);
    ]

(* A domain count past Team.max_size is refused, not clamped: by
   validate (above) and by set_gc_domains, which leaves the heap's
   count as it was. No heap runs at such a count. *)
let test_domain_limit () =
  let gc = gc_of "appel" in
  Alcotest.check_raises "65 domains"
    (Invalid_argument "Gc.set_gc_domains: gc_domains 65 exceeds the limit of 64 domains")
    (fun () -> Gc.set_gc_domains gc 65);
  checki "count unchanged" 1 (Gc.gc_domains gc);
  Alcotest.(check (result unit string))
    "validate names the count and the limit"
    (Error "--gc-domains 65 exceeds the limit of 64 domains")
    (Gc.validate ~gc_domains:65 (Gc.config gc))

(* The boot space is bounded by Boot_space.max_frames frames: one type
   too many is an Out_of_memory naming the type and the range, and the
   heap stays sound and usable. *)
let test_boot_allowance () =
  let gc = gc_of "25.25.100" in
  let st = Gc.state gc in
  let range = Memory.max_frames st.Beltway.State.mem in
  let rec fill i =
    match Gc.register_type gc ~name:(Printf.sprintf "t%d" i) with
    | _ -> fill (i + 1)
    | exception Gc.Out_of_memory m -> (i, m)
  in
  let i, msg = fill 0 in
  Alcotest.(check string) "message"
    (Printf.sprintf
       "type \"t%d\": the boot space needs a frame beyond its %d-frame allowance \
        (frames [1, %d])"
       i Boot_space.max_frames range)
    msg;
  checki "boot space at its allowance" Boot_space.max_frames
    (Boot_space.mem_frames st.Beltway.State.boot);
  let ty = Gc.register_type gc ~name:"t0" in
  let roots = Gc.roots gc in
  ignore (Roots.new_global roots (Value.of_addr (Gc.alloc gc ~ty ~nfields:4)));
  Gc.full_collect gc;
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

let suite =
  suite
  @ [
      ("validate matches create", `Quick, test_validate_matches_create);
      ("domain limit", `Quick, test_domain_limit);
      ("boot allowance", `Quick, test_boot_allowance);
    ]
