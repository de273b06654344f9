(* White-box tests for the collector's building blocks: increments,
   belts, remembered sets, frame metadata, the write-barrier predicate
   and the copy reserve. *)

module Increment = Beltway.Increment
module Belt = Beltway.Belt
module Remset = Beltway.Remset
module Frame_info = Beltway_check.Frame_info
module State = Beltway.State
module Config = Beltway.Config
module Gc = Beltway.Gc

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- Increment ---- *)

let mem () = Memory.create ~frame_log_words:6 ~max_frames:64 (* 64-word frames *)

let inc ?(bound = None) () =
  Increment.create ~id:1 ~belt:0 ~stamp:7 ~bound_frames:bound

let test_increment_bump () =
  let m = mem () in
  let i = inc () in
  checkb "no room before a frame" true (Increment.try_bump i ~size:4 = None);
  Increment.add_frame i m (Memory.alloc_frame m);
  let a = Option.get (Increment.try_bump i ~size:10) in
  let b = Option.get (Increment.try_bump i ~size:10) in
  checki "bump is contiguous" (a + 10) b;
  checki "words used" 20 (Increment.words_used i);
  checki "objects" 2 i.Increment.objects

let test_increment_frame_overflow () =
  let m = mem () in
  let i = inc () in
  Increment.add_frame i m (Memory.alloc_frame m);
  (* fill the 64-word frame with 60 words; a 10-word bump must fail *)
  ignore (Increment.try_bump i ~size:60);
  checkb "doesn't fit" true (Increment.try_bump i ~size:10 = None);
  Increment.add_frame i m (Memory.alloc_frame m);
  checkb "fits in new frame" true (Increment.try_bump i ~size:10 <> None);
  checki "two frames" 2 (Increment.frame_count i);
  (* 4 words wasted at the first frame's seam *)
  checki "waste" (128 - 70) (Increment.wasted_words i m)

let test_increment_bound_seal () =
  let m = mem () in
  let i = inc ~bound:(Some 1) () in
  Increment.add_frame i m (Memory.alloc_frame m);
  checkb "at bound" true (Increment.at_bound i);
  Alcotest.check_raises "add beyond bound" (Invalid_argument "Increment.add_frame: at bound")
    (fun () -> Increment.add_frame i m (Memory.alloc_frame m));
  Increment.seal i;
  checkb "sealed rejects bump" true (Increment.try_bump i ~size:2 = None)

(* Write objects through the real object model so scan can size them. *)
let put_obj m i nfields =
  let size = Object_model.size_words ~nfields in
  match Increment.try_bump i ~size with
  | Some a ->
    Object_model.init m a ~tib:Value.null ~nfields;
    Some a
  | None -> None

let test_increment_scan_over_seams () =
  let m = mem () in
  let i = inc () in
  let expected = ref [] in
  let rng = Beltway_util.Prng.create ~seed:99 in
  (* allocate ~5 frames of objects with random sizes, crossing seams *)
  for _ = 1 to 60 do
    let nfields = Beltway_util.Prng.int_in rng 0 20 in
    match put_obj m i nfields with
    | Some a -> expected := a :: !expected
    | None ->
      Increment.add_frame i m (Memory.alloc_frame m);
      let a = Option.get (put_obj m i nfields) in
      expected := a :: !expected
  done;
  let scanned = ref [] in
  Increment.iter_objects i m (fun a -> scanned := a :: !scanned);
  Alcotest.(check (list int)) "scan visits every object in order" (List.rev !expected)
    (List.rev !scanned)

let test_increment_scan_pos_frontier () =
  let m = mem () in
  let i = inc () in
  Increment.add_frame i m (Memory.alloc_frame m);
  ignore (put_obj m i 3);
  let pos = Increment.scan_pos i in
  checkb "frontier has nothing pending" false (Increment.scan_pending i m pos);
  let a = Option.get (put_obj m i 2) in
  checkb "new object pending" true (Increment.scan_pending i m pos);
  checki "scan_step returns it" a (Increment.scan_step i m pos);
  checkb "caught up" false (Increment.scan_pending i m pos)

(* ---- Free-list allocator vs a reference first fit ---- *)

(* The reference keeps the same flat list discipline as
   [Increment.fit_or_null] — first fit in list order, an exact fit
   swap-removed with the last pair, a split rewriting its pair in
   place — but answers every query by walking the whole list, with no
   summary to trust. *)
let admits ~size words = words = size || words >= size + Object_model.header_words

let ref_fit holes ~size =
  let rec first i = function
    | [] -> None
    | (a, w) :: rest -> if admits ~size w then Some (i, a, w) else first (i + 1) rest
  in
  match first 0 holes with
  | None -> (Addr.null, holes)
  | Some (i, a, w) when w = size ->
    let n = List.length holes in
    let last = List.nth holes (n - 1) in
    let kept = List.filteri (fun j _ -> j < n - 1) holes in
    (a, List.mapi (fun j p -> if j = i then last else p) kept)
  | Some (i, a, w) ->
    (a, List.mapi (fun j p -> if j = i then (a + size, w - size) else p) holes)

type fl_op = Push of int | Fit of int | Fits of int | Clear

let pp_fl_op = function
  | Push w -> Printf.sprintf "push %d" w
  | Fit s -> Printf.sprintf "fit %d" s
  | Fits s -> Printf.sprintf "fits %d" s
  | Clear -> "clear"

(* Hole and request sizes overlap so that every branch is exercised:
   exact fits, splits, and the largest hole one word above the request
   (where only an exact-size hole can fit). Most sequences are short;
   one in ten pushes far more than it takes, growing lists of hundreds
   of holes, so the index's block boundaries, its growth and several
   tree levels are all crossed, and an exact fit swap-removes a pair
   from a late block into an early one. *)
let fl_op_gen ~push ~clear =
  QCheck.Gen.(
    frequency
      ([
         (push, map (fun w -> Push w) (int_range 2 24));
         (4, map (fun s -> Fit s) (int_range 2 26));
         (2, map (fun s -> Fits s) (int_range 2 26));
       ]
      @ if clear then [ (1, return Clear) ] else []))

let fl_ops_gen =
  QCheck.Gen.(
    frequency
      [
        (9, list_size (int_range 1 80) (fl_op_gen ~push:3 ~clear:true));
        (1, list_size (int_range 300 1200) (fl_op_gen ~push:8 ~clear:false));
      ])

let free_list_prop =
  QCheck.Test.make ~name:"free list == reference linear first fit" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_fl_op ops))
       fl_ops_gen)
    (fun ops ->
      let m = Memory.create ~frame_log_words:15 ~max_frames:1 in
      let i = inc () in
      Increment.add_frame i m (Memory.alloc_frame m);
      (* Holes are laid out one word apart, each written as the sweep
         writes a filler: even header, odd-immediate payload. *)
      let next = ref (i.Increment.cursor + 1) in
      let holes = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      List.iter
        (fun op ->
          (match op with
          | Push words ->
            let a = !next in
            next := a + words + 1;
            Memory.set m a ((words - Object_model.header_words) lsl 1);
            Memory.fill m ~dst:(a + 1) ~len:(words - 1) 1;
            Increment.push_free i ~addr:a ~words;
            holes := !holes @ [ (a, words) ]
          | Fit size ->
            let expected, rest = ref_fit !holes ~size in
            holes := rest;
            let got = Increment.fit_or_null i m ~size in
            if got <> expected then
              fail "fit %d: got %#x, reference %#x" size got expected;
            if got <> Addr.null then
              for w = got to got + size - 1 do
                if Memory.get m w <> 0 then fail "fit %d: word %#x not zeroed" size w
              done
          | Fits size ->
            let expected = List.exists (fun (_, w) -> admits ~size w) !holes in
            if Increment.fits_free i ~size <> expected then
              fail "fits %d: reference says %b" size expected
          | Clear ->
            Increment.clear_free_list i;
            holes := []);
          let flat = List.concat_map (fun (a, w) -> [ a; w ]) !holes in
          if Beltway_util.Vec.to_list i.Increment.free_list <> flat then
            fail "after %s: free_list differs from the reference" (pp_fl_op op);
          let total = List.fold_left (fun acc (_, w) -> acc + w) 0 !holes in
          if Increment.free_words i <> total then
            fail "after %s: free_words %d, reference %d" (pp_fl_op op)
              (Increment.free_words i) total;
          let largest = List.fold_left (fun acc (_, w) -> max acc w) 0 !holes in
          if Increment.max_hole i <> largest then
            fail "after %s: max_hole %d, largest hole %d" (pp_fl_op op)
              (Increment.max_hole i) largest;
          if i.Increment.hole_index <> Increment.rebuilt_index i then
            fail "after %s: hole_index differs from one rebuilt from the list"
              (pp_fl_op op);
          (* Every hole, remainders included, is still a filler. *)
          List.iter
            (fun (a, w) ->
              if Memory.get m a <> (w - Object_model.header_words) lsl 1 then
                fail "after %s: hole %#x header stale" (pp_fl_op op) a;
              for x = a + 1 to a + w - 1 do
                if Memory.get m x land 1 = 0 then
                  fail "after %s: hole %#x payload word %#x even" (pp_fl_op op) a x
              done)
            !holes)
        ops;
      true)

(* ---- Belt ---- *)

let mk_inc id stamp = Increment.create ~id ~belt:0 ~stamp ~bound_frames:None

let test_belt_fifo () =
  let b = Belt.create ~index:0 in
  checkb "empty" true (Belt.is_empty b);
  let i1 = mk_inc 1 10 and i2 = mk_inc 2 20 and i3 = mk_inc 3 30 in
  Belt.push_back b i1;
  Belt.push_back b i2;
  Belt.push_back b i3;
  checki "length" 3 (Belt.length b);
  checki "front oldest" 1 (Option.get (Belt.front b)).Increment.id;
  checki "back youngest" 3 (Option.get (Belt.back b)).Increment.id;
  Belt.remove b i2;
  checki "middle removal keeps order (front)" 1 (Option.get (Belt.front b)).Increment.id;
  checki "middle removal keeps order (back)" 3 (Option.get (Belt.back b)).Increment.id;
  Alcotest.check_raises "removing absent" (Invalid_argument "Belt.remove: increment not on belt")
    (fun () -> Belt.remove b i2)

let test_belt_swap () =
  let a = Belt.create ~index:0 and c = Belt.create ~index:1 in
  let i1 = mk_inc 1 10 in
  Belt.push_back a i1;
  Belt.swap_contents a c;
  checkb "a empty after swap" true (Belt.is_empty a);
  checki "c has the increment" 1 (Option.get (Belt.front c)).Increment.id;
  checki "increment belt index rewritten" 1 i1.Increment.belt

(* ---- Remset ---- *)

let test_remset_insert_iter () =
  let r = Remset.create () in
  Remset.insert r ~src_frame:5 ~tgt_frame:2 ~slot:100;
  Remset.insert r ~src_frame:5 ~tgt_frame:2 ~slot:104;
  Remset.insert r ~src_frame:6 ~tgt_frame:3 ~slot:200;
  checki "entries" 3 (Remset.total_entries r);
  checki "sets" 2 (Remset.sets r);
  let hits = ref [] in
  Remset.iter_into r ~in_plan:(fun f -> f = 2) (fun ~slot -> hits := slot :: !hits);
  Alcotest.(check (list int)) "only target-2 slots" [ 100; 104 ] (List.sort compare !hits);
  (* a source inside the plan is skipped: the scan finds those *)
  let hits = ref [] in
  Remset.iter_into r ~in_plan:(fun f -> f = 2 || f = 5) (fun ~slot -> hits := slot :: !hits);
  Alcotest.(check (list int)) "in-plan sources skipped" [] !hits

let test_remset_drop_frame () =
  let r = Remset.create () in
  Remset.insert r ~src_frame:5 ~tgt_frame:2 ~slot:100;
  Remset.insert r ~src_frame:2 ~tgt_frame:1 ~slot:50;
  Remset.insert r ~src_frame:7 ~tgt_frame:6 ~slot:70;
  Remset.drop_frame r 2;
  checki "sets touching frame 2 gone" 1 (Remset.total_entries r);
  checkb "unrelated survives" true
    (Remset.mem_slot r ~src_frame:7 ~tgt_frame:6 ~slot:70)

let test_remset_dedup () =
  let r = Remset.create ~dedup_threshold:8 () in
  for _ = 1 to 100 do
    Remset.insert r ~src_frame:1 ~tgt_frame:0 ~slot:42
  done;
  checkb "duplicates compacted" true (Remset.total_entries r < 20);
  checki "inserts counted raw" 100 (Remset.inserts r);
  checkb "slot retained" true (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:42)

let test_remset_mem_slot_lazy_index () =
  let r = Remset.create ~dedup_threshold:8 () in
  Remset.insert r ~src_frame:1 ~tgt_frame:0 ~slot:10;
  checkb "present" true (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:10);
  checkb "absent" false (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:11);
  (* inserts after the index was first built must become visible *)
  Remset.insert r ~src_frame:1 ~tgt_frame:0 ~slot:11;
  checkb "late insert visible" true
    (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:11);
  (* push the set over the dedup threshold: compaction must rebuild the
     index without losing or inventing slots *)
  for _ = 1 to 50 do
    Remset.insert r ~src_frame:1 ~tgt_frame:0 ~slot:12
  done;
  checkb "entries compacted" true (Remset.total_entries r < 10);
  checkb "slot survives dedup" true
    (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:12);
  checkb "early slot survives dedup" true
    (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:10);
  checkb "still no false positive" false
    (Remset.mem_slot r ~src_frame:1 ~tgt_frame:0 ~slot:13)

let test_remset_frame_bound () =
  let r = Remset.create ~max_frames:7 () in
  Remset.insert r ~src_frame:7 ~tgt_frame:0 ~slot:1;
  Alcotest.check_raises "target past the bound"
    (Invalid_argument "Remset.insert: frame 1 or 8 outside [0, 7]") (fun () ->
      Remset.insert r ~src_frame:1 ~tgt_frame:8 ~slot:2);
  checki "rejected insert recorded nothing" 1 (Remset.total_entries r);
  checki "no set created" 1 (Remset.sets r);
  Remset.drop_frame r 8;
  Remset.drop_frame r 7;
  checki "drop within the bound" 0 (Remset.sets r)

(* A reference model of [Remset]'s contract: one unrandomised
   polymorphic table from [rsidx] to the slot list, plus the
   since-dedup counters that decide when a set is compacted. The real
   structure must visit the same slots in the same order, whatever its
   per-frame index and lookup cache do. *)
module Remset_model = struct
  type t = {
    slots : (int, int list) Hashtbl.t;
    since : (int, int) Hashtbl.t;
    threshold : int;
  }

  let create ~threshold =
    { slots = Hashtbl.create ~random:false 64; since = Hashtbl.create ~random:false 64;
      threshold }

  let key ~src ~tgt = (src lsl 21) lor tgt
  let src_of k = k lsr 21
  let tgt_of k = k land ((1 lsl 21) - 1)

  let dedup l =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.replace seen x ();
          true
        end)
      l

  let insert t ~src ~tgt ~slot =
    let k = key ~src ~tgt in
    let l = (match Hashtbl.find_opt t.slots k with Some l -> l | None -> []) @ [ slot ] in
    let since = 1 + Option.value ~default:0 (Hashtbl.find_opt t.since k) in
    if List.length l > t.threshold && since > t.threshold / 2 then begin
      Hashtbl.replace t.slots k (dedup l);
      Hashtbl.replace t.since k 0
    end
    else begin
      Hashtbl.replace t.slots k l;
      Hashtbl.replace t.since k since
    end

  let drop_frame t f =
    Hashtbl.fold (fun k _ acc -> if src_of k = f || tgt_of k = f then k :: acc else acc)
      t.slots []
    |> List.iter (fun k ->
           Hashtbl.remove t.slots k;
           Hashtbl.remove t.since k)

  let iter_into t ~in_plan =
    let acc = ref [] in
    Hashtbl.iter
      (fun k l ->
        if in_plan (tgt_of k) && not (in_plan (src_of k)) then
          acc := List.rev_append l !acc)
      t.slots;
    List.rev !acc

  let total t = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.slots 0

  let entries_targeting t f =
    Hashtbl.fold (fun k l acc -> if tgt_of k = f then acc + List.length l else acc)
      t.slots 0

  let mem_slot t ~src ~tgt ~slot =
    match Hashtbl.find_opt t.slots (key ~src ~tgt) with
    | Some l -> List.mem slot l
    | None -> false
end

(* Frames 0..7 and slots 0..11, so streams revisit sets, create
   self-sets, duplicate slots and reach the (small) dedup threshold;
   op 4 drops a frame, op 5 compares a snapshot under a random plan. *)
let remset_model_prop =
  QCheck.Test.make
    ~name:"Remset iter_into/sets/entries/mem_slot match a polymorphic-table model"
    ~count:300
    QCheck.(list (quad (int_bound 5) (int_bound 7) (int_bound 7) (int_bound 255)))
    (fun ops ->
      let threshold = 6 and frames = 7 in
      let r = Remset.create ~dedup_threshold:threshold ~max_frames:frames () in
      let m = Remset_model.create ~threshold in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let snapshot mask =
        let in_plan f = (mask lsr f) land 1 = 1 in
        let got = ref [] in
        Remset.iter_into r ~in_plan (fun ~slot -> got := slot :: !got);
        let got = List.rev !got and want = Remset_model.iter_into m ~in_plan in
        if got <> want then fail "iter_into under plan %#x differs" mask
      in
      List.iter
        (fun (op, a, b, c) ->
          (match op with
          | 0 | 1 | 2 | 3 ->
            Remset.insert r ~src_frame:a ~tgt_frame:b ~slot:(c mod 12);
            Remset_model.insert m ~src:a ~tgt:b ~slot:(c mod 12)
          | 4 ->
            Remset.drop_frame r a;
            Remset_model.drop_frame m a
          | _ -> snapshot c);
          if Remset.sets r <> Hashtbl.length m.Remset_model.slots then
            fail "sets %d vs model %d" (Remset.sets r) (Hashtbl.length m.Remset_model.slots);
          if Remset.total_entries r <> Remset_model.total m then
            fail "total_entries %d vs model %d" (Remset.total_entries r)
              (Remset_model.total m))
        ops;
      snapshot 0xFF;
      snapshot 0x0F;
      for f = 0 to frames do
        if Remset.entries_targeting r f <> Remset_model.entries_targeting m f then
          fail "entries_targeting %d differs" f;
        for g = 0 to frames do
          for slot = 0 to 11 do
            if Remset.mem_slot r ~src_frame:f ~tgt_frame:g ~slot
               <> Remset_model.mem_slot m ~src:f ~tgt:g ~slot
            then fail "mem_slot %d->%d %d differs" f g slot
          done
        done
      done;
      true)

(* ---- Frame_info ---- *)

let test_frame_info () =
  let fi = Frame_info.create () in
  checki "unset stamp" Frame_info.no_stamp (Frame_info.stamp fi 12);
  Frame_info.set fi ~frame:12 ~stamp:99 ~incr:4;
  checki "stamp" 99 (Frame_info.stamp fi 12);
  checki "incr" 4 (Frame_info.incr_of fi 12);
  Frame_info.restamp fi ~frame:12 ~stamp:100;
  checki "restamped" 100 (Frame_info.stamp fi 12);
  Frame_info.clear fi ~frame:12;
  checki "cleared" Frame_info.no_stamp (Frame_info.stamp fi 12);
  (* growth beyond initial capacity *)
  Frame_info.set fi ~frame:5000 ~stamp:1 ~incr:1;
  checki "grown" 1 (Frame_info.stamp fi 5000)

(* ---- Write barrier predicate & stamps ---- *)

let gc_of config_str heap_kb =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(heap_kb * 1024) ()

let test_barrier_unidirectional () =
  let gc = gc_of "25.25.100" 256 in
  let st = Gc.state gc in
  (* fabricate two frames with ordered stamps *)
  let ft = st.State.ftab in
  Beltway.Frame_table.set ft ~frame:40 ~stamp:100 ~incr:0 ~pinned:false;
  Beltway.Frame_table.set ft ~frame:41 ~stamp:200 ~incr:1 ~pinned:false;
  checkb "young->old remembered (old collected later? no)" false
    (Beltway.Write_barrier.would_remember st ~src_frame:40 ~tgt_frame:41);
  checkb "old->young remembered" true
    (Beltway.Write_barrier.would_remember st ~src_frame:41 ~tgt_frame:40);
  checkb "intra-frame never" false
    (Beltway.Write_barrier.would_remember st ~src_frame:40 ~tgt_frame:40)

let test_barrier_counters_and_boot_target () =
  let gc = gc_of "appel+nofilter" 256 in
  let ty = Gc.register_type gc ~name:"t" in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  (* the tib write took the barrier: boot targets are never remembered *)
  let stats = Gc.stats gc in
  checki "tib write barrier fast" 1 stats.Beltway.Gc_stats.barrier_fast;
  checki "no remembering" 0 stats.Beltway.Gc_stats.barrier_slow;
  (* an intra-increment pointer store: fast path *)
  Gc.write gc a 0 (Value.of_addr a);
  checki "intra-frame fast" 2 stats.Beltway.Gc_stats.barrier_fast

let test_nursery_filter_counts () =
  let gc = gc_of "25.25.100" 256 in
  let ty = Gc.register_type gc ~name:"t" in
  ignore (Gc.alloc gc ~ty ~nfields:2);
  let stats = Gc.stats gc in
  checki "filtered, not fast" 1 stats.Beltway.Gc_stats.barrier_filtered;
  checki "no fast path" 0 stats.Beltway.Gc_stats.barrier_fast

let test_stamps_belt_major_vs_fifo () =
  let gc = gc_of "25.25.100" 256 in
  let st = Gc.state gc in
  let s0 = State.stamp_for_belt st 0 in
  let s1 = State.stamp_for_belt st 1 in
  let s0' = State.stamp_for_belt st 0 in
  checkb "belt-major: belt0 < belt1 regardless of creation order" true
    (s0 < s1 && s0' < s1);
  let gc = gc_of "ofm:25" 256 in
  let st = Gc.state gc in
  let a = State.stamp_for_belt st 0 in
  let b = State.stamp_for_belt st 0 in
  checkb "fifo: creation order" true (a < b)

let test_bof_flip_epoch () =
  let gc = gc_of "of:25" 256 in
  let st = Gc.state gc in
  let before = State.stamp_for_belt st 0 in
  State.flip_belts st;
  let after = State.stamp_for_belt st 0 in
  checkb "flip advances the epoch band" true
    (after / Frame_info.priority_unit > before / Frame_info.priority_unit)

(* ---- Copy reserve ---- *)

let test_reserve_semi_space_half () =
  let gc = gc_of "ss" 256 in
  let ty = Gc.register_type gc ~name:"t" in
  (* fill ~40% of the heap; reserve must track occupancy + pad *)
  let heap = Gc.heap_frames gc in
  while Gc.frames_used gc < 2 * heap / 5 do
    ignore (Gc.alloc gc ~ty ~nfields:20)
  done;
  let r = Gc.reserve_frames gc in
  checkb "reserve ~ occupancy" true
    (r >= Gc.frames_used gc && r <= Gc.frames_used gc + 8)

let test_reserve_half_mode () =
  let gc = gc_of "appel" 256 in
  let r = Gc.reserve_frames gc in
  checkb "fixed >= half" true (r >= Gc.heap_frames gc / 2)

let test_reserve_small_when_increments_small () =
  let gc = gc_of "25.25.100" 1024 in
  let ty = Gc.register_type gc ~name:"t" in
  for _ = 1 to 2000 do
    ignore (Gc.alloc gc ~ty ~nfields:6)
  done;
  (* with bounded increments the reserve stays near one increment, far
     below half the heap (the paper's utilization advantage) *)
  checkb "reserve well below half" true
    (Gc.reserve_frames gc < Gc.heap_frames gc / 3)

(* The copy reserve as the list-based formula computed it: top-two
   incoming occupancies per destination belt over [State.live_increments],
   then each unpinned increment's potential. [Copy_reserve.dynamic_frames]
   walks the belts directly and must agree with it exactly. *)
let reference_dynamic_frames st =
  let floor_frames =
    Array.fold_left
      (fun acc bound -> match bound with Some b -> max acc b | None -> acc)
      0 st.State.belt_bounds
  in
  let nbelts = Array.length st.State.belts in
  let in_best = Array.make nbelts (0, -1) in
  let in_second = Array.make nbelts 0 in
  List.iter
    (fun (inc : Increment.t) ->
      if not inc.Increment.pinned then begin
        let d = State.dest_belt st inc.Increment.belt in
        let occ = Increment.occupancy_frames inc in
        let best_occ, _ = in_best.(d) in
        if occ > best_occ then begin
          in_second.(d) <- best_occ;
          in_best.(d) <- (occ, inc.Increment.id)
        end
        else if occ > in_second.(d) then in_second.(d) <- occ
      end)
    (State.live_increments st);
  let incoming belt ~excluding =
    let best_occ, best_id = in_best.(belt) in
    if best_id = excluding then in_second.(belt) else best_occ
  in
  let potential =
    List.fold_left
      (fun acc (inc : Increment.t) ->
        if inc.Increment.pinned then acc
        else begin
          let occ = Increment.occupancy_frames inc in
          let p =
            match Belt.back st.State.belts.(inc.Increment.belt) with
            | Some back when back.Increment.id = inc.Increment.id ->
              occ + incoming inc.Increment.belt ~excluding:inc.Increment.id
            | _ -> occ
          in
          max acc p
        end)
      0 (State.live_increments st)
  in
  max floor_frames potential + Beltway.Copy_reserve.pad st

let test_dynamic_reserve_matches_reference () =
  List.iter
    (fun (bench : Beltway_workload.Spec.t) ->
      List.iter
        (fun cfg ->
          let config = Result.get_ok (Config.parse cfg) in
          let gc = Gc.create ~config ~heap_bytes:(1024 * 1024) () in
          let st = Gc.state gc in
          let checked = ref 0 in
          State.add_hooks st
            {
              State.noop_hooks with
              on_collect_end =
                (fun ~full_heap:_ ->
                  incr checked;
                  let want = reference_dynamic_frames st in
                  let got = Beltway.Copy_reserve.dynamic_frames st in
                  if got <> want then
                    Alcotest.failf "%s %s collection %d: dynamic_frames %d, reference %d"
                      bench.Beltway_workload.Spec.name cfg !checked got want);
            };
          bench.Beltway_workload.Spec.run gc;
          checkb
            (Printf.sprintf "%s %s collected" bench.Beltway_workload.Spec.name cfg)
            true (!checked > 0))
        [ "25.25.100"; "33.33.100"; "10.10.100" ])
    [ Beltway_workload.Spec.jess; Beltway_workload.Spec.javac ]

(* [State.total_increments] is a running count kept beside the id ->
   increment array; it must agree with the belts themselves at every
   collection boundary and after the run, under each strategy, since
   the schedule's retry budget is derived from it. *)
let test_total_increments_matches_belts () =
  List.iter
    (fun cfg ->
      let config = Result.get_ok (Config.parse cfg) in
      let gc = Gc.create ~config ~heap_bytes:(1024 * 1024) () in
      let st = Gc.state gc in
      let agree what =
        checki
          (Printf.sprintf "%s %s: total_increments" cfg what)
          (List.length (State.live_increments st))
          (State.total_increments st)
      in
      let checked = ref 0 in
      State.add_hooks st
        {
          State.noop_hooks with
          on_collect_end =
            (fun ~full_heap:_ ->
              incr checked;
              agree (Printf.sprintf "after collection %d" !checked));
        };
      Beltway_workload.Spec.jess.Beltway_workload.Spec.run gc;
      agree "after the run";
      checkb (cfg ^ " collected") true (!checked > 0))
    [ "25.25.100"; "25.25.100+strategy:marksweep"; "25.25.100+strategy:markcompact" ]

let suite =
  [
    ("total_increments matches the belts", `Quick, test_total_increments_matches_belts);
    ("increment bump", `Quick, test_increment_bump);
    ("increment frame overflow", `Quick, test_increment_frame_overflow);
    ("increment bound/seal", `Quick, test_increment_bound_seal);
    ("increment scan over seams", `Quick, test_increment_scan_over_seams);
    ("increment scan frontier", `Quick, test_increment_scan_pos_frontier);
    Prop.to_alcotest free_list_prop;
    ("belt fifo", `Quick, test_belt_fifo);
    ("belt swap (BOF flip)", `Quick, test_belt_swap);
    ("remset insert/iter", `Quick, test_remset_insert_iter);
    ("remset drop frame", `Quick, test_remset_drop_frame);
    ("remset dedup", `Quick, test_remset_dedup);
    ("remset mem_slot lazy index", `Quick, test_remset_mem_slot_lazy_index);
    Prop.to_alcotest remset_model_prop;
    ("remset frame bound", `Quick, test_remset_frame_bound);
    ("frame info", `Quick, test_frame_info);
    ("barrier unidirectional", `Quick, test_barrier_unidirectional);
    ("barrier counters/boot", `Quick, test_barrier_counters_and_boot_target);
    ("nursery filter counts", `Quick, test_nursery_filter_counts);
    ("stamps belt-major vs fifo", `Quick, test_stamps_belt_major_vs_fifo);
    ("bof flip epoch", `Quick, test_bof_flip_epoch);
    ("reserve: semi-space", `Quick, test_reserve_semi_space_half);
    ("reserve: half mode", `Quick, test_reserve_half_mode);
    ("reserve: small increments", `Quick, test_reserve_small_when_increments_small);
    ("reserve: dynamic == list formula per collection", `Slow,
      test_dynamic_reserve_matches_reference);
  ]
