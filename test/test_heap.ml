(* Tests for beltway.heap: addresses, memory/frames, tagged values,
   the object model, boot space, type registry and roots. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- Addr ---- *)

let test_addr_packing () =
  let fl = 10 in
  let a = Addr.make ~frame_log:fl ~frame:3 ~offset:17 in
  checki "frame" 3 (Addr.frame_of ~frame_log:fl a);
  checki "offset" 17 (Addr.offset_of ~frame_log:fl a);
  checkb "same frame" true (Addr.same_frame ~frame_log:fl a (a + 100));
  checkb "different frame" false
    (Addr.same_frame ~frame_log:fl a (Addr.make ~frame_log:fl ~frame:4 ~offset:17))

let addr_roundtrip_prop =
  QCheck.Test.make ~name:"Addr pack/unpack roundtrip" ~count:500
    QCheck.(pair (int_range 1 100000) (int_range 0 1023))
    (fun (frame, offset) ->
      let a = Addr.make ~frame_log:10 ~frame ~offset in
      Addr.frame_of ~frame_log:10 a = frame && Addr.offset_of ~frame_log:10 a = offset)

(* ---- Memory ---- *)

let mem () = Memory.create ~frame_log_words:8 ~max_frames:8

let test_memory_geometry () =
  let m = mem () in
  checki "frame words" 256 (Memory.frame_words m);
  checki "frame bytes" 1024 (Memory.frame_bytes m);
  checki "no frames live" 0 (Memory.live_frames m)

let test_memory_alloc_free () =
  let m = mem () in
  let f1 = Memory.alloc_frame m in
  checkb "frame index >= 1 (0 reserved for null)" true (f1 >= 1);
  checkb "live" true (Memory.is_live m f1);
  let a = Memory.frame_base m f1 in
  Memory.set m a 42;
  checki "read back" 42 (Memory.get m a);
  Memory.free_frame m f1;
  checkb "dead" false (Memory.is_live m f1);
  checki "none live" 0 (Memory.live_frames m)

let test_memory_zeroed_on_reuse () =
  let m = mem () in
  let f1 = Memory.alloc_frame m in
  Memory.set m (Memory.frame_base m f1) 7;
  Memory.free_frame m f1;
  let f2 = Memory.alloc_frame m in
  checki "recycled index" f1 f2;
  checki "zeroed" 0 (Memory.get m (Memory.frame_base m f2))

let test_memory_budget () =
  let m = mem () in
  for _ = 1 to 8 do
    ignore (Memory.alloc_frame m)
  done;
  Alcotest.check_raises "out of frames" Memory.Out_of_frames (fun () ->
      ignore (Memory.alloc_frame m))

let test_memory_wild_access () =
  let m = mem () in
  Alcotest.check_raises "null get" (Invalid_argument "Memory.get: null address")
    (fun () -> ignore (Memory.get m Addr.null));
  let f = Memory.alloc_frame m in
  Memory.free_frame m f;
  let a = Memory.frame_base m f in
  checkb "use-after-free rejected" true
    (try
       ignore (Memory.get m a);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Memory.free_frame: frame %d not live" f))
    (fun () -> Memory.free_frame m f)

let test_memory_blit_fill () =
  let m = mem () in
  let f1 = Memory.alloc_frame m and f2 = Memory.alloc_frame m in
  let src = Memory.frame_base m f1 and dst = Memory.frame_base m f2 in
  let words = Memory.frame_words m in
  for i = 0 to words - 1 do
    Memory.set m (src + i) (i * 3)
  done;
  Memory.blit m ~src ~dst ~len:words;
  checki "whole-frame blit" (100 * 3) (Memory.get m (dst + 100));
  (* short blit takes the word-loop path *)
  Memory.blit m ~src:(src + 7) ~dst:(dst + 1) ~len:5;
  checki "short blit" (9 * 3) (Memory.get m (dst + 3));
  Memory.fill m ~dst ~len:words 7;
  checki "fill" 7 (Memory.get m (dst + words - 1));
  Memory.blit m ~src ~dst ~len:0 (* len 0 is a no-op, not an error *)

let test_memory_blit_frame_boundary () =
  let m = mem () in
  let f1 = Memory.alloc_frame m and f2 = Memory.alloc_frame m in
  let src = Memory.frame_base m f1 and dst = Memory.frame_base m f2 in
  let words = Memory.frame_words m in
  let crosses f = try f (); false with Invalid_argument _ -> true in
  checkb "blit src crossing boundary rejected" true
    (crosses (fun () -> Memory.blit m ~src:(src + words - 2) ~dst ~len:4));
  checkb "blit dst crossing boundary rejected" true
    (crosses (fun () -> Memory.blit m ~src ~dst:(dst + words - 2) ~len:4));
  checkb "fill crossing boundary rejected" true
    (crosses (fun () -> Memory.fill m ~dst:(dst + words - 2) ~len:4 0));
  checkb "blit into dead frame rejected" true
    (crosses (fun () ->
         Memory.free_frame m f2;
         Memory.blit m ~src ~dst ~len:4))

(* Satellite regression: contiguous allocation must consult the
   recycled-frame free list before minting fresh indices. *)
let test_memory_contiguous_recycles () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:16 in
  let fs = List.init 6 (fun _ -> Memory.alloc_frame m) in
  Alcotest.(check (list int)) "fresh indices" [ 1; 2; 3; 4; 5; 6 ] fs;
  List.iter (Memory.free_frame m) [ 2; 3; 4; 5 ];
  Memory.set m (Memory.frame_base m 6) 99;
  let l = Memory.alloc_frames_contiguous m 3 in
  Alcotest.(check (list int)) "consecutive run from the free list" [ 2; 3; 4 ] l;
  checki "recycled frames read zeros" 0 (Memory.get m (Memory.frame_base m 2));
  checki "high-water mark unchanged" 7 (Memory.fresh_frames m);
  checki "untouched frame keeps its data" 99 (Memory.get m (Memory.frame_base m 6))

let test_memory_contiguous_fresh_fallback () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:16 in
  ignore (List.init 5 (fun _ -> Memory.alloc_frame m));
  (* free list holds only non-consecutive indices: no run of 3 *)
  List.iter (Memory.free_frame m) [ 1; 3; 5 ];
  let l = Memory.alloc_frames_contiguous m 3 in
  Alcotest.(check (list int)) "falls back to fresh frames" [ 6; 7; 8 ] l

(* The free list is searched in address order, whatever order frames
   were freed in: the lowest-addressed run wins, and a run that starts
   only after a gap is still found. *)
let test_memory_contiguous_lowest_run () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:16 in
  ignore (List.init 12 (fun _ -> Memory.alloc_frame m));
  List.iter (Memory.free_frame m) [ 9; 10; 11; 3; 4; 5 ];
  Alcotest.(check (list int)) "lowest run, not the first freed" [ 3; 4; 5 ]
    (Memory.alloc_frames_contiguous m 3);
  Alcotest.(check (list int)) "the other run next" [ 9; 10; 11 ]
    (Memory.alloc_frames_contiguous m 3)

let test_memory_contiguous_after_gap () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:8 in
  ignore (List.init 8 (fun _ -> Memory.alloc_frame m));
  List.iter (Memory.free_frame m) [ 6; 2; 7; 5 ];
  Alcotest.(check (list int)) "the run past the gap at 3-4" [ 5; 6; 7 ]
    (Memory.alloc_frames_contiguous m 3);
  checki "no fresh frames minted" 9 (Memory.fresh_frames m)

(* The backing is fixed at [max_frames]: a run that fits the budget but
   not the fragmented range is refused, and the refusal changes
   nothing. *)
let test_memory_contiguous_range_bound () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:8 in
  ignore (List.init 8 (fun _ -> Memory.alloc_frame m));
  List.iter (Memory.free_frame m) [ 1; 3; 5; 7 ];
  Alcotest.check_raises "no run of 2 inside the range" Memory.Out_of_frames
    (fun () -> ignore (Memory.alloc_frames_contiguous m 2));
  checki "live unchanged" 4 (Memory.live_frames m);
  checki "fresh mark unchanged" 9 (Memory.fresh_frames m);
  Alcotest.(check (list int)) "free list intact" [ 1; 3; 5; 7 ]
    (List.init 4 (fun _ -> Memory.alloc_frame m) |> List.sort Int.compare);
  Alcotest.check_raises "budget exhausted" Memory.Out_of_frames (fun () ->
      ignore (Memory.alloc_frame m))

let test_memory_contiguous_full_budget () =
  (* With the whole budget freed, a full-budget contiguous request must
     recycle rather than demand fresh frames beyond the budget. *)
  let m = Memory.create ~frame_log_words:8 ~max_frames:8 in
  let fs = List.init 8 (fun _ -> Memory.alloc_frame m) in
  List.iter (Memory.free_frame m) fs;
  let l = Memory.alloc_frames_contiguous m 8 in
  Alcotest.(check (list int)) "entire budget recycled in place"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ] l;
  checki "no fresh frames minted" 9 (Memory.fresh_frames m)

(* The CAS stripes are set up on demand by the parallel collector;
   cas_word refuses to run before that, then behaves as a CAS. *)
let test_memory_cas_word () =
  let m = mem () in
  let a = Memory.frame_base m (Memory.alloc_frame m) + 3 in
  Alcotest.check_raises "no stripes yet"
    (Invalid_argument "Memory.cas_word: no stripes (call ensure_cas_locks first)")
    (fun () -> ignore (Memory.cas_word m a ~expect:0 ~desired:1));
  Memory.ensure_cas_locks m;
  Memory.ensure_cas_locks m (* idempotent *);
  checki "hit returns expect" 0 (Memory.cas_word m a ~expect:0 ~desired:5);
  checki "hit stored" 5 (Memory.get m a);
  checki "miss returns current" 5 (Memory.cas_word m a ~expect:0 ~desired:9);
  checki "miss stores nothing" 5 (Memory.get m a);
  (* Two domains racing CAS increments on one word lose none. *)
  let n = 2000 in
  let bump () =
    for _ = 1 to n do
      let rec go () =
        let v = Memory.get m a in
        if Memory.cas_word m a ~expect:v ~desired:(v + 1) <> v then go ()
      in
      go ()
    done
  in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  checki "no lost increments" (5 + (2 * n)) (Memory.get m a)

(* Property: Memory with its liveness bitmap behaves like a per-address
   shadow map under random alloc/free/set/get/blit sequences. *)
let memory_model_prop =
  QCheck.Test.make ~name:"Memory agrees with a shadow model" ~count:100
    QCheck.(list (triple (int_range 0 4) small_nat small_nat))
    (fun ops ->
      let m = Memory.create ~frame_log_words:6 ~max_frames:12 in
      let words = Memory.frame_words m in
      let shadow = Hashtbl.create 512 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, x, y) ->
          match op with
          | 0 -> (
            try
              let f = Memory.alloc_frame m in
              live := f :: !live;
              for i = 0 to words - 1 do
                Hashtbl.replace shadow (Memory.frame_base m f + i) 0
              done
            with Memory.Out_of_frames -> ())
          | 1 -> (
            match !live with
            | [] -> ()
            | f :: rest ->
              live := rest;
              let base = Memory.frame_base m f in
              for i = 0 to words - 1 do
                Hashtbl.remove shadow (base + i)
              done;
              Memory.free_frame m f)
          | 2 -> (
            match !live with
            | [] -> ()
            | fs ->
              let f = List.nth fs (x mod List.length fs) in
              let a = Memory.frame_base m f + (y mod words) in
              Memory.set m a ((x * 131) + y);
              Hashtbl.replace shadow a ((x * 131) + y))
          | 3 -> (
            match !live with
            | [] -> ()
            | fs ->
              let f = List.nth fs (x mod List.length fs) in
              let a = Memory.frame_base m f + (y mod words) in
              if Memory.get m a <> Hashtbl.find shadow a then ok := false)
          | _ -> (
            match !live with
            | f1 :: f2 :: _ ->
              let len = 1 + (y mod words) in
              let src = Memory.frame_base m f1 and dst = Memory.frame_base m f2 in
              Memory.blit m ~src ~dst ~len;
              for i = 0 to len - 1 do
                Hashtbl.replace shadow (dst + i) (Hashtbl.find shadow (src + i))
              done
            | _ -> ()))
        ops;
      Hashtbl.iter (fun a v -> if Memory.get m a <> v then ok := false) shadow;
      (* liveness bitmap agrees with the model, and dead frames reject
         every access *)
      for f = 1 to 11 do
        let alive = List.mem f !live in
        if Memory.is_live m f <> alive then ok := false;
        if not alive then begin
          match Memory.get m (Memory.frame_base m f) with
          | _ -> ok := false
          | exception Invalid_argument _ -> ()
        end
      done;
      !ok)

(* ---- Value ---- *)

let test_value_tags () =
  checkb "null is null" true (Value.is_null Value.null);
  let i = Value.of_int 42 in
  checkb "int tag" true (Value.is_int i);
  checkb "int not ref" false (Value.is_ref i);
  checki "int roundtrip" 42 (Value.to_int i);
  checki "negative roundtrip" (-17) (Value.to_int (Value.of_int (-17)));
  let r = Value.of_addr 1024 in
  checkb "ref tag" true (Value.is_ref r);
  checki "addr roundtrip" 1024 (Value.to_addr r)

let test_value_errors () =
  Alcotest.check_raises "to_int of ref" (Invalid_argument "Value.to_int: not an immediate")
    (fun () -> ignore (Value.to_int (Value.of_addr 8)));
  Alcotest.check_raises "to_addr of int"
    (Invalid_argument "Value.to_addr: not a reference") (fun () ->
      ignore (Value.to_addr (Value.of_int 3)));
  Alcotest.check_raises "of_addr null" (Invalid_argument "Value.of_addr: null address")
    (fun () -> ignore (Value.of_addr Addr.null))

let value_int_roundtrip_prop =
  QCheck.Test.make ~name:"Value int roundtrip" ~count:500
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun n ->
      let v = Value.of_int n in
      Value.is_int v && (not (Value.is_ref v)) && Value.to_int v = n)

(* ---- Object_model ---- *)

let test_object_layout () =
  let m = mem () in
  let f = Memory.alloc_frame m in
  let a = Memory.frame_base m f in
  Object_model.init m a ~tib:Value.null ~nfields:3;
  checki "nfields" 3 (Object_model.nfields m a);
  checki "size" 5 (Object_model.size_of m a);
  checkb "fields start null" true (Value.is_null (Object_model.get_field m a 0));
  Object_model.set_field m a 1 (Value.of_int 9);
  checki "field write" 9 (Value.to_int (Object_model.get_field m a 1));
  Alcotest.check_raises "field oob"
    (Invalid_argument
       (Printf.sprintf "Object_model: field 3 out of bounds [0,3) at %#x" a))
    (fun () -> ignore (Object_model.get_field m a 3))

let test_object_forwarding () =
  let m = mem () in
  let f = Memory.alloc_frame m in
  let a = Memory.frame_base m f in
  Object_model.init m a ~tib:Value.null ~nfields:2;
  checkb "not forwarded" true (Object_model.forwarded m a = None);
  Object_model.set_forwarding m a 4096;
  Alcotest.(check (option int)) "forwarded" (Some 4096) (Object_model.forwarded m a);
  checkb "nfields of forwarded rejected" true
    (try
       ignore (Object_model.nfields m a);
       false
     with Invalid_argument _ -> true)

let test_object_ref_slots () =
  let m = mem () in
  let f = Memory.alloc_frame m in
  let a = Memory.frame_base m f in
  Object_model.init m a ~tib:(Value.of_addr 512) ~nfields:3;
  Object_model.set_field m a 0 (Value.of_int 1);
  Object_model.set_field m a 1 (Value.of_addr 768);
  let slots = ref [] in
  Object_model.iter_ref_slots m a (fun s -> slots := s :: !slots);
  Alcotest.(check (list int)) "ref slots: tib and field 1"
    [ Object_model.tib_addr a; Object_model.field_addr a 1 ]
    (List.rev !slots)

(* ---- Boot_space / Type_registry ---- *)

let test_boot_space () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:16 in
  let boot = Boot_space.create m in
  let a = Boot_space.alloc boot ~tib:Value.null ~nfields:4 in
  checkb "contains" true (Boot_space.contains boot a);
  checkb "not elsewhere" false (Boot_space.contains boot (a + 100000));
  checki "one frame" 1 (Boot_space.mem_frames boot);
  (* overflow into a second frame *)
  for _ = 1 to 60 do
    ignore (Boot_space.alloc boot ~tib:Value.null ~nfields:4)
  done;
  checkb "grew" true (Boot_space.mem_frames boot >= 2);
  checki "words used" (61 * 6) (Boot_space.words_used boot);
  (* past its allowance the space refuses, without taking a frame *)
  Alcotest.check_raises "allowance" Memory.Out_of_frames (fun () ->
      while true do
        ignore (Boot_space.alloc boot ~tib:Value.null ~nfields:4)
      done);
  checki "at its allowance" Boot_space.max_frames (Boot_space.mem_frames boot);
  checki "no frame taken past it" Boot_space.max_frames (Memory.live_frames m)

let test_type_registry () =
  let m = Memory.create ~frame_log_words:8 ~max_frames:16 in
  let boot = Boot_space.create m in
  let reg = Type_registry.create m boot in
  let t1 = Type_registry.register reg ~name:"cons" in
  let t2 = Type_registry.register reg ~name:"vector" in
  checkb "distinct ids" true (t1 <> t2);
  checki "idempotent" t1 (Type_registry.register reg ~name:"cons");
  checki "count" 2 (Type_registry.count reg);
  Alcotest.(check string) "name" "cons" (Type_registry.name reg t1);
  let tib = Type_registry.tib_value reg t1 in
  checkb "tib is a boot ref" true (Boot_space.contains boot (Value.to_addr tib));
  Alcotest.(check (option int)) "id recoverable" (Some t1) (Type_registry.id_of_tib reg tib);
  Alcotest.(check (option int)) "junk not a tib" None
    (Type_registry.id_of_tib reg (Value.of_int 5))

(* ---- Roots ---- *)

let test_roots_globals () =
  let r = Roots.create () in
  let g = Roots.new_global r (Value.of_int 1) in
  checki "initial" 1 (Value.to_int (Roots.get_global r g));
  Roots.set_global r g (Value.of_int 2);
  checki "updated" 2 (Value.to_int (Roots.get_global r g));
  checki "count" 1 (Roots.global_count r)

let test_roots_stack_discipline () =
  let r = Roots.create () in
  Roots.push r (Value.of_int 1);
  let m = Roots.mark r in
  Roots.push r (Value.of_int 2);
  Roots.push r (Value.of_int 3);
  checki "peek top" 3 (Value.to_int (Roots.peek r 0));
  checki "peek below" 2 (Value.to_int (Roots.peek r 1));
  Roots.set_peek r 0 (Value.of_int 30);
  checki "set_peek" 30 (Value.to_int (Roots.pop r));
  Roots.release r m;
  checki "released to mark" 1 (Roots.depth r);
  checki "stack_get absolute" 1 (Value.to_int (Roots.stack_get r 0))

let test_roots_iter_update () =
  let r = Roots.create () in
  ignore (Roots.new_global r (Value.of_int 5));
  Roots.push r (Value.of_int 7);
  Roots.iter_update r (fun v ->
      if Value.is_int v then Value.of_int (Value.to_int v + 1) else v);
  let vals = ref [] in
  Roots.iter r (fun v -> vals := Value.to_int v :: !vals);
  Alcotest.(check (list int)) "all slots updated" [ 8; 6 ] !vals

let suite =
  [
    ("addr packing", `Quick, test_addr_packing);
    Prop.to_alcotest addr_roundtrip_prop;
    ("memory geometry", `Quick, test_memory_geometry);
    ("memory alloc/free", `Quick, test_memory_alloc_free);
    ("memory zeroed on reuse", `Quick, test_memory_zeroed_on_reuse);
    ("memory budget", `Quick, test_memory_budget);
    ("memory wild access", `Quick, test_memory_wild_access);
    ("memory blit/fill", `Quick, test_memory_blit_fill);
    ("memory blit frame boundary", `Quick, test_memory_blit_frame_boundary);
    ("memory contiguous recycles", `Quick, test_memory_contiguous_recycles);
    ("memory contiguous fresh fallback", `Quick, test_memory_contiguous_fresh_fallback);
    ("memory contiguous full budget", `Quick, test_memory_contiguous_full_budget);
    ("memory contiguous lowest run", `Quick, test_memory_contiguous_lowest_run);
    ("memory contiguous after gap", `Quick, test_memory_contiguous_after_gap);
    ("memory contiguous range bound", `Quick, test_memory_contiguous_range_bound);
    ("memory cas_word", `Quick, test_memory_cas_word);
    Prop.to_alcotest memory_model_prop;
    ("value tags", `Quick, test_value_tags);
    ("value errors", `Quick, test_value_errors);
    Prop.to_alcotest value_int_roundtrip_prop;
    ("object layout", `Quick, test_object_layout);
    ("object forwarding", `Quick, test_object_forwarding);
    ("object ref slots", `Quick, test_object_ref_slots);
    ("boot space", `Quick, test_boot_space);
    ("type registry", `Quick, test_type_registry);
    ("roots globals", `Quick, test_roots_globals);
    ("roots stack discipline", `Quick, test_roots_stack_discipline);
    ("roots iter_update", `Quick, test_roots_iter_update);
  ]
