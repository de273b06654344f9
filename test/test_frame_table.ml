(* The flat frame table behind the collection fast path: the packed
   metadata word must round-trip, the table must agree with the legacy
   two-array Frame_info under any operation sequence, and after real GC
   workloads every frame's word must describe its owning increment. *)

module Frame_table = Beltway.Frame_table
module Frame_info = Beltway_check.Frame_info
module Gc = Beltway.Gc
module Config = Beltway.Config
module State = Beltway.State
module Increment = Beltway.Increment

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- packed word round-trip ---- *)

let pack_roundtrip_prop =
  QCheck.Test.make ~name:"packed meta word round-trips" ~count:500
    QCheck.(triple (int_range (-1) (1 lsl 20)) bool bool)
    (fun (incr, pinned, in_plan) ->
      let m = Frame_table.pack ~incr ~pinned ~in_plan in
      Frame_table.meta_incr m = incr
      && Frame_table.meta_pinned m = pinned
      && Frame_table.meta_in_plan m = in_plan)

let test_pack_corners () =
  checki "no_meta decodes to no increment" (-1)
    (Frame_table.meta_incr Frame_table.no_meta);
  checkb "no_meta not pinned" false (Frame_table.meta_pinned Frame_table.no_meta);
  checkb "no_meta not in plan" false
    (Frame_table.meta_in_plan Frame_table.no_meta);
  (* the boot-space owner sentinel *)
  let m = Frame_table.pack ~incr:(-1) ~pinned:false ~in_plan:false in
  checki "incr -1 survives packing" (-1) (Frame_table.meta_incr m)

(* ---- agreement with the legacy Frame_info under random ops ---- *)

type op =
  | Set of int * int * int (* frame, stamp, incr *)
  | Restamp of int * int (* frame, stamp *)
  | Clear of int (* frame *)

let op_gen =
  QCheck.Gen.(
    let frame = int_range 0 300 in
    oneof
      [
        map3 (fun f s i -> Set (f, s, i)) frame (int_range 0 10_000)
          (int_range 0 500);
        map2 (fun f s -> Restamp (f, s)) frame (int_range 0 10_000);
        map (fun f -> Clear f) frame;
      ])

let apply_both ft fi set_frames op =
  match op with
  | Set (frame, stamp, incr) ->
    Frame_table.set ft ~frame ~stamp ~incr ~pinned:false;
    Frame_info.set fi ~frame ~stamp ~incr;
    Hashtbl.replace set_frames frame ()
  | Restamp (frame, stamp) ->
    Frame_table.restamp ft ~frame ~stamp;
    Frame_info.restamp fi ~frame ~stamp
  | Clear frame ->
    Frame_table.clear ft ~frame;
    Frame_info.clear fi ~frame

let agreement_prop =
  QCheck.Test.make
    ~name:"frame table agrees with legacy Frame_info under random ops" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) op_gen))
    (fun ops ->
      let ft = Frame_table.create ~max_frames:300 in
      let fi = Frame_info.create () in
      let set_frames = Hashtbl.create 16 in
      List.iter (apply_both ft fi set_frames) ops;
      (* Probe every frame ever touched plus a band of never-touched
         ones (exercising the out-of-capacity defaults). *)
      let ok = ref true in
      for frame = 0 to 310 do
        if Frame_table.stamp ft frame <> Frame_info.stamp fi frame then ok := false;
        if Frame_table.incr_of ft frame <> Frame_info.incr_of fi frame then
          ok := false;
        (* plain sets never pin or plan a frame *)
        if Frame_table.pinned ft frame || Frame_table.in_plan ft frame then
          ok := false
      done;
      (* far beyond both tables' capacity *)
      !ok
      && Frame_table.stamp ft 100_000 = Frame_table.no_stamp
      && Frame_table.incr_of ft 100_000 = -1)

let test_in_plan_bit_is_orthogonal () =
  let ft = Frame_table.create ~max_frames:8 in
  Frame_table.set ft ~frame:7 ~stamp:42 ~incr:3 ~pinned:true;
  Frame_table.set_in_plan ft ~frame:7 true;
  checki "stamp unaffected by plan bit" 42 (Frame_table.stamp ft 7);
  checki "incr unaffected by plan bit" 3 (Frame_table.incr_of ft 7);
  checkb "pinned unaffected by plan bit" true (Frame_table.pinned ft 7);
  checkb "in plan" true (Frame_table.in_plan ft 7);
  Frame_table.restamp ft ~frame:7 ~stamp:43;
  checkb "restamp preserves plan bit" true (Frame_table.in_plan ft 7);
  Frame_table.set_in_plan ft ~frame:7 false;
  checkb "plan bit cleared" false (Frame_table.in_plan ft 7);
  checkb "pinned survives plan-bit clear" true (Frame_table.pinned ft 7);
  (* re-granting a frame resets the plan bit *)
  Frame_table.set_in_plan ft ~frame:7 true;
  Frame_table.set ft ~frame:7 ~stamp:1 ~incr:9 ~pinned:false;
  checkb "set clears plan bit" false (Frame_table.in_plan ft 7)

(* ---- agreement with the increments after real GC workloads ---- *)

(* After any mix of allocation, mutation and collections, every frame
   of every live increment must carry that increment's id, stamp and
   pinnedness, with the plan bit clear (no collection in progress). *)
let check_table_describes_heap cs gc =
  let st = Gc.state gc in
  let ft = st.State.ftab in
  List.iter
    (fun (inc : Increment.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: inc %d not left in_plan" cs inc.Increment.id)
        false inc.Increment.in_plan;
      Alcotest.(check bool)
        (Printf.sprintf "%s: inc %d not left marked" cs inc.Increment.id)
        false inc.Increment.gc_mark;
      Beltway_util.Int_vec.iter
        (fun frame ->
          checki
            (Printf.sprintf "%s: frame %d owner" cs frame)
            inc.Increment.id (Frame_table.incr_of ft frame);
          checki
            (Printf.sprintf "%s: frame %d stamp" cs frame)
            inc.Increment.stamp (Frame_table.stamp ft frame);
          checkb
            (Printf.sprintf "%s: frame %d pinned bit" cs frame)
            inc.Increment.pinned
            (Frame_table.pinned ft frame);
          checkb
            (Printf.sprintf "%s: frame %d not in plan" cs frame)
            false
            (Frame_table.in_plan ft frame))
        inc.Increment.frames)
    (State.live_increments st)

let test_table_vs_heap_under_workloads () =
  List.iter
    (fun cs ->
      for seed = 1 to 6 do
        let config = Result.get_ok (Config.parse cs) in
        let gc =
          Gc.create ~frame_log_words:8 ~config ~heap_bytes:(192 * 1024) ()
        in
        let tr = Beltway_workload.Trace.random ~seed ~nroots:10 ~len:2000 in
        (match Beltway_workload.Trace.compare_with_mirror gc tr with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d under %s: %s" seed cs e);
        check_table_describes_heap cs gc;
        (* and again after a forced full collection moved everything *)
        Gc.full_collect gc;
        check_table_describes_heap cs gc
      done)
    [ "ss"; "appel"; "25.25.100"; "25.25.100+cards"; "25.25.100+los:48" ]

let suite =
  [
    Prop.to_alcotest pack_roundtrip_prop;
    ("pack corners", `Quick, test_pack_corners);
    Prop.to_alcotest agreement_prop;
    ("in-plan bit orthogonal", `Quick, test_in_plan_bit_is_orthogonal);
    ( "table describes heap under workloads",
      `Quick,
      test_table_vs_heap_under_workloads );
  ]
