(* Tests for the configuration surface: named collectors, the
   command-line parser, validation and bound resolution. *)

module Config = Beltway.Config

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let parse_ok s =
  match Config.parse s with
  | Ok c -> c
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let parse_err s =
  match Config.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error e -> e

let test_named_shapes () =
  checki "ss: one belt" 1 (Array.length Config.semi_space.Config.belts);
  checki "appel: two belts" 2 (Array.length Config.appel.Config.belts);
  checki "appel3: three belts" 3 (Array.length Config.appel3.Config.belts);
  checkb "appel reserves half" true (Config.appel.Config.reserve = Config.Half);
  checkb "BA2 dynamic" true (Config.beltway_appel.Config.reserve = Config.Dynamic);
  checkb "ss is FIFO" true (Config.semi_space.Config.order = Config.Global_fifo);
  checkb "bof flips" true ((Config.bof ~pct:25).Config.flip);
  checkb "bofm single belt" true (Array.length (Config.bofm ~pct:25).Config.belts = 1)

let test_parse_named () =
  List.iter
    (fun (s, expect_belts) ->
      let c = parse_ok s in
      checki (s ^ " belts") expect_belts (Array.length c.Config.belts))
    [
      ("ss", 1); ("bss", 1); ("appel", 2); ("ba2", 2); ("appel3", 3);
      ("fixed:25", 2); ("ofm:20", 1); ("bofm:20", 1); ("of:20", 2); ("bof:20", 2);
      ("25.25", 2); ("100.100", 2); ("25.25.100", 3); ("10.10.100", 3); ("40.20", 2);
      ("40.20.100", 3);
    ]

let test_parse_case_insensitive () =
  checki "APPEL" 2 (Array.length (parse_ok "APPEL").Config.belts)

let test_parse_rejects () =
  List.iter
    (fun s -> ignore (parse_err s))
    [ ""; "nope"; "fixed:"; "fixed:0"; "fixed:101"; "0.25"; "25.0"; "25.25.50";
      "25"; "25.25.100.100"; "of:x"; "25.25+bogus"; "25.25+ttd" ]

let test_parse_options () =
  let c = parse_ok "25.25.100+nofilter" in
  checkb "nofilter" false c.Config.nursery_filter;
  let c = parse_ok "25.25+remtrig:5000" in
  Alcotest.(check (option int)) "remtrig" (Some 5000) c.Config.remset_trigger;
  let c = parse_ok "appel+ttd:16" in
  Alcotest.(check (option int)) "ttd" (Some 16) c.Config.ttd_frames;
  checkb "ttd disables filter" false c.Config.nursery_filter;
  let c = parse_ok "25.25+halfreserve" in
  checkb "halfreserve" true (c.Config.reserve = Config.Half)

let test_validation_rules () =
  (* the nursery filter is only sound under belt-major stamping *)
  let bad = { (Config.bofm ~pct:25) with Config.nursery_filter = true } in
  checkb "filter under FIFO rejected" true (Result.is_error (Config.validate bad));
  let bad = { Config.semi_space with Config.flip = true } in
  checkb "flip needs two belts" true (Result.is_error (Config.validate bad));
  checkb "named configs validate" true
    (List.for_all
       (fun c -> Result.is_ok (Config.validate c))
       [
         Config.semi_space; Config.appel; Config.appel3; Config.beltway_appel;
         Config.fixed_nursery ~pct:25; Config.bofm ~pct:25; Config.bof ~pct:25;
         Config.beltway_xx ~x:25; Config.beltway_xx100 ~x:25;
       ])

let test_label_roundtrip () =
  List.iter
    (fun s ->
      let c = parse_ok s in
      Alcotest.(check string) ("label of " ^ s) s (Config.to_string c))
    [ "ss"; "appel"; "25.25"; "25.25.100"; "25.25+remtrig:5000" ]

let test_resolve_bound () =
  let c = parse_ok "25.25" in
  Alcotest.(check (option int))
    "whole heap unbounded" None
    (Config.resolve_bound c ~heap_frames:100 Config.Whole_heap);
  (* dynamic reserve: x% of usable = heap * x / (100 + x) *)
  Alcotest.(check (option int))
    "pct under dynamic" (Some 20)
    (Config.resolve_bound c ~heap_frames:100 (Config.Pct 25));
  let h = parse_ok "fixed:25" in
  (* half reserve: x% of half the heap *)
  Alcotest.(check (option int))
    "pct under half" (Some 12)
    (Config.resolve_bound h ~heap_frames:100 (Config.Pct 25));
  Alcotest.(check (option int))
    "never zero" (Some 1)
    (Config.resolve_bound c ~heap_frames:4 (Config.Pct 1))

let test_x100_equals_appel_when_100 () =
  (* Beltway 100.100 must be the Appel shape with a dynamic reserve. *)
  let c = parse_ok "100.100" in
  checkb "nursery unbounded" true (c.Config.belts.(0).Config.bound = Config.Whole_heap);
  checkb "promotes next" true (c.Config.belts.(0).Config.promote = Config.Next_belt);
  checkb "top same-belt" true (c.Config.belts.(1).Config.promote = Config.Same_belt)

let suite =
  [
    ("named shapes", `Quick, test_named_shapes);
    ("parse named", `Quick, test_parse_named);
    ("parse case-insensitive", `Quick, test_parse_case_insensitive);
    ("parse rejects", `Quick, test_parse_rejects);
    ("parse options", `Quick, test_parse_options);
    ("validation rules", `Quick, test_validation_rules);
    ("label roundtrip", `Quick, test_label_roundtrip);
    ("resolve bound", `Quick, test_resolve_bound);
    ("100.100 is Appel-shaped", `Quick, test_x100_equals_appel_when_100);
  ]

(* Random configuration strings must never crash the parser, and every
   accepted configuration must pass validation and drive a real heap. *)
let config_fuzz_prop =
  QCheck.Test.make ~name:"config parser total on random strings" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 20) QCheck.Gen.printable)
    (fun s ->
      match Config.parse s with
      | Ok c -> Result.is_ok (Config.validate c)
      | Error _ -> true)

let accepted_configs_run_prop =
  (* generate structured random configs and check they run a tiny trace *)
  let gen =
    QCheck.Gen.(
      let* x = int_range 1 100 in
      let* y = int_range 1 100 in
      let* suffix = oneofl [ ""; "+nofilter"; "+cards"; "+los:16"; "+halfreserve"; "+remtrig:500" ] in
      let* shape = oneofl [ `XY; `XY100; `Named ] in
      match shape with
      | `XY -> return (Printf.sprintf "%d.%d%s" x y suffix)
      | `XY100 -> return (Printf.sprintf "%d.%d.100%s" x y suffix)
      | `Named ->
        let* base = oneofl [ "ss"; "appel"; "appel3"; "ofm:30"; "of:30"; "fixed:30" ] in
        return (base ^ suffix))
  in
  QCheck.Test.make ~name:"every accepted config drives a heap soundly" ~count:60
    (QCheck.make gen)
    (fun s ->
      match Config.parse s with
      | Error _ -> true
      | Ok config ->
        let gc =
          Beltway.Gc.create ~frame_log_words:8 ~config ~heap_bytes:(128 * 1024) ()
        in
        let tr = Beltway_workload.Trace.random ~seed:7 ~nroots:6 ~len:600 in
        (try
           Beltway_workload.Trace.execute gc tr;
           Result.is_ok (Beltway.Verify.check gc)
         with Beltway.Gc.Out_of_memory _ -> true))

(* parse → print → parse must be the identity on accepted strings, and
   must keep selecting the same collector policy. *)
let policy_of c =
  match Beltway.Policy.resolve c with
  | Ok p -> Ok (Beltway.Policy.name p)
  | Error e -> Error e

let roundtrips s =
  match Config.parse s with
  | Error _ -> true
  | Ok c -> (
    let printed = Config.to_string c in
    match Config.parse printed with
    | Error e -> Alcotest.failf "reparse of %S (from %S) failed: %s" printed s e
    | Ok c2 ->
      if c <> c2 then
        Alcotest.failf "%S: parse(print(parse)) differs structurally" s;
      if Config.to_string c2 <> printed then
        Alcotest.failf "%S: print is not stable under reparse" s;
      (match (policy_of c, policy_of c2) with
      | Ok a, Ok b when a = b -> ()
      | Error _, Error _ -> ()
      | _ -> Alcotest.failf "%S: reparse selects a different policy" s);
      true)

(* Every registered configuration string must round-trip and resolve. *)
let test_registered_roundtrip () =
  List.iter
    (fun s ->
      let c = parse_ok s in
      checkb (s ^ " round-trips") true (roundtrips s);
      checkb (s ^ " resolves a policy") true (Result.is_ok (policy_of c)))
    [
      "ss"; "bss"; "appel"; "ba2"; "appel3"; "fixed:25"; "ofm:25"; "of:25";
      "25.25"; "100.100"; "25.25.100"; "100.100.100";
      (* explicit registry selections, the exemplars included *)
      "25.25+policy:beltway"; "25.25+policy:sweep:4"; "25.25+policy:sweep";
      "25.25+nofilter+policy:older-first"; "25.25+policy:sweep:6"; "of:25+policy:older-first";
    ]

let config_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      let* x = int_range 1 100 in
      let* y = int_range 1 100 in
      let* suffix =
        oneofl
          [ ""; "+nofilter"; "+cards"; "+halfreserve"; "+remtrig:500";
            "+policy:beltway"; "+policy:sweep:3"; "+policy:sweep";
            "+nofilter+policy:older-first" ]
      in
      let* shape = oneofl [ `XY; `XY100 ] in
      match shape with
      | `XY -> return (Printf.sprintf "%d.%d%s" x y suffix)
      | `XY100 -> return (Printf.sprintf "%d.%d.100%s" x y suffix))
  in
  QCheck.Test.make ~name:"parse/print/parse is the identity and policy-stable"
    ~count:50 (QCheck.make gen) roundtrips

let suite =
  suite
  @ [
      ("registered configs round-trip", `Quick, test_registered_roundtrip);
      Prop.to_alcotest config_fuzz_prop;
      Prop.to_alcotest accepted_configs_run_prop;
      Prop.to_alcotest config_roundtrip_prop;
    ]
