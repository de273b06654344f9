(* The reclamation-strategy registry's conformance gate (dune alias
   @strategy).

   Every registered strategy — looked up purely by its registry name,
   with no reference to the modules implementing it — must reclaim a
   real heap soundly on every base configuration in the grid: a
   mirrored random workload under the level-2 (paranoid) sanitizer,
   then a full collection leaving a clean integrity check and
   oracle-exact occupancy. A new registry entry is picked up here
   automatically. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module Strategy = Beltway.Strategy
module State = Beltway.State
module Sanitizer = Beltway_check.Sanitizer
module Trace = Beltway_workload.Trace
module Torture = Beltway_workload.Torture

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse_ok s =
  match Config.parse s with
  | Ok c -> c
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

(* The base configurations every strategy must handle: the two-belt
   semispace-like collector, Appel, and the paper's headline
   three-belt configuration. *)
let base_configs = [ "ss"; "appel"; "25.25.100" ]

(* One strategy on one base config: mirrored random workload under the
   paranoid sanitizer, then a full collection and the oracle's
   verdict. Copying and compacting strategies must end with occupancy
   exactly equal to the oracle's live words; mark-sweep reclaims in
   place, so its dead runs legitimately stay resident as free-list
   fillers and only the direction of the bound is checked. *)
let run_one ~key ~config_s =
  let cs =
    if key = Strategy.default_name then config_s
    else config_s ^ "+strategy:" ^ key
  in
  let config = parse_ok cs in
  let strat =
    match Strategy.resolve config with
    | Ok s -> s
    | Error e -> Alcotest.failf "Strategy.resolve %S: %s" cs e
  in
  checks (cs ^ " resolves to its own registry entry") key (Strategy.name strat);
  let gc = Gc.create ~frame_log_words:8 ~config ~heap_bytes:(768 * 1024) () in
  checks (cs ^ ": Gc.strategy_name agrees") key (Gc.strategy_name gc);
  let san = Sanitizer.attach ~level:Sanitizer.Paranoid gc in
  List.iter
    (fun seed ->
      let tr = Trace.random ~seed ~nroots:8 ~len:2000 in
      match Trace.compare_with_mirror gc tr with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: mirror divergence: %s" cs e)
    [ 1; 2 ];
  Gc.full_collect gc;
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: integrity: %s" cs e);
  let retained = Beltway.Oracle.retained_garbage_words gc in
  if Strategy.moving strat.State.strategy_kind then
    checki (cs ^ ": full collection reclaims all garbage") 0 retained
  else
    checkb
      (Printf.sprintf "%s: occupancy bounds the oracle (%d filler words)" cs
         retained)
      true (retained >= 0);
  checkb
    (Printf.sprintf "%s: sanitizer clean after %d collections" cs
       (Sanitizer.collections_checked san))
    true (Sanitizer.ok san)

let conformance (i : Strategy.info) () =
  (* The registry's own exemplar first, then the full base grid. *)
  let exemplar = parse_ok i.Strategy.exemplar_config in
  (match Strategy.resolve exemplar with
  | Ok s ->
    checks
      (i.Strategy.exemplar_config ^ " resolves to its own registry entry")
      i.Strategy.key (Strategy.name s)
  | Error e ->
    Alcotest.failf "Strategy.resolve %S: %s" i.Strategy.exemplar_config e);
  List.iter
    (fun config_s -> run_one ~key:i.Strategy.key ~config_s)
    base_configs

let test_resolution_errors () =
  let err cs =
    match Strategy.resolve (parse_ok cs) with
    | Ok _ -> Alcotest.failf "resolve %S unexpectedly succeeded" cs
    | Error e -> e
  in
  checkb "unknown strategy is rejected" true
    (String.length (err "25.25+strategy:nonesuch") > 0);
  checks "no suffix resolves to the default" Strategy.default_name
    (Strategy.name (Result.get_ok (Strategy.resolve (parse_ok "25.25.100"))));
  (* Gc.create surfaces resolution failures as Invalid_argument. *)
  checkb "Gc.create raises on an unknown strategy" true
    (try
       ignore
         (Gc.create
            ~config:(parse_ok "25.25+strategy:nonesuch")
            ~heap_bytes:(64 * 1024) ());
       false
     with Invalid_argument _ -> true)

(* Same convention as [Test_torture]: with [BELTWAY_VERIFY_EVERY=n]
   the full integrity checker runs at every nth completed collection
   (the @strategy alias sets n=3), otherwise only at the end. *)
let verify_every =
  match Sys.getenv_opt "BELTWAY_VERIFY_EVERY" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None)
  | None -> None

let install_verify_every gc =
  match verify_every with
  | None -> ()
  | Some n ->
    let count = ref 0 in
    State.add_hooks (Gc.state gc)
      {
        State.noop_hooks with
        on_collect_end =
          (fun ~full_heap:_ ->
            incr count;
            if !count mod n = 0 then Beltway.Verify.check_exn gc);
      }

(* The adversarial scenarios complete (or OOM) soundly under the
   in-place strategies too, leaving a verifiable heap with no live
   data once the roots are dropped. *)
let test_torture key () =
  List.iter
    (fun (t : Torture.t) ->
      let config = parse_ok ("25.25.100+strategy:" ^ key) in
      let gc =
        Gc.create ~frame_log_words:8 ~config ~heap_bytes:(2048 * 1024) ()
      in
      install_verify_every gc;
      let completed =
        try
          t.Torture.run gc;
          true
        with Gc.Out_of_memory _ -> false
      in
      if completed then begin
        (match Beltway.Verify.check gc with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s under %s: integrity: %s" t.Torture.name key e);
        (try Gc.full_collect gc with Gc.Out_of_memory _ -> ());
        checki
          (Printf.sprintf "%s under %s leaves no live data" t.Torture.name key)
          0
          (Beltway.Oracle.live_words gc)
      end)
    Torture.all

let suite =
  List.map
    (fun (i : Strategy.info) ->
      ("strategy conformance: " ^ i.Strategy.key, `Quick, conformance i))
    Strategy.infos
  @ [ ("resolution errors", `Quick, test_resolution_errors) ]
  @ List.map
      (fun key -> ("torture under " ^ key, `Slow, test_torture key))
      [ "marksweep"; "markcompact" ]
