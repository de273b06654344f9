(* The parallel drain's conformance gate: sharding a collection across
   domains must be invisible to the mutator.

   Three bars, rising:
   - byte-identity at [gc_domains = 1]: the dispatch must take the
     sequential path, so every per-collection statistic matches a
     default heap exactly;
   - Oracle equivalence at [gc_domains = k]: the same trace executed
     under k domains ends isomorphic to the collector-free mirror
     (hence to the 1-domain heap) and agrees exactly on reachable
     words, under the paranoid sanitizer throughout;
   - torture across domain counts: the adversarial scenarios complete
     (or OOM) soundly at 1, 2 and 4 domains, re-verifying integrity at
     every nth collection when [BELTWAY_VERIFY_EVERY] is set (the
     @parallel alias runs this file with it at 1). *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module Gc_stats = Beltway.Gc_stats
module Trace = Beltway_workload.Trace
module Torture = Beltway_workload.Torture
module Sanitizer = Beltway_check.Sanitizer
module Vec = Beltway_util.Vec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let configs =
  [ "ss"; "appel"; "25.25.100"; "appel+cards"; "25.25.100+los:128" ]

let domain_counts = [ 2; 4 ]
let seeds = [ 11; 23; 47 ]

let make_gc ~config_s ~domains ~heap_kb =
  let config = Result.get_ok (Config.parse config_s) in
  Gc.create ~frame_log_words:8 ~gc_domains:domains ~config
    ~heap_bytes:(heap_kb * 1024) ()

(* One trace under one domain count, paranoid sanitizer attached:
   mirror-isomorphic at the end, clean integrity, clean sanitizer.
   Returns the exact reachable word count for cross-domain-count
   comparison. *)
let run_trace ~config_s ~domains tr =
  let gc = make_gc ~config_s ~domains ~heap_kb:768 in
  let san = Sanitizer.attach ~level:Sanitizer.Paranoid gc in
  (match Trace.compare_with_mirror gc tr with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s at %d domains: mirror divergence: %s" config_s domains e);
  Gc.full_collect gc;
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s at %d domains: integrity: %s" config_s domains e);
  checkb
    (Printf.sprintf "%s at %d domains: sanitizer clean over %d collections"
       config_s domains
       (Sanitizer.collections_checked san))
    true (Sanitizer.ok san);
  Beltway.Oracle.live_words gc

let test_equivalence config_s () =
  List.iter
    (fun seed ->
      let tr = Trace.random ~seed ~nroots:8 ~len:2500 in
      let base = run_trace ~config_s ~domains:1 tr in
      List.iter
        (fun d ->
          checki
            (Printf.sprintf "%s seed %d: %d domains reach the 1-domain heap"
               config_s seed d)
            base
            (run_trace ~config_s ~domains:d tr))
        domain_counts)
    seeds

(* [gc_domains = 1] must be the sequential collector, bit for bit: a
   heap explicitly configured for one domain replays a default heap's
   every statistic. Records are compared on every field but the
   wall-clock ones, which no two runs share. *)
let test_one_domain_identity () =
  let tr = Trace.random ~seed:7 ~nroots:8 ~len:4000 in
  let run ~explicit =
    let config = Result.get_ok (Config.parse "25.25.100") in
    let gc =
      if explicit then
        Gc.create ~frame_log_words:8 ~gc_domains:1 ~config
          ~heap_bytes:(768 * 1024) ()
      else Gc.create ~frame_log_words:8 ~config ~heap_bytes:(768 * 1024) ()
    in
    Trace.execute gc tr;
    Gc.full_collect gc;
    Gc.stats gc
  in
  let a = run ~explicit:false and b = run ~explicit:true in
  checki "same collection count" (Gc_stats.gcs a) (Gc_stats.gcs b);
  checki "same words allocated" a.Gc_stats.words_allocated
    b.Gc_stats.words_allocated;
  checki "same barrier ops" a.Gc_stats.barrier_ops b.Gc_stats.barrier_ops;
  for i = 0 to Gc_stats.gcs a - 1 do
    let ca = Vec.get a.Gc_stats.collections i
    and cb = Vec.get b.Gc_stats.collections i in
    checkb (Printf.sprintf "collection %d identical" i) true
      (Gc_stats.same_untimed ca cb)
  done

(* Same convention as [Test_torture]: with [BELTWAY_VERIFY_EVERY=n]
   the full integrity checker runs at every nth completed collection
   (the @parallel alias sets n=1), otherwise only at the end. *)
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
    Beltway.State.add_hooks (Gc.state gc)
      {
        Beltway.State.noop_hooks with
        on_collect_end =
          (fun ~full_heap:_ ->
            incr count;
            if !count mod n = 0 then Beltway.Verify.check_exn gc);
      }

let test_torture domains () =
  List.iter
    (fun (t : Torture.t) ->
      List.iter
        (fun config_s ->
          let gc = make_gc ~config_s ~domains ~heap_kb:2048 in
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
              Alcotest.failf "%s under %s at %d domains: integrity: %s"
                t.Torture.name config_s domains e);
            (try Gc.full_collect gc with Gc.Out_of_memory _ -> ());
            checki
              (Printf.sprintf "%s under %s at %d domains leaves no live data"
                 t.Torture.name config_s domains)
              0
              (Beltway.Oracle.live_words gc)
          end)
        [ "25.25.100"; "appel+cards" ])
    Torture.all

(* Non-moving strategies have no per-domain reserve chunks to shard
   over, so asking them to parallelise must be a clean, early, tested
   error — from [Strategy.check_domains], [Gc.create] and
   [Gc.set_gc_domains] alike — while 1 domain remains fine. *)
let test_strategy_rejection () =
  List.iter
    (fun strat ->
      let config_s = "25.25.100+strategy:" ^ strat in
      let config = Result.get_ok (Config.parse config_s) in
      let expected =
        Printf.sprintf
          "strategy %s does not support a parallel drain (--gc-domains 2); \
           use --gc-domains 1 or the copying strategy"
          strat
      in
      (match Beltway.Strategy.resolve config with
      | Error e -> Alcotest.failf "%s: did not resolve: %s" config_s e
      | Ok s -> (
        match Beltway.Strategy.check_domains s ~gc_domains:2 with
        | Ok () -> Alcotest.failf "%s accepted 2 domains" config_s
        | Error e ->
          Alcotest.(check string)
            (config_s ^ ": check_domains names the fix")
            expected e));
      (match
         Gc.create ~frame_log_words:8 ~gc_domains:2 ~config
           ~heap_bytes:(256 * 1024) ()
       with
      | exception Invalid_argument e ->
        Alcotest.(check string)
          (config_s ^ ": Gc.create rejects 2 domains")
          ("Gc.create: " ^ expected) e
      | _ -> Alcotest.failf "Gc.create accepted %s at 2 domains" config_s);
      (* 1 domain (explicit or defaulted) must still work... *)
      let gc =
        Gc.create ~frame_log_words:8 ~gc_domains:1 ~config
          ~heap_bytes:(256 * 1024) ()
      in
      (* ...and a later escalation is rejected without wedging the heap. *)
      (match Gc.set_gc_domains gc 4 with
      | exception Invalid_argument e ->
        checkb
          (config_s ^ ": set_gc_domains names the strategy")
          true
          (String.length e > String.length "Gc.set_gc_domains: "
          && String.sub e 0 19 = "Gc.set_gc_domains: ")
      | () -> Alcotest.failf "set_gc_domains accepted %s at 4 domains" config_s);
      checki (config_s ^ ": heap stays sequential") 1 (Gc.gc_domains gc);
      let ty = Gc.register_type gc ~name:"parallel.reject" in
      ignore (Gc.alloc gc ~ty ~nfields:2);
      Gc.full_collect gc)
    [ "marksweep"; "markcompact" ]

let suite =
  ("1 domain is the sequential collector", `Quick, test_one_domain_identity)
  :: ("non-moving strategies reject a parallel drain", `Quick,
      test_strategy_rejection)
  :: List.map
       (fun cs -> ("oracle equivalence " ^ cs, `Slow, test_equivalence cs))
       configs
  @ List.map
      (fun d ->
        (Printf.sprintf "torture at %d domains" d, `Slow, test_torture d))
      [ 1; 2; 4 ]
