(* The GC flight recorder: ring semantics, 1:1 agreement between
   recorded pause spans and the collection log, exporter shapes, and
   the MMU cross-check. *)

module Gc = Beltway.Gc
module Gc_stats = Beltway.Gc_stats
module State = Beltway.State
module Config = Beltway.Config
module Ring = Beltway_obs.Ring
module Metrics = Beltway_obs.Metrics
module Recorder = Beltway_obs.Recorder
module Chrome_trace = Beltway_obs.Chrome_trace
module Mmu = Beltway_sim.Mmu
module Json = Beltway_util.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let cfg s = Result.get_ok (Config.parse s)

(* A small list-churning mutator that provokes a few dozen collections
   (including the closing full collection) in a 256 KB heap. *)
let traced_run ?capacity () =
  let gc = Gc.create ~config:(cfg "25.25.100") ~heap_bytes:(256 * 1024) () in
  let recorder = Recorder.attach ?capacity gc in
  let ty = Gc.register_type gc ~name:"obs.test" in
  let roots = Roots.new_global (Gc.roots gc) Value.null in
  for i = 1 to 80_000 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc a 0 (Value.of_int i);
    if i mod 64 = 0 then Roots.set_global (Gc.roots gc) roots (Value.of_addr a)
    else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) roots)
  done;
  Gc.full_collect gc;
  Recorder.detach recorder;
  (gc, recorder)

(* ---- Ring ---- *)

let test_ring () =
  let r = Ring.create ~capacity:4 ~dummy:0 in
  checkb "fresh is empty" true (Ring.is_empty r);
  for i = 1 to 10 do
    Ring.push r i
  done;
  checki "length capped" 4 (Ring.length r);
  checki "dropped counts overflow" 6 (Ring.dropped r);
  checki "oldest survivor" 7 (Ring.get r 0);
  checki "newest" 10 (Ring.get r 3);
  Alcotest.(check (list int)) "oldest-first" [ 7; 8; 9; 10 ] (Ring.to_list r);
  checki "fold" 34 (Ring.fold r ~init:0 ~f:( + ));
  Ring.clear r;
  checki "cleared" 0 (Ring.length r);
  checki "clear resets dropped" 0 (Ring.dropped r);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

(* ---- pause spans vs the collection log ---- *)

let records stats = Beltway_util.Vec.to_list stats.Gc_stats.collections

let test_pause_agreement () =
  let gc, r = traced_run () in
  let stats = Gc.stats gc in
  let gcs = Gc_stats.gcs stats in
  checkb "run collected" true (gcs > 10);
  checki "recorder saw every pause" gcs (Recorder.collections r);
  checki "pause arrays aligned" gcs (Array.length (Recorder.pause_durs_us r));
  checki "nothing dropped" 0 (Recorder.dropped r);
  let viewed = ref [] in
  Recorder.iter_collections r (fun c -> viewed := c :: !viewed);
  checkb "the recorder views the collection log" true
    (List.for_all2 ( == ) (records stats) (List.rev !viewed));
  (* Pause starts ascend, durations are non-negative and are the
     records' own. *)
  let starts = Recorder.pause_starts_us r in
  let durs = Recorder.pause_durs_us r in
  List.iteri
    (fun i c ->
      checki "ordinal" i c.Gc_stats.n;
      checkb "dur >= 0" true (durs.(i) >= 0.0);
      checkf "dur is the record's" (float_of_int c.Gc_stats.pause_ns /. 1e3) durs.(i);
      if i > 0 then checkb "starts ascend" true (starts.(i) >= starts.(i - 1)))
    (records stats)

(* Every record carries its phases in pipeline order, each inside the
   pause and none overlapping the next. *)
let check_phases ~label (c : Gc_stats.collection) =
  let pause_end = c.Gc_stats.start_ns + c.Gc_stats.pause_ns in
  let prev_end = ref c.Gc_stats.start_ns in
  checki (label ^ ": one span per phase") (2 * Array.length c.Gc_stats.phases)
    (Array.length c.Gc_stats.phase_ns);
  Gc_stats.iter_spans c.Gc_stats.phases c.Gc_stats.phase_ns
    (fun phase ~start_ns ~dur_ns ->
      let name = label ^ " " ^ Gc_stats.phase_to_string phase in
      checkb (name ^ " dur >= 0") true (dur_ns >= 0);
      checkb (name ^ " after the previous phase") true (start_ns >= !prev_end);
      prev_end := start_ns + dur_ns);
  checkb (label ^ ": phases inside the pause") true (!prev_end <= pause_end)

let test_phase_spans () =
  let gc, _ = traced_run () in
  List.iter
    (fun (c : Gc_stats.collection) ->
      check_phases ~label:(Printf.sprintf "GC %d" c.Gc_stats.n) c;
      checkb "copying pipeline" true
        (c.Gc_stats.phases
        = [| Gc_stats.Phase_roots; Gc_stats.Phase_remset; Gc_stats.Phase_cheney;
             Gc_stats.Phase_free |]))
    (records (Gc.stats gc))

let test_ring_overflow_keeps_pauses () =
  let gc, r = traced_run ~capacity:8 () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  checki "ring clamps retained events" 8 (Recorder.event_count r);
  checkb "overflow counted" true (Recorder.dropped r > 0);
  (* The pause log is the heap's own, so the cross-check still sees
     every collection. *)
  checki "pauses survive overflow" gcs (Recorder.collections r)

(* The exported trace draws pause and phase spans from the collection
   records, so a ring that dropped almost everything still yields one
   GC span per collection, each with its four phase spans. *)
let test_overflowed_trace_keeps_spans () =
  let gc, r = traced_run ~capacity:8 () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  checkb "overflowed" true (Recorder.dropped r > 0);
  let json = Chrome_trace.to_json r in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  let str e name = Option.bind (Json.member name e) Json.to_str in
  let arg e name =
    Option.bind (Json.member "args" e) (fun a ->
        Option.bind (Json.member name a) Json.to_float)
  in
  let spans cat =
    List.filter (fun e -> str e "ph" = Some "X" && str e "cat" = Some cat) events
  in
  let gc_spans = spans "gc" and phase_spans = spans "gc.phase" in
  checki "one GC span per logged collection" gcs (List.length gc_spans);
  List.iter
    (fun (c : Gc_stats.collection) ->
      let n = float_of_int c.Gc_stats.n in
      checki
        (Printf.sprintf "GC %d span" c.Gc_stats.n)
        1
        (List.length (List.filter (fun e -> arg e "n" = Some n) gc_spans));
      Alcotest.(check (list string))
        (Printf.sprintf "GC %d phase spans" c.Gc_stats.n)
        (List.map Gc_stats.phase_to_string (Array.to_list c.Gc_stats.phases))
        (List.filter_map
           (fun e -> if arg e "gc" = Some n then str e "name" else None)
           phase_spans))
    (records (Gc.stats gc))

(* A recorder and a profiler attached to one heap read one record per
   collection, so they report the same pause for every collection. *)
let test_observers_agree_on_pauses () =
  let gc = Gc.create ~config:(cfg "25.25.100") ~heap_bytes:(256 * 1024) () in
  let recorder = Recorder.attach gc in
  let profiler = Beltway_obs.Profiler.attach gc in
  let ty = Gc.register_type gc ~name:"obs.agree" in
  let roots = Roots.new_global (Gc.roots gc) Value.null in
  for i = 1 to 40_000 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    if i mod 64 = 0 then Roots.set_global (Gc.roots gc) roots (Value.of_addr a)
    else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) roots)
  done;
  Beltway_obs.Profiler.detach profiler;
  Recorder.detach recorder;
  let series =
    Option.get
      (Option.bind
         (Json.member "series" (Beltway_obs.Profiler.run_json profiler))
         Json.to_list)
  in
  let profiled =
    List.map
      (fun s -> Option.get (Option.bind (Json.member "pause_us" s) Json.to_float))
      series
  in
  checkb "collected" true (List.length profiled > 5);
  Alcotest.(check (list (float 0.0)))
    "same pause for every collection"
    (Array.to_list (Recorder.pause_durs_us recorder))
    profiled

let test_detach_restores_zero_cost () =
  let gc, _ = traced_run () in
  checkb "no hooks left installed" true ((Gc.state gc).State.hooks = [])

(* ---- exporters ---- *)

let test_metrics_json () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let m = Recorder.metrics r in
  checki "gc.collections counter" gcs (Metrics.counter m "gc.collections");
  let json = Metrics.to_json m in
  Alcotest.(check (option string))
    "schema" (Some "beltway-metrics/1")
    (Option.bind (Json.member "schema" json) Json.to_str);
  let hist name field =
    Option.bind (Json.member "histograms" json) (fun h ->
        Option.bind (Json.member name h) (fun e ->
            Option.bind (Json.member field e) Json.to_float))
  in
  Alcotest.(check (option (float 1e-9)))
    "pause_ns count" (Some (float_of_int gcs))
    (hist "gc.pause_ns" "count");
  checkb "p99 present" true (hist "gc.pause_ns" "p99" <> None);
  checkb "occupancy histogram present" true
    (hist "increment.occupancy_frames" "count" <> None);
  (* Round-trips through the parser. *)
  checkb "parses back" true
    (match Json.of_string (Json.to_string ~indent:true json) with
    | _ -> true
    | exception Json.Parse_error _ -> false)

let test_chrome_trace () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let json = Chrome_trace.to_json ~process_name:"obs-test" r in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  let str e name = Option.bind (Json.member name e) Json.to_str in
  let gc_spans =
    List.filter (fun e -> str e "ph" = Some "X" && str e "cat" = Some "gc") events
  in
  checki "one GC span per collection" gcs (List.length gc_spans);
  List.iter
    (fun e ->
      checkb "span has ts" true (Json.member "ts" e <> None);
      checkb "span has dur" true (Json.member "dur" e <> None))
    gc_spans;
  let thread_names =
    List.filter_map
      (fun e ->
        if str e "ph" = Some "M" && str e "name" = Some "thread_name" then
          Option.bind (Json.member "args" e) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str)
        else None)
      events
  in
  checkb "mutator track" true (List.mem "mutator" thread_names);
  checkb "belt tracks" true (List.exists (fun n -> n <> "mutator") thread_names)

(* ---- MMU cross-check ---- *)

let test_mmu_of_pauses () =
  let tl =
    Mmu.of_pauses ~starts:[| 0.0; 10.0 |] ~durs:[| 2.0; 2.0 |] ~total:12.0 ()
  in
  checki "pause count" 2 (Mmu.pause_count tl);
  checkf "max pause" 2.0 (Mmu.max_pause tl);
  checkf "utilization" (8.0 /. 12.0) (Mmu.utilization tl);
  (* A window the size of one pause can be fully eaten by it. *)
  checkf "mmu at pause size" 0.0 (Mmu.mmu tl ~window:2.0)

let test_crosscheck_zero_drift () =
  (* Recorded durations that are an exact rescaling of the model's
     (different units, same shape) must report zero drift. *)
  let starts = [| 0.0; 10.0; 25.0 |] and durs = [| 1.0; 2.0; 3.0 |] in
  let tl = Mmu.of_pauses ~starts ~durs () in
  let recorded = Array.map (fun d -> d *. 1000.0) durs in
  let d = Mmu.crosscheck tl ~recorded_durs:recorded in
  checki "compared all" 3 d.Mmu.compared;
  checkf "mean drift" 0.0 d.Mmu.mean_share_dev;
  checkf "max drift" 0.0 d.Mmu.max_share_dev

let test_crosscheck_real_run () =
  let gc, r = traced_run () in
  let stats = Gc.stats gc in
  let tl = Mmu.timeline Beltway_sim.Cost_model.default stats in
  let d = Mmu.crosscheck tl ~recorded_durs:(Recorder.pause_durs_us r) in
  checki "model and recorder agree on pause count" d.Mmu.model_pauses
    d.Mmu.recorded_pauses;
  checki "all pauses compared" (Gc_stats.gcs stats) d.Mmu.compared;
  checkb "shares are fractions" true
    (d.Mmu.mean_share_dev >= 0.0 && d.Mmu.max_share_dev <= 1.0)

(* ---- phase-span balance and order (raw hooks and the record) ---- *)

(* Every phase-span begin must have a matching end, strictly inside
   its collection's start/end pair. Each collection must also run the
   pipeline's phases in order: roots, the remembered slots or dirty
   cards (per the barrier), the grey-set drain (Cheney or mark, per
   the strategy), then the reclaim (frame free, sweep or compact); its
   record, already pushed when [on_collect_end] fires, lists those
   phases with their times in order, and carries one domain report per
   domain, each with its roots, drain and Cheney shares in order,
   exactly when more than one domain collects. Checked with raw hooks
   (no observer in between) across a config grid, every registered
   policy's and strategy's exemplar configuration, and copying on two
   domains. *)
let test_phase_span_balance () =
  let exemplars =
    List.map (fun (name, _) -> Beltway.Policy.exemplar name)
      Beltway.Policy.registry
    @ List.map Beltway.Strategy.exemplar [ "marksweep"; "markcompact" ]
  in
  List.iter
    (fun (config_str, gc_domains) ->
      let label = Printf.sprintf "%s @ %d domain(s)" config_str gc_domains in
      let gc =
        Gc.create ~config:(cfg config_str) ~gc_domains ~heap_bytes:(256 * 1024) ()
      in
      let st = Gc.state gc in
      let expected =
        [
          Gc_stats.Phase_roots;
          (match st.State.policy.State.barrier with
          | State.Barrier_cards -> Gc_stats.Phase_cards
          | State.Barrier_remsets _ -> Gc_stats.Phase_remset);
        ]
        @
        match st.State.strategy.State.strategy_kind with
        | State.Strategy_copying -> [ Gc_stats.Phase_cheney; Gc_stats.Phase_free ]
        | State.Strategy_marksweep -> [ Gc_stats.Phase_mark; Gc_stats.Phase_sweep ]
        | State.Strategy_markcompact ->
          [ Gc_stats.Phase_mark; Gc_stats.Phase_compact ]
      in
      let in_gc = ref false and open_spans = Hashtbl.create 8 in
      let entered = ref [] in
      let collect_ends = ref 0 in
      let bad = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
      let hooks =
        {
          State.noop_hooks with
          on_collect_start =
            (fun ~reason:_ ~emergency:_ ->
              if !in_gc then fail "%s: nested collection" label;
              in_gc := true;
              entered := []);
          on_gc_phase =
            (fun ~phase ~enter ->
              if not !in_gc then fail "%s: phase span outside a collection" label;
              let n =
                Option.value (Hashtbl.find_opt open_spans phase) ~default:0
              in
              if enter then begin
                if Hashtbl.fold (fun _ k acc -> acc + k) open_spans 0 > 0 then
                  fail "%s: %s entered inside another span" label
                    (Gc_stats.phase_to_string phase);
                entered := phase :: !entered;
                Hashtbl.replace open_spans phase (n + 1)
              end
              else if n = 0 then
                fail "%s: phase leave without a matching enter" label
              else Hashtbl.replace open_spans phase (n - 1));
          on_collect_end =
            (fun ~full_heap:_ ->
              Hashtbl.iter
                (fun _ n ->
                  if n <> 0 then
                    fail "%s: %d span(s) open at collection end" label n)
                open_spans;
              let seq = List.rev !entered in
              if seq <> expected then
                fail "%s: phases %s" label
                  (String.concat "," (List.map Gc_stats.phase_to_string seq));
              let c = Option.get (Gc_stats.last (Gc.stats gc)) in
              if c.Gc_stats.n <> !collect_ends then
                fail "%s: record %d at collection end %d" label c.Gc_stats.n
                  !collect_ends;
              if Array.to_list c.Gc_stats.phases <> expected then
                fail "%s: recorded phases %s" label
                  (String.concat ","
                     (List.map Gc_stats.phase_to_string
                        (Array.to_list c.Gc_stats.phases)));
              check_phases ~label c;
              let domains = c.Gc_stats.domains in
              if Array.length domains <> (if gc_domains > 1 then gc_domains else 0)
              then fail "%s: %d domain report(s)" label (Array.length domains);
              Array.iteri
                (fun i (d : Gc_stats.domain_report) ->
                  if d.Gc_stats.d_domain <> i then
                    fail "%s: report %d names domain %d" label i d.Gc_stats.d_domain;
                  if Array.length d.Gc_stats.d_phase_ns <> 6 then
                    fail "%s: domain %d has %d phase time(s)" label i
                      (Array.length d.Gc_stats.d_phase_ns);
                  let prev_end = ref c.Gc_stats.start_ns in
                  Gc_stats.iter_spans c.Gc_stats.phases d.Gc_stats.d_phase_ns
                    (fun phase ~start_ns ~dur_ns ->
                      if dur_ns < 0 || start_ns < !prev_end then
                        fail "%s: domain %d %s out of order" label i
                          (Gc_stats.phase_to_string phase);
                      prev_end := start_ns + dur_ns))
                domains;
              in_gc := false;
              incr collect_ends);
        }
      in
      State.add_hooks st hooks;
      let ty = Gc.register_type gc ~name:"obs.balance" in
      let roots = Roots.new_global (Gc.roots gc) Value.null in
      for i = 1 to 30_000 do
        let a = Gc.alloc gc ~ty ~nfields:2 in
        if i mod 96 = 0 then
          Roots.set_global (Gc.roots gc) roots (Value.of_addr a)
        else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) roots)
      done;
      Gc.full_collect gc;
      State.remove_hooks st hooks;
      checkb (label ^ ": spans balanced and ordered") true (!bad = []);
      List.iter print_endline (List.sort_uniq compare !bad);
      checkb (label ^ ": collections observed") true (!collect_ends > 0);
      checkb (label ^ ": no collection left open") false !in_gc)
    (List.map
       (fun c -> (c, 1))
       ([ "ss"; "appel"; "25.25.100"; "appel+cards" ] @ exemplars)
    @ [ ("25.25.100", 2); ("appel+cards", 2) ])

(* ---- Metrics reset and stable iteration (satellite) ---- *)

let test_metrics_reset_and_iteration () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let m = Recorder.metrics r in
  let names = Metrics.histogram_names m in
  checkb "histograms present" true (names <> []);
  Alcotest.(check (list string))
    "names are sorted" (List.sort compare names) names;
  let visited = ref [] in
  Metrics.iter_histograms m (fun name _ -> visited := name :: !visited);
  Alcotest.(check (list string))
    "iteration follows histogram_names" names
    (List.rev !visited);
  checki "counters live before reset" gcs (Metrics.counter m "gc.collections");
  Metrics.reset m;
  checki "counters cleared" 0 (Metrics.counter m "gc.collections");
  Alcotest.(check (list string)) "histograms cleared" [] (Metrics.histogram_names m);
  Metrics.iter_histograms m (fun _ _ -> Alcotest.fail "iterated after reset")

(* ---- Gc_stats edge cases (satellite) ---- *)

let test_empty_stats_summary () =
  let s = Format.asprintf "%a" Gc_stats.pp_summary (Gc_stats.create ()) in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  checkb "no NaN in empty summary" false (contains "nan");
  checkb "no infinity in empty summary" false (contains "inf");
  checkb "reports zero collections" true (contains "collections: 0")

let test_reason_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Gc_stats.reason_to_string r))
        (Option.map Gc_stats.reason_to_string
           (Gc_stats.reason_of_string (Gc_stats.reason_to_string r))))
    Gc_stats.all_reasons;
  checkb "unknown rejected" true (Gc_stats.reason_of_string "bogus" = None)

let suite =
  [
    ("ring", `Quick, test_ring);
    ("pause spans match the collection log", `Quick, test_pause_agreement);
    ("phase spans", `Quick, test_phase_spans);
    ("ring overflow keeps the pause log", `Quick, test_ring_overflow_keeps_pauses);
    ("overflowed ring keeps trace spans", `Quick, test_overflowed_trace_keeps_spans);
    ("recorder and profiler agree on pauses", `Quick, test_observers_agree_on_pauses);
    ("detach restores the empty hook list", `Quick, test_detach_restores_zero_cost);
    ("phase-span balance across configs and policies", `Quick,
     test_phase_span_balance);
    ("metrics reset and stable iteration", `Quick,
     test_metrics_reset_and_iteration);
    ("metrics JSON shape", `Quick, test_metrics_json);
    ("chrome trace shape", `Quick, test_chrome_trace);
    ("mmu of_pauses", `Quick, test_mmu_of_pauses);
    ("mmu cross-check zero drift", `Quick, test_crosscheck_zero_drift);
    ("mmu cross-check real run", `Quick, test_crosscheck_real_run);
    ("empty stats summary", `Quick, test_empty_stats_summary);
    ("reason round-trip", `Quick, test_reason_roundtrip);
  ]
