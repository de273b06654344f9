module Json = Beltway_util.Json
module Gc_stats = Beltway.Gc_stats
module State = Beltway.State

(* Track layout: tid 0 is the mutator (collection pauses and their
   phase spans, read from the heap's collection records, preempt the
   mutator, so they render there), tid 1+b is
   belt b (frame grants/frees and belt advances, so per-belt heap
   churn is visible as its own track), and tid 64+d is GC domain d's
   share of each parallel collection (64 clears every belt track:
   belts are bounded well below it by configuration parsing). *)
let mutator_tid = 0
let belt_tid b = b + 1
let gc_domain_tid d = 64 + d

let num i = Json.Num (float_of_int i)

let common ~pid ~tid ~name ~cat ~ph ~ts rest =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Num ts);
       ("pid", num pid);
       ("tid", num tid);
     ]
    @ rest)

let instant ~pid ~tid ~name ~cat ~ts args =
  common ~pid ~tid ~name ~cat ~ph:"i" ~ts
    [ ("s", Json.Str "t"); ("args", Json.Obj args) ]

let span ~pid ~tid ~name ~cat ~ts ~dur args =
  common ~pid ~tid ~name ~cat ~ph:"X" ~ts
    [ ("dur", Json.Num dur); ("args", Json.Obj args) ]

(* One collection record becomes its pause span and phase spans on
   the mutator track, plus, for a parallel collection, each domain's
   phase spans on that domain's track. *)
let collection_json ~pid ~emit rec_ (c : Gc_stats.collection) =
  let us ns = Recorder.us_since_attach rec_ ns in
  let dur ns = float_of_int ns /. 1e3 in
  let n = c.Gc_stats.n in
  emit
    (span ~pid ~tid:mutator_tid
       ~name:(Printf.sprintf "GC %d (%s)" n (Gc_stats.collection_label c))
       ~cat:"gc" ~ts:(us c.Gc_stats.start_ns) ~dur:(dur c.Gc_stats.pause_ns)
       [
         ("reason", Json.Str (Gc_stats.reason_to_string c.Gc_stats.reason));
         ("emergency", Json.Bool c.Gc_stats.emergency);
         ("full_heap", Json.Bool c.Gc_stats.full_heap);
         ("n", num n);
         ("clock_words", num c.Gc_stats.clock_words);
         ("copied_words", num c.Gc_stats.copied_words);
         ("freed_frames", num c.Gc_stats.freed_frames);
         ("frames_after", num c.Gc_stats.heap_frames_after);
         ("reserve_frames", num c.Gc_stats.reserve_frames);
       ]);
  Gc_stats.iter_spans c.Gc_stats.phases c.Gc_stats.phase_ns
    (fun phase ~start_ns ~dur_ns ->
      emit
        (span ~pid ~tid:mutator_tid ~name:(Gc_stats.phase_to_string phase)
           ~cat:"gc.phase" ~ts:(us start_ns) ~dur:(dur dur_ns)
           [ ("gc", num n) ]));
  Array.iter
    (fun (d : Gc_stats.domain_report) ->
      Gc_stats.iter_spans c.Gc_stats.phases d.Gc_stats.d_phase_ns
        (fun phase ~start_ns ~dur_ns ->
          emit
            (span ~pid ~tid:(gc_domain_tid d.Gc_stats.d_domain)
               ~name:(Gc_stats.phase_to_string phase)
               ~cat:"gc.domain" ~ts:(us start_ns) ~dur:(dur dur_ns)
               (* Counters ride on the Cheney span (the drain is where
                  copies, steals and CAS races happen). *)
               (("gc", num n)
               ::
               (if phase = Gc_stats.Phase_cheney then
                  [
                    ("copied_objects", num d.Gc_stats.d_copied_objects);
                    ("copied_words", num d.Gc_stats.d_copied_words);
                    ("scanned_slots", num d.Gc_stats.d_scanned_slots);
                    ("steals", num d.Gc_stats.d_steals);
                    ("cas_retries", num d.Gc_stats.d_cas_retries);
                  ]
                else [])))))
    c.Gc_stats.domains

let event_json ~pid (e : Recorder.event) =
  match e with
  | Recorder.Frame_grant f ->
    instant ~pid ~tid:(belt_tid f.belt) ~name:"frame grant" ~cat:"frame"
      ~ts:f.t_us
      [ ("frame", num f.frame); ("during_gc", Json.Bool f.during_gc) ]
  | Recorder.Frame_free f ->
    instant ~pid ~tid:(belt_tid f.belt) ~name:"frame free" ~cat:"frame"
      ~ts:f.t_us
      [ ("frame", num f.frame) ]
  | Recorder.Belt_advance b ->
    instant ~pid ~tid:(belt_tid b.belt) ~name:"belt advance" ~cat:"belt"
      ~ts:b.t_us
      [ ("inc", num b.inc_id); ("stamp", num b.stamp) ]
  | Recorder.Reserve r ->
    common ~pid ~tid:mutator_tid ~name:"copy reserve" ~cat:"reserve" ~ph:"C"
      ~ts:r.t_us
      [ ("args", Json.Obj [ ("frames", num r.frames) ]) ]
  | Recorder.Trigger_fired tr ->
    instant ~pid ~tid:mutator_tid
      ~name:("trigger " ^ Gc_stats.reason_to_string tr.reason)
      ~cat:"trigger" ~ts:tr.t_us []

let meta ~pid ~tid ~kind name =
  Json.Obj
    [
      ("name", Json.Str kind);
      ("ph", Json.Str "M");
      ("pid", num pid);
      ("tid", num tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let track_meta ~pid ~process_name rec_ =
  let st = Beltway.Gc.state (Recorder.gc rec_) in
  let belt_name b =
    match State.los_belt st with
    | Some los when los = b -> "belt LOS"
    | _ -> Printf.sprintf "belt %d" b
  in
  meta ~pid ~tid:mutator_tid ~kind:"process_name" process_name
  :: meta ~pid ~tid:mutator_tid ~kind:"thread_name" "mutator"
  :: (List.init
        (Array.length st.State.belts)
        (fun b -> meta ~pid ~tid:(belt_tid b) ~kind:"thread_name" (belt_name b))
     @
     (* One named track per GC domain when collections are sharded. *)
     if st.State.gc_domains > 1 then
       List.init st.State.gc_domains (fun d ->
           meta ~pid ~tid:(gc_domain_tid d) ~kind:"thread_name"
             (Printf.sprintf "gc domain %d" d))
     else [])

let events_json ?(pid = 1) ?(process_name = "beltway") rec_ =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  Recorder.iter_collections rec_ (collection_json ~pid ~emit rec_);
  Recorder.iter_events rec_ (fun e -> emit (event_json ~pid e));
  track_meta ~pid ~process_name rec_ @ List.rev !evs

let wrap traceEvents =
  Json.Obj
    [
      ("traceEvents", Json.Arr traceEvents);
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_json ?pid ?process_name rec_ = wrap (events_json ?pid ?process_name rec_)

let merge recs =
  wrap
    (List.concat
       (List.mapi
          (fun i (name, r) -> events_json ~pid:(i + 1) ~process_name:name r)
          recs))

let write_file file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n')
