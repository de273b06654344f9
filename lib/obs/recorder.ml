module State = Beltway.State
module Gc_stats = Beltway.Gc_stats

type event =
  | Frame_grant of { t_us : float; frame : int; belt : int; during_gc : bool }
  | Frame_free of { t_us : float; frame : int; belt : int }
  | Belt_advance of { t_us : float; belt : int; inc_id : int; stamp : int }
  | Reserve of { t_us : float; frames : int }
  | Trigger_fired of { t_us : float; reason : Gc_stats.reason }

let default_capacity = 1 lsl 16

type t = {
  gc : Beltway.Gc.t;
  ring : event Ring.t;
  metrics : Metrics.t;
  t0_ns : int; (* [Gc_stats.now_ns] at attach *)
  view : View.t;
  mutable hooks : State.hooks option;
}

let us_since_attach t ns = float_of_int (ns - t.t0_ns) /. 1e3
let now_us t = us_since_attach t (Gc_stats.now_ns ())

(* Histogram bucket widths, chosen for the magnitudes this simulation
   produces (microsecond-scale pauses, kilobyte-scale copies). *)
let pause_ns_width = 1_000.0
let interval_ns_width = 100_000.0
let copied_bytes_width = 4_096.0
let remset_slots_width = 16.0
let frames_width = 1.0

(* Metrics from the record of the collection just ended. *)
let record_collection_end t =
  let st = Beltway.Gc.state t.gc in
  let i = View.length t.view - 1 in
  if i >= 0 then begin
    let c = View.get t.view i in
    let m = t.metrics in
    Metrics.incr m "gc.collections";
    if c.Gc_stats.full_heap then Metrics.incr m "gc.full_heap";
    if c.Gc_stats.emergency then Metrics.incr m "gc.emergency";
    Metrics.observe m ~bucket_width:pause_ns_width "gc.pause_ns"
      (float_of_int c.Gc_stats.pause_ns);
    if i > 0 then begin
      let prev = View.get t.view (i - 1) in
      Metrics.observe m ~bucket_width:interval_ns_width "gc.pause_interval_ns"
        (float_of_int
           (c.Gc_stats.start_ns - prev.Gc_stats.start_ns - prev.Gc_stats.pause_ns))
    end;
    Metrics.observe m ~bucket_width:copied_bytes_width "gc.copied_bytes"
      (float_of_int (c.Gc_stats.copied_words * Addr.bytes_per_word));
    (* In-place strategy volumes. Guarded on nonzero so a copying run
       never creates these tracks and its metric dump stays
       byte-identical to the pre-strategy recorder. *)
    if c.Gc_stats.marked_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.marked_bytes"
        (float_of_int (c.Gc_stats.marked_words * Addr.bytes_per_word));
    if c.Gc_stats.swept_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.swept_bytes"
        (float_of_int (c.Gc_stats.swept_words * Addr.bytes_per_word));
    if c.Gc_stats.moved_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.moved_bytes"
        (float_of_int (c.Gc_stats.moved_words * Addr.bytes_per_word));
    Metrics.observe m ~bucket_width:remset_slots_width "gc.remset_slots"
      (float_of_int c.Gc_stats.remset_slots);
    Metrics.set_gauge m "heap.frames_used" (float_of_int c.Gc_stats.heap_frames_after);
    Metrics.set_gauge m "remset.entries" (float_of_int c.Gc_stats.remset_entries);
    (* Occupancy telemetry: per-belt (named tracks) and per-increment
       (one pooled distribution). *)
    Array.iteri
      (fun bi frames ->
        let occ = float_of_int frames in
        Metrics.set_gauge m (Printf.sprintf "belt.%d.frames" bi) occ;
        Metrics.observe m ~bucket_width:frames_width
          (Printf.sprintf "belt.%d.occupancy_frames" bi)
          occ)
      c.Gc_stats.belt_frames;
    List.iter
      (fun (inc : Beltway.Increment.t) ->
        Metrics.observe m ~bucket_width:frames_width "increment.occupancy_frames"
          (float_of_int (Beltway.Increment.occupancy_frames inc)))
      (State.live_increments st);
    (* A parallel collection's per-domain shares. *)
    if Array.length c.Gc_stats.domains > 1 then begin
      Metrics.set_gauge m "gc.domains"
        (float_of_int (Array.length c.Gc_stats.domains));
      Array.iter
        (fun (d : Gc_stats.domain_report) ->
          Metrics.incr ~by:d.Gc_stats.d_steals m "gc.par.steals";
          Metrics.incr ~by:d.Gc_stats.d_cas_retries m "gc.par.cas_retries";
          Metrics.observe m ~bucket_width:copied_bytes_width
            (Printf.sprintf "gc.domain.%d.copied_bytes" d.Gc_stats.d_domain)
            (float_of_int (d.Gc_stats.d_copied_words * Addr.bytes_per_word)))
        c.Gc_stats.domains
    end
  end

let attach ?(capacity = default_capacity) gc =
  let st = Beltway.Gc.state gc in
  let t =
    {
      gc;
      ring = Ring.create ~capacity ~dummy:(Reserve { t_us = 0.0; frames = 0 });
      metrics = Metrics.create ();
      t0_ns = Gc_stats.now_ns ();
      view = View.attach gc;
      hooks = None;
    }
  in
  let hooks =
    {
      State.noop_hooks with
      State.on_collect_end = (fun ~full_heap:_ -> record_collection_end t);
      on_frame_grant =
        (fun ~frame ~belt ~during_gc ->
          Metrics.incr t.metrics "frames.granted";
          Ring.push t.ring (Frame_grant { t_us = now_us t; frame; belt; during_gc }));
      on_frame_free =
        (fun ~frame ~belt ->
          Metrics.incr t.metrics "frames.freed";
          Ring.push t.ring (Frame_free { t_us = now_us t; frame; belt }));
      on_belt_advance =
        (fun ~belt ~inc_id ~stamp ->
          Metrics.incr t.metrics "belt.advances";
          Ring.push t.ring (Belt_advance { t_us = now_us t; belt; inc_id; stamp }));
      on_reserve =
        (fun ~frames ->
          Metrics.set_gauge t.metrics "reserve.frames" (float_of_int frames);
          Ring.push t.ring (Reserve { t_us = now_us t; frames }));
      on_trigger =
        (fun ~reason ->
          Metrics.incr t.metrics ("trigger." ^ Gc_stats.reason_to_string reason);
          Ring.push t.ring (Trigger_fired { t_us = now_us t; reason }));
      on_barrier_slow =
        (fun ~entries ->
          Metrics.incr t.metrics "barrier.slow";
          Metrics.set_gauge t.metrics "remset.entries" (float_of_int entries));
    }
  in
  State.add_hooks st hooks;
  t.hooks <- Some hooks;
  t

let detach t =
  match t.hooks with
  | None -> ()
  | Some h ->
    State.remove_hooks (Beltway.Gc.state t.gc) h;
    View.detach t.view;
    t.hooks <- None

let domain_copied_bytes t =
  (* Per-domain copy histograms merged into one distribution; domains
     are dense from 0, so walk until the first absent name. *)
  let rec go d acc =
    match
      Metrics.histogram t.metrics (Printf.sprintf "gc.domain.%d.copied_bytes" d)
    with
    | None -> acc
    | Some h ->
      go (d + 1)
        (match acc with
        | None -> Some h
        | Some m -> Some (Beltway_util.Histogram.merge m h))
  in
  go 0 None

let gc t = t.gc
let metrics t = t.metrics
let events t = Ring.to_list t.ring
let iter_events t f = Ring.iter t.ring f
let event_count t = Ring.length t.ring
let dropped t = Ring.dropped t.ring

let collections t = View.length t.view
let iter_collections t f = View.iter t.view f

let pause_starts_us t =
  Array.init (collections t) (fun i ->
      us_since_attach t (View.get t.view i).Gc_stats.start_ns)

let pause_durs_us t =
  Array.init (collections t) (fun i ->
      float_of_int (View.get t.view i).Gc_stats.pause_ns /. 1e3)

let env_file () =
  match Sys.getenv_opt "BELTWAY_TRACE" with
  | Some "" | None -> None
  | Some f -> Some f
