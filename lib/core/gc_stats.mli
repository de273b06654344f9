(** Collector statistics and the per-collection record.

    The harness reconstructs the paper's figures from these raw event
    counts: GC "time" and mutator "time" are computed by
    [Beltway_sim.Cost_model] from bytes copied, slots scanned, barrier
    paths taken, etc. The allocation clock (words allocated so far)
    timestamps every collection, which is what the MMU analysis needs.

    {!collection} is the only description of one collection: besides
    the counts, [Collector.run] stamps its pause, its phases and (for a
    parallel collection) each domain's share on the wall clock
    {!now_ns}, whether or not an observer is attached. The flight
    recorder, the profiler's series, the Chrome trace and the MMU
    cross-check are views of {!t.collections}; none of them keeps a
    stopwatch. The wall-clock fields are the only ones that differ
    between two runs of one deterministic workload ({!same_untimed}). *)

type reason =
  | Heap_full  (** granting a frame would eat into the copy reserve *)
  | Nursery  (** the nursery increment reached its bound *)
  | Remset  (** the remembered sets grew past the configured threshold *)
  | Forced  (** explicitly requested ([Gc.collect]) *)
  | Full  (** explicitly requested full-heap collection *)
(** Why a collection was started: the closed set shared by [Trigger],
    [Schedule], the collection log and the trace exporters, so spellings
    cannot drift between producers and consumers. *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason option
val all_reasons : reason list

type gc_phase =
  | Phase_roots  (** forwarding the mutator root set *)
  | Phase_remset  (** draining remembered slots targeting the plan *)
  | Phase_cards  (** scanning dirty frames (card barrier) *)
  | Phase_cheney  (** the Cheney grey-set drain (copy + scan) *)
  | Phase_mark  (** tracing mark bits + mark stack (non-moving strategies) *)
  | Phase_sweep  (** free-list rebuild over dead runs (mark-sweep) *)
  | Phase_compact  (** pointer threading + slide (mark-compact) *)
  | Phase_free  (** releasing the plan's evacuated increments *)
(** Phases of one collection, in execution order, as reported through
    [State.hooks.on_gc_phase] and recorded in {!collection.phases}. A
    collection runs either the Cheney phase or the mark/sweep or
    mark/compact pair, per the installed reclamation strategy. *)

val phase_to_string : gc_phase -> string
val all_phases : gc_phase list

val now_ns : unit -> int
(** The clock every wall-clock field below is stamped with:
    nanoseconds since the epoch, at the microsecond resolution of
    [Unix.gettimeofday] (about 50 ns per read). Observers stamp their
    own events with it too, so everything lands on one axis. *)

type domain_report = {
  d_domain : int;
  d_phase_ns : int array;
      (** [start; duration] pairs, in {!now_ns} nanoseconds, for this
          domain's share of the collection's first three
          {!collection.phases} (roots, remset or card drain, Cheney
          copy) *)
  d_copied_objects : int;
  d_copied_words : int;
  d_scanned_slots : int;  (** slots scanned, remembered ones included *)
  d_steals : int;  (** grey objects taken from other domains' deques *)
  d_cas_retries : int;
      (** forwarding races lost: speculative copies discarded after
          another domain installed the forwarding pointer first *)
}
(** One GC domain's share of a parallel collection. *)

type collection = {
  n : int;  (** ordinal of this collection, from 0 *)
  reason : reason;
  emergency : bool;
      (** chosen although the conservative reserve test failed (the
          schedule's last-resort plan in tight heaps) *)
  clock_words : int;  (** allocation clock when the pause began *)
  plan_incs : int;  (** increments collected together *)
  plan_frames : int;
  plan_words : int;  (** occupancy of the collected increments *)
  full_heap : bool;
  copied_words : int;
  copied_objects : int;
  scanned_slots : int;  (** slots examined by the Cheney scan *)
  remset_slots : int;
      (** barrier-bookkeeping slots processed as roots: remembered-set
          entries under [Remsets], or slots of dirty-frame objects
          scanned under [Cards] *)
  roots_scanned : int;
  freed_frames : int;
  heap_frames_after : int;  (** frames still held after the collection *)
  reserve_frames : int;  (** copy reserve in force when triggered *)
  marked_objects : int;  (** objects marked in place (non-moving strategies) *)
  marked_words : int;  (** words of marked objects *)
  swept_words : int;  (** dead words turned into free-list fillers *)
  moved_words : int;  (** words slid by the compaction pass *)
  start_ns : int;  (** wall clock ({!now_ns}) when the pause began *)
  pause_ns : int;  (** wall-clock duration of the pause *)
  phases : gc_phase array;  (** the phases run, in execution order *)
  phase_ns : int array;
      (** [start; duration] pair per entry of [phases], in {!now_ns}
          nanoseconds (see {!iter_spans}) *)
  belt_frames : int array;
      (** per-belt occupancy in frames after the collection, LOS
          included *)
  remset_entries : int;  (** remembered-set entries after the collection *)
  domains : domain_report array;
      (** one report per GC domain of a parallel collection; [[||]]
          for a sequential one *)
}

val iter_spans :
  gc_phase array -> int array -> (gc_phase -> start_ns:int -> dur_ns:int -> unit) -> unit
(** [iter_spans phases ns f] calls [f] on each phase with its
    [start; duration] pair from [ns], in order, for as many pairs as
    [ns] holds: [iter_spans c.phases c.phase_ns] walks a collection's
    phases, [iter_spans c.phases d.d_phase_ns] one domain's share. *)

val same_untimed : collection -> collection -> bool
(** Structural equality on every field except the wall-clock ones
    ([start_ns], [pause_ns], [phase_ns] and each domain's
    [d_phase_ns]). *)

val collection_label : collection -> string
(** [reason_to_string], with ["-emergency"] appended when the plan was
    an emergency one — the human-facing spelling used in logs and trace
    span names. *)

type t = {
  mutable config_label : string;
      (** configuration string these statistics belong to (filled by
          [State.create]; [""] for bare statistics) *)
  mutable policy_name : string;
      (** registry name of the installed policy (filled by
          [State.create]; [""] for bare statistics) *)
  mutable strategy_name : string;
      (** registry name of the installed reclamation strategy (filled
          by [State.create]; [""] for bare statistics) *)
  mutable words_allocated : int;
  mutable objects_allocated : int;
  mutable barrier_ops : int;  (** barrier executions (every pointer store) *)
  mutable barrier_fast : int;  (** taken but nothing remembered *)
  mutable barrier_slow : int;  (** remset insert performed *)
  mutable barrier_filtered : int;  (** skipped by the nursery-source filter *)
  mutable frames_allocated : int;  (** lifetime frame grants *)
  mutable peak_frames : int;  (** high-water heap footprint *)
  collections : collection Beltway_util.Vec.t;
}

val create : unit -> t

val record_collection : t -> collection -> unit

val gcs : t -> int

val last : t -> collection option
(** The most recently recorded collection, if any. *)

val total_copied_words : t -> int
val total_freed_frames : t -> int

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph human-readable summary, including the barrier-filter
    rate as a percentage and per-collection averages. Statistics that
    belong to a heap open with a [collector: <config> [policy <name>]]
    header so traces and reports are attributable to a policy. Safe on
    empty statistics: a zero-collection run prints zeros, never NaN. *)
