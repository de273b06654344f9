(** The GC flight recorder.

    Attached to a heap via [State.hooks], the recorder keeps a
    fixed-capacity {!Ring} of structured instants — frame grants and
    frees, belt advances, copy-reserve samples, trigger firings — each
    stamped in microseconds since attach on the collector's clock
    ([Gc_stats.now_ns]). Collections are not copied into the ring:
    their pauses, phase spans and per-domain shares are the heap's own
    [Gc_stats.collection] records, which the recorder views from its
    attach ordinal on ({!iter_collections}), so its pause log is
    complete whatever the ring drops. Alongside it aggregates a
    {!Metrics} registry (pause and interval distributions, bytes
    copied, per-belt and per-increment occupancy, remembered-set
    pressure), read from each record as the collection ends.

    The recorder times nothing itself. Detached, it costs nothing
    beyond what every collection pays for its record: about ten reads
    of [Gc_stats.now_ns] per collection (see DESIGN.md §4c). Attached,
    O(1) per event, no per-slot or barrier-fast-path
    instrumentation. *)

type event =
  | Frame_grant of { t_us : float; frame : int; belt : int; during_gc : bool }
  | Frame_free of { t_us : float; frame : int; belt : int }
  | Belt_advance of { t_us : float; belt : int; inc_id : int; stamp : int }
  | Reserve of { t_us : float; frames : int }
      (** copy reserve sampled at the end of a collection *)
  | Trigger_fired of { t_us : float; reason : Beltway.Gc_stats.reason }

type t

val default_capacity : int

val attach : ?capacity:int -> Beltway.Gc.t -> t
(** Install the recorder's hooks (capacity = ring size in events,
    default {!default_capacity}). Events beyond capacity overwrite the
    oldest; see {!dropped}. *)

val detach : t -> unit
(** Remove the hooks; the recorded data stays readable. *)

val gc : t -> Beltway.Gc.t
val metrics : t -> Metrics.t

val events : t -> event list
(** Retained events, oldest first. *)

val iter_events : t -> (event -> unit) -> unit
val event_count : t -> int

val dropped : t -> int
(** Events lost to ring overflow. *)

val collections : t -> int
(** Collections completed between attach and detach (or now, while
    attached). *)

val iter_collections : t -> (Beltway.Gc_stats.collection -> unit) -> unit
(** The heap's records of those collections, in order. *)

val us_since_attach : t -> int -> float
(** A [Gc_stats.now_ns] reading as microseconds since attach: the
    time axis of {!event}s and of the exported trace. *)

val pause_starts_us : t -> float array
(** Start of every viewed pause, in microseconds since attach. *)

val pause_durs_us : t -> float array
(** Duration of every viewed pause, in microseconds. *)

val domain_copied_bytes : t -> Beltway_util.Histogram.t option
(** The per-domain [gc.domain.<d>.copied_bytes] histograms merged into
    one distribution (via [Histogram.merge]); [None] when every
    recorded collection was sequential. *)

val env_file : unit -> string option
(** [$BELTWAY_TRACE]: the trace output file requested by the
    environment, if any (the CLIs' default for [--trace]). *)
