(** Collector configurations.

    The paper's central claim is that one framework, configured from
    the command line, acts as every copying collector: semi-space
    (BSS), Appel-style generational (BA2 and the three-generation
    variant), fixed-size-nursery generational, older-first mix (BOFM),
    older-first (BOF), and the new Beltway X.X and X.X.100 families.
    This module is that configuration surface: a belt array plus a
    handful of orthogonal mechanisms (stamp ordering, flip, triggers,
    reserve policy), with a parser for the command-line syntax used by
    the [bin/beltway_run] executable. *)

type bound =
  | Pct of int
      (** Increments bounded at this percentage of usable memory
          (resolved to frames per heap size at [Gc.create]). *)
  | Whole_heap  (** A single increment may grow to all usable memory. *)

type promote =
  | Same_belt  (** Survivors go to the back of the same belt. *)
  | Next_belt
      (** Survivors go to the back of the next higher belt (the top
          belt wraps to itself). *)

type belt_cfg = { bound : bound; promote : promote }

type stamp_mode =
  | Belt_major
      (** Lower belts collected before higher belts (generational and
          Beltway configurations). *)
  | Epoch
      (** Pure FIFO / epoch order (semi-space, older-first): the
          globally oldest increment is always collected next; BOF belt
          flips advance the epoch. *)

type reserve_mode =
  | Half  (** Classic half-heap copy reserve (semi-space, GCTk
              generational comparators). *)
  | Dynamic  (** The paper's dynamic conservative copy reserve
                 (S3.3.4). *)

type barrier =
  | Remsets
      (** Per-(source, target)-frame-pair remembered sets of slot
          addresses (the paper's choice, S3.3.2). *)
  | Cards
      (** Frame-granularity card marking: an unconditional O(1) barrier
          paid for by scanning dirty frames at collection (paper S5's
          alternative; select with [+cards]). *)

type order =
  | Lowest_belt
      (** Collect the front increment of the lowest belt whose front is
          worth collecting; the plan is the downward closure in stamp
          order (generational / Beltway behaviour). *)
  | Global_fifo
      (** Collect the globally oldest increment (BSS, BOFM, BOF). *)

type t = {
  label : string;
  belts : belt_cfg array;
  stamp_mode : stamp_mode;
  order : order;
  flip : bool;  (** BOF: swap belts when belt 0 empties. *)
  nursery_filter : bool;
      (** Barrier fast-exits when the source is in the single nursery
          increment (S3.3.2); only sound under [Belt_major] with a
          single-increment nursery. *)
  reserve : reserve_mode;
  ttd_frames : int option;
      (** Time-to-die trigger: within this many frames of heap-full,
          redirect allocation into a second nursery increment
          (S3.3.3). *)
  remset_trigger : int option;
      (** Force a collection when total remset entries exceed this. *)
  los_threshold : int option;
      (** Large-object-space threshold in words: objects at least this
          big are allocated as {e pinned} single-object increments on a
          dedicated highest belt — never copied, reclaimed when
          unreachable at collections whose plan reaches them. [None]
          disables the LOS (the paper's GCTk had none; this is the
          extension its S5 discusses). *)
  barrier : barrier;  (** pointer-tracking mechanism *)
  policy : string option;
      (** Explicit policy selection, as the raw ["name[:arg]"] spec
          from [+policy:...]. [None] selects the default for the
          configuration's [order] ([Lowest_belt] -> "beltway",
          [Global_fifo] -> "older-first"). Resolved against
          [Policy.registry] by [Policy.resolve]; [Config] itself never
          interprets it. *)
  strategy : string option;
      (** Explicit reclamation-strategy selection from [+strategy:NAME].
          [None] selects the default copying strategy. Resolved against
          [Strategy.registry] by [Strategy.resolve]; [Config] itself
          never interprets it. *)
}

val validate : t -> (t, string) result
(** Check internal consistency (e.g. the nursery filter's soundness
    conditions); normalises nothing. *)

(** {2 Named configurations (paper S3.1, S3.2)} *)

val semi_space : t
(** BSS: one belt, one whole-heap increment. *)

val appel : t
(** The Appel-style two-generation comparator (half-heap reserve, as in
    GCTk's generational collectors). *)

val beltway_appel : t
(** BA2 = Beltway 100.100: the Beltway configuration equivalent to
    Appel (dynamic reserve degenerates to the same discipline). *)

val appel3 : t
(** Beltway 100.100.100: three-generation Appel-style. *)

val fixed_nursery : pct:int -> t
(** Fixed-size nursery generational collector; [pct] is the nursery's
    share of usable memory. *)

val bofm : pct:int -> t
(** Older-first mix: one belt, increments of [pct], allocation and
    copy both to the back. *)

val bof : pct:int -> t
(** Older-first: allocation belt A and copy belt C with window
    increments of [pct]; flips when A empties. *)

val beltway_xx : x:int -> t
(** Beltway X.X (incomplete when [x < 100]). *)

val beltway_xx100 : x:int -> t
(** Beltway X.X.100 (complete; third whole-heap belt). *)

val beltway_xy : x:int -> y:int -> t
(** The generalised two-belt Beltway X.Y. *)

(** {2 Command-line syntax} *)

val parse : string -> (t, string) result
(** Accepted forms (case-insensitive):
    - ["ss"], ["bss"] — semi-space
    - ["appel"], ["ba2"] — Appel comparator
    - ["appel3"] — three-generation Appel
    - ["fixed:N"] — fixed nursery of N%%
    - ["ofm:N"], ["bofm:N"] — older-first mix
    - ["of:N"], ["bof:N"] — older-first
    - ["X.Y"] — two-belt Beltway (e.g. ["25.25"], ["100.100"])
    - ["X.Y.100"] — complete Beltway (e.g. ["25.25.100"])
    plus option suffixes, each introduced by [+]:
    ["+nofilter"], ["+filter"], ["+ttd:FRAMES"], ["+remtrig:N"],
    ["+halfreserve"], ["+dynreserve"],
    ["+los:WORDS"] (large object space threshold),
    ["+cards"] / ["+remsets"] (pointer-tracking mechanism),
    ["+policy:NAME[:ARG]"] (explicit policy-registry selection, e.g.
    ["+policy:sweep:8"]; see [Policy.registry]),
    ["+strategy:NAME"] (reclamation-strategy selection, e.g.
    ["+strategy:marksweep"]; see [Strategy.registry]).
    E.g. ["25.25.100+remtrig:100000"] or ["appel+los:256"]. *)

val to_string : t -> string
(** The label (round-trips through {!parse} for named forms). *)

val resolve_bound : t -> heap_frames:int -> bound -> int option
(** Frames for a bound at a given heap size: [None] for [Whole_heap];
    [Pct x] resolves to [max 1 (heap * x / (100 + x))] under a dynamic
    reserve (x%% of usable memory left after one increment of reserve)
    and [max 1 (heap/2 * x / 100)] under a half reserve. *)

val pp : Format.formatter -> t -> unit
