(** The reclamation-strategy registry.

    A [State.strategy] decides {e how} the increments of a plan are
    reclaimed — Cheney evacuation (the paper's collector), bitmap
    mark-sweep, or threaded mark-compact — orthogonally to the
    [Policy], which decides what to collect and when. This module
    constructs the strategy records, owns the registry behind
    [+strategy:NAME] / [--strategy NAME], and mirrors [Policy]'s
    registry surface; [Collector] interprets the installed record. *)

val copying : State.strategy
(** Cheney evacuation — [State.copying_strategy], the default.
    Byte-identical to the pre-strategy collector for every existing
    configuration, including under [--gc-domains]. *)

val marksweep : State.strategy
(** Bitmap mark-sweep: a side mark bitmap ([Memory.ensure_marks]) plus
    an explicit mark stack traces the plan in place; dead runs become
    filler objects indexed by per-increment free lists
    ([Increment.fit_or_null]); surviving increments are {e logically}
    promoted (restamped onto their destination belt without moving a
    word). Needs zero copy reserve. *)

val markcompact : State.strategy
(** Threaded (Jonkers) mark-compact: the same mark phase, then pointer
    threading and a slide pass over the increment's own frames using
    [Memory.blit]; empty tail frames are freed. Needs zero copy
    reserve. *)

val moving : State.strategy_kind -> bool
(** Whether surviving objects change address: copying (across frames)
    and mark-compact (within the increment's own frames). *)

val needs_reserve : State.strategy_kind -> bool
(** Whether collections need destination frames up front: the
    schedule's feasibility test and the heap-full trigger. Copying
    only. *)

val parallel : State.strategy_kind -> bool
(** Whether collections may shard over [gc_domains > 1] (the parallel
    Cheney drain). Copying only. *)

type info = {
  key : string;  (** registry name *)
  strategy : State.strategy;
  summary : string;  (** one-line description for [--strategy list] *)
  exemplar_config : string;  (** a config string that exercises it *)
}

val infos : info list
val registry : (string * State.strategy) list
val names : string list

val describe : string -> string
(** Summary of a registered strategy.
    @raise Invalid_argument on an unknown key. *)

val exemplar : string -> string
(** Exemplar configuration of a registered strategy.
    @raise Invalid_argument on an unknown key. *)

val name : State.strategy -> string

val default_name : string
(** ["copying"]: the strategy selected when the configuration names
    none. *)

val resolve : Config.t -> (State.strategy, string) result
(** The strategy a configuration selects: [cfg.strategy] looked up in
    the registry, or the default copying strategy when unset. *)

val resolve_exn : Config.t -> State.strategy
(** {!resolve}, raising [Invalid_argument] on an unknown name. *)

val check_domains : State.strategy -> gc_domains:int -> (unit, string) result
(** Whether the strategy supports sharding collections over
    [gc_domains] domains; [Error message] for a non-parallel strategy
    asked to run with [gc_domains > 1]. [Gc.create] and
    [Gc.set_gc_domains] enforce it. *)
