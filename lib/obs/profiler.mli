(** Object-demographics profiler.

    Attaches to a heap through [State.hooks] (like {!Recorder} and the
    sanitizer — zero cost detached) and accumulates, per allocation
    site: object/word counts, copies (survivals), deaths and arrivals
    at the top belt; per belt: an age-at-copy histogram; plus a
    belt×belt promotion matrix. Its occupancy/remset/pause time series
    is a view of the heap's [Gc_stats.collection] records from the
    attach ordinal on: the profiler keeps no stopwatch, so its pause
    times are the ones every other observer reports.

    Sites are interned in the heap's registry
    ({!Beltway.Gc.register_site}); instrumented mutators stamp
    {!Beltway.Gc.set_alloc_site} immediately before each allocation.
    Objects allocated while the profiler is detached are untracked
    (their later moves are ignored).

    All demographic arithmetic runs on the allocation clock
    ([Gc_stats.words_allocated]), which is deterministic and frozen
    during collections — the [test/test_profiler.ml] differential
    grid checks it exactly against the Shadow heap's lifetime oracle. *)

type t

val age_bucket_words : float
(** Bucket width of the per-belt age-at-copy histograms, in
    allocation-clock words. *)

val attach : Beltway.Gc.t -> t
(** Install the profiler's hooks; composes with the recorder and the
    sanitizer (hooks fire in installation order). *)

val detach : t -> unit
(** Remove the hooks; the accumulated data stays readable. *)

val gc : t -> Beltway.Gc.t

(** {2 Per-site accumulators} (0 for unknown ids) *)

val site_alloc_objects : t -> int -> int
val site_alloc_words : t -> int -> int

val site_copied_objects : t -> int -> int
(** Copy events charged to the site — an object copied by [k]
    collections contributes [k]. *)

val site_copied_words : t -> int -> int
val site_dead_objects : t -> int -> int
val site_dead_words : t -> int -> int

val site_top_belt_objects : t -> int -> int
(** Copies that landed an object of this site in the top (oldest
    regular) belt, coming from a younger belt. *)

(** {2 Demographics} *)

val belts : t -> int
(** Number of belts tracked (regular belts plus LOS when configured). *)

val age_histogram : t -> belt:int -> Beltway_util.Histogram.t
(** Age-at-copy distribution for objects copied {e out of} [belt],
    bucketed at {!age_bucket_words}. *)

val promotions : t -> int array array
(** Copy of the promotion matrix: [(promotions t).(src).(dst)] is the
    number of objects copied from belt [src] to belt [dst]. *)

val pretenure_site : t -> int -> bool
(** Deterministic pretenuring hint: the site has allocated at least 32
    objects and at least half of them reached the top belt. *)

val pretenure_sites : t -> int list
(** All hinted sites, ascending by id. *)

(** {2 Time series} *)

val collections : t -> int
(** Collections completed between attach and detach (or now, while
    attached): the entries of the exported [series]. *)

(** {2 Export} *)

val schema : string
(** ["beltway-profile/1"]. *)

val run_json : ?name:string -> t -> Beltway_util.Json.t
(** One run object (sites, belts, promotion matrix, series). Each
    [series] entry is one viewed collection record: ordinal,
    allocation clock, frames held after it, copy reserve, remset
    entries, copied words, pause in microseconds, per-belt frames. *)

val runs_json : Beltway_util.Json.t list -> Beltway_util.Json.t
(** Wrap run objects in the versioned envelope. *)

val write_file : string -> Beltway_util.Json.t list -> unit
(** [write_file file runs] writes the envelope as pretty JSON. *)

val report : ?top:int -> Format.formatter -> t -> unit
(** Deterministic text report: top-[top] sites by allocated words with
    survival and top-belt percentages, plus pretenuring hints. *)

val env_file : unit -> string option
(** [BELTWAY_PROFILE] output path, if set and non-empty. *)
