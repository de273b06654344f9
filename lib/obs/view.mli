(** The collection records an observer reads: the heap's own
    [Gc_stats.collection] log, from the ordinal the observer attached
    at to the one it detached at (or the latest, while attached). No
    observer copies or times a collection itself. *)

type t

val attach : Beltway.Gc.t -> t
(** A view starting at the next collection. *)

val detach : t -> unit
(** End the view at the collections completed so far. *)

val length : t -> int
val get : t -> int -> Beltway.Gc_stats.collection
(** [get v i] is the [i]th viewed record, from 0. *)

val iter : t -> (Beltway.Gc_stats.collection -> unit) -> unit
val to_list : t -> Beltway.Gc_stats.collection list
