(** Growable arrays of [int].

    The same interface as {!Vec}, over an [int array]. A store into a
    polymorphic ['a array] goes through the runtime's write barrier
    ([caml_modify]) even when the element is an immediate; a store into
    an [int array] is a plain word write. Every int vector on a
    collector or mutator path (remembered-slot buffers, increment frame
    lists, free lists, mark stacks) is one of these; {!Vec} keeps the
    boxed elements. Bounds are checked on every access, as in {!Vec}. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty vector with room for [capacity] (default 8, at least 1)
    elements before it first grows. *)

val length : t -> int
val is_empty : t -> bool

val get : t -> int -> int
(** @raise Invalid_argument when out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument when out of bounds. *)

val push : t -> int -> unit
(** Amortised O(1): the backing array doubles when full. *)

val pop : t -> int
(** Removes and returns the last element. @raise Invalid_argument when
    empty. *)

val top : t -> int
(** Last element without removing it. @raise Invalid_argument when
    empty. *)

val clear : t -> unit
(** O(1) logical clear; capacity retained. *)

val truncate : t -> int -> unit
(** [truncate t n] drops elements at indices >= [n] in O(1). No-op if
    already shorter. @raise Invalid_argument when [n < 0]. *)

val iter : (int -> unit) -> t -> unit
val fold : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> int list
val to_array : t -> int array

val swap_remove : t -> int -> int
(** [swap_remove t i] removes index [i] in O(1) by moving the last
    element into its place; returns the removed element. Order is not
    preserved. *)
