(** Growable arrays of boxed elements.

    OCaml 5.1 predates [Stdlib.Dynarray]; this is the small subset the
    collector and workload generators need: amortised O(1) push, O(1)
    random access, a clear that keeps the backing store. Every store
    into the polymorphic backing array pays the runtime's write barrier
    ([caml_modify]), immediates included, and [clear] overwrites the
    used prefix with [dummy] so no dead element is retained. Vectors of
    [int] on a hot path use {!Int_vec} instead, which has the same
    interface over an [int array] and stores without the barrier. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector. [dummy] fills unused backing
    slots (it is never observable through the API). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when out of bounds. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element. @raise Invalid_argument when
    empty. *)

val top : 'a t -> 'a
(** Last element without removing it. @raise Invalid_argument when
    empty. *)

val clear : 'a t -> unit
(** Logical clear; capacity (and [dummy] slots) retained. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops elements at indices >= [n]. No-op if already
    shorter. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : dummy:'a -> 'a list -> 'a t
val swap_remove : 'a t -> int -> 'a
(** [swap_remove t i] removes index [i] in O(1) by moving the last
    element into its place; returns the removed element. Order is not
    preserved. *)
