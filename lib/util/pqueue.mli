(** Binary min-heap priority queue with integer priorities.

    Used by the workload generators to schedule object deaths on the
    allocation clock (priority = death time in bytes allocated).

    Priorities live in an [int array] beside the values, and sifts move
    a hole instead of swapping pairs. The comparisons are those of the
    textbook swap-based heap (on a tie the left child is preferred and
    no element moves past an equal one), so for any stream of [add],
    [pop_min] and [pop_le] calls the pop sequence, ties included, is
    the swap-based heap's. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> prio:int -> 'a -> unit
(** O(log n) insertion. *)

val min_prio : 'a t -> int option
(** Priority of the minimum element, or [None] if empty. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the minimum (priority, value) pair. *)

val pop_le : 'a t -> int -> (int * 'a) option
(** [pop_le t bound] pops the minimum element only when its priority is
    [<= bound]; the usual "drain everything due by now" idiom is
    [while pop_le t now <> None do ... done]. *)

val clear : 'a t -> unit
