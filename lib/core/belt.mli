(** Belts: FIFO queues of increments (paper S2.2).

    A belt groups one or more increments and is collected in strict
    first-in-first-out order: the front (oldest) increment is always
    the next collected; allocation and promotion go to the back
    (youngest) increment. *)

type t

val create : index:int -> t
val index : t -> int
val set_index : t -> int -> unit
(** BOF belt flips exchange the roles (and indices) of two belts. *)

val length : t -> int
val is_empty : t -> bool

val front : t -> Increment.t option
(** Oldest increment: the next to be collected. *)

val back : t -> Increment.t option
(** Youngest increment: receives allocation/promotion. *)

val push_back : t -> Increment.t -> unit

val remove : t -> Increment.t -> unit
(** Remove a (collected) increment wherever it sits; FIFO order of the
    rest is preserved. @raise Invalid_argument if absent. *)

val iter : t -> (Increment.t -> unit) -> unit
(** Front-to-back traversal. *)

val fold : t -> init:'a -> f:('a -> Increment.t -> 'a) -> 'a

val fold_right : t -> init:'a -> f:(Increment.t -> 'a -> 'a) -> 'a
(** Back-to-front fold, for building front-to-back lists by consing
    without an intermediate reversal. *)

val occupancy_frames : t -> int
(** Total frames held by the belt's increments. *)

val words_used : t -> int

val swap_contents : t -> t -> unit
(** Exchange the increment queues of two belts (the BOF flip); belt
    indices of the increments are rewritten to match. *)
