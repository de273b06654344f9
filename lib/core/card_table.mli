(** Card-table pointer tracking: the classic alternative to remembered
    sets (paper S5, citing Wilson & Moher).

    A card-marking barrier is unconditionally cheap — mark the card
    containing the written slot, no stamp comparison — and pays for it
    at collection time: every dirty card outside the plan must be
    scanned for pointers into the plan. The paper's GCTk could not use
    cards because Jikes RVM lays out arrays and scalars in opposite
    directions (object starts cannot be recovered from card
    boundaries); our increments can enumerate their objects, so this
    reproduction implements cards at frame granularity — coarse cards,
    accentuating the scan-cost side of the trade-off the paper
    describes. Select with the [+cards] configuration option and
    compare via the ablation bench. *)

type t

val create : unit -> t

val mark : t -> frame:int -> unit
(** The mutator wrote a pointer somewhere in this frame. O(1). *)

val is_dirty : t -> frame:int -> bool

val clear : t -> frame:int -> unit
(** Clean one card (after a collection scanned it and found nothing
    left to remember, or when its frame is freed). *)

val iter_dirty : t -> (int -> unit) -> unit
(** All currently dirty frames, in an order fixed by the sequence of
    marks and clears (an {!Beltway_util.Int_table}'s, so independent of
    [OCAMLRUNPARAM=R]). Safe against marks/clears during iteration
    (iterates a snapshot). *)

val dirty_count : t -> int
