(** Hash tables keyed by [int], with a deterministic iteration order.

    [Hashtbl.hash] is the hash, and the functor's tables are never
    seeded, so a table built by a given sequence of [add], [replace]
    and [remove] calls has the buckets, and the [iter], [fold] and
    [to_seq] order, of an unrandomised polymorphic [Hashtbl] built by
    the same calls, whatever [OCAMLRUNPARAM=R] says. Probes compare
    keys with [Int.equal] rather than the polymorphic [compare]. Any
    table whose iteration order can reach the collector (remembered
    sets, dirty cards) is one of these. *)

include Hashtbl.S with type key = int
