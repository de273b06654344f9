(** Remembered sets, one per (source frame, target frame) pair.

    As in the paper (S3.3.2), the bounded number of frames lets us keep
    a distinct remset for every target-source frame pair, keyed by
    [rsidx = (s << k) | t]. Entries are *slot addresses* (the address
    of the field holding the interesting pointer), so the collector
    re-reads each slot at collection time — entries whose slot was
    since overwritten are revalidated for free, and all sets relating
    to a frame can be dropped in one operation when that frame is
    collected or freed.

    Mutators can insert the same slot many times; sets are compacted by
    an occasional deduplication pass once they grow past a threshold,
    mirroring GCTk's sequential-store-buffer + hash organisation.

    {b Representation.} The sets live in one {!Beltway_util.Int_table}
    keyed by [rsidx]; each set's slots are an {!Beltway_util.Int_vec}
    (initial capacity 2). A per-frame index makes "delete all remsets
    relating to a frame" proportional to that frame's sets: one flat
    array, indexed by frame and sized once from the heap's frame bound,
    lists the keys of the sets whose source or target is that frame, so
    dropping a frame with no sets is one array read. A one-entry cache
    holds the set last looked up; removing that set clears it.

    {b Order contract.} {!iter_into} visits sets in the iteration order
    of an unrandomised polymorphic [(int, _) Hashtbl.t] that received
    the same key insertions and removals, and each set's slots in
    insertion order (as compacted by dedup). That order reaches the
    collector (it is the order remembered slots are forwarded in), so
    it is independent of [OCAMLRUNPARAM=R] and of the order in which
    [drop_frame] removes a frame's sets. *)

type t

val create : ?dedup_threshold:int -> ?max_frames:int -> unit -> t
(** [dedup_threshold] (default 4096): a set longer than this is
    deduplicated before growing further. [max_frames] (default 64) is
    the largest frame index {!insert} accepts; the heap passes its
    proven frame bound.
    @raise Invalid_argument unless [0 <= max_frames < 2^21]. *)

val insert : t -> src_frame:int -> tgt_frame:int -> slot:Addr.t -> unit
(** @raise Invalid_argument if either frame lies outside
    [0 .. max_frames]. *)

val total_entries : t -> int
(** Current entry count across all sets (drives the remset trigger). *)

val inserts : t -> int
(** Lifetime insert count (barrier slow-path statistic). *)

val sets : t -> int
(** Number of non-empty (source, target) pairs. *)

val iter_into :
  t ->
  in_plan:(int -> bool) ->
  (slot:Addr.t -> unit) ->
  unit
(** Apply [f] to every remembered slot whose *target* frame satisfies
    [in_plan] and whose *source* frame does not (sources inside the
    plan are discovered by the Cheney scan instead). These slots are
    collection roots. *)

val drop_frame : t -> int -> unit
(** Delete every set whose source *or* target is the given frame
    ("we can trivially delete all remsets relating to a frame"), in
    time proportional to those sets. A frame outside
    [0 .. max_frames] holds no sets and is a no-op. *)

val entries_targeting : t -> int -> int
(** Entry count over sets whose target is the given frame (survival
    pressure heuristic for triggers). *)

val mem_slot : t -> src_frame:int -> tgt_frame:int -> slot:Addr.t -> bool
(** Whether the slot is recorded in the (source, target) set. Amortised
    O(1): a per-set hash index is built lazily on first query and
    extended incrementally, so verifier sweeps over large remsets stay
    linear. Used by the integrity verifier, not by the collector. *)
