(* Flat per-frame side tables for the collection fast path.

   Two parallel int arrays indexed by frame: the full collect stamp,
   and a packed metadata word {increment id, pinned bit, in-plan bit}.
   The stamp lives in its own array because stamps span the whole word
   range (immortal_stamp = max_int); everything the collector's
   [forward] needs besides the stamp fits in the packed word, so plan
   membership, pinnedness and the owning increment id resolve from a
   single array load. *)

type t = { stamps : int array; meta : int array }

let immortal_stamp = max_int
let priority_unit = 1 lsl 40
let no_stamp = -1

(* meta layout: bit 0 = in-plan, bit 1 = pinned, bits 2.. = id + 1
   (0 = unowned). *)
let in_plan_bit = 1
let pinned_bit = 2
let no_meta = 0

let pack ~incr ~pinned ~in_plan =
  ((incr + 1) lsl 2)
  lor (if pinned then pinned_bit else 0)
  lor if in_plan then in_plan_bit else 0

let[@inline] meta_incr m = (m lsr 2) - 1
let[@inline] meta_pinned m = m land pinned_bit <> 0
let[@inline] meta_in_plan m = m land in_plan_bit <> 0

let create ~max_frames =
  {
    stamps = Array.make (max_frames + 1) no_stamp;
    meta = Array.make (max_frames + 1) no_meta;
  }

let set t ~frame ~stamp ~incr ~pinned =
  t.stamps.(frame) <- stamp;
  t.meta.(frame) <- pack ~incr ~pinned ~in_plan:false

let clear t ~frame =
  t.stamps.(frame) <- no_stamp;
  t.meta.(frame) <- no_meta

let restamp t ~frame ~stamp = t.stamps.(frame) <- stamp

let set_in_plan t ~frame v =
  let m = t.meta.(frame) in
  t.meta.(frame) <- (if v then m lor in_plan_bit else m land lnot in_plan_bit)

(* Reads tolerate frames beyond [max_frames] (they answer as unowned),
   so any address-derived index is safe to look up. The bounds test
   also licenses the unsafe load. *)
let[@inline] stamp t frame =
  if frame < Array.length t.stamps then Array.unsafe_get t.stamps frame
  else no_stamp

let[@inline] meta t frame =
  if frame < Array.length t.meta then Array.unsafe_get t.meta frame else no_meta

let[@inline] incr_of t frame = meta_incr (meta t frame)
let[@inline] pinned t frame = meta_pinned (meta t frame)
let[@inline] in_plan t frame = meta_in_plan (meta t frame)
