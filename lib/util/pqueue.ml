(* A binary min-heap in two parallel arrays: priorities in an [int
   array], so comparisons and moves of priorities are plain word
   operations, and values beside them. Sifts move a hole rather than
   swapping pairs: the element being placed stays in registers and
   each level costs one move instead of a swap. The comparisons are
   exactly those of the swap-based heap (the placed element plays the
   part of the swapped-down one), so both build the same arrays and
   pop the same sequence, ties included. *)

type 'a t = {
  mutable prios : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { prios = Array.make 8 0; vals = Array.make 8 dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.prios in
  let prios = Array.make (2 * cap) 0 and vals = Array.make (2 * cap) t.dummy in
  Array.blit t.prios 0 prios 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.prios <- prios;
  t.vals <- vals

(* Place [(p, v)] at or above hole [i]: parents with a larger priority
   move down into the hole. *)
let sift_up t i p v =
  let prios = t.prios and vals = t.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prios parent in
    if p < pp then begin
      Array.unsafe_set prios !i pp;
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prios !i p;
  Array.unsafe_set vals !i v

(* Place [(p, v)] at or below hole [i] of a heap of [n] elements: the
   smaller child (the left one on a tie, as in the swap-based heap)
   moves up while it is smaller than [p]. *)
let sift_down t n i p v =
  let prios = t.prios and vals = t.vals in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let s = ref !i and sp = ref p in
    if l < n && Array.unsafe_get prios l < !sp then begin
      s := l;
      sp := Array.unsafe_get prios l
    end;
    if r < n && Array.unsafe_get prios r < !sp then begin
      s := r;
      sp := Array.unsafe_get prios r
    end;
    if !s <> !i then begin
      Array.unsafe_set prios !i !sp;
      Array.unsafe_set vals !i (Array.unsafe_get vals !s);
      i := !s
    end
    else continue := false
  done;
  Array.unsafe_set prios !i p;
  Array.unsafe_set vals !i v

let add t ~prio v =
  if t.len = Array.length t.prios then grow t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i prio v

let min_prio t = if t.len = 0 then None else Some t.prios.(0)

(* The root leaves; the last element is placed from the root's hole. *)
let take_min t =
  let prio = t.prios.(0) and v = t.vals.(0) in
  let last = t.len - 1 in
  t.len <- last;
  let lp = t.prios.(last) and lv = t.vals.(last) in
  t.vals.(last) <- t.dummy;
  if last > 0 then sift_down t last 0 lp lv;
  Some (prio, v)

let pop_min t = if t.len = 0 then None else take_min t
let pop_le t bound = if t.len > 0 && t.prios.(0) <= bound then take_min t else None

let clear t =
  Array.fill t.vals 0 t.len t.dummy;
  t.len <- 0
