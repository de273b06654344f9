module Vec = Beltway_util.Vec
module Int_vec = Beltway_util.Int_vec

type t = {
  id : int;
  mutable belt : int;
  mutable stamp : int;
  frames : Int_vec.t;
  frame_used : Int_vec.t;
  mutable cursor : Addr.t;
  mutable limit : Addr.t;
  mutable words_used : int;
  mutable objects : int;
  bound_frames : int option;
  mutable sealed : bool;
  pinned : bool;
  mutable in_plan : bool;
  mutable gc_mark : bool;
  free_list : int Vec.t;
  mutable free_word_count : int;
  mutable hole_index : int array;
}

type pos = { mutable fi : int; mutable addr : Addr.t }

let create ~id ~belt ~stamp ~bound_frames =
  {
    id;
    belt;
    stamp;
    frames = Int_vec.create ();
    frame_used = Int_vec.create ();
    cursor = Addr.null;
    limit = Addr.null;
    words_used = 0;
    objects = 0;
    bound_frames;
    sealed = false;
    pinned = false;
    in_plan = false;
    gc_mark = false;
    free_list = Vec.create ~dummy:0 ();
    free_word_count = 0;
    hole_index = [||];
  }

(* A pinned (large-object-space) increment: exactly one object of
   [size] words laid out across [frames] *contiguous* frames. Pinned
   increments are never copied and never receive further allocation. *)
let create_pinned ~id ~belt ~stamp ~frames:frame_list mem ~size =
  let t =
    {
      id;
      belt;
      stamp;
      frames = Int_vec.create ();
      frame_used = Int_vec.create ();
      cursor = Addr.null;
      limit = Addr.null;
      words_used = size;
      objects = 1;
      bound_frames = None;
      sealed = true;
      pinned = true;
      in_plan = false;
      gc_mark = false;
      free_list = Vec.create ~dummy:0 ();
      free_word_count = 0;
      hole_index = [||];
    }
  in
  let fw = Memory.frame_words mem in
  let n = List.length frame_list in
  List.iteri
    (fun i f ->
      Int_vec.push t.frames f;
      (* Every frame fully used except possibly the last. *)
      Int_vec.push t.frame_used (if i < n - 1 then fw else size - ((n - 1) * fw)))
    frame_list;
  (match frame_list with
  | first :: _ ->
    t.cursor <- Memory.frame_base mem first + size;
    t.limit <- t.cursor
  | [] -> invalid_arg "Increment.create_pinned: no frames");
  t

let base_object t mem =
  if not t.pinned then invalid_arg "Increment.base_object: not pinned";
  Memory.frame_base mem (Int_vec.get t.frames 0)

let frame_count t = Int_vec.length t.frames
let occupancy_frames t = Int_vec.length t.frames
let words_used t = t.words_used

let wasted_words t mem =
  (frame_count t * Memory.frame_words mem) - t.words_used

let at_bound t =
  match t.bound_frames with None -> false | Some b -> frame_count t >= b

let retire_current_frame t mem =
  (* Record how much of the frame the bump pointer actually used. *)
  if frame_count t > 0 then begin
    let base = Memory.frame_base mem (Int_vec.top t.frames) in
    Int_vec.push t.frame_used (t.cursor - base)
  end

let add_frame t mem frame =
  if t.sealed then invalid_arg "Increment.add_frame: sealed";
  if at_bound t then invalid_arg "Increment.add_frame: at bound";
  retire_current_frame t mem;
  Int_vec.push t.frames frame;
  t.cursor <- Memory.frame_base mem frame;
  t.limit <- t.cursor + Memory.frame_words mem

(* The collector's and allocator's bump path: [Addr.null] for "does not
   fit" keeps it allocation-free (no [option] cell per object). *)
let[@inline] bump_or_null t ~size =
  if (not t.sealed) && t.cursor <> Addr.null && t.cursor + size <= t.limit then begin
    let addr = t.cursor in
    t.cursor <- t.cursor + size;
    t.words_used <- t.words_used + size;
    t.objects <- t.objects + 1;
    addr
  end
  else Addr.null

let try_bump t ~size =
  let addr = bump_or_null t ~size in
  if addr = Addr.null then None else Some addr

(* Roll back the most recent bump — the parallel collector's
   lost-forwarding-race path, where a speculative copy must be
   discarded. Sound only immediately after the matching
   [bump_or_null], with no intervening allocation or frame grant in
   this (domain-private) increment; the cursor check enforces that. *)
let unbump t ~addr ~size =
  if t.cursor <> addr + size then
    invalid_arg "Increment.unbump: not the most recent allocation";
  t.cursor <- addr;
  t.words_used <- t.words_used - size;
  t.objects <- t.objects - 1

let seal t = t.sealed <- true

(* ------------------------------------------------------------------ *)
(* Free-list reallocation (mark-sweep strategy). Each hole left by a
   swept object run is a *filler object* in the heap — even header
   [(words - header_words) lsl 1], every payload word an odd immediate
   — so the object stream stays walkable, and the free list is just an
   index over those fillers: flat (address, words) pairs. First-fit
   with a remainder rule: a hole may be taken exactly, or split
   leaving at least [header_words] words for the remainder filler
   (1-word remainders cannot be represented, so such holes are
   skipped for that size).

   [hole_index] summarises the list so no query walks it: a max-tree
   over blocks of [block_pairs] consecutive pairs. With [cap] leaves
   (a power of two, [Array.length hole_index = 2 * cap]), node 1 is
   the root, node [k] has children [2k] and [2k + 1], and leaf
   [cap + b] holds the largest hole of block [b] (0 for an empty or
   unused block); slot 0 is unused. A hole admits [size] only if it is
   at least [size] words, so a subtree whose maximum is below [size]
   holds no fitting hole and is skipped whole; the leftmost admitting
   pair is then found in O(block_pairs * log blocks) rather than by a
   walk over every pair before it. The root is the largest hole, which
   settles most fit tests at once: only a largest hole of exactly
   [size + 1] (with the two-word header) needs a search for an
   exact-size hole. Copying increments never push a hole, so their
   index stays the empty array. *)

let block_log = 5
let block_pairs = 1 lsl block_log

let max_hole t = if Array.length t.hole_index = 0 then 0 else t.hole_index.(1)

let clear_free_list t =
  Vec.clear t.free_list;
  t.free_word_count <- 0;
  Array.fill t.hole_index 0 (Array.length t.hole_index) 0

(* The largest hole among block [b]'s pairs, read off the flat list. *)
let block_max fl b =
  let m = ref 0 in
  let stop = min (Vec.length fl) ((b + 1) * block_pairs * 2) in
  let i = ref ((b * block_pairs * 2) + 1) in
  while !i < stop do
    let words = Vec.get fl !i in
    if words > !m then m := words;
    i := !i + 2
  done;
  !m

(* The index [free_list] implies, over [cap] leaves: what
   [hole_index] must hold. *)
let build_index fl ~cap =
  let idx = Array.make (2 * cap) 0 in
  for b = 0 to cap - 1 do
    idx.(cap + b) <- block_max fl b
  done;
  for k = cap - 1 downto 1 do
    idx.(k) <- max idx.(2 * k) idx.(2 * k + 1)
  done;
  idx

(* At the index's own size, or the smallest that covers the list when
   it does not. *)
let rebuilt_index t =
  let blocks = ((Vec.length t.free_list / 2) + block_pairs - 1) lsr block_log in
  let cap = ref (Array.length t.hole_index / 2) in
  if !cap < blocks then begin
    cap := 1;
    while !cap < blocks do
      cap := 2 * !cap
    done
  end;
  build_index t.free_list ~cap:!cap

(* Re-derive the ancestors of [node] after it changed, stopping at the
   first one whose maximum is unchanged. *)
let rec propagate idx node =
  if node > 1 then begin
    let parent = node / 2 in
    let m = max idx.(2 * parent) idx.((2 * parent) + 1) in
    if idx.(parent) <> m then begin
      idx.(parent) <- m;
      propagate idx parent
    end
  end

let set_leaf idx leaf m =
  if idx.(leaf) <> m then begin
    idx.(leaf) <- m;
    propagate idx leaf
  end

let leaf_of t b = (Array.length t.hole_index / 2) + b

(* Block [b] gained a hole of [words]. *)
let raise_block t b words =
  let leaf = leaf_of t b in
  if words > t.hole_index.(leaf) then set_leaf t.hole_index leaf words

(* Block [b] lost (or shrank) a hole of [words]: only its largest hole
   can lower its summary, and then the block is rescanned. *)
let lower_block t b words =
  let leaf = leaf_of t b in
  if words = t.hole_index.(leaf) then
    set_leaf t.hole_index leaf (block_max t.free_list b)

let push_free t ~addr ~words =
  let b = (Vec.length t.free_list / 2) lsr block_log in
  Vec.push t.free_list addr;
  Vec.push t.free_list words;
  t.free_word_count <- t.free_word_count + words;
  let cap = Array.length t.hole_index / 2 in
  if b >= cap then
    (* Grow to twice the blocks (the list only ever appends one
       block at a time); rare, and rebuilt from the list. *)
    t.hole_index <- build_index t.free_list ~cap:(max 1 (2 * cap))
  else raise_block t b words

let free_words t = t.free_word_count

let[@inline] admits ~size words =
  words = size || words >= size + Object_model.header_words

(* Leftmost pair (by pair number) of block [b] admitting [size], or
   -1. *)
let scan_block fl ~size b =
  let stop = min (Vec.length fl) ((b + 1) * block_pairs * 2) in
  let i = ref ((b * block_pairs * 2) + 1) in
  while !i < stop && not (admits ~size (Vec.get fl !i)) do
    i := !i + 2
  done;
  if !i < stop then !i / 2 else -1

(* Leftmost pair under [node] admitting [size], or -1: subtrees whose
   largest hole is below [size] are never entered. *)
let rec find idx fl ~size node =
  if idx.(node) < size then -1
  else begin
    let cap = Array.length idx / 2 in
    if node >= cap then scan_block fl ~size (node - cap)
    else begin
      let p = find idx fl ~size (2 * node) in
      if p >= 0 then p else find idx fl ~size ((2 * node) + 1)
    end
  end

let first_fit t ~size =
  if max_hole t < size then -1 else find t.hole_index t.free_list ~size 1

let fits_free t ~size =
  let m = max_hole t in
  m = size
  || m >= size + Object_model.header_words
  || (m > size && first_fit t ~size >= 0)

let fit_or_null t mem ~size =
  let p = first_fit t ~size in
  if p < 0 then Addr.null
  else begin
    let fl = t.free_list in
    let i = 2 * p in
    let a = Vec.get fl i in
    let words = Vec.get fl (i + 1) in
    let b = p lsr block_log in
    if words = size then begin
      (* Exact fit: drop the pair (swap-remove keeps the vec dense). *)
      let last = Vec.length fl - 2 in
      let moved = Vec.get fl (last + 1) in
      Vec.set fl i (Vec.get fl last);
      Vec.set fl (i + 1) moved;
      Vec.truncate fl last;
      lower_block t b words;
      if i < last then begin
        (* The last pair moved from its block into block [b]. *)
        let last_b = (last / 2) lsr block_log in
        raise_block t b moved;
        if last_b <> b then lower_block t last_b moved
      end
    end
    else begin
      (* Split: the remainder stays a filler object in place. Only its
         header is written: its payload words are payload words of the
         hole's filler, which the sweep wrote as odd immediates, and no
         split or allocation writes past [a + size] — so the remainder
         already satisfies the filler invariant [Verify] checks. *)
      let rem = words - size in
      Memory.set mem (a + size) ((rem - Object_model.header_words) lsl 1);
      Vec.set fl i (a + size);
      Vec.set fl (i + 1) rem;
      t.objects <- t.objects + 1;
      lower_block t b words
    end;
    t.free_word_count <- t.free_word_count - size;
    (* The hole's words are odd immediates; the allocation contract is
       zeroed (null-field) memory, like a fresh bump. *)
    Memory.fill mem ~dst:a ~len:size 0;
    a
  end

(* Bump first (the common case, identical to the copying allocator),
   then fall back to the free list; [Addr.null] when neither fits. *)
let alloc_or_null t mem ~size =
  let addr = bump_or_null t ~size in
  if addr <> Addr.null then addr
  else if t.free_word_count >= size && not t.sealed then
    fit_or_null t mem ~size
  else Addr.null

(* Used words of frame [fi]: retired frames have a recorded extent; the
   frame under the cursor extends to the cursor. *)
let used_of_frame t mem fi =
  if fi < Int_vec.length t.frame_used then Int_vec.get t.frame_used fi
  else if fi = frame_count t - 1 && t.cursor <> Addr.null then
    t.cursor - Memory.frame_base mem (Int_vec.get t.frames fi)
  else 0

let scan_pos t = { fi = frame_count t - 1; addr = t.cursor }
let start_pos (_ : t) = { fi = 0; addr = Addr.null }

(* Normalise a position: ensure it points at a real object or the
   frontier. A fresh increment (no frames) normalises to the frontier
   trivially. *)
let normalise t mem pos =
  if frame_count t = 0 then ()
  else begin
    if pos.addr = Addr.null then begin
      pos.fi <- 0;
      pos.addr <- Memory.frame_base mem (Int_vec.get t.frames 0)
    end;
    (* Skip over frame seams: if we reached the used extent of the
       current frame and further frames exist, hop to the next base. *)
    let continue = ref true in
    while !continue do
      let base = Memory.frame_base mem (Int_vec.get t.frames pos.fi) in
      let extent = base + used_of_frame t mem pos.fi in
      if pos.addr >= extent && pos.fi < frame_count t - 1 then begin
        pos.fi <- pos.fi + 1;
        pos.addr <- Memory.frame_base mem (Int_vec.get t.frames pos.fi)
      end
      else continue := false
    done
  end

let scan_pending t mem pos =
  (not t.pinned)
  && frame_count t > 0
  && begin
       normalise t mem pos;
       pos.fi < frame_count t - 1 || pos.addr < t.cursor
     end

let scan_step t mem pos =
  if not (scan_pending t mem pos) then
    invalid_arg "Increment.scan_step: nothing pending";
  (* After normalisation pos.addr points at an object header. *)
  let addr = pos.addr in
  let size = Object_model.size_of mem addr in
  pos.addr <- pos.addr + size;
  normalise t mem pos;
  addr

(* [scan_pending] + [scan_step] fused: one normalisation per object
   instead of three (the Cheney drain calls this per copied object).
   The object's size comes straight off its header word — objects in a
   destination increment are never forwarded, and the increment's
   frames are live, so the unchecked load is sound. *)
let scan_next t mem pos =
  if t.pinned || frame_count t = 0 then Addr.null
  else begin
    normalise t mem pos;
    if pos.fi < frame_count t - 1 || pos.addr < t.cursor then begin
      let addr = pos.addr in
      pos.addr <-
        addr + (Memory.unsafe_get mem addr lsr 1) + Object_model.header_words;
      addr
    end
    else Addr.null
  end

let iter_objects t mem f =
  if t.pinned then f (base_object t mem)
  else begin
    let pos = start_pos t in
    while scan_pending t mem pos do
      f (scan_step t mem pos)
    done
  end
