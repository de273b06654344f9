module Vec = Beltway_util.Vec

type t = {
  id : int;
  mutable belt : int;
  mutable stamp : int;
  frames : int Vec.t;
  frame_used : int Vec.t;
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
  mutable max_hole : int;
}

type pos = { mutable fi : int; mutable addr : Addr.t }

let create ~id ~belt ~stamp ~bound_frames =
  {
    id;
    belt;
    stamp;
    frames = Vec.create ~dummy:0 ();
    frame_used = Vec.create ~dummy:0 ();
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
    max_hole = 0;
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
      frames = Vec.create ~dummy:0 ();
      frame_used = Vec.create ~dummy:0 ();
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
      max_hole = 0;
    }
  in
  let fw = Memory.frame_words mem in
  let n = List.length frame_list in
  List.iteri
    (fun i f ->
      Vec.push t.frames f;
      (* Every frame fully used except possibly the last. *)
      Vec.push t.frame_used (if i < n - 1 then fw else size - ((n - 1) * fw)))
    frame_list;
  (match frame_list with
  | first :: _ ->
    t.cursor <- Memory.frame_base mem first + size;
    t.limit <- t.cursor
  | [] -> invalid_arg "Increment.create_pinned: no frames");
  t

let base_object t mem =
  if not t.pinned then invalid_arg "Increment.base_object: not pinned";
  Memory.frame_base mem (Vec.get t.frames 0)

let frame_count t = Vec.length t.frames
let occupancy_frames t = Vec.length t.frames
let words_used t = t.words_used

let wasted_words t mem =
  (frame_count t * Memory.frame_words mem) - t.words_used

let at_bound t =
  match t.bound_frames with None -> false | Some b -> frame_count t >= b

let retire_current_frame t mem =
  (* Record how much of the frame the bump pointer actually used. *)
  if frame_count t > 0 then begin
    let base = Memory.frame_base mem (Vec.top t.frames) in
    Vec.push t.frame_used (t.cursor - base)
  end

let add_frame t mem frame =
  if t.sealed then invalid_arg "Increment.add_frame: sealed";
  if at_bound t then invalid_arg "Increment.add_frame: at bound";
  retire_current_frame t mem;
  Vec.push t.frames frame;
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

   [max_hole] summarises the list so the fit tests do not walk it: a
   hole admits [size] iff it is exactly [size] words or at least
   [size + header_words], so the largest hole settles the question
   except when it lies strictly between the two (with the two-word
   header: when it is exactly [size + 1]), where only an exact-size
   hole can fit. *)

let clear_free_list t =
  Vec.clear t.free_list;
  t.free_word_count <- 0;
  t.max_hole <- 0

let push_free t ~addr ~words =
  Vec.push t.free_list addr;
  Vec.push t.free_list words;
  t.free_word_count <- t.free_word_count + words;
  if words > t.max_hole then t.max_hole <- words

let free_words t = t.free_word_count

let recompute_max_hole t =
  let m = ref 0 in
  let n = Vec.length t.free_list in
  let i = ref 1 in
  while !i < n do
    let words = Vec.get t.free_list !i in
    if words > !m then m := words;
    i := !i + 2
  done;
  t.max_hole <- !m

let fits_free t ~size =
  let m = t.max_hole in
  if m = size || m >= size + Object_model.header_words then true
  else if m < size then false
  else begin
    (* Only an exact-size hole can fit. *)
    let n = Vec.length t.free_list in
    let i = ref 1 in
    while !i < n && Vec.get t.free_list !i <> size do
      i := !i + 2
    done;
    !i < n
  end

let fit_or_null t mem ~size =
  (* No walk at all when every hole is smaller than [size]. *)
  let n = if t.max_hole < size then 0 else Vec.length t.free_list in
  let i = ref 0 in
  let addr = ref Addr.null in
  let taken = ref 0 in
  while !addr = Addr.null && !i < n do
    let a = Vec.get t.free_list !i in
    let words = Vec.get t.free_list (!i + 1) in
    taken := words;
    if words = size then begin
      (* Exact fit: drop the pair (swap-remove keeps the vec dense). *)
      let last = Vec.length t.free_list - 2 in
      Vec.set t.free_list !i (Vec.get t.free_list last);
      Vec.set t.free_list (!i + 1) (Vec.get t.free_list (last + 1));
      Vec.truncate t.free_list last;
      addr := a
    end
    else if words >= size + Object_model.header_words then begin
      (* Split: the remainder stays a filler object in place. Only its
         header is written: its payload words are payload words of the
         hole's filler, which the sweep wrote as odd immediates, and no
         split or allocation writes past [a + size] — so the remainder
         already satisfies the filler invariant [Verify] checks. *)
      let rem = words - size in
      Memory.set mem (a + size) ((rem - Object_model.header_words) lsl 1);
      Vec.set t.free_list !i (a + size);
      Vec.set t.free_list (!i + 1) rem;
      t.objects <- t.objects + 1;
      addr := a
    end
    else i := !i + 2
  done;
  if !addr <> Addr.null then begin
    (* Only taking or splitting a largest hole can lower the summary. *)
    if !taken = t.max_hole then recompute_max_hole t;
    t.free_word_count <- t.free_word_count - size;
    (* The hole's words are odd immediates; the allocation contract is
       zeroed (null-field) memory, like a fresh bump. *)
    Memory.fill mem ~dst:!addr ~len:size 0
  end;
  !addr

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
  if fi < Vec.length t.frame_used then Vec.get t.frame_used fi
  else if fi = frame_count t - 1 && t.cursor <> Addr.null then
    t.cursor - Memory.frame_base mem (Vec.get t.frames fi)
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
      pos.addr <- Memory.frame_base mem (Vec.get t.frames 0)
    end;
    (* Skip over frame seams: if we reached the used extent of the
       current frame and further frames exist, hop to the next base. *)
    let continue = ref true in
    while !continue do
      let base = Memory.frame_base mem (Vec.get t.frames pos.fi) in
      let extent = base + used_of_frame t mem pos.fi in
      if pos.addr >= extent && pos.fi < frame_count t - 1 then begin
        pos.fi <- pos.fi + 1;
        pos.addr <- Memory.frame_base mem (Vec.get t.frames pos.fi)
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
