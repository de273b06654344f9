module Int_vec = Beltway_util.Int_vec
module Int_table = Beltway_util.Int_table

let frame_shift = 21 (* frame indices comfortably below 2^21 *)

type set = {
  key : int; (* [rsidx]: the source frame above [frame_shift], the target below *)
  slots : Int_vec.t;
  mutable since_dedup : int;
  (* Lazy membership index for [mem_slot]: built on first query,
     extended incrementally over slots appended since, discarded when a
     dedup reorders the vec. Inserts stay append-only and cheap. *)
  mutable probe : unit Int_table.t option;
  mutable probed : int; (* slots already folded into [probe] *)
}

type t = {
  sets : set Int_table.t;
  by_frame : Int_vec.t array;
      (* frame -> keys of the sets whose source or target is that
         frame (a set from a frame to itself is listed once);
         [no_keys] until the frame's first set *)
  dedup_threshold : int;
  mutable total : int;
  mutable inserts : int;
  mutable last : set; (* the set most recently looked up, or [no_set] *)
}

let tgt_mask = (1 lsl frame_shift) - 1
let[@inline] src_of key = key lsr frame_shift
let[@inline] tgt_of key = key land tgt_mask

(* Shared placeholders: [no_keys] is never pushed to ([index_add]
   replaces it first), and [no_set]'s key matches no [rsidx]. *)
let no_keys = Int_vec.create ~capacity:1 ()
let no_set = { key = -1; slots = no_keys; since_dedup = 0; probe = None; probed = 0 }

let create ?(dedup_threshold = 4096) ?(max_frames = 64) () =
  if max_frames < 0 || max_frames > tgt_mask then
    invalid_arg "Remset.create: max_frames out of range";
  {
    sets = Int_table.create 64;
    by_frame = Array.make (max_frames + 1) no_keys;
    dedup_threshold;
    total = 0;
    inserts = 0;
    last = no_set;
  }

let rsidx ~src ~tgt = (src lsl frame_shift) lor tgt

let index_add t frame key =
  let keys = t.by_frame.(frame) in
  if keys == no_keys then begin
    let keys = Int_vec.create ~capacity:2 () in
    t.by_frame.(frame) <- keys;
    Int_vec.push keys key
  end
  else Int_vec.push keys key

(* A frame's key list is short (its sets' partner frames), so removal
   is a scan and a swap. *)
let index_remove t frame key =
  let keys = t.by_frame.(frame) in
  let n = Int_vec.length keys in
  let i = ref 0 in
  while !i < n && Int_vec.get keys !i <> key do
    incr i
  done;
  if !i < n then ignore (Int_vec.swap_remove keys !i)

(* In-place compaction: survivors are written back over the prefix of
   the same vec and the tail truncated — no rebuild, no reallocation. *)
let dedup t set =
  let n = Int_vec.length set.slots in
  let seen = Int_table.create n in
  let w = ref 0 in
  for r = 0 to n - 1 do
    let slot = Int_vec.get set.slots r in
    if not (Int_table.mem seen slot) then begin
      Int_table.replace seen slot ();
      Int_vec.set set.slots !w slot;
      incr w
    end
  done;
  Int_vec.truncate set.slots !w;
  set.since_dedup <- 0;
  set.probe <- None;
  set.probed <- 0;
  t.total <- t.total - (n - !w)

let find_set t key =
  let last = t.last in
  if last.key = key then last
  else
    match Int_table.find t.sets key with
    | set ->
      t.last <- set;
      set
    | exception Not_found -> no_set

(* Frames are checked here, before anything is recorded, so a bad
   frame leaves the structure as it was. *)
let new_set t ~key ~src ~tgt =
  let n = Array.length t.by_frame in
  if src < 0 || src >= n || tgt < 0 || tgt >= n then
    invalid_arg
      (Printf.sprintf "Remset.insert: frame %d or %d outside [0, %d]" src tgt (n - 1));
  let set =
    { key; slots = Int_vec.create ~capacity:2 (); since_dedup = 0; probe = None;
      probed = 0 }
  in
  Int_table.replace t.sets key set;
  index_add t src key;
  if tgt <> src then index_add t tgt key;
  t.last <- set;
  set

let insert t ~src_frame ~tgt_frame ~slot =
  let key = rsidx ~src:src_frame ~tgt:tgt_frame in
  let set = find_set t key in
  let set =
    if set == no_set then new_set t ~key ~src:src_frame ~tgt:tgt_frame else set
  in
  Int_vec.push set.slots slot;
  set.since_dedup <- set.since_dedup + 1;
  t.total <- t.total + 1;
  t.inserts <- t.inserts + 1;
  if Int_vec.length set.slots > t.dedup_threshold
     && set.since_dedup > t.dedup_threshold / 2
  then dedup t set

let total_entries t = t.total
let inserts t = t.inserts
let sets t = Int_table.length t.sets

let iter_into t ~in_plan f =
  Int_table.iter
    (fun key set ->
      if in_plan (tgt_of key) && not (in_plan (src_of key)) then
        Int_vec.iter (fun slot -> f ~slot) set.slots)
    t.sets

(* Each of the frame's sets leaves the table and its partner frame's
   list; the frame's own list is then released whole, so a frame that
   once had many partners keeps no grown list once it is freed. *)
let drop_frame t frame =
  if frame >= 0 && frame < Array.length t.by_frame then begin
    let keys = t.by_frame.(frame) in
    for i = 0 to Int_vec.length keys - 1 do
      let key = Int_vec.get keys i in
      let set = Int_table.find t.sets key in
      t.total <- t.total - Int_vec.length set.slots;
      Int_table.remove t.sets key;
      if t.last == set then t.last <- no_set;
      let src = src_of key in
      let partner = if src = frame then tgt_of key else src in
      if partner <> frame then index_remove t partner key
    done;
    if keys != no_keys then t.by_frame.(frame) <- no_keys
  end

let mem_slot t ~src_frame ~tgt_frame ~slot =
  let set = find_set t (rsidx ~src:src_frame ~tgt:tgt_frame) in
  set != no_set
  && begin
       let h =
         match set.probe with
         | Some h -> h
         | None ->
           let h = Int_table.create (max 16 (Int_vec.length set.slots)) in
           set.probe <- Some h;
           set.probed <- 0;
           h
       in
       let n = Int_vec.length set.slots in
       for i = set.probed to n - 1 do
         Int_table.replace h (Int_vec.get set.slots i) ()
       done;
       set.probed <- n;
       Int_table.mem h slot
     end

let entries_targeting t frame =
  if frame < 0 || frame >= Array.length t.by_frame then 0
  else
    Int_vec.fold
      (fun acc key ->
        if tgt_of key = frame then acc + Int_vec.length (Int_table.find t.sets key).slots
        else acc)
      0 t.by_frame.(frame)
