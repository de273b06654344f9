let max_frames = 8

type t = {
  mem : Memory.t;
  frames : Beltway_util.Int_vec.t;
  frame_set : (int, unit) Hashtbl.t;
  mutable cursor : Addr.t; (* next free word, 0 = no frame yet *)
  mutable limit : Addr.t; (* one past the current frame *)
  mutable used : int;
}

let create mem =
  {
    mem;
    frames = Beltway_util.Int_vec.create ();
    frame_set = Hashtbl.create 16;
    cursor = Addr.null;
    limit = Addr.null;
    used = 0;
  }

let extend t =
  if Beltway_util.Int_vec.length t.frames >= max_frames then raise Memory.Out_of_frames;
  let f = Memory.alloc_frame t.mem in
  Beltway_util.Int_vec.push t.frames f;
  Hashtbl.replace t.frame_set f ();
  t.cursor <- Memory.frame_base t.mem f;
  t.limit <- t.cursor + Memory.frame_words t.mem

let alloc t ~tib ~nfields =
  let size = Object_model.size_words ~nfields in
  if size > Memory.frame_words t.mem then
    invalid_arg "Boot_space.alloc: object larger than a frame";
  if t.cursor = Addr.null || t.cursor + size > t.limit then extend t;
  let addr = t.cursor in
  t.cursor <- t.cursor + size;
  t.used <- t.used + size;
  Object_model.init t.mem addr ~tib ~nfields;
  addr

let frames t = Beltway_util.Int_vec.to_list t.frames
let mem_frames t = Beltway_util.Int_vec.length t.frames
let contains t a = a <> Addr.null && Hashtbl.mem t.frame_set (Memory.addr_frame t.mem a)
let words_used t = t.used
