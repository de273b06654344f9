let header_words = 2
let size_words ~nfields = nfields + header_words
let max_fields mem = Memory.frame_words mem - header_words

let[@inline] init mem addr ~tib ~nfields =
  Memory.set mem addr (nfields lsl 1);
  Memory.set mem (addr + 1) tib

let status mem addr = Memory.get mem addr

let forwarded mem addr =
  let s = status mem addr in
  if s land 1 = 1 then Some (s lsr 1) else None

let set_forwarding mem addr new_addr = Memory.set mem addr ((new_addr lsl 1) lor 1)

let nfields mem addr =
  let s = status mem addr in
  if s land 1 = 1 then
    invalid_arg (Printf.sprintf "Object_model.nfields: object %#x is forwarded" addr);
  s lsr 1

let size_of mem addr = size_words ~nfields:(nfields mem addr)
let tib mem addr = Memory.get mem (addr + 1)
let set_tib mem addr v = Memory.set mem (addr + 1) v

let check_field mem addr i =
  let n = nfields mem addr in
  if i < 0 || i >= n then
    invalid_arg
      (Printf.sprintf "Object_model: field %d out of bounds [0,%d) at %#x" i n addr)

let get_field mem addr i =
  check_field mem addr i;
  Memory.get mem (addr + header_words + i)

let set_field mem addr i v =
  check_field mem addr i;
  Memory.set mem (addr + header_words + i) v

let field_addr addr i = addr + header_words + i
let tib_addr addr = addr + 1

let iter_ref_slots mem addr f =
  let n = nfields mem addr in
  if Value.is_ref (tib mem addr) then f (tib_addr addr);
  for i = 0 to n - 1 do
    if Value.is_ref (Memory.get mem (field_addr addr i)) then f (field_addr addr i)
  done
