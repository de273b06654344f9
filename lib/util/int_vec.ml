(* [Vec] specialised to [int]: the backing store is an [int array], so
   every store compiles to a plain word write rather than a call to the
   runtime's write barrier ([caml_modify]), which a store into a
   polymorphic ['a array] must make. No dummy is needed: an int slot
   past [len] retains nothing, so [clear] and [truncate] are O(1). *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let[@inline never] out_of_bounds t i name =
  invalid_arg (Printf.sprintf "Int_vec.%s: index %d out of bounds [0,%d)" name i t.len)

let[@inline] check t i name = if i < 0 || i >= t.len then out_of_bounds t i name

let[@inline] get t i =
  check t i "get";
  Array.unsafe_get t.data i

let[@inline] set t i v =
  check t i "set";
  Array.unsafe_set t.data i v

let[@inline never] grow t =
  let cap = Array.length t.data in
  let data = Array.make (cap * 2) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let[@inline] push t v =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_vec.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let top t =
  if t.len = 0 then invalid_arg "Int_vec.top: empty";
  Array.unsafe_get t.data (t.len - 1)

let clear t = t.len <- 0
let truncate t n =
  if n < 0 then invalid_arg "Int_vec.truncate: negative length";
  if n < t.len then t.len <- n

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> Array.unsafe_get t.data i)
let to_array t = Array.sub t.data 0 t.len

let swap_remove t i =
  check t i "swap_remove";
  let v = Array.unsafe_get t.data i in
  t.len <- t.len - 1;
  Array.unsafe_set t.data i (Array.unsafe_get t.data t.len);
  v
