type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

(* The bound check stays on every access; only its error path is out of
   line, so [get] and [set] inline at their call sites (the free-list
   index's block scans, the mark stack, remembered-slot buffers) as a
   compare and a load or store. *)
let[@inline never] out_of_bounds t i name =
  invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0,%d)" name i t.len)

let[@inline] check t i name = if i < 0 || i >= t.len then out_of_bounds t i name

let[@inline] get t i =
  check t i "get";
  Array.unsafe_get t.data i

let[@inline] set t i v =
  check t i "set";
  Array.unsafe_set t.data i v

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (cap * 2) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let v = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  v

let top t =
  if t.len = 0 then invalid_arg "Vec.top: empty";
  t.data.(t.len - 1)

let clear t =
  (* Overwrite with dummy so we do not retain OCaml-side garbage. *)
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let truncate t n =
  if n < t.len then begin
    Array.fill t.data n (t.len - n) t.dummy;
    t.len <- n
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.len

let of_list ~dummy l =
  let t = create ~capacity:(max 1 (List.length l)) ~dummy () in
  List.iter (push t) l;
  t

let swap_remove t i =
  check t i "swap_remove";
  let v = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  t.data.(t.len) <- t.dummy;
  v
