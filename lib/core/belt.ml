(* Belts hold few increments (tens at most) and are mutated only at
   collections, so a plain list with O(n) edits is the simplest correct
   representation. The back (allocation) increment is additionally
   cached: [back] sits on the allocation and write-barrier fast paths,
   where a per-call list walk plus a fresh [option] cell would
   dominate. The cache is rebuilt at every mutation — all of which
   happen at collection boundaries, never per-object. *)
type t = {
  mutable index : int;
  mutable incs : Increment.t list;
  mutable back_cache : Increment.t option;
}

let recache t =
  t.back_cache <-
    (match t.incs with [] -> None | l -> Some (List.nth l (List.length l - 1)))

let create ~index = { index; incs = []; back_cache = None }
let index t = t.index
let set_index t i = t.index <- i
let length t = List.length t.incs
let is_empty t = t.incs = []
let front t = match t.incs with [] -> None | i :: _ -> Some i
let[@inline] back t = t.back_cache

let push_back t inc =
  t.incs <- t.incs @ [ inc ];
  t.back_cache <- Some inc

let remove t inc =
  let found = ref false in
  t.incs <-
    List.filter
      (fun (i : Increment.t) ->
        if i.id = inc.Increment.id then begin
          found := true;
          false
        end
        else true)
      t.incs;
  if not !found then invalid_arg "Belt.remove: increment not on belt";
  recache t

let iter t f = List.iter f t.incs
let fold t ~init ~f = List.fold_left f init t.incs
let fold_right t ~init ~f = List.fold_right f t.incs init

let occupancy_frames t =
  fold t ~init:0 ~f:(fun acc i -> acc + Increment.occupancy_frames i)

let words_used t = fold t ~init:0 ~f:(fun acc i -> acc + Increment.words_used i)

let swap_contents a b =
  let tmp = a.incs in
  a.incs <- b.incs;
  b.incs <- tmp;
  List.iter (fun (i : Increment.t) -> i.Increment.belt <- a.index) a.incs;
  List.iter (fun (i : Increment.t) -> i.Increment.belt <- b.index) b.incs;
  recache a;
  recache b
