module Prng = Beltway_util.Prng
module Int_vec = Beltway_util.Int_vec
module Pqueue = Beltway_util.Pqueue

type handle = { slot : Roots.global; mutable live : bool }

type t = {
  gc : Beltway.Gc.t;
  prng : Prng.t;
  free_slots : Int_vec.t; (* dropped handles' global slots, for reuse *)
  deaths : handle Pqueue.t;
  dummy_global : Roots.global;
  mutable site_of_ty : int array;
      (* type id -> interned allocation-site id, -1 until first use;
         synthetic workloads allocate by type, so the type name is the
         natural site label for the demographics profiler *)
}

let create ?(seed = 0x5EED) gc =
  let roots = Beltway.Gc.roots gc in
  let dummy_global = Roots.new_global roots Value.null in
  {
    gc;
    prng = Prng.create ~seed;
    free_slots = Int_vec.create ();
    deaths = Pqueue.create ~dummy:{ slot = dummy_global; live = false } ();
    dummy_global;
    site_of_ty = Array.make 16 (-1);
  }

(* Stamp the allocation-site channel with this type's site (interned
   lazily: site registration never touches the simulated heap). *)
let stamp_site t ~ty =
  let n = Array.length t.site_of_ty in
  if ty >= n then begin
    let a = Array.make (max (ty + 1) (2 * n)) (-1) in
    Array.blit t.site_of_ty 0 a 0 n;
    t.site_of_ty <- a
  end;
  let site =
    match t.site_of_ty.(ty) with
    | -1 ->
      let site =
        Beltway.Gc.register_site t.gc ~name:(Beltway.Gc.type_name t.gc ty)
      in
      t.site_of_ty.(ty) <- site;
      site
    | site -> site
  in
  Beltway.Gc.set_alloc_site t.gc site

let gc t = t.gc
let rng t = t.prng
let now t = Beltway.Gc.words_allocated t.gc

let fresh_slot t v =
  let roots = Beltway.Gc.roots t.gc in
  if Int_vec.is_empty t.free_slots then Roots.new_global roots v
  else begin
    let slot = Roots.global_of_int (Int_vec.pop t.free_slots) in
    Roots.set_global roots slot v;
    slot
  end

let retain t addr =
  { slot = fresh_slot t (Value.of_addr addr); live = true }

let get t h =
  if not h.live then invalid_arg "Mutator.get: dropped handle";
  let v = Roots.get_global (Beltway.Gc.roots t.gc) h.slot in
  Value.to_addr v

let is_live _ h = h.live

let drop t h =
  if h.live then begin
    h.live <- false;
    Roots.set_global (Beltway.Gc.roots t.gc) h.slot Value.null;
    Int_vec.push t.free_slots (h.slot :> int)
  end

let live_handles t =
  Roots.global_count (Beltway.Gc.roots t.gc) - Int_vec.length t.free_slots - 1

let alloc t ~ty ~nfields =
  stamp_site t ~ty;
  let addr = Beltway.Gc.alloc t.gc ~ty ~nfields in
  retain t addr

let schedule_drop t h ~dies_in =
  Pqueue.add t.deaths ~prio:(now t + dies_in) h

let alloc_dying t ~ty ~nfields ~dies_in =
  let h = alloc t ~ty ~nfields in
  schedule_drop t h ~dies_in;
  h

let alloc_temp t ~ty ~nfields =
  stamp_site t ~ty;
  ignore (Beltway.Gc.alloc t.gc ~ty ~nfields)

let link t ~from ~field ~to_ =
  let target = Value.of_addr (get t to_) in
  Beltway.Gc.write t.gc (get t from) field target

let unlink t ~from ~field = Beltway.Gc.write t.gc (get t from) field Value.null
let link_value t ~from ~field v = Beltway.Gc.write t.gc (get t from) field v
let read_field t h i = Beltway.Gc.read t.gc (get t h) i
let set_int t h i n = Beltway.Gc.write t.gc (get t h) i (Value.of_int n)

let alloc_into t ~parent ~field ~ty ~nfields =
  (* The allocation may collect and move the parent; its handle is
     re-read afterwards, and the fresh address is valid because nothing
     allocates in between. *)
  stamp_site t ~ty;
  let addr = Beltway.Gc.alloc t.gc ~ty ~nfields in
  Beltway.Gc.write t.gc (get t parent) field (Value.of_addr addr)

let child t h i =
  let v = read_field t h i in
  if Value.is_ref v then Some (retain t (Value.to_addr v)) else None

let tick t =
  let rec go () =
    match Pqueue.pop_le t.deaths (now t) with
    | None -> ()
    | Some (_, h) ->
      drop t h;
      go ()
  in
  go ()

let drain t =
  let rec go () =
    match Pqueue.pop_min t.deaths with
    | None -> ()
    | Some (_, h) ->
      drop t h;
      go ()
  in
  go ()
