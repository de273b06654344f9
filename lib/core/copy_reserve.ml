(* One partially filled frame per destination belt — per GC domain,
   since the parallel drain gives every domain its own private open
   destination increment on each belt — plus slack. At one domain this
   is the original [nbelts + 2]. *)
let pad st = (Array.length st.State.belts * st.State.gc_domains) + 2

(* Walks the belts in place (this runs on every nursery frame grant,
   through [Trigger.heap_full]): no list of increments is built and
   nothing is allocated per increment. *)
let dynamic_frames st =
  let belts = st.State.belts in
  let nbelts = Array.length belts in
  (* Floor: the largest bounded increment size — a fresh increment of
     that size could always fill and require evacuation. *)
  let floor_frames =
    Array.fold_left
      (fun acc bound -> match bound with Some b -> Int.max acc b | None -> acc)
      0 st.State.belt_bounds
  in
  (* Top-two occupancies among increments promoting into each belt
     ([first] held by increment [first_id]), so an increment's own
     contribution can be excluded from its own potential (otherwise the
     semi-space increment would count itself as its own copy source and
     halve utilisation). *)
  let first = Array.make nbelts 0 in
  let first_id = Array.make nbelts (-1) in
  let second = Array.make nbelts 0 in
  let rank () (inc : Increment.t) =
    if not inc.Increment.pinned then begin
      let d = State.dest_belt st inc.Increment.belt in
      let occ = Increment.occupancy_frames inc in
      if occ > first.(d) then begin
        second.(d) <- first.(d);
        first.(d) <- occ;
        first_id.(d) <- inc.Increment.id
      end
      else if occ > second.(d) then second.(d) <- occ
    end
  in
  Array.iter (fun b -> Belt.fold b ~init:() ~f:rank) belts;
  let potential acc (inc : Increment.t) =
    if inc.Increment.pinned then acc (* never evacuated *)
    else begin
      let occ = Increment.occupancy_frames inc in
      let belt = inc.Increment.belt in
      let p =
        (* Only the back (open) increment of a belt receives copies. *)
        match Belt.back belts.(belt) with
        | Some back when back.Increment.id = inc.Increment.id ->
          occ + if first_id.(belt) = inc.Increment.id then second.(belt) else first.(belt)
        | _ -> occ
      in
      Int.max acc p
    end
  in
  let p = Array.fold_left (fun acc b -> Belt.fold b ~init:acc ~f:potential) 0 belts in
  Int.max floor_frames p + pad st

(* "Slightly more generous" than half: copied data may not pack as
   well as the original (frame-seam waste), so the fixed reserve
   carries the same pad as the dynamic one. *)
let half_frames st = (st.State.heap_frames / 2) + pad st

(* The dynamic reserve is deliberately NOT capped at half the heap: the
   uncapped formula is what keeps the allocation gate self-limiting —
   while a large unbounded belt dominates occupancy, the reserve tracks
   it, so occupancy can never outgrow the space needed to evacuate it
   (the paper: the reserve "grows until it is finally half of the heap,
   so that the third belt occupancy and the copy reserve are equal in
   size"). *)
(* The installed reclamation strategy decides the reserve: the copying
   strategy delegates to the installed policy's rule (the formulas
   above, verbatim), the in-place strategies need no destination
   frames and return zero. *)
let frames st =
  match st.State.strategy.State.strategy_kind with
  | State.Strategy_copying -> st.State.policy.State.reserve_frames st
  | State.Strategy_marksweep | State.Strategy_markcompact -> 0
