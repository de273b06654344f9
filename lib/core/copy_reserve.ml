(* One partially filled frame per destination belt — per GC domain,
   since the parallel drain gives every domain its own private open
   destination increment on each belt — plus slack. At one domain this
   is the original [nbelts + 2]. *)
let pad st = (Array.length st.State.belts * st.State.gc_domains) + 2

let dynamic_frames st =
  (* Floor: the largest bounded increment size — a fresh increment of
     that size could always fill and require evacuation. *)
  let floor_frames =
    Array.fold_left
      (fun acc bound -> match bound with Some b -> max acc b | None -> acc)
      0 st.State.belt_bounds
  in
  let nbelts = Array.length st.State.belts in
  (* Top-two occupancies among increments promoting into each belt, so
     an increment's own contribution can be excluded from its own
     potential (otherwise the semi-space increment would count itself
     as its own copy source and halve utilisation). *)
  let in_best = Array.make nbelts (0, -1) in
  let in_second = Array.make nbelts 0 in
  List.iter
    (fun (inc : Increment.t) ->
      if not inc.Increment.pinned then begin
        let d = State.dest_belt st inc.Increment.belt in
        let occ = Increment.occupancy_frames inc in
        let best_occ, _ = in_best.(d) in
        if occ > best_occ then begin
          in_second.(d) <- best_occ;
          in_best.(d) <- (occ, inc.Increment.id)
        end
        else if occ > in_second.(d) then in_second.(d) <- occ
      end)
    (State.live_increments st);
  let incoming belt ~excluding =
    let best_occ, best_id = in_best.(belt) in
    if best_id = excluding then in_second.(belt) else best_occ
  in
  let potential =
    List.fold_left
      (fun acc (inc : Increment.t) ->
        if inc.Increment.pinned then acc (* never evacuated *)
        else begin
          let occ = Increment.occupancy_frames inc in
          let p =
            (* Only the back (open) increment of a belt receives copies. *)
            match Belt.back st.State.belts.(inc.Increment.belt) with
            | Some back when back.Increment.id = inc.Increment.id ->
              occ + incoming inc.Increment.belt ~excluding:inc.Increment.id
            | _ -> occ
          in
          max acc p
        end)
      0 (State.live_increments st)
  in
  max floor_frames potential + pad st

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
