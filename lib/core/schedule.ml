let log_src = Logs.Src.create "beltway.schedule" ~doc:"Beltway collection schedule"

module Log = (val Logs.src_log log_src : Logs.LOG)

let nursery st =
  match Belt.back st.State.belts.(0) with
  | Some inc when (not inc.Increment.sealed) && not (Increment.at_bound inc) -> inc
  | Some inc when not inc.Increment.sealed -> inc (* at bound: caller collects *)
  | _ ->
    (* No open nursery: let the policy refresh the allocation belt
       first (BOF flips here) before a new increment is created. *)
    st.State.policy.State.refresh_nursery st;
    State.new_increment st ~belt:0

let closure st (target : Increment.t) =
  List.filter
    (fun (i : Increment.t) -> i.Increment.stamp <= target.Increment.stamp)
    (State.live_increments st)

(* Evacuating the plan needs at most its own occupancy plus one
   partially filled frame per destination belt per GC domain (each
   domain of the parallel drain keeps a private open destination on
   each belt); the copy reserve's pad guarantees this fits whenever
   the plan is no larger than the reserve's potential. *)
let feasible st plan =
  (* In-place strategies reclaim without destination frames: every
     plan is feasible (the whole point of running without a copy
     reserve). *)
  (not (Strategy.needs_reserve st.State.strategy.State.strategy_kind))
  || Collector.evacuation_frames plan
     + (Array.length st.State.belts * st.State.gc_domains)
     <= State.free_frames st

let choose_plan st ~reason =
  let all = State.live_increments st in
  let nlive = List.length all in
  let mk ?(emergency = false) target =
    let incs = closure st target in
    {
      Collector.increments = incs;
      reason;
      emergency;
      full_heap = List.length incs = nlive && nlive > 0;
    }
  in
  let rec pick = function
    | [] -> None
    | target :: rest ->
      let plan = mk target in
      if feasible st plan then Some plan
      else begin
        Log.debug (fun m ->
            m "plan for increment %d infeasible (%d frames, %d free); degrading"
              target.Increment.id
              (Collector.plan_frames plan)
              (State.free_frames st));
        pick rest
      end
  in
  (* A pinned (LOS) target would be chosen again and again if it turns
     out to be live (it is retained in place, staying the belt front),
     stalling the cascade. When a plan reaches the LOS belt, take the
     whole belt: the closure of its back, i.e. a full collection that
     sweeps every unreachable large object. *)
  let widen_pinned (c : Increment.t) =
    if c.Increment.pinned then
      match Belt.back st.State.belts.(c.Increment.belt) with
      | Some back -> back
      | None -> c
    else c
  in
  (* Target choice is the policy's; the schedule owns plan shape
     (downward closure), feasibility degradation along the candidate
     list, and the emergency fallback. *)
  let cands = List.map widen_pinned (st.State.policy.State.target st) in
  match pick cands with
  | Some plan -> Some plan
  | None -> (
    (* No plan passes the conservative occupancy test. The reserve is
       conservative — it assumes 100% survival — so before declaring
       the heap too small, attempt the policy's preferred plan and let
       the collection itself run out of frames if the *actual*
       survivors do not fit (grant_frame raises Out_of_memory during
       GC, which surfaces as this heap size failing, exactly as a real
       collector would die here). This emergency path is what lets the
       complete Beltway configurations operate below the half-heap
       discipline in tight heaps. *)
    match cands with
    | [] -> None
    | target :: _ ->
      Log.debug (fun m ->
          m "emergency collection of increment %d (plan exceeds conservative reserve)"
            target.Increment.id);
      Some (mk ~emergency:true target))

let collect_now st ~reason =
  match choose_plan st ~reason with
  | None -> None
  | Some plan -> Some (Collector.collect st plan)

let full_collect st =
  match Policy.max_stamp_increment st with
  | None -> None
  | Some target ->
    Some
      (Collector.collect st
         {
           Collector.increments = closure st target;
           reason = Gc_stats.Full;
           emergency = false;
           full_heap = true;
         })

let alloc_large st ~size =
  if State.los_belt st = None then
    invalid_arg "Schedule.alloc_large: configuration has no large object space";
  let fw = Memory.frame_words st.State.mem in
  let k = (size + fw - 1) / fw in
  let max_attempts = (2 * State.total_increments st) + 16 in
  let rec go attempts =
    if attempts > max_attempts then
      raise
        (State.Out_of_memory
           (Printf.sprintf "no progress making room for a %d-word large object" size));
    match st.State.policy.State.large_trigger st ~incoming_frames:k with
    | State.Alloc_collect reason -> (
      Trigger.fired st ~reason;
      match collect_now st ~reason with
      | Some _ -> go (attempts + 1)
      | None ->
        raise
          (State.Out_of_memory
             (Printf.sprintf "nothing collectible for a %d-word large object" size)))
    | State.Alloc_grant | State.Alloc_open_nursery | State.Alloc_split_nursery ->
      State.new_pinned_increment st ~size
  in
  go 0

(* Free-list reallocation, the in-place strategies' last resort: when
   the heap has no whole frame left (the regime where a copying
   collector is simply out of memory), an allocation that does not fit
   its target increment may land in any unsealed increment's swept
   holes. Gated off entirely under a reserve-carrying (copying)
   strategy — its increments never carry free lists, and the gate
   keeps the trigger cascade byte-identical. While whole frames remain
   the fallback stays out of the way, so the policy's collection
   cadence (time-to-die, nursery bounds) is untouched. *)
let fit_fallback st ~size =
  if
    Strategy.needs_reserve st.State.strategy.State.strategy_kind
    || State.free_frames st > 0
  then None
  else begin
    let admits (i : Increment.t) =
      (not i.Increment.sealed)
      && (not i.Increment.pinned)
      && (Increment.fits_free i ~size
         || (i.Increment.cursor <> Addr.null
            && i.Increment.cursor + size <= i.Increment.limit))
      (* holes from the sweep, or the bump tail the compactor reopened *)
    in
    (* The [State.live_increments] order (belts by index, each front to
       back), searched in place: once no whole frame is left, this runs
       on every allocation that misses its target increment. *)
    Array.find_map (fun b -> Belt.find_opt b admits) st.State.belts
  end

let prepare_alloc_in st ~belt ~size =
  (* Pretenured allocation (segregation by allocation site, paper S5):
     bump directly in the open increment of a higher belt, under the
     policy's pretenure cascade. *)
  if belt < 1 || belt >= State.regular_belts st then
    invalid_arg (Printf.sprintf "Schedule.prepare_alloc_in: bad belt %d" belt);
  if size > Memory.frame_words st.State.mem then
    invalid_arg
      (Printf.sprintf "allocation of %d words exceeds the %d-word frame size" size
         (Memory.frame_words st.State.mem));
  let max_attempts = (2 * State.total_increments st) + 16 in
  let rec go attempts =
    if attempts > max_attempts then
      raise
        (State.Out_of_memory
           (Printf.sprintf "no progress pretenuring a %d-word allocation on belt %d"
              size belt));
    let collect reason =
      Trigger.fired st ~reason;
      match collect_now st ~reason with
      | Some _ -> go (attempts + 1)
      | None ->
        raise
          (State.Out_of_memory
             (Printf.sprintf "nothing collectible for a pretenured %d-word allocation"
                size))
    in
    let inc = State.open_inc st ~belt in
    if
      (not inc.Increment.sealed)
      && ((inc.Increment.cursor <> Addr.null
          && inc.Increment.cursor + size <= inc.Increment.limit)
         || Increment.fits_free inc ~size)
    then inc
    else
      match fit_fallback st ~size with
      | Some holes -> holes
      | None -> (
      match st.State.policy.State.pretenure_trigger st with
      | State.Alloc_collect reason -> collect reason
      | State.Alloc_grant | State.Alloc_open_nursery | State.Alloc_split_nursery
        ->
        State.grant_frame st inc ~during_gc:false;
        go attempts)
  in
  go 0

let prepare_alloc st ~size =
  if size > Memory.frame_words st.State.mem then
    invalid_arg
      (Printf.sprintf "allocation of %d words exceeds the %d-word frame size" size
         (Memory.frame_words st.State.mem));
  let max_attempts = (2 * State.total_increments st) + 16 in
  let rec go attempts =
    if attempts > max_attempts then
      raise
        (State.Out_of_memory
           (Printf.sprintf
              "no progress after %d collections for a %d-word allocation (heap %d \
               frames, %d used, reserve %d)"
              attempts size st.State.heap_frames st.State.frames_used
              (Copy_reserve.frames st)));
    let collect reason =
      Trigger.fired st ~reason;
      match collect_now st ~reason with
      | Some _ -> go (attempts + 1)
      | None ->
        raise
          (State.Out_of_memory
             (Printf.sprintf "nothing collectible for a %d-word allocation" size))
    in
    let nur = nursery st in
    (* The fit test admits free-list holes (mark-sweep increments):
       without this, a swept-but-roomy nursery at its frame bound
       would re-trigger collection forever instead of reusing its
       holes. Copying increments have empty free lists, so the extra
       disjunct is dead for them. *)
    if
      (not nur.Increment.sealed)
      && ((nur.Increment.cursor <> Addr.null
          && nur.Increment.cursor + size <= nur.Increment.limit)
         || Increment.fits_free nur ~size)
    then nur
    else
      match fit_fallback st ~size with
      | Some holes -> holes
      | None -> (
        (* The allocation does not fit: the policy's trigger cascade
           decides among collecting, granting a frame, opening another
           allocation window, or a time-to-die nursery split; the
           schedule interprets the verdict mechanically. *)
        match st.State.policy.State.alloc_trigger st ~size with
        | State.Alloc_collect reason -> collect reason
        | State.Alloc_open_nursery ->
          let fresh = State.new_increment st ~belt:0 in
          State.grant_frame st fresh ~during_gc:false;
          go attempts
        | State.Alloc_split_nursery ->
          (* Time-to-die: seal the current nursery increment and direct
             the youngest allocation into a fresh one that the next
             nursery collection will spare. *)
          Increment.seal nur;
          let fresh = State.new_increment st ~belt:0 in
          State.grant_frame st fresh ~during_gc:false;
          go attempts
        | State.Alloc_grant ->
          State.grant_frame st nur ~during_gc:false;
          go attempts)
  in
  go 0
