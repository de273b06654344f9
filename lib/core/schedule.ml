module Vec = Beltway_util.Vec

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

(* Room for a [size]-word allocation in [inc]: its bump tail, or a
   free-list hole (mark-sweep increments; copying increments have
   empty free lists, so the second disjunct is dead for them). *)
let[@inline] room_in (inc : Increment.t) ~size =
  (not inc.Increment.sealed)
  && ((inc.Increment.cursor <> Addr.null
      && inc.Increment.cursor + size <= inc.Increment.limit)
     || Increment.fits_free inc ~size)

(* Free-list reallocation, the in-place strategies' last resort: when
   the heap has no whole frame left (the regime where a copying
   collector is simply out of memory), an allocation that does not fit
   its target increment may land in any unsealed increment's swept
   holes or reopened bump tail: the first such increment in
   [State.live_increments] order (belts by index, each front to back).
   Gated off entirely under a reserve-carrying (copying) strategy —
   its increments never carry free lists, and the gate keeps the
   trigger cascade byte-identical. While whole frames remain the
   fallback stays out of the way, so the policy's collection cadence
   (time-to-die, nursery bounds) is untouched.

   Once no whole frame is left this runs on every allocation that
   misses its target, so it does not rescan the belts. Between two
   collections the increments that admit a given size can only lose
   room once [free_frames = 0]:
   - holes are only taken or split, bump cursors only advance, and
     sealing is one-way;
   - only collections free frames, so no frame is granted until the
     next one;
   - only collections remove increments or move them between belts; a
     new increment has no frame, so it admits nothing; and a BOF flip
     swaps an empty belt 0 with belt 1, which keeps this order.
   So the first admitting increment for a size only moves forward:
   [fit_resume.(size)] keeps where the last search for that size
   stopped, over a snapshot of the order in [fit_incs], and every
   collection drops both ([fit_valid]). Returns the position in
   [fit_incs], or -1 when no increment admits [size]. *)
let push_inc v inc =
  Vec.push v inc;
  v

let fit_fallback st ~size =
  if
    Strategy.needs_reserve st.State.strategy.State.strategy_kind
    || State.free_frames st > 0
  then -1
  else begin
    let incs = st.State.fit_incs in
    if not st.State.fit_valid then begin
      Vec.clear incs;
      for b = 0 to Array.length st.State.belts - 1 do
        ignore (Belt.fold st.State.belts.(b) ~init:incs ~f:push_inc)
      done;
      Array.fill st.State.fit_resume 0 (Array.length st.State.fit_resume) 0;
      st.State.fit_valid <- true
    end;
    let resume = st.State.fit_resume in
    if size >= Array.length resume then begin
      let grown = Array.make (max (size + 1) (2 * Array.length resume)) 0 in
      Array.blit resume 0 grown 0 (Array.length resume);
      st.State.fit_resume <- grown
    end;
    let n = Vec.length incs in
    let k = ref st.State.fit_resume.(size) in
    while
      !k < n
      &&
      let inc = Vec.get incs !k in
      inc.Increment.pinned || not (room_in inc ~size)
    do
      incr k
    done;
    st.State.fit_resume.(size) <- !k;
    if !k < n then !k else -1
  end

(* The trigger cascade's collection: false when nothing is
   collectible. *)
let collect_for st ~reason =
  Trigger.fired st ~reason;
  Option.is_some (collect_now st ~reason)

(* The allocation loops are top-level functions taking every value
   they use, so a call allocates no closure. *)
let rec pretenure st ~belt ~size ~attempts ~max_attempts =
  if attempts > max_attempts then
    raise
      (State.Out_of_memory
         (Printf.sprintf "no progress pretenuring a %d-word allocation on belt %d" size
            belt));
  let inc = State.open_inc st ~belt in
  if room_in inc ~size then inc
  else begin
    let k = fit_fallback st ~size in
    if k >= 0 then Vec.get st.State.fit_incs k
    else
      match st.State.policy.State.pretenure_trigger st with
      | State.Alloc_collect reason ->
        if collect_for st ~reason then
          pretenure st ~belt ~size ~attempts:(attempts + 1) ~max_attempts
        else
          raise
            (State.Out_of_memory
               (Printf.sprintf "nothing collectible for a pretenured %d-word allocation"
                  size))
      | State.Alloc_grant | State.Alloc_open_nursery | State.Alloc_split_nursery ->
        State.grant_frame st inc ~during_gc:false;
        pretenure st ~belt ~size ~attempts ~max_attempts
  end

let check_size st ~size =
  if size > Memory.frame_words st.State.mem then
    invalid_arg
      (Printf.sprintf "allocation of %d words exceeds the %d-word frame size" size
         (Memory.frame_words st.State.mem))

let max_attempts st = (2 * State.total_increments st) + 16

let prepare_alloc_in st ~belt ~size =
  (* Pretenured allocation (segregation by allocation site, paper S5):
     bump directly in the open increment of a higher belt, under the
     policy's pretenure cascade. *)
  if belt < 1 || belt >= State.regular_belts st then
    invalid_arg (Printf.sprintf "Schedule.prepare_alloc_in: bad belt %d" belt);
  check_size st ~size;
  pretenure st ~belt ~size ~attempts:0 ~max_attempts:(max_attempts st)

let rec alloc_nursery st ~size ~attempts ~max_attempts =
  if attempts > max_attempts then
    raise
      (State.Out_of_memory
         (Printf.sprintf
            "no progress after %d collections for a %d-word allocation (heap %d \
             frames, %d used, reserve %d)"
            attempts size st.State.heap_frames st.State.frames_used
            (Copy_reserve.frames st)));
  let nur = nursery st in
  (* The fit test admits free-list holes (mark-sweep increments):
     without this, a swept-but-roomy nursery at its frame bound would
     re-trigger collection forever instead of reusing its holes. *)
  if room_in nur ~size then nur
  else begin
    let k = fit_fallback st ~size in
    if k >= 0 then Vec.get st.State.fit_incs k
    else
      (* The allocation does not fit: the policy's trigger cascade
         decides among collecting, granting a frame, opening another
         allocation window, or a time-to-die nursery split; the
         schedule interprets the verdict mechanically. *)
      match st.State.policy.State.alloc_trigger st ~size with
      | State.Alloc_collect reason ->
        if collect_for st ~reason then
          alloc_nursery st ~size ~attempts:(attempts + 1) ~max_attempts
        else
          raise
            (State.Out_of_memory
               (Printf.sprintf "nothing collectible for a %d-word allocation" size))
      | State.Alloc_open_nursery ->
        let fresh = State.new_increment st ~belt:0 in
        State.grant_frame st fresh ~during_gc:false;
        alloc_nursery st ~size ~attempts ~max_attempts
      | State.Alloc_split_nursery ->
        (* Time-to-die: seal the current nursery increment and direct
           the youngest allocation into a fresh one that the next
           nursery collection will spare. *)
        Increment.seal nur;
        let fresh = State.new_increment st ~belt:0 in
        State.grant_frame st fresh ~during_gc:false;
        alloc_nursery st ~size ~attempts ~max_attempts
      | State.Alloc_grant ->
        State.grant_frame st nur ~during_gc:false;
        alloc_nursery st ~size ~attempts ~max_attempts
  end

let prepare_alloc st ~size =
  check_size st ~size;
  alloc_nursery st ~size ~attempts:0 ~max_attempts:(max_attempts st)
