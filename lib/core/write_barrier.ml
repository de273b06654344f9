let would_remember st ~src_frame ~tgt_frame =
  src_frame <> tgt_frame
  && Frame_table.stamp st.State.ftab tgt_frame
     < Frame_table.stamp st.State.ftab src_frame

(* The collector's re-record path, shared by the sequential and
   parallel drains: a surviving slot still holds an interesting
   pointer under the destination's new stamps, so record it in
   whichever bookkeeping the policy's barrier discipline uses. *)
let[@inline] re_remember st ~use_cards ~slot ~src_frame ~tgt_frame =
  if
    src_frame <> tgt_frame
    && Frame_table.stamp st.State.ftab tgt_frame
       < Frame_table.stamp st.State.ftab src_frame
  then begin
    if use_cards then Card_table.mark st.State.cards ~frame:src_frame
    else Remset.insert st.State.remsets ~src_frame ~tgt_frame ~slot
  end

(* Is the frame part of the open nursery increment? Used only when the
   policy's barrier discipline enables the filter (single-increment
   nursery). *)
let[@inline] in_nursery st frame =
  match Belt.back st.State.belts.(0) with
  | None -> false
  | Some inc -> Frame_table.incr_of st.State.ftab frame = inc.Increment.id

(* Out-of-line remembering tail (remset insert + hooks): keeps the
   inline part — filter and stamp compare — free of closure
   definitions, which the non-flambda inliner refuses to inline. *)
let remember_slow st stats ~s ~t ~slot =
  stats.Gc_stats.barrier_slow <- stats.Gc_stats.barrier_slow + 1;
  Remset.insert st.State.remsets ~src_frame:s ~tgt_frame:t ~slot;
  match st.State.hooks with
  | [] -> ()
  | hs ->
    let entries = Remset.total_entries st.State.remsets in
    List.iter (fun (h : State.hooks) -> h.State.on_barrier_slow ~entries) hs

let[@inline] record st ~slot ~target =
  let stats = st.State.stats in
  stats.Gc_stats.barrier_ops <- stats.Gc_stats.barrier_ops + 1;
  let frame_log = Memory.frame_log st.State.mem in
  let s = slot lsr frame_log in
  let t = target lsr frame_log in
  (* The barrier discipline is policy *data*, matched per store — never
     a closure dispatch on this, the hottest path in the system. *)
  match st.State.policy.State.barrier with
  | State.Barrier_cards ->
    (* Unconditional card marking: no stamp comparison at all; the
       collector pays by scanning dirty frames. *)
    Card_table.mark st.State.cards ~frame:s;
    stats.Gc_stats.barrier_fast <- stats.Gc_stats.barrier_fast + 1
  | State.Barrier_remsets { nursery_filter } ->
    if nursery_filter && in_nursery st s then
      stats.Gc_stats.barrier_filtered <- stats.Gc_stats.barrier_filtered + 1
    else begin
      (* The unidirectional condition over the flat stamp table: two
         array reads and a compare on the taken (fast) path. *)
      let ftab = st.State.ftab in
      if s <> t && Frame_table.stamp ftab t < Frame_table.stamp ftab s then
        remember_slow st stats ~s ~t ~slot
      else stats.Gc_stats.barrier_fast <- stats.Gc_stats.barrier_fast + 1
    end
