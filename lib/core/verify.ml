let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let check_object st addr =
  let mem = st.State.mem in
  match Object_model.forwarded mem addr with
  | Some f -> err "object %#x carries a forwarding pointer (to %#x) outside GC" addr f
  | None ->
    let n = Object_model.nfields mem addr in
    if n < 0 || n > Object_model.max_fields mem then
      err "object %#x has absurd field count %d" addr n
    else Ok n

let check_ref st ~what addr =
  if Boot_space.contains st.State.boot addr then Ok ()
  else begin
    let frame = State.frame_of_addr st addr in
    if not (Memory.is_live st.State.mem frame) then
      err "%s references %#x in dead frame %d" what addr frame
    else begin
      match State.inc_of_frame st frame with
      | None -> err "%s references %#x in unowned frame %d" what addr frame
      | Some _ ->
        let* _ = check_object st addr in
        Ok ()
    end
  end

let check_roots st =
  let bad = ref (Ok ()) in
  Roots.iter st.State.roots (fun v ->
      if Result.is_ok !bad && Value.is_ref v then
        bad := check_ref st ~what:"root slot" (Value.to_addr v));
  !bad

let check_belt_fifo st =
  Array.to_list st.State.belts
  |> List.fold_left
       (fun acc belt ->
         let* () = acc in
         let prev = ref min_int in
         let res = ref (Ok ()) in
         Belt.iter belt (fun inc ->
             if Result.is_ok !res then
               if inc.Increment.stamp < !prev then
                 res :=
                   err "belt %d violates FIFO stamp order at increment %d"
                     (Belt.index belt) inc.Increment.id
               else prev := inc.Increment.stamp);
         !res)
       (Ok ())

let check_frames st =
  List.fold_left
    (fun acc (inc : Increment.t) ->
      let* () = acc in
      Beltway_util.Int_vec.fold
        (fun acc frame ->
          let* () = acc in
          if Frame_table.incr_of st.State.ftab frame <> inc.Increment.id then
            err "frame %d not attributed to its increment %d" frame inc.Increment.id
          else if Frame_table.stamp st.State.ftab frame <> inc.Increment.stamp then
            err "frame %d stamp disagrees with increment %d" frame inc.Increment.id
          else Ok ())
        (Ok ()) inc.Increment.frames)
    (Ok ()) (State.live_increments st)

let check_objects_and_remsets gc =
  let st = Gc.state gc in
  let mem = st.State.mem in
  let incs = State.live_increments st in
  (* The oracle's reachability table costs a full heap trace; an empty
     heap (every increment object-free) has nothing to check. *)
  if List.for_all (fun (i : Increment.t) -> i.Increment.objects = 0) incs then Ok ()
  else begin
  let reach = Oracle.reachable gc in
  List.fold_left
    (fun acc (inc : Increment.t) ->
      let* () = acc in
      let res = ref (Ok ()) in
      (try
         Increment.iter_objects inc mem (fun obj ->
             if Result.is_ok !res then begin
               match check_object st obj with
               | Error e -> res := Error e
               | Ok _ ->
                 Object_model.iter_ref_slots mem obj (fun slot ->
                     if Result.is_ok !res then begin
                       let v = Memory.get mem slot in
                       let tgt = Value.to_addr v in
                       (match
                          check_ref st
                            ~what:(Printf.sprintf "field at %#x of object %#x" slot obj)
                            tgt
                        with
                       | Error e -> res := Error e
                       | Ok () ->
                         (* Remset sufficiency for reachable sources. *)
                         if Hashtbl.mem reach obj then begin
                           let s = State.frame_of_addr st slot in
                           let t = State.frame_of_addr st tgt in
                           let covered =
                             match st.State.policy.State.barrier with
                             | State.Barrier_remsets _ ->
                               Remset.mem_slot st.State.remsets ~src_frame:s
                                 ~tgt_frame:t ~slot
                             | State.Barrier_cards ->
                               Card_table.is_dirty st.State.cards ~frame:s
                           in
                           if
                             (not (Boot_space.contains st.State.boot tgt))
                             && Write_barrier.would_remember st ~src_frame:s
                                  ~tgt_frame:t
                             && not covered
                           then
                             res :=
                               err
                                 "unremembered interesting pointer: slot %#x (frame \
                                  %d, stamp %d) -> %#x (frame %d, stamp %d)"
                                 slot s
                                 (Frame_table.stamp st.State.ftab s)
                                 tgt t
                                 (Frame_table.stamp st.State.ftab t)
                         end)
                     end)
             end)
       with Invalid_argument e ->
         res :=
           err "heap walk failed in increment %d (belt %d, stamp %d): %s"
             inc.Increment.id inc.Increment.belt inc.Increment.stamp e);
      !res)
    (Ok ()) incs
  end

let check_accounting st =
  let counted =
    List.fold_left
      (fun acc (i : Increment.t) -> acc + Increment.occupancy_frames i)
      0 (State.live_increments st)
  in
  if counted <> st.State.frames_used then
    err "frame accounting drift: increments hold %d frames, state says %d" counted
      st.State.frames_used
  else Ok ()

(* Each increment's hole index is the one its free list implies: every
   max-tree node, the root ([Increment.max_hole]) included, equals the
   node rebuilt from the flat list. A stale node would let the
   first-fit search skip a fitting hole or enter a block without one. *)
let check_hole_index st =
  List.fold_left
    (fun acc (inc : Increment.t) ->
      let* () = acc in
      let idx = inc.Increment.hole_index in
      let fresh = Increment.rebuilt_index inc in
      if Array.length idx <> Array.length fresh then
        err "free-list index of increment %d has %d leaves, its %d holes need %d"
          inc.Increment.id (Array.length idx / 2)
          (Beltway_util.Vec.length inc.Increment.free_list / 2)
          (Array.length fresh / 2)
      else begin
        let k = ref 1 in
        while !k < Array.length idx && idx.(!k) = fresh.(!k) do
          incr k
        done;
        if !k < Array.length idx then
          err "free-list index of increment %d: node %d%s holds %d, the list gives %d"
            inc.Increment.id !k
            (if !k = 1 then " (max_hole)" else "")
            idx.(!k) fresh.(!k)
        else Ok ()
      end)
    (Ok ()) (State.live_increments st)

(* Every free-list hole is a well-formed filler: an even header sizing
   it to the hole, then payload words that are all odd immediates.
   Free-list splits rely on this — a remainder reuses the hole's
   payload words as its own without rewriting them. *)
let check_fillers st =
  let mem = st.State.mem in
  List.fold_left
    (fun acc (inc : Increment.t) ->
      let* () = acc in
      let fl = inc.Increment.free_list in
      let res = ref (Ok ()) in
      let i = ref 0 in
      while Result.is_ok !res && !i < Beltway_util.Vec.length fl do
        let a = Beltway_util.Vec.get fl !i in
        let words = Beltway_util.Vec.get fl (!i + 1) in
        if Memory.get mem a <> (words - Object_model.header_words) lsl 1 then
          res :=
            err "free-list filler at %#x (increment %d) has header %d, not a %d-word \
                 hole"
              a inc.Increment.id (Memory.get mem a) words
        else
          for w = a + 1 to a + words - 1 do
            if Result.is_ok !res && Memory.get mem w land 1 = 0 then
              res :=
                err
                  "free-list filler at %#x (increment %d): payload word %#x holds %d, \
                   not an odd immediate"
                  a inc.Increment.id w (Memory.get mem w)
          done;
        i := !i + 2
      done;
      !res)
    (Ok ()) (State.live_increments st)

let check gc =
  (* A sufficiently corrupt heap (dangling references into dead frames,
     clobbered headers) can make the traversal itself trap; that is a
     detection, not a checker failure. *)
  try
    let st = Gc.state gc in
    let* () = check_roots st in
    let* () = check_belt_fifo st in
    let* () = check_frames st in
    let* () = check_accounting st in
    let* () = check_hole_index st in
    let* () = check_fillers st in
    check_objects_and_remsets gc
  with Invalid_argument e -> err "heap traversal trapped: %s" e

let check_exn gc = match check gc with Ok () -> () | Error e -> failwith e
