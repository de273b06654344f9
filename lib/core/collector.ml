module Vec = Beltway_util.Vec
module Int_vec = Beltway_util.Int_vec
module Int_table = Beltway_util.Int_table

type plan = {
  increments : Increment.t list;
  reason : Gc_stats.reason;
  emergency : bool;
  full_heap : bool;
}

let plan_frames p =
  List.fold_left (fun acc i -> acc + Increment.occupancy_frames i) 0 p.increments

let plan_words p =
  List.fold_left (fun acc i -> acc + Increment.words_used i) 0 p.increments

let evacuation_frames p =
  List.fold_left
    (fun acc (i : Increment.t) ->
      if i.Increment.pinned then acc else acc + Increment.occupancy_frames i)
    0 p.increments

(* ------------------------------------------------------------------ *)
(* The collection pipeline. Every strategy runs the same scheme: seal
   the plan, visit the roots, then the remembered slots (or the dirty
   cards) that point into the plan from outside it, drain the grey
   set, and reclaim the plan's frames. [run] owns every step that
   scheme shares — hooks, plan sealing, phase spans, the remset
   snapshot, the dirty-increment gather, the statistics record — and a
   strategy supplies a [drain]: one body per phase, built once per
   collection, so the pipeline adds no closure per slot or per object.
   What the bodies differ in is what visiting a reference does
   (forward and copy, or mark) and how grey work is held (a Cheney
   scan pointer, private stacks plus Chase–Lev deques, or a mark
   stack). *)

(* Per-collection totals, written by the drain's bodies and turned
   into the one [Gc_stats.collection] record by [run]. *)
type counts = {
  mutable domains : Gc_stats.domain_report array;
      (* the parallel drain's per-domain shares; [||] otherwise *)
  mutable copied_words : int;
  mutable copied_objects : int;
  mutable scanned_slots : int;
  mutable remset_slots : int;
  mutable roots_scanned : int;
  mutable marked_objects : int;
  mutable marked_words : int;
  mutable swept_words : int;
  mutable moved_words : int;
  mutable freed_frames : int;
}

type drain = {
  roots : unit -> unit;
  remembered : Int_vec.t -> unit;
      (** the snapshot of remembered slots whose target frame is in the
          plan and whose source frame is not *)
  dirty : Increment.t array -> unit;
      (** increments owning a dirty frame outside the plan; their
          cards are already cleared *)
  trace_phase : Gc_stats.gc_phase;
  trace : unit -> unit;  (** drain the grey set *)
  settle : unit -> unit;
      (** back on one domain, between the trace and reclaim spans *)
  reclaim_phase : Gc_stats.gc_phase;
  reclaim : unit -> unit;
}

let unowned addr =
  invalid_arg (Printf.sprintf "Collector: object %#x in unowned frame" addr)

(* A retained increment leaves the plan: flag and frame bits cleared. *)
let unplan ftab (inc : Increment.t) =
  inc.Increment.in_plan <- false;
  Int_vec.iter (fun f -> Frame_table.set_in_plan ftab ~frame:f false) inc.Increment.frames

let release st c (inc : Increment.t) =
  c.freed_frames <- c.freed_frames + Increment.occupancy_frames inc;
  State.free_increment st inc

(* The copying drains' reclaim: release the evacuated increments;
   marked pinned increments stay in place (that is the point of the
   large object space), with their transient plan/mark state cleared. *)
let release_plan st plan c =
  List.iter
    (fun (inc : Increment.t) ->
      if inc.Increment.pinned && inc.Increment.gc_mark then begin
        inc.Increment.gc_mark <- false;
        unplan st.State.ftab inc
      end
      else release st c inc)
    plan.increments

let run st plan make =
  let start_ns = Gc_stats.now_ns () in
  let ftab = st.State.ftab in
  st.State.in_gc <- true;
  (* Sweeping gives increments room back, and only collections free
     frames or move and remove increments: the free-list fallback's
     snapshot is stale from here on (see [Schedule.fit_fallback]). *)
  st.State.fit_valid <- false;
  (match st.State.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h ->
        h.State.on_collect_start ~reason:plan.reason ~emergency:plan.emergency)
      hs);
  (* Every phase is timed into the record; the hooks cost one list
     match per phase boundary when none are installed. *)
  let phase p enter =
    match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_gc_phase ~phase:p ~enter) hs
  in
  let phases = Array.make 4 Gc_stats.Phase_roots in
  let phase_ns = Array.make 8 0 in
  let span i p body =
    phases.(i) <- p;
    phase p true;
    let t0 = Gc_stats.now_ns () in
    body ();
    phase_ns.(2 * i) <- t0;
    phase_ns.((2 * i) + 1) <- Gc_stats.now_ns () - t0;
    phase p false
  in
  (* Plan totals up front: the in-place reclaims rewrite the plan
     increments' own occupancy. *)
  let pf = plan_frames plan in
  let pw = plan_words plan in
  let pi = List.length plan.increments in
  (* Plan membership: an in-plan bit on each member frame's packed
     metadata word, plus a flag on the increment itself. *)
  List.iter
    (fun (inc : Increment.t) ->
      inc.Increment.in_plan <- true;
      Increment.seal inc;
      Int_vec.iter (fun f -> Frame_table.set_in_plan ftab ~frame:f true) inc.Increment.frames)
    plan.increments;
  let c =
    { domains = [||]; copied_words = 0; copied_objects = 0; scanned_slots = 0;
      remset_slots = 0; roots_scanned = 0; marked_objects = 0; marked_words = 0;
      swept_words = 0; moved_words = 0; freed_frames = 0 }
  in
  let d = make st plan c in
  span 0 Gc_stats.Phase_roots d.roots;
  (match st.State.policy.State.barrier with
  | State.Barrier_remsets _ ->
    span 1 Gc_stats.Phase_remset (fun () ->
        (* Snapshot first (into scratch reused across collections):
           the visit inserts new remset entries and the table must not
           be mutated mid-iteration. *)
        let slots = st.State.gc_slots in
        Int_vec.clear slots;
        Remset.iter_into st.State.remsets
          ~in_plan:(fun f -> Frame_table.in_plan ftab f)
          (fun ~slot -> Int_vec.push slots slot);
        d.remembered slots;
        Int_vec.clear slots)
  | State.Barrier_cards ->
    span 1 Gc_stats.Phase_cards (fun () ->
        (* Card scanning: every dirty frame outside the plan may hold
           pointers into it, so its owning increment is scanned object
           by object — the scan-cost side of the cards-vs-remsets
           trade-off (paper S5). Cards are cleared first and re-marked
           for slots that still hold interesting pointers afterwards. *)
        let incs = Int_table.create 16 in
        Card_table.iter_dirty st.State.cards (fun frame ->
            if not (Frame_table.in_plan ftab frame) then begin
              Card_table.clear st.State.cards ~frame;
              match State.inc_of_frame st frame with
              | Some inc -> Int_table.replace incs inc.Increment.id inc
              | None -> ()
            end);
        d.dirty (Array.of_seq (Int_table.to_seq_values incs))));
  span 2 d.trace_phase d.trace;
  d.settle ();
  span 3 d.reclaim_phase d.reclaim;
  st.State.in_gc <- false;
  if plan.full_heap then st.State.live_est_frames <- st.State.frames_used;
  let record : Gc_stats.collection =
    {
      Gc_stats.n = Gc_stats.gcs st.State.stats;
      reason = plan.reason;
      emergency = plan.emergency;
      clock_words = st.State.stats.Gc_stats.words_allocated;
      plan_incs = pi;
      plan_frames = pf;
      plan_words = pw;
      full_heap = plan.full_heap;
      copied_words = c.copied_words;
      copied_objects = c.copied_objects;
      scanned_slots = c.scanned_slots;
      remset_slots = c.remset_slots;
      roots_scanned = c.roots_scanned;
      marked_objects = c.marked_objects;
      marked_words = c.marked_words;
      swept_words = c.swept_words;
      moved_words = c.moved_words;
      freed_frames = c.freed_frames;
      heap_frames_after = st.State.frames_used;
      reserve_frames = Copy_reserve.frames st;
      start_ns;
      pause_ns = Gc_stats.now_ns () - start_ns;
      phases;
      phase_ns;
      belt_frames = Array.map Belt.occupancy_frames st.State.belts;
      remset_entries = Remset.total_entries st.State.remsets;
      domains = c.domains;
    }
  in
  Gc_stats.record_collection st.State.stats record;
  (match st.State.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h ->
        (* Reserve sampled once per collection, after the plan's frames
           are back: the recorder's reserve-pressure time series. *)
        h.State.on_reserve ~frames:record.Gc_stats.reserve_frames;
        h.State.on_collect_end ~full_heap:plan.full_heap)
      hs);
  record

(* ------------------------------------------------------------------ *)
(* The sequential Cheney drain.

   The hot path is deliberately allocation-free per object and per
   slot: plan membership, pinnedness and the owning increment id come
   from one packed frame-table word ([Frame_table.meta]), the id ->
   increment step is an array read, forwarding pointers are decoded
   from the raw header word (no [option]), and reference slots are
   walked with a direct [for] loop over the object's field range
   instead of a per-slot closure. Only per-collection setup (the drain
   record, destination registration) allocates. *)

type dest = { inc : Increment.t; pos : Increment.pos }

let cheney_drain st plan c =
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  let frame_log = Memory.frame_log mem in

  (* Destination (open) increments, one per destination belt, created
     lazily and replaced when they hit their bound. [dests] also serves
     as the Cheney grey-set: every destination is scanned from the
     position at which it was registered. *)
  let dests : dest option Vec.t = Vec.create ~dummy:None () in
  let belt_dest : dest option array = Array.make (Array.length st.State.belts) None in
  let register_dest belt =
    let inc = State.open_inc st ~belt in
    let d = { inc; pos = Increment.scan_pos inc } in
    Vec.push dests (Some d);
    belt_dest.(belt) <- Some d;
    d
  in
  let dest_for belt =
    match belt_dest.(belt) with
    | Some d when (not d.inc.Increment.sealed) && not (Increment.at_bound d.inc) -> d
    | Some d when not d.inc.Increment.sealed ->
      (* At bound but current frame may still have room; keep using it
         until a bump actually fails. *)
      d
    | _ -> register_dest belt
  in

  (* Bump-allocate [size] words in the destination for [belt], rolling
     over to a fresh increment when the current one is full. *)
  let rec dest_alloc belt size =
    let d = dest_for belt in
    let addr = Increment.bump_or_null d.inc ~size in
    if addr <> Addr.null then addr
    else if Increment.at_bound d.inc then begin
      Increment.seal d.inc;
      ignore (register_dest belt);
      dest_alloc belt size
    end
    else begin
      State.grant_frame st d.inc ~during_gc:true;
      dest_alloc belt size
    end
  in

  (* Pinned (large-object) increments in the plan are marked in place
     rather than copied; their objects join the grey set through
     [pinned_work] (scratch reused across collections), flagged via
     [gc_mark] so each is pushed once. *)
  let pinned_work = st.State.gc_pinned in
  Vec.clear pinned_work;

  (* Evacuate one object; returns its new address. [size] was decoded
     from the header word the caller already loaded. Unchecked accesses
     throughout the drain are sound by construction: sources sit in
     in-plan frames and destinations in just-granted frames, both live
     for the whole collection. *)
  let copy (src_inc : Increment.t) addr size =
    let belt = State.dest_belt st src_inc.Increment.belt in
    let new_addr = dest_alloc belt size in
    (* Objects never span frames (only pinned LOS increments do, and
       those are marked in place), so the whole object moves as one
       block. *)
    Memory.unsafe_blit mem ~src:addr ~dst:new_addr ~len:size;
    (* Forwarding pointer: odd status word, as decoded in [forward]. *)
    Memory.unsafe_set mem addr ((new_addr lsl 1) lor 1);
    c.copied_words <- c.copied_words + size;
    c.copied_objects <- c.copied_objects + 1;
    (match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_move ~src:addr ~dst:new_addr) hs);
    new_addr
  in

  let forward v =
    if not (Value.is_ref v) then v
    else begin
      let addr = Value.to_addr v in
      let m = Frame_table.meta ftab (addr lsr frame_log) in
      if not (Frame_table.meta_in_plan m) then v
      else begin
        (* Header word: odd = forwarding pointer, even = field count.
           The in-plan bit implies a live frame, so the load need not
           consult the liveness bitmap. *)
        let s = Memory.unsafe_get mem addr in
        if s land 1 = 1 then Value.of_addr (s lsr 1)
        else begin
          let id = Frame_table.meta_incr m in
          if id < 0 then unowned addr;
          match st.State.inc_by_id.(id) with
          | None -> unowned addr
          | Some inc when Frame_table.meta_pinned m ->
            if not inc.Increment.gc_mark then begin
              inc.Increment.gc_mark <- true;
              Vec.push pinned_work inc
            end;
            v
          | Some src_inc ->
            Value.of_addr (copy src_inc addr ((s lsr 1) + Object_model.header_words))
        end
      end
    end
  in

  (* Record that a surviving slot still holds an interesting pointer,
     in whichever bookkeeping the policy's barrier discipline uses. The
     predicate is the write barrier's, inlined over the already-flat
     stamp table. *)
  let use_cards = st.State.policy.State.barrier = State.Barrier_cards in
  let re_remember ~slot ~src ~tgt =
    Write_barrier.re_remember st ~use_cards ~slot ~src_frame:src ~tgt_frame:tgt
  in

  (* Scan one grey object: forward its outgoing references and re-apply
     the barrier predicate under the new frame stamps. Slots are the
     TIB word at [obj+1] and the fields from [obj+2]: one contiguous
     range, walked directly. The source frame is taken per slot, which
     also handles pinned objects spanning several (contiguous, equally
     stamped) frames. *)
  let scan_object obj =
    (* Grey objects are never forwarded, so the header word is the
       field count directly. *)
    let n = Memory.unsafe_get mem obj lsr 1 in
    for slot = obj + 1 to obj + 1 + n do
      let v = Memory.unsafe_get mem slot in
      if Value.is_ref v then begin
        c.scanned_slots <- c.scanned_slots + 1;
        let v' = forward v in
        if v' <> v then Memory.unsafe_set mem slot v';
        re_remember ~slot ~src:(slot lsr frame_log)
          ~tgt:(Value.to_addr v' lsr frame_log)
      end
    done
  in

  let roots () =
    Roots.iter_update st.State.roots (fun v ->
        c.roots_scanned <- c.roots_scanned + 1;
        forward v)
  in
  let remembered slots =
    for k = 0 to Int_vec.length slots - 1 do
      let slot = Int_vec.get slots k in
      c.remset_slots <- c.remset_slots + 1;
      let v = Memory.get mem slot in
      if Value.is_ref v then begin
        let v' = forward v in
        if v' <> v then begin
          Memory.set mem slot v';
          (* The slot now refers into a destination frame; re-apply
             the barrier predicate under the new stamps. *)
          re_remember ~slot ~src:(slot lsr frame_log)
            ~tgt:(Value.to_addr v' lsr frame_log)
        end
      end
    done
  in
  (* The same object walk as the grey scan; its slots count as
     remembered slots instead. Forwarding here copies but scans
     nothing, so the scanned-slot delta is exactly the cards' share. *)
  let dirty incs =
    let before = c.scanned_slots in
    Array.iter (fun inc -> Increment.iter_objects inc mem scan_object) incs;
    c.remset_slots <- c.remset_slots + c.scanned_slots - before;
    c.scanned_slots <- before
  in

  (* Cheney drain: scan every destination's copied objects and every
     marked pinned object; scanning may copy or mark more, so iterate
     until no grey work remains. *)
  let trace () =
    let progress = ref true in
    let pinned_scanned = ref 0 in
    while !progress do
      progress := false;
      (* [dests] may grow during the loop; index-based iteration picks
         up new destinations in the same pass. *)
      let i = ref 0 in
      while !i < Vec.length dests do
        let d = Option.get (Vec.get dests !i) in
        let obj = ref (Increment.scan_next d.inc mem d.pos) in
        while !obj <> Addr.null do
          progress := true;
          scan_object !obj;
          obj := Increment.scan_next d.inc mem d.pos
        done;
        incr i
      done;
      while !pinned_scanned < Vec.length pinned_work do
        progress := true;
        let inc = Vec.get pinned_work !pinned_scanned in
        incr pinned_scanned;
        scan_object (Increment.base_object inc mem)
      done
    done
  in
  {
    roots;
    remembered;
    dirty;
    trace_phase = Gc_stats.Phase_cheney;
    trace;
    settle = ignore;
    reclaim_phase = Gc_stats.Phase_free;
    reclaim =
      (fun () ->
        release_plan st plan c;
        Vec.clear pinned_work);
  }

(* ------------------------------------------------------------------ *)
(* The parallel drain: the same collection sharded over N domains.

   Protocol (see DESIGN.md "Parallel collection"):
   - each domain greys objects onto a private stack (the hot path,
     fence-free) and offloads surplus in batches onto its Chase–Lev
     deque, which is what other domains steal from; it also owns a
     private open destination increment per belt, so the copy loop's
     bump allocation never contends on a shared cursor;
   - forwarding pointers are installed with a CAS on the header word;
     the loser of a race discards its speculative copy (rolling its
     private bump back) and adopts the winner's address;
   - shared-structure mutation (opening increments, granting frames,
     and the hooks those fire) is serialised by [st.gc_lock];
   - remset/card re-records and on_move hook firings are buffered per
     domain and replayed on the submitting domain after the drain
     ([settle]) — none of that machinery is thread-safe;
   - termination: a shared in-flight counter, +1 per grey push and -1
     per scanned object, batched through a per-domain delta that is
     flushed at steal boundaries. A domain whose own work runs dry
     steals from the others; after a failed round it parks on a
     condition variable (spinning would starve the working domains on
     an oversubscribed machine) until surplus is published, the
     counter reaches zero, or a sibling aborts. *)

module Deque = Beltway_util.Deque
module Team = Beltway_util.Team

(* The lazily created team shared by every heap in the process (one
   collection runs at a time per heap; concurrent collections of
   *different* heaps just share the queue). Grown when a heap asks for
   more domains than the current team has. *)
let gc_team : Team.t option ref = ref None
let () = at_exit (fun () -> Option.iter Team.shutdown !gc_team)

let team_for domains =
  match !gc_team with
  | Some t when Team.size t >= domains -> t
  | prev ->
    Option.iter Team.shutdown prev;
    let t = Team.create ~size:domains in
    gc_team := Some t;
    t

let parallel_drain st plan c =
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  let frame_log = Memory.frame_log mem in
  let ndomains = st.State.gc_domains in
  let team = team_for ndomains in
  let record_moves = st.State.hooks <> [] in
  let use_cards = st.State.policy.State.barrier = State.Barrier_cards in

  (* Worker domains read the flat backing, the liveness bitmap, the
     frame table and the id->increment mirror without synchronisation.
     The first three are fixed for the heap's lifetime; the mirror is
     pre-grown here to cover every increment the drain could open, so
     no array is swapped for a grown copy mid-drain. The forwarding
     CAS's stripes are likewise set up here, before any worker can race
     on them. *)
  let headroom = max 0 (st.State.heap_frames - st.State.frames_used) in
  Memory.ensure_cas_locks mem;
  let max_new_incs =
    (* Upper bound on increments opened during the drain: every belt
       of every domain can roll over at most once per granted frame. *)
    st.State.next_inc_id + headroom + (ndomains * Array.length st.State.belts) + 1
  in
  State.reserve_inc_ids st max_new_incs;

  let ctxs = State.par_domains st ndomains in
  Array.iter
    (fun (ctx : State.par_domain) ->
      Int_vec.clear ctx.State.pd_stack;
      ctx.State.pd_delta <- 0;
      Array.fill ctx.State.pd_dests 0 (Array.length ctx.State.pd_dests) None;
      ctx.State.pd_opened <- [];
      Int_vec.clear ctx.State.pd_remember;
      Int_vec.clear ctx.State.pd_moves;
      ctx.State.pd_copied_words <- 0;
      ctx.State.pd_copied_objects <- 0;
      ctx.State.pd_scanned_slots <- 0;
      ctx.State.pd_remset_slots <- 0;
      ctx.State.pd_roots_scanned <- 0;
      ctx.State.pd_steals <- 0;
      ctx.State.pd_cas_retries <- 0;
      Array.fill ctx.State.pd_phase_ns 0 6 0)
    ctxs;

  let pending = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let aborted () = Atomic.get failure <> None in
  let check_failure () =
    match Atomic.get failure with Some e -> raise e | None -> ()
  in
  let pin_lock = Mutex.create () in

  (* Idle parking. A thief whose steal round finds nothing sleeps on
     [idle_cv] instead of spinning: on an oversubscribed machine a
     spinning thief consumes the timeslice of the one domain holding
     work, inverting the speedup. Wakers broadcast under [idle_m], and
     a sleeper re-checks its predicate under the same mutex before
     waiting, so a wakeup can never be missed. *)
  let idle_m = Mutex.create () in
  let idle_cv = Condition.create () in
  let sleepers = Atomic.make 0 in
  let wake_all () =
    Mutex.lock idle_m;
    Condition.broadcast idle_cv;
    Mutex.unlock idle_m
  in

  (* The in-flight counter is kept approximately: each domain batches
     its +1-per-push / -1-per-scan into a private [pd_delta] and folds
     it in with one fetch-and-add at steal boundaries (and every
     [flush_bound] pushes, so idle thieves are not stranded by a stale
     zero). Exactness only matters at quiescence: a domain reaches the
     exit check with its own stack and deque empty and its delta
     flushed, so when every domain has exited no unscanned object can
     remain, and the final flush-to-zero wakes any parked sleeper. *)
  let flush (ctx : State.par_domain) =
    let d = ctx.State.pd_delta in
    if d <> 0 then begin
      ctx.State.pd_delta <- 0;
      let now = Atomic.fetch_and_add pending d + d in
      if now = 0 && Atomic.get sleepers > 0 then wake_all ()
    end
  in
  (* Grey publication: the hot path pushes to the domain-private stack
     (no fences); surplus is offloaded to the Chase–Lev deque in
     batches from the drain loop. *)
  let grey_push (ctx : State.par_domain) obj =
    ctx.State.pd_delta <- ctx.State.pd_delta + 1;
    Int_vec.push ctx.State.pd_stack obj
  in

  (* Private destination allocation: bump without synchronisation;
     open increments and grant frames under the state lock. *)
  let rec dest_alloc (ctx : State.par_domain) belt size =
    match ctx.State.pd_dests.(belt) with
    | Some d ->
      let addr = Increment.bump_or_null d ~size in
      if addr <> Addr.null then addr
      else if Increment.at_bound d then begin
        Increment.seal d;
        ctx.State.pd_dests.(belt) <- None;
        dest_alloc ctx belt size
      end
      else begin
        Mutex.protect st.State.gc_lock (fun () ->
            State.grant_frame st d ~during_gc:true);
        dest_alloc ctx belt size
      end
    | None ->
      let inc =
        Mutex.protect st.State.gc_lock (fun () -> State.new_increment st ~belt)
      in
      ctx.State.pd_dests.(belt) <- Some inc;
      ctx.State.pd_opened <- inc :: ctx.State.pd_opened;
      dest_alloc ctx belt size
  in

  (* Evacuate one object speculatively, then race to install the
     forwarding pointer. [header] is the even header word the caller
     loaded; a CAS that finds anything else lost to another domain,
     whose odd header decodes to the authoritative new address. *)
  let copy ctx (src_inc : Increment.t) addr header size =
    let belt = State.dest_belt st src_inc.Increment.belt in
    let new_addr = dest_alloc ctx belt size in
    Memory.unsafe_blit mem ~src:addr ~dst:new_addr ~len:size;
    let prev =
      Memory.cas_word mem addr ~expect:header ~desired:((new_addr lsl 1) lor 1)
    in
    if prev = header then begin
      ctx.State.pd_copied_words <- ctx.State.pd_copied_words + size;
      ctx.State.pd_copied_objects <- ctx.State.pd_copied_objects + 1;
      if record_moves then begin
        Int_vec.push ctx.State.pd_moves addr;
        Int_vec.push ctx.State.pd_moves new_addr
      end;
      grey_push ctx new_addr;
      new_addr
    end
    else begin
      ctx.State.pd_cas_retries <- ctx.State.pd_cas_retries + 1;
      (match ctx.State.pd_dests.(belt) with
      | Some d -> Increment.unbump d ~addr:new_addr ~size
      | None -> assert false (* a successful bump leaves its increment open *));
      prev lsr 1
    end
  in

  let forward ctx v =
    if not (Value.is_ref v) then v
    else begin
      let addr = Value.to_addr v in
      let m = Frame_table.meta ftab (addr lsr frame_log) in
      if not (Frame_table.meta_in_plan m) then v
      else begin
        let s = Memory.unsafe_get mem addr in
        if s land 1 = 1 then Value.of_addr (s lsr 1)
        else begin
          let id = Frame_table.meta_incr m in
          if id < 0 then unowned addr;
          match st.State.inc_by_id.(id) with
          | None -> unowned addr
          | Some inc when Frame_table.meta_pinned m ->
            (* Pinned: marked in place; the first domain to claim the
               mark (under [pin_lock]) pushes the base object grey. *)
            if not inc.Increment.gc_mark then begin
              Mutex.lock pin_lock;
              let first = not inc.Increment.gc_mark in
              if first then inc.Increment.gc_mark <- true;
              Mutex.unlock pin_lock;
              if first then
                grey_push ctx (Increment.base_object inc mem)
            end;
            v
          | Some src_inc ->
            Value.of_addr
              (copy ctx src_inc addr s ((s lsr 1) + Object_model.header_words))
        end
      end
    end
  in

  (* The stamp compare runs on the worker with possibly stale target
     stamps (a frame granted by another domain may still read as
     unowned), which can only over-approximate — the replay on the
     main domain re-evaluates the predicate over the settled table. *)
  let buffer_remember ctx ~slot ~src ~tgt =
    if src <> tgt && Frame_table.stamp ftab tgt < Frame_table.stamp ftab src then begin
      Int_vec.push ctx.State.pd_remember slot;
      Int_vec.push ctx.State.pd_remember tgt
    end
  in

  let scan_slots (ctx : State.par_domain) obj =
    let n = Memory.unsafe_get mem obj lsr 1 in
    for slot = obj + 1 to obj + 1 + n do
      let v = Memory.unsafe_get mem slot in
      if Value.is_ref v then begin
        ctx.State.pd_scanned_slots <- ctx.State.pd_scanned_slots + 1;
        let v' = forward ctx v in
        if v' <> v then Memory.unsafe_set mem slot v';
        buffer_remember ctx ~slot ~src:(slot lsr frame_log)
          ~tgt:(Value.to_addr v' lsr frame_log)
      end
    done
  in

  (* Run [f i ctxs.(i)] on the team, recording the domain's wall-clock
     window for phase ordinal [ord] and routing any exception into
     [failure] (a raise must never leave a sibling spinning). *)
  let timed ord f i =
    let ctx = ctxs.(i) in
    let t0 = Gc_stats.now_ns () in
    ctx.State.pd_phase_ns.(2 * ord) <- t0;
    (try f i ctx
     with e ->
       ignore (Atomic.compare_and_set failure None (Some e));
       (* Sleepers re-check [aborted] on wake; set-then-broadcast. *)
       wake_all ());
    (* Each phase is a team barrier, so flushing here makes [pending]
       exact at every phase boundary — the Cheney drain starts from a
       true outstanding count. *)
    flush ctx;
    ctx.State.pd_phase_ns.((2 * ord) + 1) <- Gc_stats.now_ns () - t0
  in
  let on_team ord f =
    Team.run team ~domains:ndomains (timed ord f);
    check_failure ()
  in

  (* Roots: strided shards over the combined root index space. *)
  let roots () =
    on_team 0 (fun i ctx ->
        Roots.iter_update_shard st.State.roots ~index:i ~stride:ndomains
          (fun v ->
            ctx.State.pd_roots_scanned <- ctx.State.pd_roots_scanned + 1;
            forward ctx v))
  in
  (* Strided shards of the snapshot (taken on the submitting domain:
     the remset tables are not thread-safe). Duplicate slots may land
     in different shards: both domains forward the same value (the CAS
     dedups the copy) and the double insert is tolerated, as in the
     sequential drain. *)
  let remembered slots =
    on_team 1 (fun i ctx ->
        let len = Int_vec.length slots in
        let k = ref i in
        while !k < len && not (aborted ()) do
          let slot = Int_vec.get slots !k in
          ctx.State.pd_remset_slots <- ctx.State.pd_remset_slots + 1;
          let v = Memory.get mem slot in
          if Value.is_ref v then begin
            let v' = forward ctx v in
            if v' <> v then begin
              Memory.set mem slot v';
              buffer_remember ctx ~slot ~src:(slot lsr frame_log)
                ~tgt:(Value.to_addr v' lsr frame_log)
            end
          end;
          k := !k + ndomains
        done)
  in
  (* Each dirty increment is scanned wholly by one domain (strided), so
     no two domains write the same non-plan slot. No domain has
     scanned a grey object yet, so every scanned slot so far is a
     card slot and counts as a remembered one. *)
  let dirty incs =
    on_team 1 (fun i ctx ->
        let k = ref i in
        while !k < Array.length incs && not (aborted ()) do
          Increment.iter_objects incs.(!k) mem (scan_slots ctx);
          k := !k + ndomains
        done);
    Array.iter
      (fun (ctx : State.par_domain) ->
        ctx.State.pd_remset_slots <-
          ctx.State.pd_remset_slots + ctx.State.pd_scanned_slots;
        ctx.State.pd_scanned_slots <- 0)
      ctxs
  in

  (* Cheney drain. Hot path: pop the private stack (no atomics),
     offloading surplus to the domain's deque in batches so thieves
     have something to take. Dry path: drain the own deque, then
     steal; a failed round flushes the delta, spins briefly, and
     parks. Any single domain can finish the whole drain through
     stealing, so a degraded (sequential) team execution remains
     correct. *)
  let offload_trigger = 64 and offload_low = 16 and offload_batch = 32 in
  let flush_bound = 64 in
  let any_published () =
    Array.exists (fun (ctx : State.par_domain) -> not (Deque.is_empty ctx.State.pd_grey)) ctxs
  in
  let park () =
    Mutex.lock idle_m;
    Atomic.incr sleepers;
    (* Predicate re-checked under [idle_m]: every waker broadcasts
       under it, so a publish or flush-to-zero between this check and
       the wait is impossible. *)
    if Atomic.get pending > 0 && (not (aborted ())) && not (any_published ())
    then Condition.wait idle_cv idle_m;
    Atomic.decr sleepers;
    Mutex.unlock idle_m
  in
  let trace () =
    on_team 2 (fun i ctx ->
        let scan obj =
          scan_slots ctx obj;
          ctx.State.pd_delta <- ctx.State.pd_delta - 1
        in
        let rec own () =
          if
            Int_vec.length ctx.State.pd_stack > offload_trigger
            && Deque.length ctx.State.pd_grey < offload_low
          then begin
            for _ = 1 to offload_batch do
              Deque.push ctx.State.pd_grey (Int_vec.pop ctx.State.pd_stack)
            done;
            if Atomic.get sleepers > 0 then wake_all ()
          end;
          if ctx.State.pd_delta > flush_bound then flush ctx;
          if not (Int_vec.is_empty ctx.State.pd_stack) then begin
            scan (Int_vec.pop ctx.State.pd_stack);
            own ()
          end
          else begin
            let obj = Deque.pop ctx.State.pd_grey in
            if obj <> Addr.null then begin
              scan obj;
              own ()
            end
            else steal 0
          end
        and steal rounds =
          flush ctx;
          if not (aborted ()) then begin
            let stolen = ref Addr.null in
            let k = ref 1 in
            while !stolen = Addr.null && !k < ndomains do
              let v = Deque.steal ctxs.((i + !k) mod ndomains).State.pd_grey in
              if v <> Addr.null then stolen := v;
              incr k
            done;
            match !stolen with
            | obj when obj <> Addr.null ->
              ctx.State.pd_steals <- ctx.State.pd_steals + 1;
              scan obj;
              own ()
            | _ ->
              if Atomic.get pending = 0 then ()
              else if rounds < 2 then begin
                Domain.cpu_relax ();
                steal (rounds + 1)
              end
              else begin
                park ();
                steal 0
              end
          end
        in
        own ())
  in

  (* Back to one domain: replay the buffered moves first, so the shadow
     heap has re-keyed every object before any later hook looks at it;
     then per domain sum the totals, replay the re-records, and free
     the destination increments that ended the drain empty — every
     copy they received lost its forwarding race (they may hold one
     granted frame each, and no slot lies in or points into them). *)
  let settle () =
    if record_moves then
      Array.iter
        (fun (ctx : State.par_domain) ->
          let mv = ctx.State.pd_moves in
          let len = Int_vec.length mv in
          let k = ref 0 in
          while !k < len do
            let src = Int_vec.get mv !k and dst = Int_vec.get mv (!k + 1) in
            List.iter (fun h -> h.State.on_move ~src ~dst) st.State.hooks;
            k := !k + 2
          done;
          Int_vec.clear mv)
        ctxs;
    Array.iter
      (fun (ctx : State.par_domain) ->
        c.copied_words <- c.copied_words + ctx.State.pd_copied_words;
        c.copied_objects <- c.copied_objects + ctx.State.pd_copied_objects;
        c.scanned_slots <- c.scanned_slots + ctx.State.pd_scanned_slots;
        c.remset_slots <- c.remset_slots + ctx.State.pd_remset_slots;
        c.roots_scanned <- c.roots_scanned + ctx.State.pd_roots_scanned;
        let buf = ctx.State.pd_remember in
        let len = Int_vec.length buf in
        let k = ref 0 in
        while !k < len do
          let slot = Int_vec.get buf !k and tgt = Int_vec.get buf (!k + 1) in
          Write_barrier.re_remember st ~use_cards ~slot
            ~src_frame:(slot lsr frame_log) ~tgt_frame:tgt;
          k := !k + 2
        done;
        Int_vec.clear buf;
        List.iter
          (fun (inc : Increment.t) ->
            if Increment.words_used inc = 0 then State.free_increment st inc)
          ctx.State.pd_opened;
        ctx.State.pd_opened <- [];
        Array.fill ctx.State.pd_dests 0 (Array.length ctx.State.pd_dests) None)
      ctxs;
    c.domains <-
      Array.mapi
        (fun i (ctx : State.par_domain) ->
          {
            Gc_stats.d_domain = i;
            d_phase_ns = Array.copy ctx.State.pd_phase_ns;
            d_copied_objects = ctx.State.pd_copied_objects;
            d_copied_words = ctx.State.pd_copied_words;
            d_scanned_slots = ctx.State.pd_scanned_slots + ctx.State.pd_remset_slots;
            d_steals = ctx.State.pd_steals;
            d_cas_retries = ctx.State.pd_cas_retries;
          })
        ctxs
  in
  {
    roots;
    remembered;
    dirty;
    trace_phase = Gc_stats.Phase_cheney;
    trace;
    settle;
    reclaim_phase = Gc_stats.Phase_free;
    reclaim = (fun () -> release_plan st plan c);
  }

(* ------------------------------------------------------------------ *)
(* The in-place strategies: bitmap mark-sweep and threaded (Jonkers)
   mark-compact. One drain handles both; [compact] selects whether
   the reclaim phase rebuilds free lists in place or slides survivors
   to the front of their own increments.

   Shape of a collection:

   - the plan's non-pinned increments are *logically promoted first*
     (while the drain is built): moved to their destination belts and
     restamped (every frame restamped to match) before any tracing.
     Tracing then runs entirely under the final stamps, so re-applying
     the write barrier's predicate while marking records exactly the
     right remembered slots — the property the copying drain gets from
     allocating survivors into new-stamped destination frames.
     Restamping only ever raises a target's stamp, so pre-existing
     remembered entries can become superfluous but never
     insufficient; and a pointer from outside the plan into a
     promoted increment needs no new entry, because downward closure
     puts any older source increment into every future plan that
     contains the now-younger-stamped target.

   - marking: roots, then remembered slots / dirty cards, then an
     explicit mark-stack drain over the side bitmap (one bit per heap
     word, held by the memory substrate; only the plan's frames are
     cleared, and marks are only ever read behind an in-plan test).
     Pinned (LOS) increments in the plan are marked through the same
     bitmap on their base object.

   - reclaim: the sweep coalesces each increment's dead runs into
     free-list fillers frame by frame, freeing frames with no
     survivor; the compactor threads references (Jonkers' scheme, as
     in motoko-rts) and slides survivors to the front of the
     increment's own frames in two passes, freeing the vacated tail.

   Neither strategy needs a copy reserve ([Copy_reserve] holds back
   zero frames), which is exactly the trade the strategies experiment
   measures against the copying collector's per-object work. *)
let mark_drain ~compact st plan c =
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  let frame_log = Memory.frame_log mem in
  let frame_words = Memory.frame_words mem in
  let hook_object_dead ~addr ~words =
    match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_object_dead ~addr ~words) hs
  in

  (* Logical promotion: survivors keep their frames, so promotion is a
     belt/stamp relabelling instead of a copy. Each increment takes a
     fresh stamp, so pushing it to the back of its destination belt
     preserves the belts' stamp-FIFO ordering whatever the plan order.
     Pinned increments keep their place, exactly as under copying.
     (The increment also keeps its original belt's [bound_frames] —
     the bound travels with the increment, not the belt.) *)
  List.iter
    (fun (inc : Increment.t) ->
      if not inc.Increment.pinned then begin
        let dest = State.dest_belt st inc.Increment.belt in
        Belt.remove st.State.belts.(inc.Increment.belt) inc;
        inc.Increment.belt <- dest;
        inc.Increment.stamp <- State.stamp_for_belt st dest;
        Belt.push_back st.State.belts.(dest) inc;
        Int_vec.iter
          (fun f -> Frame_table.restamp ftab ~frame:f ~stamp:inc.Increment.stamp)
          inc.Increment.frames
      end)
    plan.increments;

  (* Side mark bitmap over the plan's frames, plus the explicit mark
     stack. Marks outside the plan may be stale from an earlier
     collection; they are never read. *)
  Memory.ensure_marks mem;
  List.iter
    (fun (inc : Increment.t) ->
      Int_vec.iter (fun f -> Memory.clear_marks_frame mem f) inc.Increment.frames)
    plan.increments;
  let stack = st.State.gc_mark_stack in
  Int_vec.clear stack;

  (* Grey an object: mark bit, statistics, stack push. Pinned objects
     are marked through the same bitmap on their base address, so
     retention at reclaim is one bitmap test either way. *)
  let trace v =
    if Value.is_ref v then begin
      let addr = Value.to_addr v in
      if
        Frame_table.meta_in_plan (Frame_table.meta ftab (addr lsr frame_log))
        && not (Memory.marked mem addr)
      then begin
        Memory.set_mark mem addr;
        c.marked_objects <- c.marked_objects + 1;
        c.marked_words <-
          c.marked_words + (Memory.unsafe_get mem addr lsr 1)
          + Object_model.header_words;
        Int_vec.push stack addr
      end
    end
  in

  let use_cards = st.State.policy.State.barrier = State.Barrier_cards in
  let re_remember ~slot ~src ~tgt =
    Write_barrier.re_remember st ~use_cards ~slot ~src_frame:src ~tgt_frame:tgt
  in
  (* Re-apply the barrier predicate to every reference slot of [obj],
     once each target has its final address. *)
  let re_remember_object obj =
    let n = Memory.unsafe_get mem obj lsr 1 in
    for slot = obj + 1 to obj + 1 + n do
      let v = Memory.unsafe_get mem slot in
      if Value.is_ref v then
        re_remember ~slot ~src:(slot lsr frame_log)
          ~tgt:(Value.to_addr v lsr frame_log)
    done
  in

  (* External referrer slots, collected during the remset/card phases.
     The compactor must come back to them after the slide — both to
     thread them (so they learn the new addresses) and to re-record
     them (their old remset entries are keyed by target frame, and a
     vacated target frame drops its entries). Deduplicated: threading
     one slot twice would tie its chain into a cycle. The sweep needs
     none of this and leaves the vector empty. *)
  let ext_slots : Int_vec.t = Int_vec.create () in
  let ext_seen : unit Int_table.t = Int_table.create 64 in
  let note_ext slot =
    if compact && not (Int_table.mem ext_seen slot) then begin
      Int_table.replace ext_seen slot ();
      Int_vec.push ext_slots slot
    end
  in

  (* Roots. Nothing moves during marking, so this pass only traces;
     the compactor rewrites root slots after the slide. *)
  let roots () =
    Roots.iter_update st.State.roots (fun v ->
        c.roots_scanned <- c.roots_scanned + 1;
        trace v;
        v)
  in
  let remembered slots =
    for k = 0 to Int_vec.length slots - 1 do
      let slot = Int_vec.get slots k in
      c.remset_slots <- c.remset_slots + 1;
      let v = Memory.get mem slot in
      if Value.is_ref v then begin
        trace v;
        note_ext slot
      end
    done
  in
  (* Slots that still hold interesting pointers are re-recorded
     immediately when their target stays put, after the slide when it
     is in a compacting increment. *)
  let dirty incs =
    Array.iter
      (fun (inc : Increment.t) ->
        Increment.iter_objects inc mem (fun obj ->
            let n = Memory.unsafe_get mem obj lsr 1 in
            for slot = obj + 1 to obj + 1 + n do
              let v = Memory.unsafe_get mem slot in
              if Value.is_ref v then begin
                c.remset_slots <- c.remset_slots + 1;
                trace v;
                let tf = Value.to_addr v lsr frame_log in
                let tm = Frame_table.meta ftab tf in
                if
                  compact
                  && Frame_table.meta_in_plan tm
                  && not (Frame_table.meta_pinned tm)
                then note_ext slot
                else re_remember ~slot ~src:(slot lsr frame_log) ~tgt:tf
              end
            done))
      incs
  in

  (* Mark drain. Under the sweep, surviving slots re-apply the barrier
     predicate here, under the (final) promoted stamps — the in-place
     analogue of the copying scan's re-recording. The compactor defers
     it to after the slide: both the slots and their targets move. *)
  let mark () =
    while not (Int_vec.is_empty stack) do
      let obj = Int_vec.pop stack in
      let n = Memory.unsafe_get mem obj lsr 1 in
      for slot = obj + 1 to obj + 1 + n do
        let v = Memory.unsafe_get mem slot in
        if Value.is_ref v then begin
          c.scanned_slots <- c.scanned_slots + 1;
          trace v;
          if not compact then
            re_remember ~slot ~src:(slot lsr frame_log)
              ~tgt:(Value.to_addr v lsr frame_log)
        end
      done
    done
  in

  (* Free one frame of a surviving increment (wholly dead, or vacated
     by the slide). *)
  let free_frame (inc : Increment.t) frame =
    State.free_frame st inc frame;
    c.freed_frames <- c.freed_frames + 1
  in
  (* Pinned increments are retained in place when their object was
     reached, released otherwise — the same either way; the compactor
     additionally re-records the retained object's slots once every
     target has its final address ([rescan]). *)
  let finish_pinned ~rescan (inc : Increment.t) =
    let obj = Increment.base_object inc mem in
    if Memory.marked mem obj then begin
      if rescan then re_remember_object obj;
      unplan ftab inc
    end
    else release st c inc
  in

  (* Sweep: rebuild each increment in place. Adjacent dead objects
     coalesce into one filler per run — an even header and odd
     (immediate) payload words, so object walks parse it and slot
     walks skip it — pushed onto the increment's free list. Frames
     with no survivor are returned individually, and the increment is
     unsealed so the mutator can bump its tail and refill its holes. *)
  let sweep () =
    List.iter
      (fun (inc : Increment.t) ->
        if inc.Increment.pinned then finish_pinned ~rescan:false inc
        else begin
          let nframes = Increment.frame_count inc in
          (* Survival per frame, decided before any rebuilding. *)
          let keep = Array.make (max nframes 1) false in
          let any_live = ref false in
          for fi = 0 to nframes - 1 do
            let base = Memory.frame_base mem (Int_vec.get inc.Increment.frames fi) in
            let extent = base + Increment.used_of_frame inc mem fi in
            let a = ref base in
            while !a < extent do
              if Memory.marked mem !a then begin
                keep.(fi) <- true;
                any_live := true
              end;
              a := !a + (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words
            done
          done;
          if not !any_live then release st c inc
          else begin
            Increment.clear_free_list inc;
            let kept_frames = Int_vec.create () in
            let kept_used = Int_vec.create () in
            let live = ref 0 in
            let fillers = ref 0 in
            for fi = 0 to nframes - 1 do
              let frame = Int_vec.get inc.Increment.frames fi in
              if not keep.(fi) then free_frame inc frame
              else begin
                let used = Increment.used_of_frame inc mem fi in
                let base = Memory.frame_base mem frame in
                let extent = base + used in
                let run_start = ref Addr.null in
                let flush upto =
                  if !run_start <> Addr.null then begin
                    let k = upto - !run_start in
                    Memory.unsafe_set mem !run_start
                      ((k - Object_model.header_words) lsl 1);
                    Memory.fill mem ~dst:(!run_start + 1) ~len:(k - 1) 1;
                    Increment.push_free inc ~addr:!run_start ~words:k;
                    incr fillers;
                    run_start := Addr.null
                  end
                in
                let a = ref base in
                while !a < extent do
                  let size =
                    (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words
                  in
                  if Memory.marked mem !a then begin
                    incr live;
                    flush !a
                  end
                  else begin
                    if !run_start = Addr.null then run_start := !a;
                    c.swept_words <- c.swept_words + size;
                    (* Dead in a surviving frame: reported here. Dead
                       objects in a freed frame die with the frame
                       ([on_frame_free]), never both. *)
                    hook_object_dead ~addr:!a ~words:size
                  end;
                  a := !a + size
                done;
                flush extent;
                Int_vec.push kept_frames frame;
                Int_vec.push kept_used used
              end
            done;
            (* Rebuild over the surviving frames: the last reopens
               under the bump cursor (its tail words are still zeroed —
               bump allocation never reached them), the others keep
               their recorded extents. *)
            Int_vec.clear inc.Increment.frames;
            Int_vec.clear inc.Increment.frame_used;
            let m = Int_vec.length kept_frames in
            let words = ref 0 in
            for i = 0 to m - 1 do
              Int_vec.push inc.Increment.frames (Int_vec.get kept_frames i);
              words := !words + Int_vec.get kept_used i;
              if i < m - 1 then
                Int_vec.push inc.Increment.frame_used (Int_vec.get kept_used i)
            done;
            let last_base = Memory.frame_base mem (Int_vec.get kept_frames (m - 1)) in
            inc.Increment.cursor <- last_base + Int_vec.get kept_used (m - 1);
            inc.Increment.limit <- last_base + frame_words;
            inc.Increment.words_used <- !words;
            inc.Increment.objects <- !live + !fillers;
            inc.Increment.sealed <- false;
            unplan ftab inc
          end
        end)
      plan.increments
  in

  (* Threaded compaction (Jonkers): every reference to a moving object
     is threaded into a chain hanging off the target's header; two
     passes over the compacting increments in one fixed total order
     (plan order, stream order within an increment) first compute
     destination addresses and unthread the already recorded
     referrers, then slide the objects and unthread the rest. Both
     passes recompute the same destination cursor — the survivors
     packed into the increment's own frames in order, advancing at a
     frame seam exactly when the object would not fit the remainder.
     The original packing obeyed the same rule, so within any frame
     the destination never overtakes the source and [Memory.blit]'s
     forward copy is safe; across frames, source and destination never
     alias. *)
  let compact_plan () =
    (* Fields of retained pinned objects point into compacting
       increments by address; collect them with the external slots
       (deduplicated) so they are threaded and re-recorded too. *)
    List.iter
      (fun (inc : Increment.t) ->
        if
          inc.Increment.pinned
          && Memory.marked mem (Increment.base_object inc mem)
        then begin
          let obj = Increment.base_object inc mem in
          let n = Memory.unsafe_get mem obj lsr 1 in
          for slot = obj + 1 to obj + 1 + n do
            if Value.is_ref (Memory.unsafe_get mem slot) then note_ext slot
          done
        end)
      plan.increments;
    (* Thread the external slots. Every slot's target was traced with
       this same value, so a slot pointing at a moving (in-plan,
       non-pinned) object always points at a live one. This must
       happen only now: the drain above reads these very slots, and a
       threaded slot holds a chain link, not a value. *)
    let thread_slot slot =
      let v = Memory.get mem slot in
      if Value.is_ref v then begin
        let tgt = Value.to_addr v in
        let tm = Frame_table.meta ftab (tgt lsr frame_log) in
        if Frame_table.meta_in_plan tm && not (Frame_table.meta_pinned tm)
        then begin
          Memory.set mem slot (Memory.unsafe_get mem tgt);
          Memory.unsafe_set mem tgt ((slot lsl 1) lor 1)
        end
      end
    in
    Int_vec.iter thread_slot ext_slots;

    let compacting =
      List.filter
        (fun (i : Increment.t) -> not i.Increment.pinned)
        plan.increments
    in
    (* Chain-walk to the terminal (even) header word without
       unthreading: an object's size is needed to place it before its
       referrers can learn the new address. *)
    let threaded_header obj =
      let w = ref (Memory.unsafe_get mem obj) in
      while !w land 1 = 1 do
        w := Memory.unsafe_get mem (!w lsr 1)
      done;
      !w
    in
    (* Relocation table for the root slots, which live outside the
       simulated heap and cannot be threaded — the one deviation from
       pure threading. Only movers are recorded. *)
    let old_new : int Int_table.t = Int_table.create 256 in
    (* Destination frame count per increment, decided by pass one;
       zero when nothing survives. *)
    let live_frames : int Int_table.t = Int_table.create 16 in

    (* Both passes walk [inc]'s survivors in stream order, place each
       with the same cursor and unthread it: referrers recorded so far
       learn the new address, and the original header comes back.
       Pass one then threads the object's own references to movers (a
       self-reference resolves in pass two, before the slide); pass
       two ([slide]) slides it, counts the dead in the first [m]
       frames, and pushes each destination frame's extent. Returns
       survivors, destination frames and the final cursor. *)
    let walk ~slide ~m (inc : Increment.t) extents =
      let nframes = Increment.frame_count inc in
      let dfi = ref 0 in
      let daddr = ref Addr.null in
      let dlimit = ref Addr.null in
      if nframes > 0 then begin
        daddr := Memory.frame_base mem (Int_vec.get inc.Increment.frames 0);
        dlimit := !daddr + frame_words
      end;
      let live = ref 0 in
      for fi = 0 to nframes - 1 do
        let base = Memory.frame_base mem (Int_vec.get inc.Increment.frames fi) in
        let extent = base + Increment.used_of_frame inc mem fi in
        let a = ref base in
        while !a < extent do
          if Memory.marked mem !a then begin
            incr live;
            let h = threaded_header !a in
            let size = (h lsr 1) + Object_model.header_words in
            if !daddr + size > !dlimit then begin
              if slide then
                Int_vec.push extents
                  (!daddr - Memory.frame_base mem (Int_vec.get inc.Increment.frames !dfi));
              incr dfi;
              daddr := Memory.frame_base mem (Int_vec.get inc.Increment.frames !dfi);
              dlimit := !daddr + frame_words
            end;
            let dst = !daddr in
            daddr := dst + size;
            if (not slide) && dst <> !a then Int_table.replace old_new !a dst;
            let w = ref (Memory.unsafe_get mem !a) in
            while !w land 1 = 1 do
              let s = !w lsr 1 in
              w := Memory.unsafe_get mem s;
              Memory.unsafe_set mem s (Value.of_addr dst)
            done;
            Memory.unsafe_set mem !a !w;
            if not slide then begin
              let n = !w lsr 1 in
              for slot = !a + 1 to !a + 1 + n do
                let v = Memory.unsafe_get mem slot in
                if Value.is_ref v then begin
                  let tgt = Value.to_addr v in
                  let tm = Frame_table.meta ftab (tgt lsr frame_log) in
                  if Frame_table.meta_in_plan tm && not (Frame_table.meta_pinned tm)
                  then begin
                    Memory.unsafe_set mem slot (Memory.unsafe_get mem tgt);
                    Memory.unsafe_set mem tgt ((slot lsl 1) lor 1)
                  end
                end
              done
            end
            else if dst <> !a then begin
              Memory.blit mem ~src:!a ~dst ~len:size;
              c.moved_words <- c.moved_words + size;
              match st.State.hooks with
              | [] -> ()
              | hs -> List.iter (fun h -> h.State.on_move ~src:!a ~dst) hs
            end;
            a := !a + size
          end
          else begin
            let size = (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words in
            if slide && fi < m then begin
              (* Dying inside a surviving frame: reported here. A dead
                 object in a vacated frame dies with the frame
                 ([on_frame_free]), never both. *)
              c.swept_words <- c.swept_words + size;
              hook_object_dead ~addr:!a ~words:size
            end;
            a := !a + size
          end
        done
      done;
      if slide then
        Int_vec.push extents
          (!daddr - Memory.frame_base mem (Int_vec.get inc.Increment.frames !dfi));
      (!live, !dfi + 1, !daddr)
    in
    let no_extents = Int_vec.create () in
    List.iter
      (fun (inc : Increment.t) ->
        let live, frames, _ = walk ~slide:false ~m:0 inc no_extents in
        Int_table.replace live_frames inc.Increment.id (if live > 0 then frames else 0))
      compacting;

    (* Root slots, from the relocation table, while the plan's frame
       bits still say which roots can have moved: only a root into a
       compacting (in-plan, unpinned) frame is looked up. Nothing reads
       a root during the slide. *)
    Roots.iter_update st.State.roots (fun v ->
        if Value.is_ref v then begin
          let a = Value.to_addr v in
          let m = Frame_table.meta ftab (a lsr frame_log) in
          if Frame_table.meta_in_plan m && not (Frame_table.meta_pinned m) then
            match Int_table.find_opt old_new a with
            | Some dst -> Value.of_addr dst
            | None -> v
          else v
        end
        else v);

    (* Pass two, then rebuild the increment over its survivor prefix.
       Finishing each increment here is sound: all of its slots already
       hold final values (forward references were resolved by pass
       one, which ran to completion everywhere). *)
    List.iter
      (fun (inc : Increment.t) ->
        let m = Int_table.find live_frames inc.Increment.id in
        if m = 0 then release st c inc
        else begin
          let nframes = Increment.frame_count inc in
          let extents = Int_vec.create () in
          let live, _, cursor = walk ~slide:true ~m inc extents in
          (* Free the vacated tail, rebuild the survivor prefix. *)
          for fi = nframes - 1 downto m do
            free_frame inc (Int_vec.get inc.Increment.frames fi)
          done;
          Int_vec.truncate inc.Increment.frames m;
          Int_vec.clear inc.Increment.frame_used;
          let words = ref 0 in
          for i = 0 to m - 1 do
            let u = Int_vec.get extents i in
            words := !words + u;
            if i < m - 1 then Int_vec.push inc.Increment.frame_used u
          done;
          inc.Increment.cursor <- cursor;
          inc.Increment.limit <-
            Memory.frame_base mem (Int_vec.get inc.Increment.frames (m - 1))
            + frame_words;
          (* The slide leaves stale object images under the reopened
             bump tail; allocation assumes zeroed words. *)
          if inc.Increment.limit > inc.Increment.cursor then
            Memory.fill mem ~dst:inc.Increment.cursor
              ~len:(inc.Increment.limit - inc.Increment.cursor)
              0;
          inc.Increment.words_used <- !words;
          inc.Increment.objects <- live;
          Increment.clear_free_list inc;
          inc.Increment.sealed <- false;
          unplan ftab inc;
          (* Re-apply the barrier predicate over the compacted stream
             (the in-place analogue of the copying scan's
             re-recording): every slot here is final. *)
          for i = 0 to m - 1 do
            let base = Memory.frame_base mem (Int_vec.get inc.Increment.frames i) in
            let extent = base + Int_vec.get extents i in
            let a = ref base in
            while !a < extent do
              re_remember_object !a;
              a := !a + (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words
            done
          done
        end)
      compacting;

    (* Retained pinned objects: clear plan state and re-record their
       (now final) slots. *)
    List.iter
      (fun (inc : Increment.t) ->
        if inc.Increment.pinned then finish_pinned ~rescan:true inc)
      plan.increments;

    (* External referrer slots: re-record under the final target
       frames. An entry keyed by a vacated target frame was dropped
       with that frame; this re-insertion is what preserves it. *)
    Int_vec.iter
      (fun slot ->
        let v = Memory.get mem slot in
        if Value.is_ref v then
          re_remember ~slot ~src:(slot lsr frame_log)
            ~tgt:(Value.to_addr v lsr frame_log))
      ext_slots
  in
  {
    roots;
    remembered;
    dirty;
    trace_phase = Gc_stats.Phase_mark;
    trace = mark;
    settle = ignore;
    reclaim_phase = (if compact then Gc_stats.Phase_compact else Gc_stats.Phase_sweep);
    reclaim = (if compact then compact_plan else sweep);
  }

(* The strategy dispatch, once per collection. The in-place strategies
   are sequential by construction and rejected at configuration time
   for [gc_domains > 1]. *)
let collect st plan =
  run st plan
    (match st.State.strategy.State.strategy_kind with
    | State.Strategy_copying ->
      if st.State.gc_domains <= 1 then cheney_drain else parallel_drain
    | State.Strategy_marksweep -> mark_drain ~compact:false
    | State.Strategy_markcompact -> mark_drain ~compact:true)
