exception Out_of_memory of string

type hooks = {
  on_alloc : addr:Addr.t -> tib:Value.t -> nfields:int -> unit;
  on_write : obj:Addr.t -> field:int -> value:Value.t -> unit;
  on_move : src:Addr.t -> dst:Addr.t -> unit;
  on_object_dead : addr:Addr.t -> words:int -> unit;
  on_collect_start : reason:Gc_stats.reason -> emergency:bool -> unit;
  on_collect_end : full_heap:bool -> unit;
  on_gc_phase : phase:Gc_stats.gc_phase -> enter:bool -> unit;
  on_frame_grant : frame:int -> belt:int -> during_gc:bool -> unit;
  on_frame_free : frame:int -> belt:int -> unit;
  on_belt_advance : belt:int -> inc_id:int -> stamp:int -> unit;
  on_reserve : frames:int -> unit;
  on_trigger : reason:Gc_stats.reason -> unit;
  on_barrier_slow : entries:int -> unit;
}

let noop_hooks =
  {
    on_alloc = (fun ~addr:_ ~tib:_ ~nfields:_ -> ());
    on_write = (fun ~obj:_ ~field:_ ~value:_ -> ());
    on_move = (fun ~src:_ ~dst:_ -> ());
    on_object_dead = (fun ~addr:_ ~words:_ -> ());
    on_collect_start = (fun ~reason:_ ~emergency:_ -> ());
    on_collect_end = (fun ~full_heap:_ -> ());
    on_gc_phase = (fun ~phase:_ ~enter:_ -> ());
    on_frame_grant = (fun ~frame:_ ~belt:_ ~during_gc:_ -> ());
    on_frame_free = (fun ~frame:_ ~belt:_ -> ());
    on_belt_advance = (fun ~belt:_ ~inc_id:_ ~stamp:_ -> ());
    on_reserve = (fun ~frames:_ -> ());
    on_trigger = (fun ~reason:_ -> ());
    on_barrier_slow = (fun ~entries:_ -> ());
  }

(* Per-domain scratch for the parallel collector, reused across
   collections: a Chase–Lev grey deque, private destination increments
   per belt, and buffers for the side effects that must replay on the
   main domain after the drain (remset/card re-records and on_move
   hook firings — neither the remset tables nor the hooks are
   thread-safe). *)
type par_domain = {
  pd_stack : Beltway_util.Int_vec.t; (* private grey stack, no atomics *)
  pd_grey : Beltway_util.Deque.t; (* published surplus, steal target *)
  mutable pd_delta : int; (* unflushed in-flight delta *)
  pd_dests : Increment.t option array; (* private open dest per belt *)
  mutable pd_opened : Increment.t list; (* dests this domain opened this GC *)
  pd_remember : Beltway_util.Int_vec.t; (* (slot, tgt frame) pairs *)
  pd_moves : Beltway_util.Int_vec.t; (* (src, dst) pairs, when hooks installed *)
  mutable pd_copied_words : int;
  mutable pd_copied_objects : int;
  mutable pd_scanned_slots : int;
  mutable pd_remset_slots : int;
  mutable pd_roots_scanned : int;
  mutable pd_steals : int;
  mutable pd_cas_retries : int;
  pd_phase_ns : int array;
      (* start/duration pairs: roots, remset-or-cards, cheney *)
}

(* The pluggable collector-policy layer. The record type lives here,
   not in [Policy], because its closures consume the very state that
   stores them (the same mutual-recursion-by-placement as [hooks]);
   [Policy] constructs these records and owns the registry. Hot-path
   decisions (barrier discipline, promotion) are plain data read per
   operation; closures are consulted only per collection and per
   allocation slow path. *)

type barrier_discipline =
  | Barrier_remsets of { nursery_filter : bool }
      (** remembered sets of slot addresses; [nursery_filter] skips
          even the stamp compare for stores whose source lies in the
          single open nursery increment *)
  | Barrier_cards  (** unconditional frame-granularity card marking *)

type alloc_action =
  | Alloc_grant  (** grant the allocation increment one more frame *)
  | Alloc_collect of Gc_stats.reason  (** collect now, for this reason *)
  | Alloc_open_nursery
      (** open a further increment on the allocation belt (older-first:
          the nursery bound opens a new window rather than collecting) *)
  | Alloc_split_nursery
      (** time-to-die: seal the nursery and open a fresh increment the
          next nursery collection will spare *)

(* The reclamation-strategy descriptor: how the increments of a plan
   are reclaimed, orthogonal to the policy (which decides *what* to
   collect and when). It is plain data: [Strategy] owns the registry
   and derives every property (moving, reserve, parallel) from the
   kind, [Copy_reserve] the reserve rule, and [Collector] the drain. *)
type strategy_kind =
  | Strategy_copying  (** Cheney evacuation (the pre-strategy collector) *)
  | Strategy_marksweep  (** mark bitmap + free-list sweep, in place *)
  | Strategy_markcompact  (** mark bitmap + threaded slide, in place *)

type strategy = {
  strategy_name : string;  (** registry key, for reporting *)
  strategy_kind : strategy_kind;
}

let copying_strategy =
  { strategy_name = "copying"; strategy_kind = Strategy_copying }

type t = {
  mem : Memory.t;
  boot : Boot_space.t;
  types : Type_registry.t;
  roots : Roots.t;
  ftab : Frame_table.t;
  config : Config.t;
  policy : policy;
  strategy : strategy;
  heap_frames : int;
  belts : Belt.t array;
  belt_bounds : int option array;
  remsets : Remset.t;
  cards : Card_table.t;
  stats : Gc_stats.t;
  mutable inc_by_id : Increment.t option array;
  mutable live_incs : int;
  gc_slots : Beltway_util.Int_vec.t;
  gc_pinned : Increment.t Beltway_util.Vec.t;
  gc_mark_stack : Beltway_util.Int_vec.t;
  fit_incs : Increment.t Beltway_util.Vec.t;
  mutable fit_valid : bool;
  mutable fit_resume : int array;
  mutable frames_used : int;
  mutable next_inc_id : int;
  mutable seq : int;
  mutable epoch : int;
  mutable in_gc : bool;
  mutable gcs_this_alloc : int;
  mutable live_est_frames : int;
      (* survivors of the most recent full-heap collection; 0 = none
         yet. A cheap live-set statistic for diagnostics and tests. *)
  mutable hooks : hooks list;
  mutable gc_domains : int;
      (* domains a collection's drain fans out over; 1 = the
         byte-identical sequential collector *)
  gc_lock : Mutex.t;
      (* serialises shared-structure mutation (increment creation,
         frame grants and their hooks) during a parallel drain *)
  mutable gc_par : par_domain array; (* parallel-drain scratch, grown on demand *)
  mutable alloc_site : int;
      (* allocation-site id the next [on_alloc] firing is attributed
         to; 0 is the catch-all "unknown" site. Instrumented mutators
         (the bytecode VM, the synthetic workloads) store here right
         before allocating; nothing in the collector reads it. *)
  site_names : string Beltway_util.Vec.t;
      (* site id -> label; index 0 is "unknown". OCaml-side only —
         registration never touches the simulated heap, so attaching
         site ids cannot perturb figure output. *)
  site_ids : (string, int) Hashtbl.t; (* label -> site id *)
}

and policy = {
  policy_name : string;  (** registry key, for reporting *)
  barrier : barrier_discipline;
  promote : int array;
      (** destination belt for survivors of each configured belt
          (indexed by source belt; pinned LOS increments never move) *)
  stamp_priority : t -> belt:int -> int;
      (** priority class of the next increment opened on [belt]
          (belt-major, epoch-based, ...) *)
  target : t -> Increment.t list;
      (** candidate target increments in decreasing preference order;
          the schedule takes the downward closure of the first feasible
          one *)
  reserve_frames : t -> int;
      (** conservative copy reserve in frames *)
  alloc_trigger : t -> size:int -> alloc_action;
      (** trigger cascade for a nursery allocation that does not fit *)
  pretenure_trigger : t -> alloc_action;
      (** trigger cascade for a pretenured (higher-belt) allocation *)
  large_trigger : t -> incoming_frames:int -> alloc_action;
      (** trigger cascade before admitting a pinned large object *)
  refresh_nursery : t -> unit;
      (** hook run when no open nursery increment exists, before a new
          one is created (BOF: flip the belts) *)
}

let create ?(strategy = copying_strategy) ~config ~policy ~heap_frames
    ~frame_log_words () =
  let config =
    match Config.validate config with
    | Ok c -> c
    | Error e -> invalid_arg ("State.create: invalid configuration: " ^ e)
  in
  if heap_frames < 4 then invalid_arg "State.create: heap_frames must be >= 4";
  (* The address range is the budget plus the boot allowance, and no
     heap without a LOS ever needs an index past it. Every index below
     the memory's fresh mark is live or on its free list, so a fresh
     frame is minted only when the free list is empty, and is then
     [live + 1] (a fresh index past [live + 1] implies a non-empty free
     list). [grant_frame] maps a frame only while [frames_used <
     heap_frames], and the boot space only below its allowance, so
     [live + 1 <= heap_frames + Boot_space.max_frames]. A LOS run that
     finds no contiguous space in the range is an Out_of_memory
     ([new_pinned_increment]). *)
  let max_frames = heap_frames + Boot_space.max_frames in
  let mem = Memory.create ~frame_log_words ~max_frames in
  let boot = Boot_space.create mem in
  let types = Type_registry.create mem boot in
  let ftab = Frame_table.create ~max_frames in
  let regular = Array.length config.Config.belts in
  (* The large object space, when enabled, is one extra belt above all
     configured belts: its pinned increments carry the highest stamps,
     so they are reached only by plans that already cover everything
     below — and pointers out of large objects are always remembered. *)
  let nbelts = regular + if config.Config.los_threshold <> None then 1 else 0 in
  let belts = Array.init nbelts (fun index -> Belt.create ~index) in
  let belt_bounds =
    Array.init nbelts (fun i ->
        if i < regular then
          Config.resolve_bound config ~heap_frames config.Config.belts.(i).Config.bound
        else None)
  in
  let stats = Gc_stats.create () in
  stats.Gc_stats.config_label <- config.Config.label;
  stats.Gc_stats.policy_name <- policy.policy_name;
  stats.Gc_stats.strategy_name <- strategy.strategy_name;
  let site_names = Beltway_util.Vec.create ~dummy:"" () in
  Beltway_util.Vec.push site_names "unknown";
  let site_ids = Hashtbl.create 64 in
  Hashtbl.replace site_ids "unknown" 0;
  let no_inc = Increment.create ~id:(-1) ~belt:0 ~stamp:0 ~bound_frames:None in
  {
    mem;
    boot;
    types;
    roots = Roots.create ();
    ftab;
    config;
    policy;
    strategy;
    heap_frames;
    belts;
    belt_bounds;
    remsets = Remset.create ~max_frames ();
    cards = Card_table.create ();
    stats;
    inc_by_id = Array.make 64 None;
    live_incs = 0;
    gc_slots = Beltway_util.Int_vec.create ();
    gc_pinned = Beltway_util.Vec.create ~dummy:no_inc ();
    gc_mark_stack = Beltway_util.Int_vec.create ();
    fit_incs = Beltway_util.Vec.create ~dummy:no_inc ();
    fit_valid = false;
    fit_resume = [||];
    frames_used = 0;
    next_inc_id = 0;
    seq = 0;
    epoch = 0;
    in_gc = false;
    gcs_this_alloc = 0;
    live_est_frames = 0;
    hooks = [];
    gc_domains = 1;
    gc_lock = Mutex.create ();
    gc_par = [||];
    alloc_site = 0;
    site_names;
    site_ids;
  }

let make_par_domain t =
  {
    pd_stack = Beltway_util.Int_vec.create ();
    pd_grey = Beltway_util.Deque.create ~empty:Addr.null ();
    pd_delta = 0;
    pd_dests = Array.make (Array.length t.belts) None;
    pd_opened = [];
    pd_remember = Beltway_util.Int_vec.create ();
    pd_moves = Beltway_util.Int_vec.create ();
    pd_copied_words = 0;
    pd_copied_objects = 0;
    pd_scanned_slots = 0;
    pd_remset_slots = 0;
    pd_roots_scanned = 0;
    pd_steals = 0;
    pd_cas_retries = 0;
    pd_phase_ns = Array.make 6 0;
  }

(* The first [n] per-domain scratch contexts, created on first use and
   reused across collections. *)
let par_domains t n =
  let cur = Array.length t.gc_par in
  if cur < n then
    t.gc_par <-
      Array.init n (fun i -> if i < cur then t.gc_par.(i) else make_par_domain t);
  Array.sub t.gc_par 0 n

let add_hooks t h = t.hooks <- t.hooks @ [ h ]
let remove_hooks t h = t.hooks <- List.filter (fun h' -> h' != h) t.hooks

(* Allocation-site registry: idempotent by label, dense ids from 0
   ("unknown"). Lives entirely on the OCaml side of the simulation. *)
let register_site t ~name =
  match Hashtbl.find_opt t.site_ids name with
  | Some id -> id
  | None ->
    let id = Beltway_util.Vec.length t.site_names in
    Beltway_util.Vec.push t.site_names name;
    Hashtbl.replace t.site_ids name id;
    id

let site_count t = Beltway_util.Vec.length t.site_names

let site_name t id =
  if id >= 0 && id < site_count t then Beltway_util.Vec.get t.site_names id
  else "unknown"

let heap_words t = t.heap_frames * Memory.frame_words t.mem
let free_frames t = t.heap_frames - t.frames_used
let total_increments t = t.live_incs

let live_words t =
  Array.fold_left (fun acc b -> acc + Belt.words_used b) 0 t.belts

let stamp_for_belt t belt =
  let priority = t.policy.stamp_priority t ~belt in
  let s = (priority * Frame_table.priority_unit) + t.seq in
  t.seq <- t.seq + 1;
  s

(* Destination belt for survivors of an increment on [belt]: one array
   read off the installed policy (precomputed, so the Cheney inner loop
   never dispatches a closure). Pinned LOS increments are never
   evacuated, so only configured belts can appear; the LOS belt index
   clamps onto the top configured belt harmlessly. *)
let dest_belt t belt =
  let p = t.policy.promote in
  p.(min belt (Array.length p - 1))

(* The id -> increment array lets the collector's forward path resolve
   an id with an array read, not a hash probe. *)
let register_inc t id inc =
  let cap = Array.length t.inc_by_id in
  if id >= cap then begin
    let arr = Array.make (max (id + 1) (cap * 2)) None in
    Array.blit t.inc_by_id 0 arr 0 cap;
    t.inc_by_id <- arr
  end;
  t.inc_by_id.(id) <- Some inc;
  t.live_incs <- t.live_incs + 1

(* Pre-grow the id mirror so [register_inc] never swaps the array out
   from under the parallel collector's lock-free forward path. *)
let reserve_inc_ids t n =
  let cap = Array.length t.inc_by_id in
  if n > cap then begin
    let arr = Array.make (max n (cap * 2)) None in
    Array.blit t.inc_by_id 0 arr 0 cap;
    t.inc_by_id <- arr
  end

let new_increment t ~belt =
  let id = t.next_inc_id in
  t.next_inc_id <- id + 1;
  let inc =
    Increment.create ~id ~belt
      ~stamp:(stamp_for_belt t belt)
      ~bound_frames:t.belt_bounds.(belt)
  in
  register_inc t id inc;
  Belt.push_back t.belts.(belt) inc;
  (match t.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h -> h.on_belt_advance ~belt ~inc_id:id ~stamp:inc.Increment.stamp)
      hs);
  inc

let grant_frame t inc ~during_gc =
  if t.frames_used >= t.heap_frames then
    raise
      (Out_of_memory
         (Printf.sprintf
            "frame budget exhausted (%d frames)%s" t.heap_frames
            (if during_gc then " during collection: copy reserve insufficient"
             else "")));
  let frame = Memory.alloc_frame t.mem in
  t.frames_used <- t.frames_used + 1;
  t.stats.Gc_stats.frames_allocated <- t.stats.Gc_stats.frames_allocated + 1;
  if t.frames_used > t.stats.Gc_stats.peak_frames then
    t.stats.Gc_stats.peak_frames <- t.frames_used;
  Frame_table.set t.ftab ~frame ~stamp:inc.Increment.stamp ~incr:inc.Increment.id
    ~pinned:false;
  Increment.add_frame inc t.mem frame;
  match t.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h -> h.on_frame_grant ~frame ~belt:inc.Increment.belt ~during_gc)
      hs

let open_inc t ~belt =
  match Belt.back t.belts.(belt) with
  | Some inc
    when (not inc.Increment.sealed) && (not (Increment.at_bound inc))
         && not inc.Increment.in_plan ->
    inc
  | _ -> new_increment t ~belt

let free_frame t inc frame =
  Remset.drop_frame t.remsets frame;
  Card_table.clear t.cards ~frame;
  Frame_table.clear t.ftab ~frame;
  Memory.free_frame t.mem frame;
  t.frames_used <- t.frames_used - 1;
  match t.hooks with
  | [] -> ()
  | hs -> List.iter (fun h -> h.on_frame_free ~frame ~belt:inc.Increment.belt) hs

let free_increment t inc =
  Beltway_util.Int_vec.iter (free_frame t inc) inc.Increment.frames;
  Belt.remove t.belts.(inc.Increment.belt) inc;
  t.inc_by_id.(inc.Increment.id) <- None;
  t.live_incs <- t.live_incs - 1

let inc_of_frame t frame =
  let id = Frame_table.incr_of t.ftab frame in
  if id < 0 then None else t.inc_by_id.(id)

let live_increments t =
  (* Front-to-back per belt, belts in index order: built back-to-front
     with direct conses — no intermediate per-belt lists. *)
  let acc = ref [] in
  for bi = Array.length t.belts - 1 downto 0 do
    acc := Belt.fold_right t.belts.(bi) ~init:!acc ~f:(fun i tail -> i :: tail)
  done;
  !acc

let frame_of_addr t a = Memory.addr_frame t.mem a
let stamp_of_addr t a = Frame_table.stamp t.ftab (frame_of_addr t a)

let regular_belts t = Array.length t.config.Config.belts

let los_belt t =
  if t.config.Config.los_threshold <> None then Some (regular_belts t) else None

let new_pinned_increment t ~size =
  let belt =
    match los_belt t with
    | Some b -> b
    | None -> invalid_arg "State.new_pinned_increment: no large object space"
  in
  let fw = Memory.frame_words t.mem in
  let k = (size + fw - 1) / fw in
  if t.frames_used + k > t.heap_frames then
    raise
      (Out_of_memory
         (Printf.sprintf "large object of %d words does not fit (%d frames needed, %d free)"
            size k (t.heap_frames - t.frames_used)));
  let frames =
    try Memory.alloc_frames_contiguous t.mem k
    with Memory.Out_of_frames ->
      raise
        (Out_of_memory
           (Printf.sprintf
              "large object of %d words: no run of %d contiguous free frames in \
               frames [1, %d]"
              size k (Memory.max_frames t.mem)))
  in
  t.frames_used <- t.frames_used + k;
  t.stats.Gc_stats.frames_allocated <- t.stats.Gc_stats.frames_allocated + k;
  if t.frames_used > t.stats.Gc_stats.peak_frames then
    t.stats.Gc_stats.peak_frames <- t.frames_used;
  let id = t.next_inc_id in
  t.next_inc_id <- id + 1;
  let stamp = stamp_for_belt t belt in
  let inc = Increment.create_pinned ~id ~belt ~stamp ~frames t.mem ~size in
  List.iter
    (fun frame -> Frame_table.set t.ftab ~frame ~stamp ~incr:id ~pinned:true)
    frames;
  register_inc t id inc;
  Belt.push_back t.belts.(belt) inc;
  (match t.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h ->
        h.on_belt_advance ~belt ~inc_id:id ~stamp;
        List.iter
          (fun frame -> h.on_frame_grant ~frame ~belt ~during_gc:false)
          frames)
      hs);
  inc

let flip_belts t =
  if not t.config.Config.flip then
    invalid_arg "State.flip_belts: configuration does not flip";
  Belt.swap_contents t.belts.(0) t.belts.(1);
  t.epoch <- t.epoch + 1
