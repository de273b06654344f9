type t = State.t

exception Out_of_memory = State.Out_of_memory

let stamp_boot_frames st =
  List.iter
    (fun frame ->
      Frame_table.set st.State.ftab ~frame ~stamp:Frame_table.immortal_stamp
        ~incr:(-1) ~pinned:false)
    (Boot_space.frames st.State.boot)

(* BELTWAY_GC_DOMAINS: process-wide default for the number of domains a
   collection fans out over; an explicit [?gc_domains] overrides it. *)
let env_gc_domains () =
  match Sys.getenv_opt "BELTWAY_GC_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

(* A domain count within [1, Team.max_size], or an error naming where
   it came from. *)
let check_domain_count ~source n =
  if n < 1 then Error (Printf.sprintf "%s must be >= 1 (got %d)" source n)
  else if n > Beltway_util.Team.max_size then
    Error
      (Printf.sprintf "%s %d exceeds the limit of %d domains" source n
         Beltway_util.Team.max_size)
  else Ok n

(* Everything [create] rejects, as a result: the policy, the strategy,
   the domain count ([gc_domains], else the environment default, else
   1), then the strategy against that count. *)
let resolve ?gc_domains config =
  let ( let* ) = Result.bind in
  let* policy = Policy.resolve config in
  let* strategy = Strategy.resolve config in
  let* gc_domains =
    match gc_domains, env_gc_domains () with
    | Some n, _ -> check_domain_count ~source:"--gc-domains" n
    | None, Some n -> check_domain_count ~source:"BELTWAY_GC_DOMAINS" n
    | None, None -> Ok 1
  in
  let* () = Strategy.check_domains strategy ~gc_domains in
  Ok (policy, strategy, gc_domains)

let validate ?gc_domains config = Result.map ignore (resolve ?gc_domains config)

let create ?(frame_log_words = 10) ?gc_domains ~config ~heap_bytes () =
  let frame_bytes = (1 lsl frame_log_words) * Addr.bytes_per_word in
  let heap_frames = max 4 ((heap_bytes + frame_bytes - 1) / frame_bytes) in
  let policy, strategy, gc_domains =
    match resolve ?gc_domains config with
    | Ok r -> r
    | Error e -> invalid_arg ("Gc.create: " ^ e)
  in
  let st = State.create ~strategy ~config ~policy ~heap_frames ~frame_log_words () in
  stamp_boot_frames st;
  st.State.gc_domains <- gc_domains;
  st

let register_type st ~name =
  let id =
    try Type_registry.register st.State.types ~name
    with Memory.Out_of_frames ->
      raise
        (Out_of_memory
           (Printf.sprintf
              "type %S: the boot space needs a frame beyond its %d-frame allowance \
               (frames [1, %d])"
              name Boot_space.max_frames (Memory.max_frames st.State.mem)))
  in
  (* Type registration may have mapped new boot frames; keep their
     stamps immortal. *)
  stamp_boot_frames st;
  id

let tib_value st ty = Type_registry.tib_value st.State.types ty

let alloc_hooks hs ~addr ~tib ~nfields =
  List.iter (fun (h : State.hooks) -> h.State.on_alloc ~addr ~tib ~nfields) hs

let[@inline] finish_alloc_tib st ~tib ~nfields ~size addr =
  Object_model.init st.State.mem addr ~tib ~nfields;
  let stats = st.State.stats in
  stats.Gc_stats.words_allocated <- stats.Gc_stats.words_allocated + size;
  stats.Gc_stats.objects_allocated <- stats.Gc_stats.objects_allocated + 1;
  (* The TIB initialising write goes through the write barrier, exactly
     the Jikes RVM behaviour that motivates the nursery filter. *)
  Write_barrier.record st ~slot:(Object_model.tib_addr addr)
    ~target:(Value.to_addr tib);
  (match st.State.hooks with
  | [] -> ()
  | hs -> alloc_hooks hs ~addr ~tib ~nfields);
  addr

let finish_alloc st ~ty ~nfields ~size addr =
  finish_alloc_tib st ~tib:(tib_value st ty) ~nfields ~size addr

(* The narrow fast-path entry point the bytecode VM inlines at its
   allocating opcodes: the nursery bump hit of [alloc], nothing else.
   Returns [Addr.null] whenever the slow path must run — LOS-sized
   request, no open nursery, or no room — having had no side effect
   at all ([bump_or_null] is side-effect-free on failure), so the
   caller's fallback to [alloc] replays from the same state and the
   two paths compose to exactly [alloc]'s behaviour: same stats, same
   barrier traffic, same hooks. *)
let[@inline] alloc_small_fast st ~tib ~nfields =
  let size = Object_model.size_words ~nfields in
  let large =
    match st.State.config.Config.los_threshold with
    | Some threshold -> size >= threshold
    | None -> false
  in
  if large then Addr.null
  else
    match Belt.back st.State.belts.(0) with
    | Some inc when not inc.Increment.sealed ->
      let addr = Increment.bump_or_null inc ~size in
      if addr = Addr.null then Addr.null
      else finish_alloc_tib st ~tib ~nfields ~size addr
    | _ -> Addr.null

let alloc st ~ty ~nfields =
  if nfields < 0 then invalid_arg "Gc.alloc: negative field count";
  let size = Object_model.size_words ~nfields in
  match st.State.config.Config.los_threshold with
  | Some threshold when size >= threshold ->
    let inc = Schedule.alloc_large st ~size in
    finish_alloc st ~ty ~nfields ~size (Increment.base_object inc st.State.mem)
  | _ ->
    (* The open nursery's bump first: when it succeeds it is exactly
       what [prepare_alloc] would return and bump (the composition
       [alloc_small_fast] relies on too), without the schedule call. *)
    let addr =
      match Belt.back st.State.belts.(0) with
      | Some inc -> Increment.bump_or_null inc ~size
      | None -> Addr.null
    in
    let addr =
      if addr <> Addr.null then addr
      else begin
        let nur = Schedule.prepare_alloc st ~size in
        (* Bump, falling back to the increment's free list (mark-sweep
           holes); identical to a plain bump when the list is empty. *)
        let addr = Increment.alloc_or_null nur st.State.mem ~size in
        if addr = Addr.null then
          (* prepare_alloc guarantees room; reaching here is a scheduler bug. *)
          invalid_arg "Gc.alloc: internal error: nursery bump failed after prepare";
        addr
      end
    in
    finish_alloc st ~ty ~nfields ~size addr

let alloc_pretenured st ~ty ~nfields ~belt =
  if nfields < 0 then invalid_arg "Gc.alloc_pretenured: negative field count";
  let size = Object_model.size_words ~nfields in
  match st.State.config.Config.los_threshold with
  | Some threshold when size >= threshold ->
    (* Large objects are already segregated; the LOS overrides. *)
    let inc = Schedule.alloc_large st ~size in
    finish_alloc st ~ty ~nfields ~size (Increment.base_object inc st.State.mem)
  | _ ->
    let inc = Schedule.prepare_alloc_in st ~belt ~size in
    let addr = Increment.alloc_or_null inc st.State.mem ~size in
    if addr = Addr.null then
      invalid_arg "Gc.alloc_pretenured: internal error: bump failed";
    finish_alloc st ~ty ~nfields ~size addr

let write st obj i v =
  Object_model.set_field st.State.mem obj i v;
  if Value.is_ref v then
    Write_barrier.record st ~slot:(Object_model.field_addr obj i)
      ~target:(Value.to_addr v);
  match st.State.hooks with
  | [] -> ()
  | hs -> List.iter (fun h -> h.State.on_write ~obj ~field:i ~value:v) hs

let read st obj i = Object_model.get_field st.State.mem obj i
let nfields st obj = Object_model.nfields st.State.mem obj
let type_of st obj = Type_registry.id_of_tib st.State.types (Object_model.tib st.State.mem obj)
let roots st = st.State.roots
let stats st = st.State.stats
let config st = st.State.config
let policy_name st = st.State.policy.State.policy_name
let strategy_name st = st.State.strategy.State.strategy_name
let collect st = ignore (Schedule.collect_now st ~reason:Gc_stats.Forced)
let full_collect st = ignore (Schedule.full_collect st)
let heap_frames st = st.State.heap_frames
let frame_bytes st = Memory.frame_bytes st.State.mem
let heap_bytes st = heap_frames st * frame_bytes st
let frames_used st = st.State.frames_used
let words_allocated st = st.State.stats.Gc_stats.words_allocated
let bytes_allocated st = words_allocated st * Addr.bytes_per_word
let live_words_upper_bound st = State.live_words st
let reserve_frames st = Copy_reserve.frames st
let set_gc_domains st n =
  let ( let* ) = Result.bind in
  match
    let* n = check_domain_count ~source:"gc_domains" n in
    Strategy.check_domains st.State.strategy ~gc_domains:n
  with
  | Ok () -> st.State.gc_domains <- n
  | Error e -> invalid_arg ("Gc.set_gc_domains: " ^ e)
let gc_domains st = st.State.gc_domains
let state st = st
let register_site st ~name = State.register_site st ~name
let set_alloc_site st site = st.State.alloc_site <- site
let alloc_site st = st.State.alloc_site
let site_name st id = State.site_name st id
let site_count st = State.site_count st
let type_name st ty = Type_registry.name st.State.types ty

let pp_heap fmt st =
  Format.fprintf fmt "@[<v>heap: %d/%d frames used, reserve %d, remsets %d entries"
    st.State.frames_used st.State.heap_frames (Copy_reserve.frames st)
    (Remset.total_entries st.State.remsets);
  if st.State.policy.State.barrier = State.Barrier_cards then
    Format.fprintf fmt ", %d dirty cards" (Card_table.dirty_count st.State.cards);
  Array.iter
    (fun belt ->
      let name =
        match State.los_belt st with
        | Some b when b = Belt.index belt -> "LOS"
        | _ -> string_of_int (Belt.index belt)
      in
      Format.fprintf fmt "@,belt %s (%d increments):" name (Belt.length belt);
      Belt.iter belt (fun (i : Increment.t) ->
          Format.fprintf fmt "@,  inc %d stamp=%d frames=%d words=%d%s%s" i.Increment.id
            i.Increment.stamp (Increment.frame_count i) i.Increment.words_used
            (if i.Increment.sealed then " sealed" else "")
            (if i.Increment.pinned then " pinned" else "")))
    st.State.belts;
  Format.fprintf fmt "@]"
