(* Policies are built from the mechanism modules below them: target
   choice over [Belt]/[Increment], trigger predicates from [Trigger],
   reserve rules from [Copy_reserve]. [Schedule], [Write_barrier],
   [Collector] and [Copy_reserve] dispatch through the installed
   record; nothing in them names a collector family. *)

type of_config = Config.t -> (State.policy, string) result

(* ---- target choice ------------------------------------------------- *)

(* Front increments, one per non-empty belt, in belt order. *)
let fronts st = Array.to_list st.State.belts |> List.filter_map Belt.front

let min_stamp_front st =
  fronts st
  |> List.filter (fun (i : Increment.t) -> Increment.occupancy_frames i > 0)
  |> List.fold_left
       (fun acc (i : Increment.t) ->
         match acc with
         | Some (b : Increment.t) when b.Increment.stamp <= i.Increment.stamp -> acc
         | _ -> Some i)
       None

(* A front increment below this occupancy is "not worthwhile": the
   paper's "small fixed threshold" under which the heap is considered
   full. *)
let min_useful_frames = 2

let worthwhile (i : Increment.t) =
  Increment.occupancy_frames i >= min_useful_frames

(* Global-FIFO target (semi-space, older-first): the globally oldest
   non-empty front. *)
let fifo_target st = Option.to_list (min_stamp_front st)

(* Lowest-belt target (generational / Beltway): the front increment of
   the lowest belt whose front is worth collecting, followed by
   lower-belt fall-backs for feasibility degradation. *)
let lowest_belt_target st =
  (* Empty increments are never useful targets: collecting one frees
     nothing and stalls the cascade. *)
  let fs =
    List.filter (fun (i : Increment.t) -> Increment.occupancy_frames i > 0) (fronts st)
  in
  (* Middle-belt fullness (paper S3.2: "when the higher belt becomes
     full, it collects the oldest increment in the higher belt"): a
     bounded middle belt holding more than two increments' worth is
     full — drain its front now, so garbage flows on to the top belt
     instead of accumulating until the terminal collection can no
     longer be afforded. The paper's steady state for 33.33 — "two
     completely full increments on belt 1" — is exactly this bound. *)
  let nbelts = State.regular_belts st in
  let overflowing =
    List.filter
      (fun (i : Increment.t) ->
        let b = i.Increment.belt in
        b > 0 && b < nbelts - 1
        &&
        match st.State.belt_bounds.(b) with
        | Some x -> Belt.occupancy_frames st.State.belts.(b) > 2 * x
        | None -> false)
      fs
    |> List.rev (* highest such belt first *)
  in
  let first_worthwhile = List.find_opt worthwhile fs in
  let chosen =
    match (overflowing, first_worthwhile) with
    | o :: _, _ -> Some o
    | [], Some i -> Some i
    | [], None -> (
      (* Nothing worthwhile: take the highest non-empty belt (the
         paper's "heap is considered full" case forcing a major
         collection). *)
      match List.rev fs with last :: _ -> Some last | [] -> None)
  in
  match chosen with
  | None -> []
  | Some c ->
    (* Degradation candidates: every front on a belt lower than or
       equal to the chosen one, highest belt first. *)
    List.filter (fun (i : Increment.t) -> i.Increment.belt <= c.Increment.belt) fs
    |> List.rev

let max_stamp_increment st =
  List.fold_left
    (fun acc (i : Increment.t) ->
      match acc with
      | Some (b : Increment.t) when b.Increment.stamp >= i.Increment.stamp -> acc
      | _ -> Some i)
    None (State.live_increments st)

(* ---- shared cascade pieces ----------------------------------------- *)

(* Generational / Beltway cascade, in the order the paper's triggers
   compose: remset threshold, nursery bound, heap-full, time-to-die. *)
let generational_alloc_trigger st ~size =
  if Trigger.remset_due st then State.Alloc_collect Gc_stats.Remset
  else if Trigger.nursery_full st ~size then State.Alloc_collect Gc_stats.Nursery
  else if Trigger.heap_full st ~incoming_frames:1 then
    State.Alloc_collect Gc_stats.Heap_full
  else if Trigger.ttd_due st then State.Alloc_split_nursery
  else State.Alloc_grant

(* FIFO cascade: a nursery at its bound is not a reason to collect
   young objects (there is no "young"); open another window on the
   allocation belt instead, unless the heap is full. *)
let fifo_alloc_trigger st ~size =
  if Trigger.remset_due st then State.Alloc_collect Gc_stats.Remset
  else if Trigger.nursery_full st ~size then
    if Trigger.heap_full st ~incoming_frames:1 then
      State.Alloc_collect Gc_stats.Heap_full
    else State.Alloc_open_nursery
  else if Trigger.heap_full st ~incoming_frames:1 then
    State.Alloc_collect Gc_stats.Heap_full
  else if Trigger.ttd_due st then State.Alloc_split_nursery
  else State.Alloc_grant

(* Pretenured allocation: only the heap-full and remset triggers apply
   — nursery-specific triggers (bound, TTD) govern belt 0 only. *)
let pretenure_trigger st =
  if Trigger.remset_due st then State.Alloc_collect Gc_stats.Remset
  else if Trigger.heap_full st ~incoming_frames:1 then
    State.Alloc_collect Gc_stats.Heap_full
  else State.Alloc_grant

let large_trigger st ~incoming_frames =
  if Trigger.remset_due st then State.Alloc_collect Gc_stats.Remset
  else if Trigger.heap_full st ~incoming_frames then
    State.Alloc_collect Gc_stats.Heap_full
  else State.Alloc_grant

(* ---- configuration plumbing ---------------------------------------- *)

let promote_of_config (cfg : Config.t) =
  let regular = Array.length cfg.Config.belts in
  Array.init regular (fun b ->
      match cfg.Config.belts.(b).Config.promote with
      | Config.Same_belt -> b
      | Config.Next_belt -> if b + 1 < regular then b + 1 else b)

let barrier_of_config (cfg : Config.t) =
  match cfg.Config.barrier with
  | Config.Cards -> State.Barrier_cards
  | Config.Remsets ->
    State.Barrier_remsets { nursery_filter = cfg.Config.nursery_filter }

let reserve_of_config (cfg : Config.t) =
  match cfg.Config.reserve with
  | Config.Half -> Copy_reserve.half_frames
  | Config.Dynamic -> Copy_reserve.dynamic_frames

(* BOF: when the allocation belt has emptied, the belts flip before
   allocation resumes. *)
let refresh_of_config (cfg : Config.t) =
  if cfg.Config.flip then (fun st ->
    if
      Belt.is_empty st.State.belts.(0)
      && not (Belt.is_empty st.State.belts.(1))
    then State.flip_belts st)
  else fun _st -> ()

let belt_major_priority _st ~belt = belt
let epoch_priority st ~belt = st.State.epoch + belt

(* The explicit "name[:arg]" spec carried by the configuration, split. *)
let spec_parts (cfg : Config.t) =
  match cfg.Config.policy with
  | None -> (None, None)
  | Some spec -> (
    match String.index_opt spec ':' with
    | None -> (Some spec, None)
    | Some i ->
      ( Some (String.sub spec 0 i),
        Some (String.sub spec (i + 1) (String.length spec - i - 1)) ))

let no_arg name cfg k =
  match snd (spec_parts cfg) with
  | None -> Ok k
  | Some a -> Error (Printf.sprintf "policy %s takes no argument (got %S)" name a)

(* ---- the registered policies --------------------------------------- *)

let beltway_of cfg =
  no_arg "beltway" cfg
    {
      State.policy_name = "beltway";
      barrier = barrier_of_config cfg;
      promote = promote_of_config cfg;
      stamp_priority = belt_major_priority;
      target = lowest_belt_target;
      reserve_frames = reserve_of_config cfg;
      alloc_trigger = generational_alloc_trigger;
      pretenure_trigger;
      large_trigger;
      refresh_nursery = refresh_of_config cfg;
    }

let older_first_of cfg =
  (* The nursery-source filter assumes the nursery's stamp is globally
     minimal; under epoch stamping an increment surviving a flip can be
     older than the nursery, so the filtered store would have needed a
     remset entry. Config.validate catches filtered Epoch parses; this
     guards the explicit +policy override path. *)
  if cfg.Config.nursery_filter then
    Error "policy older-first: the nursery-source filter is unsound under FIFO order"
  else
    no_arg "older-first" cfg
      {
        State.policy_name = "older-first";
        barrier = barrier_of_config cfg;
        promote = promote_of_config cfg;
        stamp_priority = epoch_priority;
        target = fifo_target;
        reserve_frames = reserve_of_config cfg;
        alloc_trigger = fifo_alloc_trigger;
        pretenure_trigger;
        large_trigger;
        refresh_nursery = refresh_of_config cfg;
      }

(* The collector the old knobs could not express: belt-major Beltway
   scheduling whose every [period]-th collection widens its target to
   the whole heap. It buys completeness for incomplete X.Y
   configurations by *schedule* rather than by a third belt — no knob
   combination could periodically force a full-heap plan. Sound for
   free: any target's downward closure is a sound plan. *)
let sweep_of cfg =
  let period =
    match snd (spec_parts cfg) with
    | None -> Ok 8
    | Some a -> (
      match int_of_string_opt a with
      | Some k when k >= 2 -> Ok k
      | Some k -> Error (Printf.sprintf "policy sweep: period %d must be >= 2" k)
      | None ->
        Error (Printf.sprintf "policy sweep: expected an integer period, got %S" a))
  in
  Result.map
    (fun period ->
      {
        State.policy_name = "sweep";
        barrier = barrier_of_config cfg;
        promote = promote_of_config cfg;
        stamp_priority = belt_major_priority;
        target =
          (fun st ->
            let base = lowest_belt_target st in
            if (Gc_stats.gcs st.State.stats + 1) mod period = 0 then
              match max_stamp_increment st with
              | Some top -> top :: base
              | None -> base
            else base);
        reserve_frames = reserve_of_config cfg;
        alloc_trigger = generational_alloc_trigger;
        pretenure_trigger;
        large_trigger;
        refresh_nursery = refresh_of_config cfg;
      })
    period

(* ---- registry ------------------------------------------------------ *)

type info = {
  key : string;
  of_config : of_config;
  summary : string;
  exemplar_config : string;
}

let infos =
  [
    {
      key = "beltway";
      of_config = beltway_of;
      summary =
        "belt-major generational scheduling: collect the lowest worthwhile \
         belt front (BSS-as-one-belt, Appel, fixed nursery, Beltway X.Y and \
         X.Y.100)";
      exemplar_config = "25.25.100";
    };
    {
      key = "older-first";
      of_config = older_first_of;
      summary =
        "global-FIFO scheduling under epoch stamps: always collect the \
         globally oldest increment (BSS, BOFM, BOF with belt flipping)";
      exemplar_config = "of:25";
    };
    {
      key = "sweep";
      of_config = sweep_of;
      summary =
        "beltway scheduling whose every Nth collection targets the whole \
         heap: completeness by schedule for incomplete X.Y configurations \
         (+policy:sweep:N, default 8)";
      exemplar_config = "25.25+policy:sweep:6";
    };
  ]

let registry : (string * of_config) list =
  List.map (fun i -> (i.key, i.of_config)) infos

let names = List.map (fun i -> i.key) infos

let info_exn key =
  match List.find_opt (fun i -> i.key = key) infos with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Policy: unknown policy %S" key)

let describe key = (info_exn key).summary
let exemplar key = (info_exn key).exemplar_config
let name (p : State.policy) = p.State.policy_name

(* ---- resolution ---------------------------------------------------- *)

let default_name (cfg : Config.t) =
  match cfg.Config.order with
  | Config.Lowest_belt -> "beltway"
  | Config.Global_fifo -> "older-first"

let resolve (cfg : Config.t) =
  let key =
    match fst (spec_parts cfg) with Some n -> n | None -> default_name cfg
  in
  match List.assoc_opt key registry with
  | Some of_config -> of_config cfg
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (registered: %s)" key
         (String.concat ", " names))

let resolve_exn cfg =
  match resolve cfg with
  | Ok p -> p
  | Error e -> invalid_arg ("Policy.resolve: " ^ e)
