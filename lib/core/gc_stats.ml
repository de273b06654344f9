module Vec = Beltway_util.Vec

type reason =
  | Heap_full
  | Nursery
  | Remset
  | Forced
  | Full

let reason_to_string = function
  | Heap_full -> "heap-full"
  | Nursery -> "nursery"
  | Remset -> "remset"
  | Forced -> "forced"
  | Full -> "full"

let reason_of_string = function
  | "heap-full" -> Some Heap_full
  | "nursery" -> Some Nursery
  | "remset" -> Some Remset
  | "forced" -> Some Forced
  | "full" -> Some Full
  | _ -> None

let all_reasons = [ Heap_full; Nursery; Remset; Forced; Full ]

type gc_phase =
  | Phase_roots
  | Phase_remset
  | Phase_cards
  | Phase_cheney
  | Phase_mark
  | Phase_sweep
  | Phase_compact
  | Phase_free

let phase_to_string = function
  | Phase_roots -> "roots"
  | Phase_remset -> "remset-drain"
  | Phase_cards -> "card-drain"
  | Phase_cheney -> "cheney-copy"
  | Phase_mark -> "mark"
  | Phase_sweep -> "sweep"
  | Phase_compact -> "compact"
  | Phase_free -> "frame-free"

let all_phases =
  [
    Phase_roots;
    Phase_remset;
    Phase_cards;
    Phase_cheney;
    Phase_mark;
    Phase_sweep;
    Phase_compact;
    Phase_free;
  ]

let now_ns () = 1000 * Float.to_int (Float.round (Unix.gettimeofday () *. 1e6))

type domain_report = {
  d_domain : int;
  d_phase_ns : int array;
  d_copied_objects : int;
  d_copied_words : int;
  d_scanned_slots : int;
  d_steals : int;
  d_cas_retries : int;
}

type collection = {
  n : int;
  reason : reason;
  emergency : bool;
  clock_words : int;
  plan_incs : int;
  plan_frames : int;
  plan_words : int;
  full_heap : bool;
  copied_words : int;
  copied_objects : int;
  scanned_slots : int;
  remset_slots : int;
  roots_scanned : int;
  freed_frames : int;
  heap_frames_after : int;
  reserve_frames : int;
  marked_objects : int;
  marked_words : int;
  swept_words : int;
  moved_words : int;
  start_ns : int;
  pause_ns : int;
  phases : gc_phase array;
  phase_ns : int array;
  belt_frames : int array;
  remset_entries : int;
  domains : domain_report array;
}

let collection_label c =
  reason_to_string c.reason ^ if c.emergency then "-emergency" else ""

let dummy_collection =
  {
    n = -1;
    reason = Forced;
    emergency = false;
    clock_words = 0;
    plan_incs = 0;
    plan_frames = 0;
    plan_words = 0;
    full_heap = false;
    copied_words = 0;
    copied_objects = 0;
    scanned_slots = 0;
    remset_slots = 0;
    roots_scanned = 0;
    freed_frames = 0;
    heap_frames_after = 0;
    reserve_frames = 0;
    marked_objects = 0;
    marked_words = 0;
    swept_words = 0;
    moved_words = 0;
    start_ns = 0;
    pause_ns = 0;
    phases = [||];
    phase_ns = [||];
    belt_frames = [||];
    remset_entries = 0;
    domains = [||];
  }

let iter_spans phases ns f =
  for i = 0 to min (Array.length phases) (Array.length ns / 2) - 1 do
    f phases.(i) ~start_ns:ns.(2 * i) ~dur_ns:ns.((2 * i) + 1)
  done

(* Every field but the wall-clock ones: two runs of one deterministic
   workload agree on this exactly. *)
let untimed c =
  {
    c with
    start_ns = 0;
    pause_ns = 0;
    phase_ns = [||];
    domains = Array.map (fun d -> { d with d_phase_ns = [||] }) c.domains;
  }

let same_untimed a b = untimed a = untimed b

type t = {
  mutable config_label : string;
  mutable policy_name : string;
  mutable strategy_name : string;
  mutable words_allocated : int;
  mutable objects_allocated : int;
  mutable barrier_ops : int;
  mutable barrier_fast : int;
  mutable barrier_slow : int;
  mutable barrier_filtered : int;
  mutable frames_allocated : int;
  mutable peak_frames : int;
  collections : collection Vec.t;
}

let create () =
  {
    config_label = "";
    policy_name = "";
    strategy_name = "";
    words_allocated = 0;
    objects_allocated = 0;
    barrier_ops = 0;
    barrier_fast = 0;
    barrier_slow = 0;
    barrier_filtered = 0;
    frames_allocated = 0;
    peak_frames = 0;
    collections = Vec.create ~dummy:dummy_collection ();
  }

let record_collection t c = Vec.push t.collections c
let gcs t = Vec.length t.collections

let last t =
  let n = gcs t in
  if n = 0 then None else Some (Vec.get t.collections (n - 1))

let total_copied_words t =
  Vec.fold (fun acc c -> acc + c.copied_words) 0 t.collections

let total_freed_frames t =
  Vec.fold (fun acc c -> acc + c.freed_frames) 0 t.collections

(* All derived ratios below are guarded: a run with no collections (or
   no barrier activity) must print zeros, never a NaN or a division
   crash. *)
let pp_summary fmt t =
  let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  let per num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den in
  let n = gcs t in
  (* The attribution header prints only for statistics belonging to a
     heap (State.create fills both fields); a bare [create ()] keeps
     the historical four-line shape. *)
  Format.fprintf fmt "@[<v>";
  (* The strategy is named only when it departs from the default
     copying collector, so pre-strategy output is preserved byte for
     byte. *)
  if t.config_label <> "" || t.policy_name <> "" then
    if t.strategy_name = "" || t.strategy_name = "copying" then
      Format.fprintf fmt "collector: %s [policy %s]@," t.config_label
        t.policy_name
    else
      Format.fprintf fmt "collector: %s [policy %s, strategy %s]@,"
        t.config_label t.policy_name t.strategy_name;
  Format.fprintf fmt
    "allocated: %d words in %d objects@,\
     barriers: %d (%d fast, %d slow, %d filtered = %.1f%%)@,\
     collections: %d (copied %d words, freed %d frames, peak %d frames)@,\
     per GC: %.1f words copied, %.1f frames freed, %.1f remset slots@]"
    t.words_allocated t.objects_allocated t.barrier_ops t.barrier_fast t.barrier_slow
    t.barrier_filtered
    (pct t.barrier_filtered t.barrier_ops)
    n (total_copied_words t) (total_freed_frames t) t.peak_frames
    (per (total_copied_words t) n)
    (per (total_freed_frames t) n)
    (per (Vec.fold (fun acc c -> acc + c.remset_slots) 0 t.collections) n)
