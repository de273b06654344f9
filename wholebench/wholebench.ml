(* Whole-run benchmark for the Beltway simulator.

   Usage:
     wholebench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one named workload for about S seconds of measured passes and
   prints, as the last line of standard output, one JSON object with
   the keys [correct], [attempted], [failed] and [metrics]. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1]
   the per-layer ones (collector phases timed by benchmark-owned
   hooks, plus layer fixtures that each time one public function).
   Every metric, workload and seed band is documented in README.md
   next to this file.

   The benchmark only calls the public library API: [Gc.create],
   [Spec.run], [Sexp.parse_string], [Ast.compile], [Compile.compile],
   [Vm.run_compiled] and the functions its fixtures time. It never
   changes the library. *)

open Beltway_heap
open Beltway
module Spec = Beltway_workload.Spec
module Cost_model = Beltway_sim.Cost_model
module Runner = Beltway_sim.Runner
module Programs = Beltlang.Programs
module Vec = Beltway_util.Vec

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default "exclusive" method), so the numbers printed here match
   what a reader computes from the same samples. *)
let quantile_exclusive a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let m = float (n + 1) *. p in
    let j = truncate m in
    let delta = m -. float j in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile over many samples (pause times). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float n)) - 1)))

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* A cell is one whole run: one Spec program under one configuration
   at one simulated heap size. *)
type cell = { bench : Spec.t; config_label : string; config : Config.t; frames : int }

let spec name =
  match Spec.by_name name with
  | Some b -> b
  | None -> failwith ("unknown Spec workload " ^ name)

let config_of label =
  match Config.parse label with
  | Ok c -> c
  | Error e -> failwith (Printf.sprintf "bad configuration %s: %s" label e)

(* Nominal heap sizes in frames (4 KiB each), fixed here so that a
   change which moves a minimum heap does not move the workload.
   [appel_min] is the appel minimum heap at the time the benchmark was
   written; spec-tight runs at 1.1x it, spec-inplace at 3x. *)
let appel_min =
  [ ("jess", 97); ("raytrace", 87); ("db", 131); ("javac", 133); ("jack", 55);
    ("pseudojbb", 249) ]

let tight_frames =
  [ ("jess", 107); ("raytrace", 96); ("db", 144); ("javac", 146); ("jack", 61);
    ("pseudojbb", 274) ]

let roomy_frames = List.map (fun (n, m) -> (n, 3 * m)) appel_min

(* The seed draws every cell's heap size uniformly from this band
   around its nominal size: +/- 2%, at least +/- 1 frame. Every size in
   every band completes under its configuration (checked by
   [--check-bands]), so any seed is a valid run. *)
let band_pct = 2
let band nominal = max 1 (nominal * band_pct / 100)

let draw_frames rng nominal =
  let b = band nominal in
  nominal - b + Random.State.int rng ((2 * b) + 1)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type nominal = { n_bench : string; n_config : string; n_frames : int }

let nominal_cells = function
  | "spec-tight" ->
    List.concat_map
      (fun cfg ->
        List.map (fun (b, f) -> { n_bench = b; n_config = cfg; n_frames = f }) tight_frames)
      [ "25.25.100"; "appel" ]
  | "spec-inplace" ->
    List.map
      (fun (b, f) ->
        { n_bench = b; n_config = "25.25.100+strategy:markcompact"; n_frames = f })
      roomy_frames
    @ List.map
        (fun b ->
          {
            n_bench = b;
            n_config = "25.25.100+strategy:marksweep";
            n_frames = List.assoc b roomy_frames;
          })
        [ "raytrace"; "db"; "pseudojbb" ]
  | w -> invalid_arg ("no Spec cells for workload " ^ w)

let make_cell n frames =
  {
    bench = spec n.n_bench;
    config_label = n.n_config;
    config = config_of n.n_config;
    frames;
  }

(* Beltlang programs run under this configuration and nominal heap. *)
let beltlang_config = "25.25.100"
let beltlang_frames = 512 * 1024 / Runner.frame_bytes

let workloads = [ "spec-tight"; "spec-inplace"; "beltlang" ]

let new_heap ?gc_domains config frames =
  Gc.create ~frame_log_words:Runner.frame_log_words ?gc_domains ~config
    ~heap_bytes:(frames * Runner.frame_bytes) ()

(* ------------------------------------------------------------------ *)
(* Collection tracing: benchmark-owned hooks                            *)

let phase_index = function
  | Gc_stats.Phase_roots -> 0
  | Phase_remset -> 1
  | Phase_cards -> 2
  | Phase_cheney -> 3
  | Phase_mark -> 4
  | Phase_sweep -> 5
  | Phase_compact -> 6
  | Phase_free -> 7

let phase_names =
  [|
    "roots_s"; "remset_s"; "cards_s"; "cheney_s"; "mark_s"; "sweep_s"; "compact_s"; "free_s";
  |]

type tracer = {
  mutable gc_start : float;
  mutable pauses : float list;  (** seconds, one per collection *)
  phase_start : float array;
  phase_total : float array;
  mutable holes : float list;  (** free-list holes in the heap after each collection *)
}

let new_tracer () =
  {
    gc_start = 0.0;
    pauses = [];
    phase_start = Array.make 8 0.0;
    phase_total = Array.make 8 0.0;
    holes = [];
  }

let busy tr = sum tr.pauses

let free_list_holes st =
  List.fold_left
    (fun acc (i : Increment.t) -> acc + (Vec.length i.Increment.free_list / 2))
    0 (State.live_increments st)

(* Hooks that only read clocks and the heap's public state: observing a
   run does not change it (the library's rule for every observer). *)
let attach tr gc =
  let st = Gc.state gc in
  State.add_hooks st
    {
      State.noop_hooks with
      on_collect_start = (fun ~reason:_ ~emergency:_ -> tr.gc_start <- now ());
      on_collect_end =
        (fun ~full_heap:_ ->
          tr.pauses <- (now () -. tr.gc_start) :: tr.pauses;
          if st.State.strategy.State.strategy_kind = State.Strategy_marksweep then
            tr.holes <- float (free_list_holes st) :: tr.holes);
      on_gc_phase =
        (fun ~phase ~enter ->
          let i = phase_index phase in
          if enter then tr.phase_start.(i) <- now ()
          else tr.phase_total.(i) <- tr.phase_total.(i) +. (now () -. tr.phase_start.(i)));
    }

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)

(* What one pass over a workload's cells or programs yields. Model
   figures are deterministic; host times are not. *)
type pass = {
  host_s : float;  (** Gc.create + run, summed over cells *)
  run_s : float;  (** inside Spec.run / Vm.run_compiled only *)
  sim_bytes : int;
  mutator_ops : int;
  model_total : float;
  model_gc : float;
  peak_frames : int;
  digests : float list;  (** per-cell model total, for the determinism check *)
  stats : Gc_stats.t list;
  failures : string list;
  ooms : int;  (** failures that were [Gc.Out_of_memory] *)
  attempted : int;
  marksweep_host_s : float;
  marksweep_run_s : float;
  marksweep_busy_s : float;
}

let empty_pass =
  {
    host_s = 0.0;
    run_s = 0.0;
    sim_bytes = 0;
    mutator_ops = 0;
    model_total = 0.0;
    model_gc = 0.0;
    peak_frames = 0;
    digests = [];
    stats = [];
    failures = [];
    ooms = 0;
    attempted = 0;
    marksweep_host_s = 0.0;
    marksweep_run_s = 0.0;
    marksweep_busy_s = 0.0;
  }

let add_stats p gc ~host_s ~run_s ~ops =
  let s = Gc.stats gc in
  let total = Cost_model.total_time Cost_model.default s in
  {
    p with
    host_s = p.host_s +. host_s;
    run_s = p.run_s +. run_s;
    sim_bytes = p.sim_bytes + Gc.bytes_allocated gc;
    mutator_ops = p.mutator_ops + ops;
    model_total = p.model_total +. total;
    model_gc = p.model_gc +. Cost_model.gc_time Cost_model.default s;
    peak_frames = p.peak_frames + s.Gc_stats.peak_frames;
    digests = total :: p.digests;
    stats = s :: p.stats;
    attempted = p.attempted + 1;
  }

let fail p what = { p with failures = what :: p.failures; attempted = p.attempted + 1 }

let describe_exn = function
  | Gc.Out_of_memory m -> "out of memory: " ^ m
  | e -> Printexc.to_string e

let fail_exn p label e =
  let p = fail p (label ^ ": " ^ describe_exn e) in
  match e with Gc.Out_of_memory _ -> { p with ooms = p.ooms + 1 } | _ -> p

(* Host memory one cell holds once its run is over: the live OCaml
   words its run added (heap metadata, statistics, program state), plus
   its simulated memory, which lives outside the OCaml heap. Both
   readings follow a full major collection, so the figure depends only
   on the seed, not on what earlier cells left behind. *)
let live_bytes () =
  Stdlib.Gc.full_major ();
  (Stdlib.Gc.stat ()).Stdlib.Gc.live_words * (Sys.word_size / 8)

let host_mb ~base gc =
  let mem = (Gc.state gc).State.mem in
  let sim = Memory.max_frames mem * Memory.frame_words mem * (Sys.word_size / 8) in
  float (live_bytes () - base + sim) /. 1e6

(* The baseline for [host_mb], read only when host memory is measured. *)
let mem_base mem = if Option.is_some mem then live_bytes () else 0

let spec_pass ?tracer ?gc_domains ?mem cells =
  List.fold_left
    (fun p c ->
      let label =
        Printf.sprintf "%s/%s/%d" c.bench.Spec.name c.config_label c.frames
      in
      let busy0 = Option.fold ~none:0.0 ~some:busy tracer in
      let base = mem_base mem in
      let t0 = now () in
      match new_heap ?gc_domains c.config c.frames with
      | exception e -> fail_exn p label e
      | gc -> (
        Option.iter (fun tr -> attach tr gc) tracer;
        let t1 = now () in
        match c.bench.Spec.run gc with
        | exception e -> fail_exn p label e
        | () -> (
          let t2 = now () in
          (* Correctness, outside the timed section. *)
          match Verify.check gc with
          | Error e -> fail p (label ^ ": Verify.check: " ^ e)
          | Ok () ->
            Option.iter (fun r -> r := Float.max !r (host_mb ~base gc)) mem;
            let s = Gc.stats gc in
            let p =
              add_stats p gc ~host_s:(t2 -. t0) ~run_s:(t2 -. t1)
                ~ops:(s.Gc_stats.objects_allocated + s.Gc_stats.barrier_ops)
            in
            if Gc.strategy_name gc = "marksweep" then
              let busy1 = Option.fold ~none:0.0 ~some:busy tracer in
              {
                p with
                marksweep_host_s = p.marksweep_host_s +. (t2 -. t0);
                marksweep_run_s = p.marksweep_run_s +. (t2 -. t1);
                marksweep_busy_s = p.marksweep_busy_s +. (busy1 -. busy0);
              }
            else p)))
    empty_pass cells

(* A compiled Beltlang program at its drawn heap size. *)
type program = {
  prog : Programs.t;
  ast : Beltlang.Ast.program;
  bytecode : Beltlang.Bytecode.program;
  frames : int;
  mutable vm_output : string option;
}

let beltlang_pass ?tracer ?mem config programs =
  List.fold_left
    (fun p pr ->
      let label = Printf.sprintf "%s/%s/%d" pr.prog.Programs.name beltlang_config pr.frames in
      let base = mem_base mem in
      let t0 = now () in
      let gc = new_heap config pr.frames in
      Option.iter (fun tr -> attach tr gc) tracer;
      let vm = Beltlang.Vm.create gc in
      let t1 = now () in
      match Beltlang.Vm.run_compiled vm pr.bytecode with
      | exception e -> fail_exn p label e
      | () -> (
        let t2 = now () in
        let out = Beltlang.Vm.output vm in
        (* Every run must print the program's expected output, or, for a
           program without one, what its first run printed. *)
        let expected =
          match (pr.prog.Programs.expected_output, pr.vm_output) with
          | Some e, _ | None, Some e -> e
          | None, None -> out
        in
        match (out = expected, Verify.check gc) with
        | false, _ -> fail p (label ^ ": VM output differs from the expected output")
        | true, Error e -> fail p (label ^ ": Verify.check: " ^ e)
        | true, Ok () ->
          Option.iter (fun r -> r := Float.max !r (host_mb ~base gc)) mem;
          pr.vm_output <- Some out;
          add_stats p gc ~host_s:(t2 -. t0) ~run_s:(t2 -. t1)
            ~ops:(Beltlang.Vm.instructions vm)))
    empty_pass programs

(* The AST walker is the VM's differential oracle. It runs once per
   program, after the timed passes. *)
let walker_failures config programs =
  List.filter_map
    (fun pr ->
      let name = pr.prog.Programs.name in
      let interp = Beltlang.Interp.create (new_heap config pr.frames) in
      match Beltlang.Interp.run interp pr.ast with
      | exception e -> Some (name ^ ": AST walker: " ^ describe_exn e)
      | () ->
        if pr.vm_output <> Some (Beltlang.Interp.output interp) then
          Some (name ^ ": VM output differs from the AST walker's")
        else None)
    programs

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type setup = {
  cells : cell list;
  programs : program list;
  parse_s : float;
  ast_s : float;
  compile_s : float;
}

(* Everything a workload does before its first timed pass, from the
   seed alone: draw heap sizes and cell order and resolve every
   configuration (Spec; each pass creates its own heaps), or parse and
   compile every program (Beltlang). *)
let set_up workload seed =
  let rng = Random.State.make [| seed |] in
  if workload = "beltlang" then begin
    let parse_s = ref 0.0 and ast_s = ref 0.0 and compile_s = ref 0.0 in
    let timed acc f x =
      let t0 = now () in
      let r = f x in
      acc := !acc +. (now () -. t0);
      r
    in
    let programs =
      List.map
        (fun prog ->
          let frames = draw_frames rng beltlang_frames in
          let sexps = timed parse_s Beltlang.Sexp.parse_string prog.Programs.source in
          let ast = timed ast_s (Beltlang.Ast.compile ?initial_globals:None) sexps in
          let bytecode = timed compile_s Beltlang.Compile.compile ast in
          { prog; ast; bytecode; frames; vm_output = None })
        Programs.all
    in
    {
      cells = [];
      programs = shuffle rng programs;
      parse_s = !parse_s;
      ast_s = !ast_s;
      compile_s = !compile_s;
    }
  end
  else begin
    let cells =
      List.map (fun n -> make_cell n (draw_frames rng n.n_frames)) (nominal_cells workload)
    in
    { cells = shuffle rng cells; programs = []; parse_s = 0.0; ast_s = 0.0; compile_s = 0.0 }
  end

let run_pass ?tracer ?gc_domains ?mem workload s =
  if workload = "beltlang" then
    beltlang_pass ?tracer ?mem (config_of beltlang_config) s.programs
  else spec_pass ?tracer ?gc_domains ?mem s.cells

(* ------------------------------------------------------------------ *)
(* Layer fixtures                                                       *)

(* Each fixture times one public function on its own, in a loop the
   benchmark writes out (no closure call per operation), and reports
   the median nanoseconds per call over [samples] batches of [n]
   calls. [prepare] builds a batch's state outside the timed section.
   [sink] keeps results live so the loops are not optimised away. *)
let sink = ref 0

let time_ns ?(samples = 15) ~n ~prepare run =
  median
    (List.init samples (fun _ ->
         let st = prepare () in
         let t0 = now () in
         run st n;
         (now () -. t0) *. 1e9 /. float n))

let fixture_holes = 256

(* A memory with one live frame, and an 8-field object at its base. *)
let raw_frame () =
  let mem = Memory.create ~frame_log_words:10 ~max_frames:4 in
  let base = Memory.frame_base mem (Memory.alloc_frame mem) in
  Object_model.init mem base ~tib:Value.null ~nfields:8;
  (mem, base)

let heap label kb = Gc.create ~config:(config_of label) ~heap_bytes:(kb * 1024) ()

(* A mark-sweep heap whose older increments are riddled with 4-word
   holes (every other object died), whose frames are all in use, and
   whose nursery is full: a 12-word request must walk the free lists
   ([Schedule.fit_fallback]) before it finds bump room. Returns the
   heap and the number of holes that walk passes. *)
let fragmented_heap () =
  let gc = heap "25.25.100+strategy:marksweep" 256 in
  let st = Gc.state gc in
  let roots = Gc.roots gc in
  let ty = Gc.register_type gc ~name:"wholebench.cell" in
  let i = ref 0 in
  while State.free_frames st > 2 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    if !i land 1 = 0 then Roots.push roots (Value.of_addr a);
    incr i
  done;
  Gc.full_collect gc;
  let big = Memory.frame_words st.State.mem - Object_model.header_words in
  while State.free_frames st > 0 do
    Roots.push roots (Value.of_addr (Gc.alloc gc ~ty ~nfields:big))
  done;
  let target = Schedule.prepare_alloc st ~size:12 in
  let rec holes_before acc = function
    | [] -> acc
    | (inc : Increment.t) :: rest ->
      let acc = acc + (Vec.length inc.Increment.free_list / 2) in
      if inc == target then acc else holes_before acc rest
  in
  (gc, holes_before 0 (State.live_increments st))

let layer_fixtures () =
  let loop_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for i = 1 to n do
          sink := !sink + i
        done)
  in
  let memory f =
    time_ns ~n:1_000_000 ~prepare:raw_frame (fun (mem, base) n -> f mem base n)
  in
  let get_ns =
    memory (fun mem base n ->
        for i = 1 to n do
          sink := !sink + Memory.get mem (base + (i land 1023))
        done)
  in
  let unsafe_get_ns =
    memory (fun mem base n ->
        for i = 1 to n do
          sink := !sink + Memory.unsafe_get mem (base + (i land 1023))
        done)
  in
  let set_ns =
    memory (fun mem base n ->
        for i = 1 to n do
          Memory.set mem (base + 16 + (i land 511)) i
        done)
  in
  let unsafe_set_ns =
    memory (fun mem base n ->
        for i = 1 to n do
          Memory.unsafe_set mem (base + 16 + (i land 511)) i
        done)
  in
  let set_field_ns =
    memory (fun mem base n ->
        for i = 1 to n do
          Object_model.set_field mem base (i land 7) (Value.of_int i)
        done)
  in
  let init_ns =
    let size = Object_model.size_words ~nfields:8 in
    memory (fun mem base n ->
        for i = 1 to n do
          Object_model.init mem (base + (size * (i land 63))) ~tib:Value.null ~nfields:8
        done)
  in
  let get_global_ns =
    let roots = Roots.create () in
    let g = Roots.new_global roots (Value.of_int 7) in
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          sink := !sink + Roots.get_global roots g
        done)
  in
  (* Two nursery objects in one frame of a 25.25.100 heap. *)
  let pair () =
    let gc = heap "25.25.100" 1024 in
    let ty = Gc.register_type gc ~name:"wholebench.pair" in
    let a = Gc.alloc gc ~ty ~nfields:2 in
    let b = Gc.alloc gc ~ty ~nfields:2 in
    (gc, ty, a, b)
  in
  let gc, _, a, b = pair () in
  let st = Gc.state gc in
  let fa = State.frame_of_addr st a in
  let would_remember_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          if Write_barrier.would_remember st ~src_frame:fa ~tgt_frame:fa then incr sink
        done)
  in
  let record_intra_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          Write_barrier.record st ~slot:(Object_model.field_addr a 0) ~target:b
        done)
  in
  let record_tib_ns =
    let tib = Value.to_addr (Object_model.tib st.State.mem a) in
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          Write_barrier.record st ~slot:(Object_model.tib_addr a) ~target:tib
        done)
  in
  let hooks_empty_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          match st.State.hooks with [] -> incr sink | _ :: _ -> ()
        done)
  in
  let write_intra_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        let v = Value.of_addr b in
        for _ = 1 to n do
          Gc.write gc a 0 v
        done)
  in
  (* An old object (survived a full collection, so on an older belt)
     and a young one allocated after it: every store between them takes
     the barrier's slow path. *)
  let old_young () =
    let gc = heap "25.25.100" 4096 in
    let ty = Gc.register_type gc ~name:"wholebench.pair" in
    let roots = Gc.roots gc in
    let g = Roots.new_global roots (Value.of_addr (Gc.alloc gc ~ty ~nfields:2)) in
    Gc.full_collect gc;
    let young = Gc.alloc gc ~ty ~nfields:2 in
    (gc, Value.to_addr (Roots.get_global roots g), young)
  in
  let write_o2y_ns =
    time_ns ~n:200_000 ~prepare:old_young (fun (gc, old, young) n ->
        let v = Value.of_addr young in
        for _ = 1 to n do
          Gc.write gc old 0 v
        done)
  in
  let remset_insert_ns =
    time_ns ~n:200_000 ~prepare:(fun () -> Remset.create ()) (fun r n ->
        for _ = 1 to n do
          Remset.insert r ~src_frame:5 ~tgt_frame:3 ~slot:4100
        done)
  in
  (* A bare increment over one 64 Ki-word frame. *)
  let big_mem = Memory.create ~frame_log_words:16 ~max_frames:2 in
  let big_frame = Memory.alloc_frame big_mem in
  let fresh_inc () =
    let inc = Increment.create ~id:0 ~belt:0 ~stamp:0 ~bound_frames:None in
    Increment.add_frame inc big_mem big_frame;
    inc
  in
  let bump_ns =
    time_ns ~samples:31 ~n:16_000 ~prepare:fresh_inc (fun inc n ->
        for _ = 1 to n do
          sink := !sink + Increment.bump_or_null inc ~size:4
        done)
  in
  let holey_inc () =
    let inc = fresh_inc () in
    for k = 0 to fixture_holes - 1 do
      Increment.push_free inc ~addr:(k * 8) ~words:4
    done;
    inc
  in
  let fits_free_ns =
    time_ns ~n:20_000 ~prepare:holey_inc (fun inc n ->
        for _ = 1 to n do
          if Increment.fits_free inc ~size:12 then incr sink
        done)
  in
  let fit_or_null_ns =
    time_ns ~n:20_000 ~prepare:holey_inc (fun inc n ->
        for _ = 1 to n do
          sink := !sink + Increment.fit_or_null inc big_mem ~size:12
        done)
  in
  let prepare_alloc_ns =
    time_ns ~n:1_000_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Schedule.prepare_alloc st ~size:4))
        done)
  in
  let frag_gc, frag_holes = fragmented_heap () in
  let frag_st = Gc.state frag_gc in
  let frag_gcs = Gc_stats.gcs (Gc.stats frag_gc) in
  let prepare_frag_ns =
    time_ns ~n:2_000 ~prepare:ignore (fun () n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Schedule.prepare_alloc frag_st ~size:12))
        done)
  in
  if Gc_stats.gcs (Gc.stats frag_gc) <> frag_gcs then
    failwith "fragmented-heap fixture collected: prepare_alloc is not being timed alone";
  (* Composites: [Gc.alloc] on a fresh 8 MB heap, whose nursery holds a
     whole batch, so no collection runs while it is timed. *)
  let alloc_heap () =
    let gc = heap "25.25.100" 8192 in
    (gc, Gc.register_type gc ~name:"wholebench.obj")
  in
  let alloc_ns =
    time_ns ~n:10_000 ~prepare:alloc_heap (fun (gc, ty) n ->
        for _ = 1 to n do
          sink := !sink + Gc.alloc gc ~ty ~nfields:8
        done;
        if Gc_stats.gcs (Gc.stats gc) > 0 then failwith "Gc.alloc fixture collected")
  in
  let alloc_small_fast_ns =
    time_ns ~n:10_000 ~prepare:alloc_heap (fun (gc, ty) n ->
        let tib = Gc.tib_value gc ty in
        for _ = 1 to n do
          let a = Gc.alloc_small_fast gc ~tib ~nfields:8 in
          sink := !sink + if a = Addr.null then Gc.alloc gc ~ty ~nfields:8 else a
        done)
  in
  let alloc_sum = prepare_alloc_ns +. bump_ns +. init_ns +. record_tib_ns +. hooks_empty_ns in
  let intra_sum = set_field_ns +. record_intra_ns +. hooks_empty_ns in
  let o2y_sum = set_field_ns +. would_remember_ns +. remset_insert_ns +. hooks_empty_ns in
  [
    ("fixture.loop_ns", loop_ns);
    ("Memory.get_ns", get_ns);
    ("Memory.unsafe_get_ns", unsafe_get_ns);
    ("Memory.set_ns", set_ns);
    ("Memory.unsafe_set_ns", unsafe_set_ns);
    ("Object_model.set_field_ns", set_field_ns);
    ("Object_model.init_ns", init_ns);
    ("Roots.get_global_ns", get_global_ns);
    ("Write_barrier.would_remember_ns", would_remember_ns);
    ("Write_barrier.record_ns.intra_frame", record_intra_ns);
    ("Write_barrier.record_ns.tib", record_tib_ns);
    ("Remset.insert_ns", remset_insert_ns);
    ("Increment.bump_or_null_ns", bump_ns);
    ("Increment.fits_free_ns", fits_free_ns);
    ("Increment.fit_or_null_ns", fit_or_null_ns);
    ("Increment.fixture_holes", float fixture_holes);
    ("Schedule.prepare_alloc_ns", prepare_alloc_ns);
    ("Schedule.prepare_alloc_ns.fragmented", prepare_frag_ns);
    ("Schedule.fragmented_holes", float frag_holes);
    ("Gc.hooks_empty_ns", hooks_empty_ns);
    ("Gc.alloc_ns", alloc_ns);
    ("Gc.alloc_ns.layer_sum", alloc_sum);
    ("Gc.alloc_ns.residual", alloc_ns -. alloc_sum);
    ("Gc.alloc_small_fast_ns", alloc_small_fast_ns);
    ("Gc.write_ns.intra_frame", write_intra_ns);
    ("Gc.write_ns.intra_frame.layer_sum", intra_sum);
    ("Gc.write_ns.intra_frame.residual", write_intra_ns -. intra_sum);
    ("Gc.write_ns.old_to_young", write_o2y_ns);
    ("Gc.write_ns.old_to_young.layer_sum", o2y_sum);
    ("Gc.write_ns.old_to_young.residual", write_o2y_ns -. o2y_sum);
  ]

(* The parallel Cheney drain needs more headroom than the sequential
   one: at [gc_domains] 2 every spec-tight cell runs out of memory at
   1.1x the minimum heap, and some still do at 3x. The domain
   comparison therefore runs the six programs under 25.25.100 at the
   roomy (3x) sizes, once at each domain count, and compares the
   Cheney phase time over the cells that complete at both. A cell that
   runs out of memory at 2 domains is counted, not failed: the
   workloads themselves run on one domain. Any other failure counts. *)
type domain_comparison = {
  cheney1 : float;
  cheney2 : float;
  oom2 : int;
  side : pass list;
}

let domain_comparison () =
  let cheney_at domains c =
    let tr = new_tracer () in
    let p = spec_pass ~tracer:tr ~gc_domains:domains [ c ] in
    (p, tr.phase_total.(phase_index Gc_stats.Phase_cheney))
  in
  List.fold_left
    (fun acc (b, f) ->
      let c = make_cell { n_bench = b; n_config = "25.25.100"; n_frames = f } f in
      let p1, t1 = cheney_at 1 c in
      let p2, t2 = cheney_at 2 c in
      if p2.ooms > 0 then
        { acc with oom2 = acc.oom2 + 1; side = p1 :: { p2 with failures = [] } :: acc.side }
      else
        {
          acc with
          cheney1 = acc.cheney1 +. t1;
          cheney2 = acc.cheney2 +. t2;
          side = p1 :: p2 :: acc.side;
        })
    { cheney1 = 0.0; cheney2 = 0.0; oom2 = 0; side = [] }
    roomy_frames

(* ------------------------------------------------------------------ *)
(* Metrics and output                                                   *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The summary a reader checks the result line against: median,
   quartiles (as Python computes them) and the sample count. *)
let print_timing name unit_ xs =
  let a = sorted xs in
  Printf.printf "# %-34s median %.6g  p25 %.6g  p75 %.6g  %s  (n=%d)\n" name (median xs)
    (quantile_exclusive a 0.25) (quantile_exclusive a 0.75) unit_ (Array.length a)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* One set-up sample: the mean time of as many back-to-back set-ups as
   fit in [setup_sample_s] (at least one). A Spec set-up takes
   microseconds: timed alone, it would read the clock's resolution and
   the minor collector, not the set-up. Only the front-end stage times
   of the sample's first set-up are kept. *)
let setup_sample_s = 0.005

let setup_sample workload seed =
  let t0 = now () in
  let first = set_up workload seed in
  let n = ref 1 in
  while now () -. t0 < setup_sample_s do
    ignore (Sys.opaque_identity (set_up workload seed));
    incr n
  done;
  ((now () -. t0) /. float !n, { first with cells = []; programs = [] })

let sum_collections f stats =
  List.fold_left
    (fun acc s ->
      let t = ref acc in
      Vec.iter (fun c -> t := !t + f c) s.Gc_stats.collections;
      !t)
    0 stats

let sum_stats f stats = List.fold_left (fun acc s -> acc + f s) 0 stats

(* Every pass of a seed must repeat the first pass's model figures
   exactly: the simulator is deterministic. *)
let determinism_failures passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.filter_map
      (fun p ->
        if p.failures = [] && first.failures = [] && p.digests <> first.digests then
          Some "model figures differ between passes of one seed"
        else None)
      rest

let end_to_end ~setup_times ~host_mem_mb passes =
  let p0 = List.hd passes in
  let per_pass f = List.map f passes in
  let alloc_rate = per_pass (fun p -> float p.sim_bytes /. 1e6 /. p.host_s) in
  let ops_rate = per_pass (fun p -> float p.mutator_ops /. 1e6 /. p.host_s) in
  print_timing "setup_s" "s" setup_times;
  print_timing "pass host_s" "s" (per_pass (fun p -> p.host_s));
  print_timing "alloc_mb_per_s" "MB/s" alloc_rate;
  print_timing "mutator_mops_per_s" "Mops/s" ops_rate;
  [
    m "setup_s" "s" (median setup_times);
    m "alloc_mb_per_s" "MB/s" (median alloc_rate);
    m "mutator_mops_per_s" "Mops/s" (median ops_rate);
    m "model_total_time" "model_units" p0.model_total;
    m "model_gc_time" "model_units" p0.model_gc;
    m "sim_peak_frames" "frames" (float p0.peak_frames);
    m "host_mem_mb" "MB" host_mem_mb;
  ]

let per_layer ~workload ~setups ~fixtures ~untraced ~traced ~domains =
  let passes = List.map fst traced in
  let tracers = List.map snd traced in
  let med f = median (List.map f traced) in
  let stats = (List.hd passes).stats in
  let colls f = float (sum_collections f stats) in
  let by_reason r = colls (fun c -> if c.Gc_stats.reason = r then 1 else 0) in
  let pauses_us = List.concat_map (fun tr -> List.map (fun s -> s *. 1e6) tr.pauses) tracers in
  let holes = List.concat_map (fun tr -> tr.holes) tracers in
  let barrier f = float (sum_stats f stats) in
  let ops = barrier (fun s -> s.Gc_stats.barrier_ops) in
  let is_vm = workload = "beltlang" in
  let vm f = if is_vm then f () else 0.0 in
  let host = med (fun (p, _) -> p.host_s) in
  let untraced_host = median (List.map (fun p -> p.host_s) untraced) in
  let phase i = med (fun (_, tr) -> tr.phase_total.(i)) in
  let setup_median f = median (List.map f setups) in
  let compared f = Option.fold ~none:0.0 ~some:f domains in
  print_timing "traced pass host_s" "s" (List.map (fun p -> p.host_s) passes);
  print_timing "untraced pass host_s" "s" (List.map (fun p -> p.host_s) untraced);
  print_timing "Collector.busy_s" "s" (List.map busy tracers);
  [
    m "Collector.busy_s" "s" (med (fun (_, tr) -> busy tr));
    m "Collector.busy_share" "ratio" (med (fun (p, tr) -> ratio (busy tr) p.host_s));
    m "Collector.pause_p50_us" "us" (percentile pauses_us 0.50);
    m "Collector.pause_p99_us" "us" (percentile pauses_us 0.99);
    m "Collector.collections" "count" (colls (fun _ -> 1));
  ]
  @ List.mapi (fun i name -> m ("Collector." ^ name) "s" (phase i)) (Array.to_list phase_names)
  @ [
      m "Collector.copied_words" "words" (colls (fun c -> c.Gc_stats.copied_words));
      m "Collector.scanned_slots" "count" (colls (fun c -> c.Gc_stats.scanned_slots));
      m "Collector.marked_words" "words" (colls (fun c -> c.Gc_stats.marked_words));
      m "Collector.swept_words" "words" (colls (fun c -> c.Gc_stats.swept_words));
      m "Collector.moved_words" "words" (colls (fun c -> c.Gc_stats.moved_words));
      m "Collector.yield" "ratio"
        (ratio
           (colls (fun c -> c.Gc_stats.freed_frames))
           (colls (fun c -> c.Gc_stats.plan_frames)));
      m "Collector.cheney_s.domains1" "s" (compared (fun d -> d.cheney1));
      m "Collector.cheney_s.domains2" "s" (compared (fun d -> d.cheney2));
      m "Collector.domains2_oom_cells" "count" (compared (fun d -> float d.oom2));
      m "Schedule.trigger.heap_full" "count" (by_reason Gc_stats.Heap_full);
      m "Schedule.trigger.nursery" "count" (by_reason Gc_stats.Nursery);
      m "Schedule.trigger.remset" "count" (by_reason Gc_stats.Remset);
      m "Schedule.emergency" "count" (colls (fun c -> if c.Gc_stats.emergency then 1 else 0));
      m "Increment.holes_p50" "count" (if holes = [] then 0.0 else median holes);
      m "Write_barrier.ops" "count" ops;
      m "Write_barrier.slow" "count" (barrier (fun s -> s.Gc_stats.barrier_slow));
      m "Write_barrier.filtered" "count" (barrier (fun s -> s.Gc_stats.barrier_filtered));
      m "Write_barrier.slow_ratio" "ratio"
        (ratio (barrier (fun s -> s.Gc_stats.barrier_slow)) ops);
      m "Remset.slots_drained" "count" (colls (fun c -> c.Gc_stats.remset_slots));
      m "Gc.mutator_s" "s" (med (fun (p, tr) -> p.run_s -. busy tr));
      m "Gc.mutator_share.marksweep" "ratio"
        (med (fun (p, _) ->
             ratio (p.marksweep_run_s -. p.marksweep_busy_s) p.marksweep_host_s));
      m "Sexp.parse_s" "s" (vm (fun () -> setup_median (fun s -> s.parse_s)));
      m "Ast.compile_s" "s" (vm (fun () -> setup_median (fun s -> s.ast_s)));
      m "Compile.compile_s" "s" (vm (fun () -> setup_median (fun s -> s.compile_s)));
      m "Vm.run_s" "s" (vm (fun () -> med (fun (p, _) -> p.run_s)));
      m "Vm.instructions" "count" (vm (fun () -> float (List.hd passes).mutator_ops));
      m "Vm.gc_share" "ratio" (vm (fun () -> med (fun (p, tr) -> ratio (busy tr) p.run_s)));
      m "trace.host_s" "s" host;
      m "trace.untraced_host_s" "s" untraced_host;
      m "trace.overhead" "ratio" (ratio host untraced_host);
      (* busy_s + mutator_s is the time inside the workload's calls;
         the rest of host_s is heap creation. *)
      m "trace.accounted_share" "ratio" (med (fun (p, _) -> ratio p.run_s p.host_s));
    ]
  @ List.map
      (fun (name, v) ->
        let unit_ =
          if Filename.check_suffix name "_holes" then "count"
          else "ns"
        in
        m name unit_ v)
      fixtures

(* Run [pass] repeatedly until [seconds] have elapsed and at least
   [min_passes] passes are done. *)
let repeat ~seconds ~min_passes pass =
  let deadline = now () +. seconds in
  let rec go acc n =
    if n >= min_passes && now () >= deadline then List.rev acc else go (pass n :: acc) (n + 1)
  in
  go [] 0

let run ~workload ~seed ~seconds ~trace =
  let s = set_up workload seed in
  List.iter
    (fun c ->
      Printf.printf "# cell %s %s %d frames\n" c.bench.Spec.name c.config_label c.frames)
    s.cells;
  List.iter
    (fun p -> Printf.printf "# program %s %d frames\n" p.prog.Programs.name p.frames)
    s.programs;
  (* An untimed warm-up pass, which also measures host memory. *)
  let mem = ref 0.0 in
  let first = run_pass ~mem workload s in
  (* Set-up is sampled once after every timed pass, so its samples span
     the run as the pass timings do. Sampled back to back, they all
     caught the machine in one state: on a shared 2-core VM, runs then
     disagreed by up to 1.7x. *)
  let setups = ref [] in
  let sampled p =
    setups := setup_sample workload seed :: !setups;
    p
  in
  let fixtures = if trace then layer_fixtures () else [] in
  let passes, traced =
    if not trace then
      (repeat ~seconds ~min_passes:3 (fun _ -> sampled (run_pass workload s)), [])
    else begin
      (* Untraced and traced passes alternate, so both see the same
         machine conditions and their ratio is the tracing overhead. *)
      let both =
        repeat ~seconds ~min_passes:4 (fun i ->
            if i land 1 = 0 then `Plain (sampled (run_pass workload s))
            else
              let tr = new_tracer () in
              `Traced (sampled (run_pass ~tracer:tr workload s), tr))
      in
      ( List.filter_map (function `Plain p -> Some p | `Traced _ -> None) both,
        List.filter_map (function `Traced t -> Some t | `Plain _ -> None) both )
    end
  in
  let domains =
    if trace && workload = "spec-tight" then Some (domain_comparison ()) else None
  in
  let side = match domains with Some d -> d.side | None -> [] in
  let all = (first :: passes) @ List.map fst traced @ side in
  let failures =
    List.concat_map (fun p -> p.failures) all
    @ determinism_failures ((first :: passes) @ List.map fst traced)
    @ walker_failures (config_of beltlang_config) s.programs
  in
  List.iter (fun f -> Printf.printf "# FAILED %s\n" f) failures;
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 all in
  let failed = List.length failures in
  let correct = failed = 0 in
  let metrics =
    if not correct then []
    else if trace then
      per_layer ~workload ~setups:(List.map snd !setups) ~fixtures ~untraced:passes ~traced
        ~domains
    else end_to_end ~setup_times:(List.map fst !setups) ~host_mem_mb:!mem passes
  in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

(* Every heap size in every band must complete: run each nominal cell
   (and each Beltlang program) at every size its band allows. *)
let check_bands workload =
  let config = config_of beltlang_config in
  let sizes nominal =
    let b = band nominal in
    List.init ((2 * b) + 1) (fun k -> nominal - b + k)
  in
  let failures =
    if workload = "beltlang" then
      let s = set_up workload 0 in
      List.concat_map
        (fun pr ->
          List.concat_map
            (fun frames ->
              let p = beltlang_pass config [ { pr with frames; vm_output = None } ] in
              p.failures)
            (sizes beltlang_frames))
        s.programs
    else
      List.concat_map
        (fun n ->
          List.concat_map
            (fun frames -> (spec_pass [ make_cell n frames ]).failures)
            (sizes n.n_frames))
        (nominal_cells workload)
  in
  List.iter print_endline failures;
  Printf.printf "%s: %d band failures\n" workload (List.length failures);
  if failures <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let bands = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed for heap sizes and cell order (default 1)");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--check-bands", Arg.Set bands, " run every cell at every heap size its band allows");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wholebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("wholebench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !bands then check_bands !workload
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
