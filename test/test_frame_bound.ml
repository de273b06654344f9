(* The fixed address range: every heap's memory covers exactly
   [heap_frames + Boot_space.max_frames] frames, and no run mints a
   frame index past [heap_frames] plus the frames its boot space holds
   — the bound State.create proves for heaps without a LOS, checked
   here on LOS heaps too. Runs that end in Out_of_memory count: their
   collections push the most frames through the heap. No run may end
   in any other exception, and none may be refused for want of a
   contiguous run inside the range.

   The tier-1 case is a slice of the grid; BELTWAY_FRAME_BOUND=full
   (the @frame-bound alias) runs all of it. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module State = Beltway.State
module Spec = Beltway_workload.Spec
module Runner = Beltway_sim.Runner

let full = Sys.getenv_opt "BELTWAY_FRAME_BOUND" = Some "full"

(* Each program with its Appel minimum heap in 4 KiB frames, as
   Table 1 (test/figures.expected) reports it; taken from there
   rather than searched again, which would cost half as much as the
   slice's runs. *)
let benches =
  Spec.[ (jess, 97); (raytrace, 87); (db, 131); (javac, 133); (jack, 55); (pseudojbb, 249) ]
  |> List.filter (fun (b, _) -> full || List.memq b Spec.[ jess; javac; pseudojbb ])

let configs =
  if full then
    [
      "25.25.100"; "appel"; "10.10.100"; "ss"; "25.25.100+los:64";
      "25.25.100+los:256"; "25.25.100+cards"; "appel+ttd:8";
      "25.25.100+strategy:markcompact"; "25.25.100+strategy:marksweep";
    ]
  else
    [
      "25.25.100"; "appel"; "25.25.100+los:256"; "25.25.100+strategy:markcompact";
      "25.25.100+strategy:marksweep";
    ]

(* Multiples of the Appel minimum heap: below it (the copying runs
   fail), just above it (collections under the most pressure) and
   roomy. *)
let mults = if full then [ 0.9; 1.1; 1.5; 2.0; 3.0 ] else [ 0.9; 1.1; 3.0 ]

(* One run; [Error] describes a broken bound. *)
let check_run bench config_str heap_frames =
  let config = Result.get_ok (Config.parse config_str) in
  let gc =
    Gc.create ~frame_log_words:Runner.frame_log_words ~config
      ~heap_bytes:(heap_frames * Runner.frame_bytes) ()
  in
  let outcome =
    match bench.Spec.run gc with
    | () -> "completed"
    | exception Gc.Out_of_memory m -> "out of memory: " ^ m
  in
  let st = Gc.state gc in
  let mem = st.State.mem in
  let minted = Memory.fresh_frames mem - 1 in
  let bound = heap_frames + Boot_space.mem_frames st.State.boot in
  let where =
    Printf.sprintf "%s %s @ %d frames (%s)" bench.Spec.name config_str heap_frames
      outcome
  in
  if Memory.max_frames mem <> heap_frames + Boot_space.max_frames then
    Error (Printf.sprintf "%s: range %d frames" where (Memory.max_frames mem))
  else if minted > bound then
    Error (Printf.sprintf "%s: minted frame %d past the bound %d" where minted bound)
  else if Test_aliases.contains ~needle:"contiguous" outcome then
    Error (where ^ ": refused for want of a contiguous run")
  else Ok ()

(* Every (program, configuration, heap) run, spread over the default
   pool: each builds its own heap, so the verdict does not depend on
   the job count. *)
let test_frame_bound () =
  let cases =
    List.concat_map
      (fun (bench, min_frames) ->
        List.concat_map
          (fun config_str ->
            List.map
              (fun heap_frames -> (bench, config_str, heap_frames))
              (Runner.heap_ladder ~min_frames ~mults))
          configs)
      benches
  in
  let failures =
    Beltway_sim.Pool.map
      (fun (bench, config_str, heap_frames) -> check_run bench config_str heap_frames)
      cases
    |> List.filter_map (function Ok () -> None | Error e -> Some e)
  in
  Alcotest.(check (list string)) "every run within its frame bound" [] failures

let suite =
  [ ("frame indices stay within heap_frames + boot frames", `Quick, test_frame_bound) ]
