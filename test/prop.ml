(* Property tests run on a pinned seed, so [dune runtest] gives the
   same verdict on every run: each property draws from its own
   generator state seeded with [seed]. The [@soak] alias sets
   BELTWAY_SOAK=1, which hands the seed back to QCheck — a fresh one
   per run, printed as "qcheck random seed: N" and replayed with
   QCHECK_SEED=N. *)

let seed = 20020617

let soak = Sys.getenv_opt "BELTWAY_SOAK" = Some "1"

let to_alcotest t =
  if soak then QCheck_alcotest.to_alcotest t
  else QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
