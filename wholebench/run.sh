#!/usr/bin/env bash
# Builds the whole-run benchmark from the sources of this checkout and
# runs it. Run from the root of the checkout:
#
#   bash wholebench/run.sh --workload spec-tight --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the benchmark's result line is the last
# line of stdout. Exits non-zero when the build or any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./wholebench/wholebench.exe 1>&2
exec ./_build/default/wholebench/wholebench.exe "$@"
