#!/usr/bin/env bash
# Builds perf.exe from source and runs one workload:
#
#   bash bench/perf/bench.sh --workload W --seed S --seconds T --trace 0|1
#
# Run from anywhere inside the repository.  Build output goes to stderr;
# the last line of stdout is the JSON result (README.md, "Result line").
# The dune cache is disabled so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
