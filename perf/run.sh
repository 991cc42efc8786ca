#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run the benchmark
# with the given arguments, from the root of the checkout:
#   bash perf/run.sh --workload daemon-churn --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# no shared dune cache: a run reads and writes only inside the checkout
dune build --root . --cache=disabled ./bin/aa_serve.exe ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
