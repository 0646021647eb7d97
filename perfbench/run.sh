#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload expressivity|study|serve --seed N \
#        --seconds S --trace 0|1
# Run from the repository root.  Build products go to .bench_build and
# run artifacts to perfbench/out; nothing is written outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
build_dir=.bench_build
if ! dune build --root . --build-dir "$build_dir" --display quiet \
    perfbench/bench.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec "$build_dir/default/perfbench/bench.exe" "$@"
