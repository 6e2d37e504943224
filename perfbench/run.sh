#!/usr/bin/env bash
# Build the clip binary and the benchmark harness from this checkout's
# sources, then run the harness. All arguments are passed through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/clip.exe ./perfbench/main.exe \
  ./perfbench/calibrate.exe >&2
exec ./_build/default/perfbench/main.exe \
  --clip ./_build/default/bin/clip.exe \
  --calibrator ./_build/default/perfbench/calibrate.exe --work ./.perfbench-work "$@"
