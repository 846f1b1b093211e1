#!/usr/bin/env bash
# Builds trigbench from source and runs it from the repository root.
#
#   bash bench/e2e/run.sh --workload paper-fire --seed 1 --seconds 15 --trace 0
#
# All arguments go to trigbench (see README.md).  The build output goes to
# stderr, so the last line on stdout is trigbench's result object.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/trigbench.exe 1>&2
exec ./_build/default/bench/e2e/trigbench.exe "$@"
