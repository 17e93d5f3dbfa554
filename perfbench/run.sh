#!/usr/bin/env bash
# Build the qcr CLI and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload NAME --seed N --emit-requests
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bin/qcr_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --cli ./_build/default/bin/qcr_cli.exe "$@"
