#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the repository. Everything it builds and writes
# stays inside the tree (_build/ and perfbench/out/).
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
# Dune's shared cache lives outside the tree; keep the build local.
export DUNE_CACHE=disabled
dune build --root . perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe run "$@"
