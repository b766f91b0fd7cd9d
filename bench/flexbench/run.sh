#!/usr/bin/env bash
# Build flexbench from source, then run it with the given arguments:
#
#   bash bench/flexbench/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
#   bash bench/flexbench/run.sh compare base.json change.json
#
# It runs from the repository root, whatever the caller's directory, and
# writes only there (_build/ and .flexbench/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

if [ ! -f dune-project ] || [ ! -d lib/service ]; then
  echo "flexbench: $root is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . --display quiet ./bench/flexbench/flexbench.exe >&2
exec ./_build/default/bench/flexbench/flexbench.exe "$@"
