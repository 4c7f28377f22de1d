#!/usr/bin/env bash
# Builds the cost ledger from this checkout's sources and runs it from the
# checkout root, passing every argument through, e.g.
#
#   bash bench/ledger/run.sh --workload compile-mix --seed 7 --seconds 12 --trace 0
#
# Build output goes to stderr, so the ledger's result line stays the last
# line of stdout. The dune cache is off: the build reads and writes only
# inside the checkout (_build/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/ledger/ledger.exe >&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
