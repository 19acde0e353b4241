#!/bin/sh
# Build the daemon and the benchmark from source, then run the benchmark:
#   sh bench/e2e/run.sh --workload hot-exec --seed 1 --seconds 8 --trace 0
# Everything it writes stays in the checkout: _build/ and .e2e/.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/blockc.ml ]; then
  echo "e2e: not a checkout of the repository (no dune-project or bin/blockc.ml here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "e2e: dune not found" >&2
  exit 2
fi
# --root . stops dune from looking for a workspace above the checkout;
# with the shared cache disabled it writes nothing outside it.
DUNE_CACHE=disabled dune build --root . bin/blockc.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe run --blockc _build/default/bin/blockc.exe "$@"
