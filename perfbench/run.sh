#!/usr/bin/env bash
# Builds the benchmark from source with dune, then runs it with the
# arguments given (see perfbench/README.md).  Run from anywhere inside a
# checkout; build output goes to stderr so stdout carries only results.
# The dune cache is off so that nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
