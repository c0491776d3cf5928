#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the given
# arguments.  Run from the root of the repository.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
