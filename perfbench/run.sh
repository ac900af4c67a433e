#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#
#   bash perfbench/run.sh --workload scale-10k|updates|failover|all \
#     --seed N --seconds S --trace 0|1
#
# `--workload all` runs every workload in turn, each in a process of its
# own, so that no workload's peak heap holds what an earlier one left;
# it exits nonzero if any of them does.  The build needs the
# repository's libraries (lib/); without them it fails and the script
# exits nonzero without printing a result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/bin/main.exe >&2
exe=./_build/default/perfbench/bin/main.exe
all=0
args=()
while (($#)); do
  if [[ $1 == --workload && ${2:-} == all ]]; then
    all=1
    shift 2
  else
    args+=("$1")
    shift
  fi
done
if ((!all)); then
  exec "$exe" "${args[@]}"
fi
status=0
for w in $("$exe" --list); do
  "$exe" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
