#!/usr/bin/env bash
# Print one checksum per run of the deterministic replay set, so that
# "byte-identical to the parent commit" is one command run on both trees
# and one diff of the two listings.  From the repository root:
#
#   bash bench/replay_digest.sh [--keep DIR]
#
# The set: monitored chaos runs (seeds 1600, 1723, 1907), hardened
# corruption runs under the convergence oracle (seeds 1800, 1831, 1862
# at intensity 0.5), the exhaustive depth-8 schedule exploration, and
# every experiment in quick mode.  Each line is
#
#   <sha256 of the run's stdout>  exit=<status>  <run>
#
# `--keep DIR` also writes each run's stdout to DIR/<run>.txt, for
# diffing two trees when a checksum differs.  The script exits nonzero
# if any run does (an invariant violation, a non-convergence or a
# spec violation); every run is still listed.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
keep=""
while (($#)); do
  case $1 in
    --keep)
      keep=${2:?--keep needs a directory}
      shift 2
      ;;
    *)
      echo "usage: bash bench/replay_digest.sh [--keep DIR]" >&2
      exit 2
      ;;
  esac
done
dune build --root . --display quiet ./bin/haf_experiments.exe >&2
exe=./_build/default/bin/haf_experiments.exe
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
run() {
  local name=$1
  shift
  local code=0
  "$exe" "$@" >"$out/$name.txt" 2>/dev/null || code=$?
  ((code == 0)) || status=1
  printf '%s  exit=%d  %s\n' "$(sha256sum <"$out/$name.txt" | cut -d' ' -f1)" "$code" "$name"
  if [[ -n $keep ]]; then
    mkdir -p "$keep"
    cp "$out/$name.txt" "$keep/$name.txt"
  fi
}
for seed in 1600 1723 1907; do
  run "chaos-$seed" --chaos "$seed"
done
for seed in 1800 1831 1862; do
  run "chaos-corruption-$seed" --chaos-corruption "$seed" --chaos-intensity 0.5
done
run explore-depth-8 --explore --depth 8
run experiments-all-quick all
exit "$status"
