#!/usr/bin/env bash
# Output identity against another revision.
#
#   scripts/same_outputs.sh <rev> [seconds]
#
# Builds perfbench for the working tree and for <rev> (a `git archive`
# checkout under target/same_outputs/, so no worktree is registered), runs
# each of the four workloads at seed 7 for [seconds] (default 5) on each
# side, one process at a time, and diffs the per-instance `digest` lines
# over the instances both sides ran. How many instances a side runs
# depends on its speed, so only the common prefix is compared.
#
# Exits 1 if any digest differs, if a workload has no instance in common,
# or if a run fails its own checks; 2 on a usage or setup error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/same_outputs.sh <rev> [seconds]" >&2
  exit 2
fi
seconds="${2:-5}"
sha="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "same_outputs: unknown revision $1" >&2
  exit 2
}

root="$PWD"
work="$root/target/same_outputs"
theirs="$work/$sha"
rm -rf "$theirs"
mkdir -p "$theirs/src"
git archive "$sha" | tar -x -C "$theirs/src"

status=0

# run <checkout> <cargo target dir> <workload> <digest file>
run() {
  if ! (cd "$1" && CARGO_TARGET_DIR="$2" python3 perfbench/run.py \
      --workload "$3" --seed 7 --seconds "$seconds") > "$4.log"; then
    echo "same_outputs: $3 failed its checks in $1 (see $4.log)" >&2
    status=1
  fi
  grep '^digest ' "$4.log" > "$4" || true
}

for w in thm11_rmat thm11_rmat_sharded lowdeg_regular batch_mixed; do
  run "$root" "$work/build-worktree" "$w" "$work/$w.ours"
  run "$theirs/src" "$theirs/build" "$w" "$work/$w.theirs"
  ours=$(wc -l < "$work/$w.ours")
  other=$(wc -l < "$work/$w.theirs")
  common=$(( ours < other ? ours : other ))
  if [ "$common" -eq 0 ]; then
    echo "same_outputs: $w: no instance in common ($ours here, $other at $1)" >&2
    status=1
  elif ! diff <(head -n "$common" "$work/$w.ours") <(head -n "$common" "$work/$w.theirs") >&2; then
    echo "same_outputs: $w: digests differ from $1 (< here, > $1)" >&2
    status=1
  else
    echo "same_outputs: $w: $common common digests identical ($ours here, $other at $1)"
  fi
done
exit "$status"
