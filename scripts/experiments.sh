#!/usr/bin/env bash
# Regenerates results/experiments_all.txt from the 13 experiment binaries
# (e1_headline … e12_lca, then a1_ablation), each run preceded by one
# `=== <name> ===` line. Every experiment is seeded and exact, so the file
# is a golden artifact: a change that moves a simulated round count, a
# slope or a shattering residual shows up as a diff.
#
#   scripts/experiments.sh           # rewrite results/experiments_all.txt
#   scripts/experiments.sh --check   # diff against it; exit 1 on any change
#
# Re-pinning (running without --check and committing the result) needs a
# stated reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") check=0 ;;
  --check) check=1 ;;
  *)
    echo "usage: scripts/experiments.sh [--check]" >&2
    exit 2
    ;;
esac

experiments=(
  e1_headline e2_delta_scaling e3_local_complexity e4_golden_rounds
  e5_shattering e6_sparsification e7_exponentiation e8_lowdeg
  e9_equivalence e10_accounting e11_reductions e12_lca a1_ablation
)
pinned=results/experiments_all.txt

# The harness knobs change what the binaries print; the pinned file is the
# default configuration.
unset TRIALS QUICK CSV_DIR

cargo build --release -q -p cc-mis-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
for name in "${experiments[@]}"; do
  echo "=== $name ==="
  "$bin_dir/$name"
done >"$fresh"

if [ "$check" = 1 ]; then
  if ! diff -u "$pinned" "$fresh"; then
    echo "experiments: output differs from $pinned" >&2
    exit 1
  fi
  echo "experiments: $pinned reproduced byte for byte"
else
  cp "$fresh" "$pinned"
  echo "experiments: wrote $pinned"
fi
