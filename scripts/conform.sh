#!/usr/bin/env bash
# Runs the in-tree conformance linter over the whole workspace.
#
# Exits 0 on a clean tree, 1 on findings (printed as file:line rule-id msg),
# 3 on any error-severity finding (P1 broken pragma, R16 pool leak, R21
# determinism taint), 2 on usage/IO errors.
#
#   scripts/conform.sh --fixtures-only       # just the linter's own test suite
#
# Workspace runs reuse the persistent result cache (target/conform-cache.bin,
# content-hash keyed; --timings reports hits/misses; --no-cache bypasses it).
#
# Extra flags pass straight through to the linter:
#   scripts/conform.sh --json                # machine-readable findings
#   scripts/conform.sh --sarif out.sarif     # also write a SARIF 2.1.0 log
#   scripts/conform.sh --timings             # per-phase wall clock + cache stats
#   scripts/conform.sh --fix                 # apply mechanical fixes in place
#   scripts/conform.sh --fix --diff          # dry run: print the would-be diff
#   scripts/conform.sh --explain R16         # contract, rationale, fix recipe
#   scripts/conform.sh --baseline base.txt   # gate on *new* findings only:
#       first run snapshots current findings to base.txt (rule\tpath\tmessage,
#       no line numbers, so edits elsewhere don't churn it); later runs exit
#       nonzero only for findings not in the snapshot. Error-severity findings
#       are never baselined. Intended for adopting a new rule incrementally:
#       commit the baseline, burn it down, delete it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fixtures-only" ]; then
  shift
  exec cargo test -p cc-mis-conform "$@"
fi

cargo run -q -p cc-mis-conform -- --workspace "$@"
