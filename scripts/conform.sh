#!/usr/bin/env bash
# Runs the in-tree conformance linter over the whole workspace.
#
# Exits 0 on a clean tree, 1 on findings (printed as file:line rule-id msg),
# 3 on any error-severity finding (P1 broken pragma, R21 determinism
# taint), 2 on usage/IO errors.
#
#   scripts/conform.sh --fixtures-only       # just the linter's own test suite
#
# Extra flags pass straight through to the linter:
#   scripts/conform.sh --sarif out.sarif     # also write a SARIF 2.1.0 log
#   scripts/conform.sh --list-rules          # print the rule set
#   scripts/conform.sh --explain R21         # contract, rationale, fix recipe
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fixtures-only" ]; then
  shift
  exec cargo test -p cc-mis-conform "$@"
fi

cargo run -q -p cc-mis-conform -- --workspace "$@"
