#!/usr/bin/env bash
# Tier-1 gate: offline build, the full test suite, a lint-clean tree, and a
# conform-clean tree (cc-mis-conform, the in-tree model-invariant linter).
# Everything must pass before a change lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --workspace --all-targets
cargo test --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Conformance lint, archiving the SARIF log for CI annotation tooling.
# Exit 3 means an error-severity finding (P1 broken pragma, R21
# determinism taint) — state corruption, called out explicitly.
mkdir -p target
conform_status=0
cargo run -q -p cc-mis-conform -- --workspace --sarif target/conform.sarif || conform_status=$?
if [ "$conform_status" = "3" ]; then
  echo "tier1: FAILED — error-severity conform finding (see target/conform.sarif)" >&2
  exit 3
elif [ "$conform_status" != "0" ]; then
  echo "tier1: FAILED — conform findings (see target/conform.sarif)" >&2
  exit "$conform_status"
fi

# Opt-in perf gate: BENCH_CHECK=1 reruns the engines bench and fails if any
# clique_all_to_all_round median regresses >25% vs the pinned
# results/bench_engines.json (kept opt-in: wall-clock gates are too noisy
# for shared CI runners, but useful before re-pinning).
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  scripts/bench.sh --check
fi

echo "tier1: OK"
