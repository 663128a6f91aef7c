#!/usr/bin/env bash
# Tier-1 gate: offline build, the full test suite (including the
# workspace-policy test: crate roots forbid unsafe code, lockfiles name no
# registry crate), a clippy-clean tree (including the root clippy.toml's
# hash-collection, thread, env, process and socket confinement), and a
# conform-clean tree (cc-mis-conform, the in-tree model-invariant linter).
# Everything must pass before a change lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --workspace --all-targets
cargo test --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Conformance lint. Exit 3 means an error-severity finding (P1 broken
# pragma, R21 determinism taint) — state corruption, called out
# explicitly.
conform_status=0
cargo run -q -p cc-mis-conform -- --workspace || conform_status=$?
if [ "$conform_status" = "3" ]; then
  echo "tier1: FAILED — error-severity conform finding" >&2
  exit 3
elif [ "$conform_status" != "0" ]; then
  echo "tier1: FAILED — conform findings" >&2
  exit "$conform_status"
fi

# Opt-in perf gate: BENCH_CHECK=1 runs `scripts/bench.sh --check`, which
# reruns the engines and batch_throughput benches and fails if any
# clique_all_to_all_round, sharded_round_frames or sharded_exchange_frames
# median regresses >25% vs the pinned results/bench_engines.json, or the
# batch_throughput median vs results/bench_batch_throughput.json (kept
# opt-in: wall-clock gates are too noisy for shared CI runners, but useful
# before re-pinning).
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  scripts/bench.sh --check
fi

echo "tier1: OK"
