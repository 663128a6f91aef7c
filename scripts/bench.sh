#!/usr/bin/env bash
# Wall-clock benchmarks -> results/bench_<exp>.json.
#
# Two layers:
#   1. the harness benches (per-operation timings; each group appends one
#      JSON line via BENCH_JSON — see crates/bench/src/harness.rs),
#      including the two layers under the low-degree path: the
#      `gather_balls` group (exponentiation) and the `lenzen_routing`
#      group (routing);
#   2. end-to-end experiment timings for the perf-sensitive experiments
#      (e1, e7), reported as the minimum of $SAMPLES runs.
#
# BENCH_SAMPLES controls harness sample counts; SAMPLES (default 3) the
# end-to-end repetitions.
#
# `bench.sh --check` is the regression gate: it reruns the engines and
# batch-throughput benches into scratch files and fails if any
# `clique_all_to_all_round`, `sharded_round_frames` or
# `sharded_exchange_frames` median regresses >25% against the pinned
# results/bench_engines.json, or any
# `batch_throughput` median regresses >25% against
# results/bench_batch_throughput.json (see
# crates/bench/src/regress.rs). Opt into it from CI via BENCH_CHECK=1
# scripts/tier1.sh.
#
# Pins and the gate both run at one worker thread: at the default count,
# `par_map_nodes` spawns scoped threads on every call, so small benches
# (batch_throughput, mis_algorithms) would time thread spawns and host
# load instead of the code under test.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
export CC_MIS_THREADS=1

SAMPLES="${SAMPLES:-3}"

if [ "${1:-}" = "--check" ]; then
  cargo build --release --workspace
  fresh="$(mktemp)"
  fresh_batch="$(mktemp)"
  trap 'rm -f "$fresh" "$fresh_batch"' EXIT
  BENCH_JSON="$fresh" cargo bench -p cc-mis-bench --bench engines
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_engines.json "$fresh" clique_all_to_all_round 25
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_engines.json "$fresh" sharded_round_frames 25
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_engines.json "$fresh" sharded_exchange_frames 25
  BENCH_JSON="$fresh_batch" cargo bench -p cc-mis-bench --bench batch_throughput
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_batch_throughput.json "$fresh_batch" batch_throughput 25
  exit 0
fi

cargo build --release --workspace

for bench in engines mis_algorithms batch_throughput exponentiation routing; do
  out="results/bench_${bench}.json"
  : > "$out"
  # Absolute path: cargo runs bench binaries from the crate directory.
  BENCH_JSON="$PWD/$out" cargo bench -p cc-mis-bench --bench "$bench"
done

for exp in e1_headline e7_exponentiation; do
  bin="target/release/${exp}"
  best=""
  for _ in $(seq "$SAMPLES"); do
    t0=$(date +%s%N)
    "$bin" > /dev/null
    dt=$(( $(date +%s%N) - t0 ))
    if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
  done
  printf '{"group":"%s","results":[{"name":"%s/end_to_end","samples":%d,"min_ns":%d}]}\n' \
    "$exp" "$exp" "$SAMPLES" "$best" > "results/bench_${exp}.json"
  echo "results/bench_${exp}.json: min ${best} ns over ${SAMPLES} runs"
done
