#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of thm11_rmat, thm11_rmat_sharded, lowdeg_regular, batch_mixed.
The script builds the `perfbench` package in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the one workload in a
process of its own and relays its output. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--trace 1` reports per-layer metrics and writes the spans to `.bench_out/`.
`--workload all` runs every workload in turn and prints one table.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["thm11_rmat", "thm11_rmat_sharded", "lowdeg_regular", "batch_mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    for crate in ("graph", "sim", "core"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing; run from a full checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail(f"cargo build failed with exit code {built.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, digests=True):
    """Runs one workload in its own process and relays its output, without
    the per-instance digest lines unless `digests`; returns (exit code,
    result). The binary prints a result and exits with 1 when an output
    fails a check."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        if digests or not line.startswith("digest "):
            print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    binary = build()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            fail(f"workload {args.workload} produced no result (exit code {code})")
        return 0 if code == 0 and result["correct"] else 1

    rows = {}
    ok = True
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args.seed, args.seconds, args.trace, digests=False)
        if result is None:
            fail(f"workload {workload} produced no result (exit code {code})")
        rows[workload] = result
        ok = ok and code == 0 and result["correct"]
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<26}" + "".join(f"{w:>22}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{rows[w]['metrics'][name]['value']:>22.6g}" for w in WORKLOADS)
        print(f"{name + ' [' + unit + ']':<26}{cells}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:<26}" + "".join(f"{str(rows[w][key]):>22}" for w in WORKLOADS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
