//! Benchmark driver: runs one workload for a fixed time and prints its
//! metrics, with the result as one JSON object on the last line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced solves.
//! `--trace 1` steps every execution with spans, reports the per-layer
//! metrics, and writes the spans to `DIR` as JSON lines. A run whose
//! outputs fail a check still prints its result, then exits with code 1.

#![forbid(unsafe_code)]

mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use cc_mis_sim::par_nodes::{set_thread_override, thread_count};
use cc_mis_sim::shard::effective_backend;
use cc_mis_sim::{set_backend_override, ShardBackend};

use workloads::{Workload, QUANTUM};

/// `par_nodes` worker threads. One is at most `nproc` on any host. On a
/// shared two-core host, two threads made every workload slower and its
/// timings noisier, because scoped workers are spawned on each parallel call.
const THREADS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<String> {
        let i = args.iter().position(|a| a == key)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload '{workload}'"))?;
    let number = |key: &str, v: Option<String>| -> Result<String, String> {
        v.ok_or(format!("missing {key}"))
    };
    let seed = number("--seed", get("--seed"))?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = number("--seconds", get("--seconds"))?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_dir: get("--spans-dir").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    set_thread_override(Some(THREADS));
    set_backend_override(Some(ShardBackend::Channel));

    let w = args.workload;
    let report = workloads::run(w, args.seed, args.seconds, args.trace);
    println!(
        "config workload={} seed={} seconds={} trace={} threads={} shards={} shard_backend={:?} quantum={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        thread_count(),
        w.shards(),
        effective_backend(),
        QUANTUM,
    );
    for line in &report.lines {
        println!("{line}");
    }
    if let (Some(log), Some(dir)) = (&report.log, &args.spans_dir) {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            log.borrow().write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
        match written {
            Ok(()) => println!(
                "spans {} written to {}",
                log.borrow().spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite number in JSON syntax; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
