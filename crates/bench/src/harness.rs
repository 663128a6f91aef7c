//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds fully offline, so the `[[bench]]` targets use this
//! instead of Criterion: each bench registers closures with a [`Harness`],
//! which warms up, times a fixed number of samples, prints a table, and —
//! when `BENCH_JSON` names a path — appends machine-readable results for
//! `scripts/bench.sh` to collect into `results/bench_<exp>.json`.
//!
//! Determinism note: sample counts and iteration counts come from the
//! environment (`BENCH_SAMPLES`, default 10), not from elapsed-time
//! calibration, so two runs measure identical work.

use cc_mis_analysis::json::Json;
use std::time::Instant;

/// Timing summary for one benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `group/name` label.
    pub name: String,
    /// Number of timed samples.
    pub samples: u32,
    /// Fastest sample, nanoseconds.
    pub min_ns: u64,
    /// Median sample, nanoseconds.
    pub median_ns: u64,
    /// First and third quartile samples, nanoseconds (nearest rank, like
    /// the median): the spread to read the median against.
    pub q1_ns: u64,
    /// See [`Sample::q1_ns`].
    pub q3_ns: u64,
    /// Mean sample, nanoseconds.
    pub mean_ns: u64,
}

impl Sample {
    /// JSON object for `results/bench_*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("samples", Json::from(self.samples as u64)),
            ("min_ns", Json::from(self.min_ns)),
            ("median_ns", Json::from(self.median_ns)),
            ("q1_ns", Json::from(self.q1_ns)),
            ("q3_ns", Json::from(self.q3_ns)),
            ("mean_ns", Json::from(self.mean_ns)),
        ])
    }
}

/// Collects and reports benchmark timings for one group.
pub struct Harness {
    group: String,
    samples: u32,
    results: Vec<Sample>,
}

impl Harness {
    /// Creates a harness; sample count comes from `BENCH_SAMPLES` (default
    /// 10, minimum 3 so the median is meaningful).
    #[allow(
        clippy::disallowed_methods,
        reason = "bench harness knob; no simulated count depends on it"
    )]
    pub fn new(group: &str) -> Self {
        let samples = std::env::var("BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(10)
            .max(3);
        Harness {
            group: group.to_string(),
            samples,
            results: Vec::new(),
        }
    }

    /// Times `f` (one warmup call, then `self.samples` timed calls) and
    /// records the result under `group/name`.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        let mut times: Vec<u64> = (0..self.samples)
            .map(|_| {
                // conform: allow(R3) -- wall-clock timing harness measures real elapsed time; nothing simulated or charged depends on it
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        let sample = Sample {
            name: format!("{}/{}", self.group, name),
            samples: self.samples,
            min_ns: times[0],
            median_ns: times[times.len() / 2],
            q1_ns: times[times.len() / 4],
            q3_ns: times[times.len() * 3 / 4],
            mean_ns: times.iter().sum::<u64>() / times.len() as u64,
        };
        println!(
            "{:<48} min {:>12}  median {:>12}  IQR {:>12} .. {:>12}  mean {:>12}",
            sample.name,
            fmt_ns(sample.min_ns),
            fmt_ns(sample.median_ns),
            fmt_ns(sample.q1_ns),
            fmt_ns(sample.q3_ns),
            fmt_ns(sample.mean_ns),
        );
        self.results.push(sample);
    }

    /// Finishes the group: if `BENCH_JSON` is set, appends one JSON line
    /// (`{"group": ..., "results": [...]}`) to that file.
    #[allow(
        clippy::disallowed_methods,
        reason = "bench harness knob; no simulated count depends on it"
    )]
    pub fn finish(self) {
        let Ok(path) = std::env::var("BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let record = Json::obj(vec![
            ("group", Json::from(self.group.as_str())),
            (
                "results",
                Json::Arr(self.results.iter().map(Sample::to_json).collect()),
            ),
        ]);
        use std::io::Write as _;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path);
        match file {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", record.render());
            }
            Err(e) => eprintln!("warning: cannot write BENCH_JSON={path}: {e}"),
        }
    }
}

/// Human-readable nanoseconds.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_records_every_registered_case() {
        let mut h = Harness::new("unit");
        h.bench("noop", || 1 + 1);
        h.bench("spin", || (0..100u64).sum::<u64>());
        assert_eq!(h.results.len(), 2);
        assert!(h.results[0].name.starts_with("unit/"));
        assert!(h
            .results
            .iter()
            .all(|s| s.min_ns <= s.q1_ns && s.q1_ns <= s.median_ns && s.median_ns <= s.q3_ns));
    }

    #[test]
    fn nanosecond_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
