//! Shared plumbing for the experiment binaries (`src/bin/e*.rs`,
//! `src/bin/a1_ablation.rs`) and the wall-clock benches (which use the
//! in-tree [`harness`] — the workspace carries no registry dependencies).
//!
//! Each binary regenerates one claim of the paper (see DESIGN.md §4 and
//! EXPERIMENTS.md). This library provides the common workload definitions
//! and output conventions so every experiment reports comparable numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod regress;

use cc_mis_graph::{generators, Graph};

/// A named graph workload, reproducible from `(family, n, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `G(n, p)` with average degree `avg`.
    GnpAvgDeg(u32),
    /// `G(n, p)` with `Δ ≈ n^{alpha/100}` (alpha in percent).
    GnpPowerDelta(u32),
    /// Random `d`-regular.
    Regular(u32),
    /// Barabási–Albert with attachment `m`.
    PrefAttach(u32),
    /// `k` disjoint cliques of size `n/k` (here parameterized by clique
    /// size).
    Cliques(u32),
    /// Star graph (one hub).
    Star,
    /// 2-D grid (as square as possible).
    Grid,
}

impl Family {
    /// Short label for table rows.
    pub fn label(&self) -> String {
        match self {
            Family::GnpAvgDeg(d) => format!("gnp-avg{d}"),
            Family::GnpPowerDelta(a) => format!("gnp-n^{:.2}", *a as f64 / 100.0),
            Family::Regular(d) => format!("reg-{d}"),
            Family::PrefAttach(m) => format!("ba-{m}"),
            Family::Cliques(s) => format!("cliques-{s}"),
            Family::Star => "star".to_string(),
            Family::Grid => "grid".to_string(),
        }
    }

    /// Instantiates the workload at size `n` with the given seed.
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        match *self {
            Family::GnpAvgDeg(d) => {
                let p = (d as f64 / (n.max(2) - 1) as f64).min(1.0);
                generators::erdos_renyi_gnp(n, p, seed)
            }
            Family::GnpPowerDelta(a) => {
                let target_delta = (n as f64).powf(a as f64 / 100.0);
                let p = (target_delta / (n.max(2) - 1) as f64).min(1.0);
                generators::erdos_renyi_gnp(n, p, seed)
            }
            Family::Regular(d) => {
                let d = (d as usize).min(n.saturating_sub(1));
                let d = if n * d % 2 == 1 {
                    d.saturating_sub(1)
                } else {
                    d
                };
                generators::random_regular(n, d, seed)
            }
            Family::PrefAttach(m) => {
                let m = (m as usize).min(n.saturating_sub(1)).max(1);
                generators::barabasi_albert(n.max(m + 1), m, seed)
            }
            Family::Cliques(s) => {
                let s = (s as usize).max(2).min(n);
                generators::disjoint_cliques(n / s, s)
            }
            Family::Star => generators::star(n),
            Family::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                generators::grid(side.max(1), side.max(1))
            }
        }
    }
}

/// The standard multi-seed count used across experiments (overridable via
/// the `TRIALS` environment variable).
#[allow(
    clippy::disallowed_methods,
    reason = "experiment knob read by the harness binaries, not the simulator"
)]
pub fn default_trials() -> usize {
    std::env::var("TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

/// The standard "quick mode" switch (set `QUICK=1` to shrink sweeps — used
/// by the smoke tests so every experiment binary stays CI-runnable).
#[allow(
    clippy::disallowed_methods,
    reason = "experiment knob read by the harness binaries, not the simulator"
)]
pub fn quick_mode() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Writes a CSV string next to the experiment output when `CSV_DIR` is set;
/// returns the path it wrote to, if any.
#[allow(
    clippy::disallowed_methods,
    reason = "experiment output directory, read by the harness binaries, not the simulator"
)]
pub fn maybe_write_csv(name: &str, csv: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var("CSV_DIR").ok()?;
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, csv).is_ok() {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_at_small_sizes() {
        let fams = [
            Family::GnpAvgDeg(8),
            Family::GnpPowerDelta(50),
            Family::Regular(4),
            Family::PrefAttach(3),
            Family::Cliques(5),
            Family::Star,
            Family::Grid,
        ];
        for f in fams {
            let g = f.build(64, 1);
            assert!(g.node_count() > 0, "{}", f.label());
            assert!(!f.label().is_empty());
        }
    }

    #[test]
    fn gnp_power_delta_tracks_target() {
        let f = Family::GnpPowerDelta(50); // Δ ≈ √n
        let g = f.build(1024, 3);
        let delta = g.max_degree() as f64;
        let target = (1024.0f64).sqrt();
        assert!(delta > target / 3.0 && delta < target * 3.0, "Δ = {delta}");
    }

    #[test]
    fn regular_handles_odd_products() {
        let g = Family::Regular(3).build(7, 0); // 7*3 odd → degree drops to 2
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn trials_default() {
        assert!(default_trials() >= 1);
    }
}
