//! **E4 — golden rounds and wrong moves (Lemmas 2.3–2.5, 2.8–2.10).**
//!
//! The paper's analysis engine: during a node's undecided lifetime `T`,
//! at least `0.05 T` rounds are *golden* (w.p. `≥ 1-ε/2`, Lemma 2.3/2.8),
//! and each round is a *wrong move* with probability at most `0.02`
//! (Lemmas 2.4/2.5 and 2.9/2.10). We instrument both the plain beeping
//! algorithm (§2.2) and the sparsified variant (§2.3) and report the
//! per-node golden-round fraction and the empirical wrong-move rate.

use cc_mis_analysis::stats::Summary;
use cc_mis_analysis::table::{f3, Table};
use cc_mis_core::beeping_mis::{beeping_trace, BeepingParams};
use cc_mis_core::sparsified::{sparsified_trace, SparsifiedParams};
use cc_mis_graph::generators;

use crate::default_trials;

/// Runs E4 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 128 } else { 512 };
    let trials = if quick { 2 } else { default_trials() };

    let mut t = Table::new(
        format!("E4: golden-round fraction & wrong-move rate (n = {n}, G(n,16/n))"),
        &[
            "algorithm",
            "seed",
            "golden frac (mean)",
            "golden frac (min)",
            "frac nodes ≥ 0.05",
            "wrong-move rate",
        ],
    );

    for seed in 0..trials as u64 {
        let g = generators::erdos_renyi_gnp(n, 16.0 / n as f64, 300 + seed);

        // §2.2 beeping algorithm.
        let trace = beeping_trace(&g, seed, BeepingParams::for_graph(&g).max_iterations);
        let (fracs, wrong_rate) = fractions(
            &trace.golden1,
            &trace.golden2,
            &trace.wrong_moves,
            &trace.undecided_iterations,
        );
        let s = Summary::of(&fracs);
        let above = fracs.iter().filter(|&&f| f >= 0.05).count() as f64 / fracs.len() as f64;
        t.row(&[
            "beeping (§2.2)".to_string(),
            seed.to_string(),
            f3(s.mean),
            f3(s.min),
            f3(above),
            f3(wrong_rate),
        ]);

        // §2.3 sparsified algorithm.
        let trace = sparsified_trace(&g, &SparsifiedParams::for_graph(&g), seed);
        let zeros = vec![0u64; g.node_count()];
        let (fracs, _) = fractions(
            &trace.golden1,
            &trace.golden2,
            &zeros,
            &trace.undecided_iterations,
        );
        let s = Summary::of(&fracs);
        let above = fracs.iter().filter(|&&f| f >= 0.05).count() as f64 / fracs.len() as f64;
        t.row(&[
            "sparsified (§2.3)".to_string(),
            seed.to_string(),
            f3(s.mean),
            f3(s.min),
            f3(above),
            "n/a".to_string(),
        ]);
    }
    vec![t]
}

/// Per-node golden fraction (goldens / undecided-lifetime) and the pooled
/// wrong-move rate (wrong moves / node-iterations).
fn fractions(golden1: &[u64], golden2: &[u64], wrong: &[u64], lifetime: &[u64]) -> (Vec<f64>, f64) {
    let mut fracs = Vec::new();
    let mut wrong_total = 0u64;
    let mut life_total = 0u64;
    for i in 0..golden1.len() {
        if lifetime[i] > 0 {
            fracs.push((golden1[i] + golden2[i]) as f64 / lifetime[i] as f64);
            wrong_total += wrong[i];
            life_total += lifetime[i];
        }
    }
    let rate = if life_total > 0 {
        wrong_total as f64 / life_total as f64
    } else {
        0.0
    };
    (fracs, rate)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_smoke() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 2);
    }
}
