//! **E7 — graph exponentiation (Lemma 2.14).**
//!
//! Learning the `r`-hop neighborhood costs `⌈log₂ r⌉` doubling steps, each
//! a single Lenzen-routing invocation — `O(1)` rounds per step whenever
//! the neighborhood stays far below `n^δ`. We sweep `r` on bounded-degree
//! graphs and report steps (expected: `⌈log₂ r⌉`), measured routing
//! rounds, and rounds per step; a second table shows how rounds-per-step
//! grow once ball bits approach the `n·B` per-node capacity.

use cc_mis_analysis::table::{f2, Table};
use cc_mis_core::exponentiation::gather_balls;
use cc_mis_graph::generators;
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::Frontier;

/// Runs E7 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 128 } else { 1024 };
    let radii: &[usize] = if quick {
        &[2, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };

    let mut t = Table::new(
        format!("E7: r-hop gathering on a cycle (n = {n}, 20-bit records)"),
        &[
            "radius",
            "steps",
            "expected ⌈log2 r⌉",
            "rounds",
            "rounds/step",
            "max ball edges",
        ],
    );
    for &r in radii {
        let g = generators::cycle(n);
        let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
        let res = gather_balls(&mut engine, &g, &Frontier::full(n), r, 20);
        let expected = if r <= 1 {
            0
        } else {
            (r as f64).log2().ceil() as u64
        };
        t.row(&[
            r.to_string(),
            res.steps.to_string(),
            expected.to_string(),
            res.rounds.to_string(),
            f2(res.rounds as f64 / res.steps.max(1) as f64),
            res.max_ball_edges.to_string(),
        ]);
    }

    let mut t2 = Table::new(
        format!("E7b: capacity pressure — radius-4 gathering vs degree (n = {n})"),
        &["d", "rounds", "max ball edges", "ball bits / (n·B)"],
    );
    let degrees: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8, 16, 32] };
    let record_bits = 24u64;
    for &d in degrees {
        let g = generators::random_regular(n, d, 3);
        let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
        let res = gather_balls(&mut engine, &g, &Frontier::full(n), 4, record_bits);
        let capacity = n as u64 * standard_bandwidth(n);
        let pressure = res.max_ball_edges as u64 * record_bits;
        t2.row(&[
            d.to_string(),
            res.rounds.to_string(),
            res.max_ball_edges.to_string(),
            f2(pressure as f64 / capacity as f64),
        ]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_smoke() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 2);
    }
}
