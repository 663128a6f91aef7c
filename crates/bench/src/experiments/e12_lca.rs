//! **E12 — the local-computation-algorithm connection (§1.2).**
//!
//! §1.2 observes that Theorem 2.1's locality turns the beeping MIS into a
//! *local computation algorithm* à la [Parnas–Ron] / [Rubinfeld et al.]:
//! an MIS membership query probes only an `O(log deg)`-radius ball. Two
//! measurable claims:
//!
//! 1. **Per-query probes are independent of `n`** on bounded-degree
//!    graphs (sweep `n` at fixed degree).
//! 2. Probes grow with degree roughly like `d^{O(log d)}` — fast, which is
//!    exactly the "relatively open" high-degree regime the paper says its
//!    sparsification might improve.
//!
//! Every query is verified against the global execution.

use cc_mis_analysis::stats::Summary;
use cc_mis_analysis::table::{f2, Table};
use cc_mis_core::beeping_mis::{run_beeping, BeepingParams};
use cc_mis_core::lca::{MisAnswer, MisOracle};
use cc_mis_graph::generators;

/// Runs E12 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[200, 400]
    } else {
        &[500, 1000, 2000, 4000, 8000]
    };
    let queries = if quick { 20 } else { 100 };

    // Part 1: probes vs n at fixed degree 4.
    let mut t1 = Table::new(
        "E12a: LCA probes per query vs n (4-regular graphs, 100 queries, verified)",
        &["n", "mean probes", "p90", "max", "mean ball nodes"],
    );
    for &n in sizes {
        let g = generators::random_regular(n, 4, 7);
        let seed = 3;
        let global = run_beeping(
            &g,
            &BeepingParams {
                max_iterations: 100_000,
            },
            seed,
        );
        let oracle = MisOracle::new(&g, seed);
        let mut probes = Vec::new();
        let mut balls = Vec::new();
        for q in 0..queries {
            let v = cc_mis_graph::NodeId::new((q * (n / queries)) as u32);
            let (answer, stats) = oracle.query(v);
            let expected = if global.joined_at[v.index()].is_some() {
                MisAnswer::InMis
            } else {
                MisAnswer::Dominated
            };
            assert_eq!(answer, expected, "n={n} query {v}");
            probes.push(stats.probes as f64);
            balls.push(stats.ball_nodes as f64);
        }
        let s = Summary::of(&probes);
        let sb = Summary::of(&balls);
        t1.row(&[n.to_string(), f2(s.mean), f2(s.p90), f2(s.max), f2(sb.mean)]);
    }

    // Part 2: probes vs degree at fixed n.
    let n = if quick { 300 } else { 1500 };
    let degrees: &[usize] = if quick { &[3, 6] } else { &[2, 3, 4, 6, 8, 12] };
    let mut t2 = Table::new(
        format!("E12b: LCA probes per query vs degree (n = {n}, verified)"),
        &["d", "mean probes", "p90", "mean radius"],
    );
    for &d in degrees {
        let g = generators::random_regular(n, d, 9);
        let oracle = MisOracle::new(&g, 1);
        let mut probes = Vec::new();
        let mut radii = Vec::new();
        for q in 0..queries {
            let v = cc_mis_graph::NodeId::new((q * (n / queries)) as u32);
            let (_, stats) = oracle.query(v);
            probes.push(stats.probes as f64);
            radii.push(stats.radius as f64);
        }
        let s = Summary::of(&probes);
        t2.row(&[
            d.to_string(),
            f2(s.mean),
            f2(s.p90),
            f2(Summary::of(&radii).mean),
        ]);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_smoke() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 2);
    }
}
