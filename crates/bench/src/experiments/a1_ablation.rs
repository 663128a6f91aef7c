//! **A1 — ablation of the sparsification parameters.**
//!
//! DESIGN.md's design choices under the knife:
//!
//! * **Phase length `P`** — `P = 1` is the paper's own constant at feasible
//!   `n`; larger `P` packs more iterations per phase (fewer phases) but
//!   inflates the gathered balls (`D^{2P}` growth) and, once ball bits
//!   approach the `n·B` capacity, routing rounds explode — the `n^δ`
//!   condition of Lemma 2.14 becoming binding is directly visible here.
//! * **Super-heavy threshold `L = 2^ℓ`** — smaller `ℓ` stabilizes more
//!   nodes deterministically (cheaper phases, sparser `S`) at the cost of
//!   more iterations; the paper's relationship is `ℓ = 2P`.

use cc_mis_analysis::table::Table;
use cc_mis_core::clique_mis::{run_clique_mis, CliqueMisParams};
use cc_mis_core::common::iterations_for_max_degree;
use cc_mis_core::sparsified::SparsifiedParams;
use cc_mis_graph::checks;

use crate::Family;

/// Runs A1 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 96 } else { 300 };
    let phase_lens: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let sh_exps: &[u32] = if quick { &[2] } else { &[1, 2, 3, 4, 6] };

    let g = Family::GnpAvgDeg(12).build(n, 17);
    let budget = iterations_for_max_degree(g.max_degree(), 6.0);

    let mut t = Table::new(
        format!(
            "A1: phase length P × super-heavy threshold 2^ℓ (G({n},12/n), Δ = {}, single seed)",
            g.max_degree()
        ),
        &[
            "P",
            "ℓ",
            "rounds",
            "iters",
            "phases",
            "max ball",
            "max gather rounds",
            "residual edges",
        ],
    );
    for &p in phase_lens {
        for &sh in sh_exps {
            let params = SparsifiedParams {
                phase_len: p,
                super_heavy_log2: sh,
                max_iterations: budget,
            };
            let out = run_clique_mis(
                &g,
                &CliqueMisParams {
                    sparsified: Some(params),
                    skip_cleanup: false,
                },
                1,
            );
            assert!(checks::is_maximal_independent_set(&g, &out.mis));
            let max_ball = out
                .phases
                .iter()
                .map(|x| x.max_ball_edges)
                .max()
                .unwrap_or(0);
            let max_gather = out
                .phases
                .iter()
                .map(|x| x.gather_rounds)
                .max()
                .unwrap_or(0);
            t.row(&[
                p.to_string(),
                sh.to_string(),
                out.rounds.to_string(),
                out.iterations.to_string(),
                out.phases.len().to_string(),
                max_ball.to_string(),
                max_gather.to_string(),
                out.residual_edges.to_string(),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn a1_smoke() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 2);
    }
}
