//! Property-style tests across the whole stack: for seeded families of
//! random graphs, every algorithm's output satisfies its specification.
//!
//! Cases are deterministic seeded sweeps (no property-testing crate — the
//! workspace builds fully offline). The case index appears in every
//! assertion so failures replay exactly.

use clique_mis::algorithms::beeping_mis::{run_beeping_to_completion, BeepingParams};
use clique_mis::algorithms::clique_mis::{run_clique_mis, CliqueMisParams};
use clique_mis::algorithms::greedy::greedy_mis;
use clique_mis::algorithms::luby::{run_luby, LubyParams};
use clique_mis::algorithms::reductions::{coloring_via_mis, maximal_matching_via_mis};
use clique_mis::algorithms::sparsified::{run_sparsified, SparsifiedParams};
use clique_mis::graph::rng::SplitMix64;
use clique_mis::graph::{checks, generators, Graph};

const CASES: u64 = 24;

/// Deterministic case graph: G(n, p) with seeded n, edge density, seed.
fn graph_case(case: u64) -> (Graph, u64) {
    let mut r = SplitMix64::new(0x5EEDu64.wrapping_mul(case + 1));
    let n = 2 + r.next_below(78) as usize;
    let p = 0.4 * r.next_f64();
    let gseed = r.next_below(1000);
    let algo_seed = r.next_below(100);
    (generators::erdos_renyi_gnp(n, p, gseed), algo_seed)
}

#[test]
fn greedy_always_returns_mis() {
    for case in 0..CASES {
        let (g, _) = graph_case(case);
        let mis = greedy_mis(&g);
        assert!(checks::is_maximal_independent_set(&g, &mis), "case {case}");
    }
}

#[test]
fn luby_always_returns_mis() {
    for case in 0..CASES {
        let (g, seed) = graph_case(case);
        let out = run_luby(&g, &LubyParams::for_graph(&g), seed);
        assert!(
            checks::is_maximal_independent_set(&g, &out.mis),
            "case {case}"
        );
    }
}

#[test]
fn beeping_always_returns_mis() {
    for case in 0..CASES {
        let (g, seed) = graph_case(case);
        let out = run_beeping_to_completion(&g, &BeepingParams::for_graph(&g), seed);
        assert!(
            checks::is_maximal_independent_set(&g, &out.mis),
            "case {case}"
        );
    }
}

#[test]
fn clique_mis_always_returns_mis() {
    for case in 0..CASES {
        let (g, seed) = graph_case(case);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), seed);
        assert!(
            checks::is_maximal_independent_set(&g, &out.mis),
            "case {case}"
        );
    }
}

#[test]
fn sparsified_partial_output_is_independent_and_dominating_where_decided() {
    for case in 0..CASES {
        let (g, seed) = graph_case(case);
        let run = run_sparsified(&g, &SparsifiedParams::for_graph(&g), seed);
        assert!(checks::is_independent_set(&g, &run.mis), "case {case}");
        // Every removed non-joiner has an MIS neighbor.
        for i in 0..g.node_count() {
            if run.removed_at[i].is_some() && run.joined_at[i].is_none() {
                let v = clique_mis::graph::NodeId::new(i as u32);
                assert!(
                    g.neighbors(v)
                        .iter()
                        .any(|u| run.joined_at[u.index()].is_some()),
                    "case {case}: node {v}"
                );
            }
        }
        // Residual nodes have no MIS neighbor (else they would be removed).
        for &v in &run.residual {
            assert!(
                g.neighbors(v)
                    .iter()
                    .all(|u| run.joined_at[u.index()].is_none()),
                "case {case}: node {v}"
            );
        }
    }
}

#[test]
fn simulation_equivalence_holds_generically() {
    for case in 0..CASES {
        let (g, seed) = graph_case(case);
        let p = 1 + (case as usize % 3);
        let params = SparsifiedParams {
            phase_len: p,
            super_heavy_log2: (2 * p) as u32,
            max_iterations: 8,
        };
        let direct = run_sparsified(&g, &params, seed);
        let sim = run_clique_mis(
            &g,
            &CliqueMisParams {
                sparsified: Some(params),
                skip_cleanup: true,
            },
            seed,
        );
        assert_eq!(direct.joined_at, sim.joined_at, "case {case}");
        assert_eq!(direct.removed_at, sim.removed_at, "case {case}");
    }
}

#[test]
fn matching_reduction_is_always_maximal() {
    for case in 0..CASES {
        let (g, _) = graph_case(case);
        let m = maximal_matching_via_mis(&g, greedy_mis);
        assert!(checks::is_maximal_matching(&g, &m), "case {case}");
    }
}

#[test]
fn coloring_reduction_is_always_proper() {
    for case in 0..CASES {
        let (g, _) = graph_case(case);
        let palette = g.max_degree() + 1;
        let colors = coloring_via_mis(&g, palette, greedy_mis).unwrap();
        assert!(
            checks::is_proper_coloring(&g, &colors, palette),
            "case {case}"
        );
    }
}

#[test]
fn mis_implies_one_ruling_set() {
    for case in 0..CASES {
        let (g, _) = graph_case(case);
        let mis = greedy_mis(&g);
        assert!(checks::is_k_ruling_set(&g, &mis, 1), "case {case}");
    }
}
