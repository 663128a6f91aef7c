//! `sparsified_trace` against pinned counters and the execution it
//! replays.
//!
//! The totals were recorded from the golden-round counters that the
//! sparsified execution used to keep inside its step, so the replay pass
//! counts what that step counted. The per-node lifetimes tie the replay's
//! trajectory to [`run_sparsified`]'s: a node is undecided in exactly the
//! iterations up to and including the one that removes it.

use cc_mis_core::sparsified::{run_sparsified, sparsified_trace, SparsifiedParams};
use cc_mis_graph::{generators, Graph};

/// `(name, graph, P, seed)`; the budget is the graph's default.
fn cases() -> Vec<(&'static str, Graph, usize, u64)> {
    vec![
        ("gnp60", generators::erdos_renyi_gnp(60, 0.1, 1), 1, 3),
        ("gnp150", generators::erdos_renyi_gnp(150, 0.08, 9), 3, 4),
        ("star120", generators::star(120), 1, 0),
        ("cliques", generators::disjoint_cliques(6, 8), 2, 1),
        ("grid8x8", generators::grid(8, 8), 2, 7),
        ("regular", generators::random_regular(128, 6, 5), 3, 2),
    ]
}

fn params(g: &Graph, phase_len: usize) -> SparsifiedParams {
    SparsifiedParams {
        phase_len,
        super_heavy_log2: (2 * phase_len) as u32,
        ..SparsifiedParams::for_graph(g)
    }
}

/// `(name, golden1, golden2, undecided_iterations)` summed over nodes.
const PINNED: [(&str, u64, u64, u64); 6] = [
    ("gnp60", 2, 196, 199),
    ("gnp150", 16, 672, 695),
    ("star120", 174, 2, 414),
    ("cliques", 0, 192, 192),
    ("grid8x8", 7, 229, 236),
    ("regular", 16, 436, 455),
];

#[test]
fn totals_match_the_pinned_counters() {
    for ((name, g, phase_len, seed), pinned) in cases().into_iter().zip(PINNED) {
        assert_eq!(name, pinned.0);
        let trace = sparsified_trace(&g, &params(&g, phase_len), seed);
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        assert_eq!(
            (
                name,
                sum(&trace.golden1),
                sum(&trace.golden2),
                sum(&trace.undecided_iterations)
            ),
            pinned
        );
    }
}

#[test]
fn lifetimes_follow_the_executions_removals() {
    for (name, g, phase_len, seed) in cases() {
        // The default budget, then one that truncates the final phase.
        for budget in [None, Some(5)] {
            let mut p = params(&g, phase_len);
            p.max_iterations = budget.unwrap_or(p.max_iterations);
            let run = run_sparsified(&g, &p, seed);
            let trace = sparsified_trace(&g, &p, seed);
            for (i, r) in run.removed_at.iter().enumerate() {
                assert_eq!(
                    trace.undecided_iterations[i],
                    r.map_or(run.iterations, |r| r + 1),
                    "{name} budget {budget:?}: node {i}"
                );
            }
        }
    }
}
