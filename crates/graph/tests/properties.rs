//! Property-style tests of the graph substrate.
//!
//! Each test sweeps a deterministic, seeded family of cases (driven by
//! `cc_mis_graph::rng::SplitMix64`) instead of a property-testing crate:
//! the workspace must build offline with zero registry dependencies, and
//! reproducibility matters more here than shrinking. Failure messages
//! include the case seed so any counterexample replays exactly.

use cc_mis_graph::rng::SplitMix64;
use cc_mis_graph::{checks, generators, ops, Graph, GraphBuilder, NodeId};
use std::collections::BTreeSet;

const CASES: u64 = 48;

/// Deterministic `G(n, p)` instance for case index `case`.
fn gnp_case(case: u64) -> (Graph, u64) {
    let mut r = SplitMix64::new(0x9e3779b97f4a7c15u64.wrapping_mul(case + 1));
    let n = 1 + (r.next_below(59) as usize);
    let p = 0.5 * r.next_f64();
    let seed = r.next_below(500);
    (generators::erdos_renyi_gnp(n, p, seed), seed)
}

#[test]
fn generators_are_deterministic() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(case);
        let n = 1 + r.next_below(59) as usize;
        let p = 0.5 * r.next_f64();
        let seed = r.next_below(100);
        let a = generators::erdos_renyi_gnp(n, p, seed);
        let b = generators::erdos_renyi_gnp(n, p, seed);
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn builder_rejects_exactly_self_loops_and_range() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(1000 + case);
        let n = 2 + r.next_below(38) as usize;
        let mut b = GraphBuilder::new(n);
        for _ in 0..r.next_below(80) {
            let u = r.next_below(n as u64) as u32;
            let v = r.next_below(n as u64) as u32;
            let res = b.add_edge(NodeId::new(u), NodeId::new(v));
            assert_eq!(res.is_err(), u == v, "case {case}: u={u} v={v}");
        }
        let g = b.build();
        // Handshake: sum of degrees = 2m.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count(), "case {case}");
    }
}

#[test]
fn adjacency_is_symmetric_and_sorted() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "case {case}: unsorted at {v}"
            );
            for &u in nbrs {
                assert!(g.has_edge(u, v), "case {case}: asymmetric {u} {v}");
                assert_ne!(u, v, "case {case}: self-loop at {v}");
            }
        }
    }
}

#[test]
fn gnm_has_exact_edge_count() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(2000 + case);
        let n = 2 + r.next_below(38) as usize;
        let max = n * (n - 1) / 2;
        let m = r.next_below(max as u64 + 1) as usize;
        let g = generators::erdos_renyi_gnm(n, m, case);
        assert_eq!(g.edge_count(), m, "case {case}: n={n} m={m}");
    }
}

#[test]
fn power_is_monotone_in_k() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let k = 1 + (case as usize % 3);
        let gk = ops::power(&g, k);
        let gk1 = ops::power(&g, k + 1);
        let e_k: BTreeSet<_> = gk.edges().collect();
        let e_k1: BTreeSet<_> = gk1.edges().collect();
        assert!(e_k.is_subset(&e_k1), "case {case}");
        // G^1 = G.
        assert_eq!(ops::power(&g, 1), g, "case {case}");
    }
}

#[test]
fn square_matches_power_two() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        assert_eq!(ops::square(&g), ops::power(&g, 2), "case {case}");
    }
}

#[test]
fn induced_subgraph_is_a_subgraph() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let mask_seed = case % 100;
        // Select ~half the vertices deterministically from mask_seed.
        let verts: Vec<NodeId> = g
            .nodes()
            .filter(|v| {
                (v.raw() as u64)
                    .wrapping_mul(mask_seed + 1)
                    .is_multiple_of(2)
            })
            .collect();
        let (sub, back) = ops::induced_subgraph(&g, &verts);
        assert_eq!(sub.node_count(), verts.len(), "case {case}");
        for (u, v) in sub.edges() {
            assert!(g.has_edge(back[u.index()], back[v.index()]), "case {case}");
        }
        // Every original edge between selected vertices survives.
        let selected: BTreeSet<NodeId> = verts.iter().copied().collect();
        let surviving = g
            .edges()
            .filter(|(u, v)| selected.contains(u) && selected.contains(v))
            .count();
        assert_eq!(sub.edge_count(), surviving, "case {case}");
    }
}

#[test]
fn line_graph_counts() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let (lg, edge_of) = ops::line_graph(&g);
        assert_eq!(lg.node_count(), g.edge_count(), "case {case}");
        assert_eq!(edge_of.len(), g.edge_count(), "case {case}");
        // |E(L(G))| = Σ_v C(deg v, 2) for simple graphs.
        let expected: usize = g
            .nodes()
            .map(|v| {
                let d = g.degree(v);
                d * d.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(lg.edge_count(), expected, "case {case}");
    }
}

#[test]
fn components_partition_the_graph() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let (ids, count) = ops::connected_components(&g);
        assert_eq!(ids.len(), g.node_count(), "case {case}");
        assert!(ids.iter().all(|&c| c < count), "case {case}");
        // Endpoints of each edge share a component.
        for (u, v) in g.edges() {
            assert_eq!(ids[u.index()], ids[v.index()], "case {case}");
        }
        let sizes = ops::component_sizes(&g);
        assert_eq!(sizes.iter().sum::<usize>(), g.node_count(), "case {case}");
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "case {case}: not sorted desc"
        );
    }
}

#[test]
fn coloring_product_structure_is_sound() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let c = 1 + (case as usize % 3);
        let prod = ops::coloring_product(&g, c);
        assert_eq!(prod.node_count(), g.node_count() * c, "case {case}");
        let expected_edges = g.node_count() * c * (c - 1) / 2 + g.edge_count() * c;
        assert_eq!(prod.edge_count(), expected_edges, "case {case}");
        // decode ∘ encode is the identity.
        for id in prod.nodes() {
            let (v, i) = ops::decode_product(id, c);
            assert_eq!(v.index() * c + i, id.index(), "case {case}");
        }
    }
}

#[test]
fn greedy_style_selection_passes_checks() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        // A lowest-id greedy MIS computed inline must satisfy all three
        // checker predicates (cross-validating the checkers themselves).
        let n = g.node_count();
        let mut blocked = vec![false; n];
        let mut mis = Vec::new();
        for v in g.nodes() {
            if !blocked[v.index()] {
                mis.push(v);
                blocked[v.index()] = true;
                for &u in g.neighbors(v) {
                    blocked[u.index()] = true;
                }
            }
        }
        assert!(checks::is_independent_set(&g, &mis), "case {case}");
        assert!(checks::is_dominating_set(&g, &mis), "case {case}");
        assert!(checks::is_maximal_independent_set(&g, &mis), "case {case}");
        assert!(checks::is_k_ruling_set(&g, &mis, 1), "case {case}");
    }
}

#[test]
fn filter_vertices_drops_only_touching_edges() {
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let f = ops::filter_vertices(&g, |v| v.raw() % 2 == 0);
        assert_eq!(f.node_count(), g.node_count(), "case {case}");
        for (u, v) in f.edges() {
            assert!(u.raw() % 2 == 0 && v.raw() % 2 == 0, "case {case}");
            assert!(g.has_edge(u, v), "case {case}");
        }
    }
}

/// The CSR restriction equals the `GraphBuilder` construction it replaced
/// (every kept edge inserted into the builder), over seeded graphs with
/// isolated nodes and random, empty and full masks.
#[test]
fn filter_vertices_equals_the_builder_construction() {
    fn built(g: &Graph, keep: &[bool]) -> Graph {
        let mut b = GraphBuilder::new(g.node_count());
        for (u, v) in g.edges() {
            if keep[u.index()] && keep[v.index()] {
                b.add_edge(u, v).expect("filtered edge");
            }
        }
        b.build()
    }
    for case in 0..CASES {
        let (g, _) = gnp_case(case);
        let mut r = SplitMix64::new(0xF17E_u64.wrapping_mul(case + 1));
        // Isolated nodes past the G(n, p) instance's own.
        let n = g.node_count() + r.next_below(4) as usize;
        let g = Graph::from_edges(n, g.edges().map(|(u, v)| (u.raw(), v.raw())))
            .expect("edges of a valid graph");
        let random: Vec<bool> = (0..n).map(|_| r.next_below(3) != 0).collect();
        for keep in [random, vec![false; n], vec![true; n]] {
            let f = ops::filter_vertices(&g, |v| keep[v.index()]);
            assert_eq!(f, built(&g, &keep), "case {case}");
            assert_eq!(f.edge_count(), f.edges().count(), "case {case}");
        }
    }
}

#[test]
fn regular_generator_is_regular() {
    let configs = [(10, 3), (20, 4), (15, 2), (30, 5), (12, 6)];
    for case in 0..20u64 {
        let (n, d) = configs[case as usize % configs.len()];
        // ensure even product
        let d = if n * d % 2 == 1 { d - 1 } else { d };
        for seed in 0..5 {
            let g = generators::random_regular(n, d, case * 7 + seed);
            assert!(
                g.nodes().all(|v| g.degree(v) == d),
                "case {case} seed {seed}"
            );
        }
    }
}
