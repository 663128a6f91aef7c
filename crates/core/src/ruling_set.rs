//! 2-ruling sets (related work of §1.1, [Berns–Hegeman–Pemmaraju]).
//!
//! A `k`-ruling set is an independent set such that every vertex is within
//! distance `k` of a member; an MIS is exactly a 1-ruling set. The paper's
//! related work computes 2-ruling sets in `O(log log n)` expected rounds of
//! the congested clique; we provide the clean structural reduction instead:
//! **an MIS of the square graph `G²` is a 2-ruling set of `G`** (independent
//! in `G²` ⊇ `G`, and every vertex is within `G²`-distance 1 — i.e.
//! `G`-distance 2 — of the set). In the congested clique, `G²` is
//! computable in `O(1)` rounds (each node ships each incident edge to each
//! neighbor — the Lemma 2.14 packet bound), after which any clique MIS
//! algorithm finishes the job; composing with Theorem 1.1 gives a
//! `Õ(√(log Δ))`-round 2-ruling set.

use cc_mis_graph::ops::square;
use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::{node_id_bits, standard_bandwidth};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::routing::{charge_route, Packet};
use cc_mis_sim::RoundLedger;

use crate::clique_mis::{run_clique_mis, CliqueMisParams};

/// Result of [`two_ruling_set`].
#[derive(Debug, Clone)]
pub struct RulingSetResult {
    /// The 2-ruling set, sorted by id.
    pub set: Vec<NodeId>,
    /// Total clique rounds: squaring plus the MIS on `G²`.
    pub rounds: u64,
    /// Combined ledger.
    pub ledger: RoundLedger,
}

/// Computes a 2-ruling set of `g` in the congested clique: square the graph
/// (`O(1)` rounds via Lenzen routing of the per-edge packets), then run the
/// Theorem 1.1 MIS on `G²`.
///
/// # Example
///
/// ```
/// use cc_mis_core::ruling_set::two_ruling_set;
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::erdos_renyi_gnp(120, 0.05, 2);
/// let out = two_ruling_set(&g, 9);
/// assert!(checks::is_k_ruling_set(&g, &out.set, 2));
/// ```
pub fn two_ruling_set(g: &Graph, seed: u64) -> RulingSetResult {
    let n = g.node_count();
    let mut engine = CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)));
    engine.ledger_mut().begin_phase("squaring");

    // Distributed squaring: every node ships each incident edge to each
    // neighbor; afterwards each node knows all edges at distance ≤ 1 and
    // hence its G² adjacency. We charge the packet exchange honestly and
    // build the square centrally (the information flow is what costs).
    let id_bits = node_id_bits(n.max(2)).max(1);
    let mut packets: Vec<Packet<(u32, u32)>> = Vec::new();
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            for &w in g.neighbors(v) {
                if u != w {
                    packets.push(Packet {
                        src: v,
                        dst: u,
                        bits: 2 * id_bits,
                        payload: (v.raw(), w.raw()),
                    });
                }
            }
        }
    }
    charge_route(&mut engine, &packets).expect("squaring packets are well-formed");
    let g2 = square(g);

    // MIS on the square via the Theorem 1.1 algorithm.
    let mis = run_clique_mis(&g2, &CliqueMisParams::default(), seed);
    let mut ledger = engine.into_ledger();
    ledger.merge(&mis.ledger);
    RulingSetResult {
        set: mis.mis,
        rounds: ledger.rounds,
        ledger,
    }
}

/// Computes a `k`-ruling set of `g` (for `k ≥ 1`) as an MIS of the power
/// graph `G^k`, using the supplied MIS solver.
///
/// Correctness: an MIS `M` of `G^k` is independent in `G ⊆ G^k`, and every
/// vertex has a `G^k`-neighbor (or itself) in `M`, i.e. a member within
/// `G`-distance `k`. `k = 1` degenerates to plain MIS.
///
/// This generalizes the related work of §1.1 ([Berns et al.] compute
/// 2-ruling sets, [Hegeman et al.] 3-ruling sets); in the congested clique
/// `G^k` is obtainable in `O(log k)` rounds by graph exponentiation
/// (Lemma 2.14), after which any clique MIS algorithm applies.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use cc_mis_core::greedy::greedy_mis;
/// use cc_mis_core::ruling_set::k_ruling_set_via_mis;
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::path(30);
/// let set = k_ruling_set_via_mis(&g, 3, greedy_mis);
/// assert!(checks::is_k_ruling_set(&g, &set, 3));
/// ```
pub fn k_ruling_set_via_mis<F>(g: &Graph, k: usize, mis: F) -> Vec<NodeId>
where
    F: FnOnce(&Graph) -> Vec<NodeId>,
{
    assert!(k >= 1, "k must be at least 1");
    let gk = cc_mis_graph::ops::power(g, k);
    mis(&gk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn two_ruling_on_families() {
        let graphs = vec![
            generators::cycle(20),
            generators::star(15),
            generators::grid(5, 5),
            generators::erdos_renyi_gnp(80, 0.06, 3),
            generators::disjoint_cliques(4, 5),
            Graph::empty(6),
        ];
        for g in &graphs {
            for seed in 0..2 {
                let out = two_ruling_set(g, seed);
                assert!(checks::is_k_ruling_set(g, &out.set, 2), "{g:?} seed {seed}");
            }
        }
    }

    #[test]
    fn ruling_set_is_sparser_than_mis() {
        // On a long path the 2-ruling set can (and typically does) use
        // fewer vertices than an MIS; at minimum it is never larger than
        // an MIS of the same graph computed greedily.
        let g = generators::path(60);
        let out = two_ruling_set(&g, 1);
        let mis = crate::greedy::greedy_mis(&g);
        assert!(out.set.len() <= mis.len());
        assert!(checks::is_k_ruling_set(&g, &out.set, 2));
        assert!(!checks::is_k_ruling_set(&g, &out.set, 0));
    }

    #[test]
    fn k_ruling_sets_verify_for_all_k() {
        let g = generators::erdos_renyi_gnp(70, 0.05, 8);
        for k in 1..=4 {
            let set = k_ruling_set_via_mis(&g, k, crate::greedy::greedy_mis);
            assert!(checks::is_k_ruling_set(&g, &set, k), "k = {k}");
        }
    }

    #[test]
    fn larger_k_never_needs_more_vertices() {
        // MIS of G^k for growing k rules larger balls; on a path the set
        // sizes are monotonically non-increasing for greedy order.
        let g = generators::path(50);
        let mut prev = usize::MAX;
        for k in 1..=4 {
            let set = k_ruling_set_via_mis(&g, k, crate::greedy::greedy_mis);
            assert!(set.len() <= prev, "k = {k}");
            prev = set.len();
        }
    }

    #[test]
    fn one_ruling_is_plain_mis() {
        let g = generators::cycle(17);
        let a = k_ruling_set_via_mis(&g, 1, crate::greedy::greedy_mis);
        let b = crate::greedy::greedy_mis(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn rounds_accounted() {
        let g = generators::cycle(30);
        let out = two_ruling_set(&g, 0);
        assert!(out.rounds > 0);
        assert_eq!(out.rounds, out.ledger.rounds);
    }
}
