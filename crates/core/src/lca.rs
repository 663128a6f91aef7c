//! A **local computation algorithm** (LCA) for MIS, built from the paper's
//! locality analysis.
//!
//! §1.2 of the paper points out that Theorem 2.1's *local* guarantee —
//! node `v` decides within `O(log deg(v) + log 1/ε)` iterations, depending
//! only on randomness within its 2-hop neighborhood — is exactly the
//! ingredient that turns a distributed algorithm into a *local computation
//! algorithm* in the sense of [Rubinfeld et al., ICS'11] / [Alon et al.,
//! SODA'12] (via the [Parnas–Ron, TCS'07] reduction): to answer "is `v` in
//! the MIS?", probe only `v`'s vicinity and replay the algorithm there.
//!
//! [`MisOracle`] implements that query model over the §2.2 beeping
//! dynamic: a query BFS-probes a ball of radius `2T` around `v` (removal
//! information travels 2 hops per iteration), replays `T` iterations
//! locally, and returns `v`'s fate. If `v` is still undecided — a
//! probability-`ε` event by Theorem 2.1 — the budget doubles and the query
//! retries, so answers are always decided and **globally consistent**:
//! every query agrees with the single full execution under the same seed
//! (tested below).
//!
//! The per-query probe count is `O(deg^{O(log deg + log 1/ε)})` — constant
//! for constant-degree graphs, polylogarithmic probes in favorable
//! regimes, and (as §1.2 notes) improving this in *high-degree* graphs via
//! local sparsification is exactly the open direction the paper suggests.

use std::collections::VecDeque;

use cc_mis_graph::{Graph, GraphBuilder, NodeId};
use cc_mis_sim::SharedRandomness;

use crate::beeping_mis::evolve_beeping;
use crate::common::iterations_for_max_degree;

/// The answer to an MIS membership query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisAnswer {
    /// The queried node is in the MIS.
    InMis,
    /// The queried node has an MIS neighbor.
    Dominated,
}

/// Work performed by a single query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Adjacency-list probes performed (the LCA cost measure).
    pub probes: usize,
    /// Nodes in the final gathered ball.
    pub ball_nodes: usize,
    /// Edges in the final gathered ball.
    pub ball_edges: usize,
    /// Ball radius of the final (successful) attempt.
    pub radius: usize,
    /// Replay iterations of the final attempt.
    pub iterations: u64,
    /// Number of attempts (1 unless the initial budget was insufficient).
    pub attempts: u32,
}

/// A stateless MIS membership oracle over a fixed `(graph, seed)` pair.
///
/// All queries are answered consistently with one global execution of the
/// beeping MIS under `seed`.
///
/// # Example
///
/// ```
/// use cc_mis_core::lca::{MisAnswer, MisOracle};
/// use cc_mis_graph::generators;
///
/// let g = generators::cycle(100);
/// let oracle = MisOracle::new(&g, 7);
/// let (answer, stats) = oracle.query(cc_mis_graph::NodeId::new(3));
/// assert!(matches!(answer, MisAnswer::InMis | MisAnswer::Dominated));
/// // Bounded-degree graph ⇒ the ball (and hence the probe count) is tiny
/// // compared to n.
/// assert!(stats.probes < g.node_count());
/// ```
#[derive(Debug, Clone)]
pub struct MisOracle<'g> {
    graph: &'g Graph,
    rng: SharedRandomness,
    initial_iterations: u64,
}

impl<'g> MisOracle<'g> {
    /// Creates an oracle with an adaptive starting budget
    /// `T₀ = ⌈log₂(Δ+2)⌉` that doubles until the node decides.
    ///
    /// Starting *small* is the classic LCA move: by Theorem 2.1 the
    /// decision time has an exponential tail beyond `O(log deg)`, so the
    /// expected total probe count is dominated by the first successful
    /// attempt's ball (`d^{O(log d)}`), while a conservative fixed budget
    /// of `C log Δ` would make *every* query pay the worst-case radius —
    /// on expander-like graphs that radius covers the entire graph.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        let t = iterations_for_max_degree(graph.max_degree(), 1.0);
        Self::with_budget(graph, seed, t)
    }

    /// Creates an oracle with an explicit initial iteration budget (it
    /// still doubles on the rare undecided outcome).
    pub fn with_budget(graph: &'g Graph, seed: u64, iterations: u64) -> Self {
        MisOracle {
            graph,
            rng: SharedRandomness::new(seed),
            initial_iterations: iterations.max(1),
        }
    }

    /// Answers whether `v` is in the MIS of the global execution,
    /// probing only `v`'s vicinity.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn query(&self, v: NodeId) -> (MisAnswer, QueryStats) {
        assert!(
            v.index() < self.graph.node_count(),
            "query node out of range"
        );
        let mut iterations = self.initial_iterations;
        let mut attempts = 0u32;
        let mut total_probes = 0usize;
        loop {
            attempts += 1;
            // Fate through T iterations is determined by the 2T-hop ball
            // (join/removal information travels 2 hops per iteration).
            let radius = (2 * iterations) as usize;
            let (ball, ball_ids, probes, saturated) = self.probe_ball(v, radius);
            total_probes += probes;
            let evo = evolve_beeping(
                &ball,
                &ball_ids,
                self.rng,
                if saturated { u64::MAX } else { iterations },
                |_, _, _| {},
            );
            let me = ball_ids.binary_search(&v).expect("center is in its ball");
            let answer = if evo.joined_at[me].is_some() {
                Some(MisAnswer::InMis)
            } else if evo.removed_at[me].is_some() {
                Some(MisAnswer::Dominated)
            } else {
                None
            };
            if let Some(answer) = answer {
                return (
                    answer,
                    QueryStats {
                        probes: total_probes,
                        ball_nodes: ball.node_count(),
                        ball_edges: ball.edge_count(),
                        radius,
                        iterations: if saturated { evo_len(&evo) } else { iterations },
                        attempts,
                    },
                );
            }
            // Theorem 2.1: undecided after T has probability ≤ ε; retry
            // with a doubled budget (and hence doubled radius).
            iterations *= 2;
        }
    }

    /// BFS-probes the `radius`-ball around `v`. Returns the ball subgraph,
    /// the sorted global ids of its nodes (the coin-id mapping), the probe
    /// count, and whether the ball saturated the whole component (in which
    /// case the replay is exact for unlimited iterations).
    fn probe_ball(&self, v: NodeId, radius: usize) -> (Graph, Vec<NodeId>, usize, bool) {
        let g = self.graph;
        // BTreeMap, not HashMap: ball probing sits on the replay path, and
        // the deterministic-replay contract (the root clippy.toml disallows
        // hash collections) bans unordered iteration there.
        let mut dist = std::collections::BTreeMap::new();
        dist.insert(v, 0usize);
        let mut queue = VecDeque::from([v]);
        let mut probes = 0usize;
        let mut frontier_open = false;
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if d >= radius {
                frontier_open = true;
                continue;
            }
            probes += 1; // one adjacency-list probe per expanded node
            for &w in g.neighbors(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(d + 1);
                    queue.push_back(w);
                }
            }
        }
        // BTreeMap iteration is already id-sorted, so this is the
        // coin-id mapping directly.
        let ids: Vec<NodeId> = dist.keys().copied().collect();
        let local_of = |id: NodeId| ids.binary_search(&id).expect("ball node");
        let mut b = GraphBuilder::new(ids.len());
        for &u in &ids {
            // Only expand edges whose lower endpoint was actually probed
            // (nodes at the boundary were not expanded).
            if dist[&u] < radius {
                for &w in g.neighbors(u) {
                    if let Some(_dw) = dist.get(&w) {
                        let (a, c) = (local_of(u).min(local_of(w)), local_of(u).max(local_of(w)));
                        if a != c {
                            b.add_edge(NodeId::new(a as u32), NodeId::new(c as u32))
                                .expect("ball edge");
                        }
                    }
                }
            }
        }
        (b.build(), ids, probes, !frontier_open)
    }
}

/// Highest decided iteration in an evolution (for stats on saturated runs).
fn evo_len(evo: &crate::beeping_mis::BeepingEvolution) -> u64 {
    evo.removed_at
        .iter()
        .filter_map(|r| r.map(|t| t + 1))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beeping_mis::{run_beeping, BeepingParams};
    use cc_mis_graph::{checks, generators};

    #[test]
    fn answers_match_the_global_execution() {
        for (name, g) in [
            ("cycle", generators::cycle(60)),
            ("regular", generators::random_regular(80, 4, 1)),
            ("gnp", generators::erdos_renyi_gnp(70, 0.06, 2)),
            ("tree", generators::balanced_tree(2, 5)),
        ] {
            let seed = 5;
            let global = run_beeping(
                &g,
                &BeepingParams {
                    max_iterations: 10_000,
                },
                seed,
            );
            assert!(global.residual.is_empty());
            let oracle = MisOracle::new(&g, seed);
            for v in g.nodes() {
                let (answer, _) = oracle.query(v);
                let expected = if global.joined_at[v.index()].is_some() {
                    MisAnswer::InMis
                } else {
                    MisAnswer::Dominated
                };
                assert_eq!(answer, expected, "{name}: node {v}");
            }
        }
    }

    #[test]
    fn answers_assemble_into_an_mis() {
        let g = generators::erdos_renyi_gnp(90, 0.05, 9);
        let oracle = MisOracle::new(&g, 3);
        let mis: Vec<NodeId> = g
            .nodes()
            .filter(|&v| matches!(oracle.query(v).0, MisAnswer::InMis))
            .collect();
        assert!(checks::is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn probes_are_sublinear_on_bounded_degree_graphs() {
        // The LCA selling point: per-query work independent of n for
        // bounded degree.
        let small = generators::cycle(200);
        let large = generators::cycle(4000);
        let o_small = MisOracle::new(&small, 1);
        let o_large = MisOracle::new(&large, 1);
        let p_small = o_small.query(NodeId::new(100)).1.probes;
        let p_large = o_large.query(NodeId::new(100)).1.probes;
        assert!(p_large < large.node_count() / 4, "probes {p_large}");
        // Same degree ⇒ similar ball sizes regardless of n.
        assert!(
            p_large <= 4 * p_small.max(8),
            "probes grew with n: {p_small} -> {p_large}"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let g = generators::random_regular(100, 3, 4);
        let oracle = MisOracle::new(&g, 2);
        let (_, stats) = oracle.query(NodeId::new(7));
        assert!(stats.ball_nodes >= 1);
        assert!(stats.attempts >= 1);
        assert!(stats.radius >= 2);
        assert!(stats.probes >= 1);
    }

    #[test]
    fn tiny_budget_still_terminates_via_doubling() {
        let g = generators::complete(20);
        let oracle = MisOracle::with_budget(&g, 8, 1);
        for v in g.nodes() {
            let (answer, stats) = oracle.query(v);
            let _ = answer;
            assert!(stats.attempts >= 1);
        }
        // Exactly one node of a clique is in the MIS.
        let in_mis = g
            .nodes()
            .filter(|&v| matches!(oracle.query(v).0, MisAnswer::InMis))
            .count();
        assert_eq!(in_mis, 1);
    }

    #[test]
    fn isolated_node_is_in_mis() {
        let g = cc_mis_graph::Graph::empty(3);
        let oracle = MisOracle::new(&g, 0);
        for v in g.nodes() {
            assert_eq!(oracle.query(v).0, MisAnswer::InMis);
        }
    }
}
