//! The `O(1)`-round leader clean-up (second part of the §2.4 algorithm).
//!
//! After the main phase leaves a residual graph with `O(n)` edges
//! (Lemma 2.11), every undecided node ships its residual edges to a leader
//! using Lenzen routing; the leader solves the residual instance centrally
//! and informs the new MIS members. The paper: *"we make each node in B send
//! its G`[B]` edges to the leader node … At the end, the leader computes an
//! MIS S_B of G`[B]` and informs those MIS nodes."*

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::node_id_bits;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::routing::{route, Packet};
use cc_mis_sim::Frontier;

use crate::greedy::greedy_mis_on_residual;

/// Runs the leader clean-up on the residual graph induced by `residual`,
/// charging the engine for every round. Returns the nodes the leader adds
/// to the MIS, sorted by id.
///
/// Round bill: 1 round for aliveness reporting, the measured Lenzen-routing
/// rounds for edge collection (`O(1)` whenever the residual has `O(n)`
/// edges), and 1 round to inform the selected nodes. The residual edges are
/// read off the residual nodes' adjacency only.
///
/// # Panics
///
/// Panics if `residual` is not drawn from the graph's nodes or the engine
/// is smaller than the graph.
pub fn leader_cleanup(engine: &mut CliqueEngine, g: &Graph, residual: &Frontier) -> Vec<NodeId> {
    let n = g.node_count();
    assert_eq!(residual.universe(), n, "residual must cover the graph");
    assert!(
        engine.node_count() >= n.max(1),
        "engine too small for the graph"
    );
    if n == 0 {
        return Vec::new();
    }
    let leader = NodeId::new(0);

    // Round 1: every alive node reports to the leader (the leader knows its
    // own state locally).
    let mut round = engine.begin_round::<()>();
    for &v in residual.ids() {
        if v != leader {
            round.send(v, leader, 1, ()).expect("alive bit fits");
        }
    }
    round.deliver();

    // Residual edges travel to the leader via Lenzen routing; the lower
    // endpoint of each alive-alive edge is responsible for it.
    let id_bits = node_id_bits(n).max(1);
    let packets: Vec<Packet<(u32, u32)>> = residual
        .induced_edges(g)
        .map(|(u, v)| Packet {
            src: u,
            dst: leader,
            bits: 2 * id_bits,
            payload: (u.raw(), v.raw()),
        })
        .collect();
    let (inboxes, _) = route(engine, packets).expect("cleanup packets are well-formed");
    let residual_edges: Vec<(NodeId, NodeId)> = inboxes[leader.index()]
        .iter()
        .map(|p| (NodeId::new(p.payload.0), NodeId::new(p.payload.1)))
        .collect();

    // Leader solves the residual instance centrally.
    let additions = greedy_mis_on_residual(residual.ids(), &residual_edges);

    // Final round: the leader informs the selected nodes.
    let mut round = engine.begin_round::<()>();
    for &v in &additions {
        if v != leader {
            round.send(leader, v, 1, ()).expect("selection bit fits");
        }
    }
    round.deliver();

    additions
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators};
    use cc_mis_sim::bits::standard_bandwidth;

    fn engine_for(n: usize) -> CliqueEngine {
        CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)))
    }

    #[test]
    fn cleanup_solves_a_whole_graph() {
        let g = generators::erdos_renyi_gnp(50, 0.1, 1);
        let alive = vec![true; 50];
        let mut engine = engine_for(50);
        let mis = leader_cleanup(&mut engine, &g, &Frontier::from_mask(&alive));
        assert!(checks::is_maximal_independent_set(&g, &mis));
        assert!(engine.ledger().rounds >= 2);
    }

    #[test]
    fn cleanup_respects_dead_nodes() {
        let g = generators::complete(6);
        // Only 2 and 4 are undecided; they are adjacent in K6 so exactly one
        // is chosen.
        let mut alive = vec![false; 6];
        alive[2] = true;
        alive[4] = true;
        let mut engine = engine_for(6);
        let mis = leader_cleanup(&mut engine, &g, &Frontier::from_mask(&alive));
        assert_eq!(mis, vec![NodeId::new(2)]);
    }

    #[test]
    fn cleanup_of_empty_residual_is_cheap() {
        let g = generators::cycle(8);
        let alive = vec![false; 8];
        let mut engine = engine_for(8);
        let mis = leader_cleanup(&mut engine, &g, &Frontier::from_mask(&alive));
        assert!(mis.is_empty());
        // Aliveness round + inform round; no routing rounds.
        assert_eq!(engine.ledger().rounds, 2);
    }

    #[test]
    fn cleanup_handles_leader_alive() {
        let g = generators::path(3);
        let alive = vec![true; 3];
        let mut engine = engine_for(3);
        let mis = leader_cleanup(&mut engine, &g, &Frontier::from_mask(&alive));
        assert_eq!(mis, vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn sparse_residual_routes_in_constant_rounds() {
        // O(n) residual edges → O(1) routing rounds.
        let g = generators::erdos_renyi_gnm(200, 300, 7);
        let alive = vec![true; 200];
        let mut engine = engine_for(200);
        let mis = leader_cleanup(&mut engine, &g, &Frontier::from_mask(&alive));
        assert!(checks::is_maximal_independent_set(&g, &mis));
        assert!(
            engine.ledger().rounds <= 12,
            "expected O(1) rounds, got {}",
            engine.ledger().rounds
        );
    }
}
