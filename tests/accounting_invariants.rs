//! Ledger and bandwidth invariants across the stack.
//!
//! Every algorithm runs on a *strict* engine, so completing at all proves
//! no message exceeded `B = O(log n)` bits per link per round; these tests
//! additionally check the ledger's internal consistency and inject
//! failures to prove the enforcement actually fires.

use clique_mis::algorithms::clique_mis::{run_clique_mis, CliqueMisParams};
use clique_mis::algorithms::ghaffari16::{run_ghaffari16, Ghaffari16Params};
use clique_mis::algorithms::luby::{run_luby, LubyParams};
use clique_mis::graph::{generators, NodeId};
use clique_mis::sim::bits::standard_bandwidth;
use clique_mis::sim::clique::CliqueEngine;
use clique_mis::sim::congest::CongestEngine;
use clique_mis::sim::routing::{route, Packet};
use clique_mis::sim::BandwidthError;

#[test]
fn strict_engines_report_zero_violations_across_algorithms() {
    let g = generators::erdos_renyi_gnp(120, 0.08, 3);
    let out = run_luby(&g, &LubyParams::for_graph(&g), 1);
    assert_eq!(out.ledger.violations, 0);
    let out = run_ghaffari16(&g, &Ghaffari16Params::for_graph(&g), 1);
    assert_eq!(out.ledger.violations, 0);
    let out = run_clique_mis(&g, &CliqueMisParams::default(), 1);
    assert_eq!(out.ledger.violations, 0);
}

#[test]
fn phase_breakdown_sums_to_totals() {
    let g = generators::erdos_renyi_gnp(150, 0.07, 5);
    let out = run_clique_mis(&g, &CliqueMisParams::default(), 2);
    let phase_rounds: u64 = out.phases.iter().map(|p| p.phase_rounds).sum();
    // Total = phase rounds + cleanup rounds; cleanup is small.
    assert!(out.rounds >= phase_rounds);
    assert!(
        out.rounds - phase_rounds <= 16,
        "cleanup cost {} rounds",
        out.rounds - phase_rounds
    );
    // The ledger's own phase records agree with the total.
    let ledger_phase_rounds: u64 = out.ledger.phases.iter().map(|p| p.rounds).sum();
    assert_eq!(ledger_phase_rounds, out.ledger.rounds);
}

#[test]
fn oversized_message_is_refused_by_strict_clique_engine() {
    let n = 16;
    let b = standard_bandwidth(n);
    let mut engine = CliqueEngine::strict(n, b);
    let mut round = engine.begin_round::<()>();
    let err = round
        .send(NodeId::new(0), NodeId::new(1), b + 1, ())
        .unwrap_err();
    assert!(matches!(err, BandwidthError::Exceeded { .. }));
}

#[test]
fn oversized_message_is_tallied_by_audit_engine() {
    let g = generators::path(4);
    let mut engine = CongestEngine::audit(&g, 8);
    let mut round = engine.begin_round::<u64>();
    round.send(NodeId::new(0), NodeId::new(1), 1000, 0).unwrap();
    round.deliver();
    assert_eq!(engine.ledger().violations, 1);
    assert_eq!(engine.ledger().rounds, 1);
}

#[test]
fn routing_respects_lenzen_capacity_accounting() {
    // A capacity-respecting load is delivered in O(1) rounds, and its
    // ledger matches the outcome's report.
    let n = 64;
    let mut engine = CliqueEngine::strict(n, 64);
    let packets: Vec<Packet<u32>> = (0..n as u32)
        .flat_map(|s| {
            (1..n as u32 / 2).map(move |k| Packet {
                src: NodeId::new(s),
                dst: NodeId::new((s + k) % n as u32),
                bits: 48,
                payload: k,
            })
        })
        .collect();
    let total = packets.len();
    let (inboxes, outcome) = route(&mut engine, packets).unwrap();
    assert_eq!(inboxes.packets().len(), total);
    assert_eq!(outcome.batches, 1);
    assert!(outcome.rounds <= 4, "got {} rounds", outcome.rounds);
    assert_eq!(engine.ledger().rounds, outcome.rounds);
}

#[test]
fn residual_fits_cleanup_capacity_on_random_graphs() {
    // Lemma 2.11 ⇒ the clean-up's leader inbox (residual edges) stays
    // within a small multiple of n, keeping the routed delivery O(1).
    for seed in 0..3 {
        let n = 400;
        let g = generators::erdos_renyi_gnp(n, 16.0 / n as f64, 70 + seed);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), seed);
        assert!(
            out.residual_edges <= 2 * n,
            "seed {seed}: {} residual edges",
            out.residual_edges
        );
    }
}

#[test]
fn bits_are_monotone_in_rounds_for_message_passing_runs() {
    let g = generators::erdos_renyi_gnp(80, 0.1, 9);
    let out = run_luby(&g, &LubyParams::for_graph(&g), 0);
    assert!(out.ledger.rounds > 0);
    assert!(out.ledger.bits >= out.ledger.messages); // every message ≥ 1 bit
}
