//! The full-duplex beeping engine.
//!
//! Per round, each node either beeps or stays silent, and every node
//! (including a beeping one — *full duplex*, see footnote 2 of the paper)
//! learns whether **at least one of its neighbors** beeped. A node cannot
//! count beeping neighbors, and does not hear its own beep.
//!
//! Rounds execute through the shared [`crate::runtime`] core (the beeping
//! model has no addressed links, so there is no transport — just the
//! OR-broadcast of [`crate::runtime::beep_round`] charging the same
//! [`RoundLedger`] machinery as the other engines).

use cc_mis_graph::{Graph, NodeId};

use crate::metrics::RoundLedger;
use crate::runtime::{beep_round, Enforcement, RoundCore, SharedObserver};

/// Nominal per-link budget of a beeping round: a beep carries exactly one
/// bit per incident link.
const BEEP_BIT: u64 = 1;

/// Simulator of the full-duplex beeping model over a fixed graph.
///
/// # Example
///
/// ```
/// use cc_mis_sim::beeping::BeepingEngine;
/// use cc_mis_graph::generators;
///
/// let g = generators::path(3); // 0-1-2
/// let mut engine = BeepingEngine::new(&g);
/// let mut heard = Vec::new(); // reused across rounds
/// engine.round(&[true, false, false], &mut heard);
/// assert_eq!(heard, vec![false, true, false]); // only 1 hears 0's beep
/// assert_eq!(engine.ledger().rounds, 1);
/// ```
#[derive(Debug)]
pub struct BeepingEngine<'g> {
    graph: &'g Graph,
    core: RoundCore,
}

impl<'g> BeepingEngine<'g> {
    /// Creates an engine over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        BeepingEngine {
            graph,
            core: RoundCore::new(BEEP_BIT, Enforcement::Strict),
        }
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The accumulated ledger. A beep is accounted as one 1-bit message per
    /// incident link — `degree` messages of 1 bit each, the
    /// information-theoretic content an adversary could extract per link
    /// (the model itself is weaker).
    pub fn ledger(&self) -> &RoundLedger {
        self.core.ledger()
    }

    /// Mutable access to the ledger (for phase labeling).
    pub fn ledger_mut(&mut self) -> &mut RoundLedger {
        self.core.ledger_mut()
    }

    /// Consumes the engine, returning the final ledger.
    pub fn into_ledger(self) -> RoundLedger {
        self.core.into_ledger()
    }

    /// Attaches a per-round trace observer (no-op when absent).
    pub fn attach_observer(&mut self, observer: SharedObserver) {
        self.core.attach_observer(observer);
    }

    /// Executes one synchronous round: `beeps[v]` says whether node `v`
    /// beeps. Overwrites `heard` with, for each node, whether it heard at
    /// least one *neighbor* beep (full duplex: independent of its own
    /// beep). Passing the same `heard` every round keeps warmed rounds
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `beeps.len()` differs from the node count.
    pub fn round(&mut self, beeps: &[bool], heard: &mut Vec<bool>) {
        assert_eq!(
            beeps.len(),
            self.graph.node_count(),
            "beep vector length must equal the node count"
        );
        let beepers = self.graph.nodes().filter(|v| beeps[v.index()]);
        beep_round(&mut self.core, self.graph, beepers, heard);
    }

    /// Executes one round where only `beepers` beep (sparse interface);
    /// `heard` is overwritten as in [`BeepingEngine::round`].
    ///
    /// `beepers` must be strictly ascending, so that no node beeps (and is
    /// charged) twice; debug builds check this.
    pub fn round_sparse(&mut self, beepers: &[NodeId], heard: &mut Vec<bool>) {
        debug_assert!(
            beepers.windows(2).all(|w| w[0] < w[1]),
            "beepers must be strictly ascending"
        );
        beep_round(&mut self.core, self.graph, beepers.iter().copied(), heard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::generators;

    #[test]
    fn hears_or_of_neighbors_not_self() {
        let g = generators::cycle(4);
        let mut e = BeepingEngine::new(&g);
        // Only node 0 beeps: neighbors 1 and 3 hear, 0 and 2 do not.
        let mut heard = Vec::new();
        e.round(&[true, false, false, false], &mut heard);
        assert_eq!(heard, vec![false, true, false, true]);
    }

    #[test]
    fn full_duplex_beeper_hears_beeping_neighbor() {
        let g = generators::path(2);
        let mut e = BeepingEngine::new(&g);
        let mut heard = Vec::new();
        e.round(&[true, true], &mut heard);
        assert_eq!(heard, vec![true, true]);
    }

    #[test]
    fn silence_is_heard_as_silence() {
        let g = generators::complete(5);
        let mut e = BeepingEngine::new(&g);
        let mut heard = vec![true; 5];
        e.round(&[false; 5], &mut heard);
        assert_eq!(heard, vec![false; 5], "stale contents are overwritten");
    }

    #[test]
    fn cannot_count_beepers_only_detect() {
        let g = generators::star(4);
        let mut e = BeepingEngine::new(&g);
        let (mut one, mut many) = (Vec::new(), Vec::new());
        e.round(&[false, true, false, false], &mut one);
        e.round(&[false, true, true, true], &mut many);
        // The center's observation is identical in both cases.
        assert_eq!(one[0], many[0]);
    }

    #[test]
    fn sparse_interface_matches_dense() {
        let g = generators::cycle(6);
        let mut e1 = BeepingEngine::new(&g);
        let mut e2 = BeepingEngine::new(&g);
        let mut beeps = vec![false; 6];
        beeps[2] = true;
        beeps[5] = true;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        e1.round(&beeps, &mut a);
        e2.round_sparse(&[NodeId::new(2), NodeId::new(5)], &mut b);
        assert_eq!(a, b);
        assert_eq!(e1.ledger(), e2.ledger());
    }

    #[test]
    fn ledger_counts_rounds_and_beep_bits() {
        let g = generators::star(5); // center degree 4
        let mut e = BeepingEngine::new(&g);
        e.round(&[true, false, false, false, false], &mut Vec::new());
        assert_eq!(e.ledger().rounds, 1);
        // One beep over 4 links: 4 one-bit messages, not 1 four-bit one.
        assert_eq!(e.ledger().messages, 4);
        assert_eq!(e.ledger().bits, 4);
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn wrong_length_panics() {
        let g = generators::path(3);
        BeepingEngine::new(&g).round(&[true], &mut Vec::new());
    }

    #[test]
    fn isolated_node_never_hears() {
        let g = cc_mis_graph::Graph::empty(3);
        let mut e = BeepingEngine::new(&g);
        let mut heard = Vec::new();
        e.round(&[true, true, true], &mut heard);
        assert_eq!(heard, vec![false, false, false]);
    }
}
