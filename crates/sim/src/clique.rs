//! The CONGESTED-CLIQUE engine: all-to-all communication with per-ordered-
//! pair bandwidth budgets.
//!
//! Per round, every node may send up to `B` bits to *each* other node
//! (§1 of the paper, model (3)). The engine is driven round by round: the
//! algorithm opens a [`CliqueRound`], enqueues sends (each with its declared
//! encoded size), and calls [`Round::deliver`], which advances the
//! global clock and returns per-node inboxes.
//!
//! The round discipline itself — budget tracking, enforcement, ledger
//! charges, observer events — lives in the shared [`crate::runtime`]; this
//! engine only contributes the all-to-all [`CliqueTransport`].

use crate::metrics::RoundLedger;
use crate::routing::RouteScratch;
use crate::runtime::{CliqueTransport, Round, RoundCore, SharedObserver};

pub use crate::runtime::Enforcement;

/// Simulator of the congested-clique model.
///
/// # Example
///
/// ```
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_graph::NodeId;
///
/// let mut engine = CliqueEngine::strict(3, 32);
/// let mut round = engine.begin_round::<u32>();
/// round.send(NodeId::new(0), NodeId::new(1), 24, 0xABC)?;
/// round.send(NodeId::new(2), NodeId::new(1), 8, 0x12)?;
/// let inboxes = round.deliver();
/// assert_eq!(inboxes[1].len(), 2);
/// # Ok::<(), cc_mis_sim::BandwidthError>(())
/// ```
#[derive(Debug)]
pub struct CliqueEngine {
    n: usize,
    core: RoundCore,
    /// Buffers [`crate::routing::route`] reuses across invocations.
    routing: RouteScratch,
}

/// One open round on a [`CliqueEngine`]. Dropping the round without calling
/// [`Round::deliver`] discards it without advancing the clock.
pub type CliqueRound<'a, M> = Round<'a, CliqueTransport, M>;

impl CliqueEngine {
    /// Creates an engine over `n` nodes with the given per-round
    /// per-ordered-pair `bandwidth` (bits) and enforcement mode.
    pub fn new(n: usize, bandwidth: u64, enforcement: Enforcement) -> Self {
        CliqueEngine {
            n,
            core: RoundCore::new(bandwidth, enforcement),
            routing: RouteScratch::default(),
        }
    }

    /// Strict engine: over-budget sends error.
    pub fn strict(n: usize, bandwidth: u64) -> Self {
        Self::new(n, bandwidth, Enforcement::Strict)
    }

    /// Audit engine: over-budget sends are tallied, not refused.
    pub fn audit(n: usize, bandwidth: u64) -> Self {
        Self::new(n, bandwidth, Enforcement::Audit)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Per-round per-ordered-pair bit budget.
    pub fn bandwidth(&self) -> u64 {
        self.core.bandwidth()
    }

    /// The accumulated communication ledger.
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

    /// The shared round core (for the Lenzen scheduler's bulk charges)
    /// and the scheduler's reusable buffers.
    pub(crate) fn routing_parts(&mut self) -> (&mut RoundCore, &mut RouteScratch) {
        (&mut self.core, &mut self.routing)
    }

    /// Opens the next synchronous round for messages of type `M`.
    pub fn begin_round<M: Send + 'static>(&mut self) -> CliqueRound<'_, M> {
        Round::begin(&mut self.core, CliqueTransport { n: self.n })
    }

    /// Advances the clock by one round with no messages (e.g., an idle
    /// synchronization round).
    pub fn idle_round(&mut self) {
        self.core.idle_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BandwidthError;
    use cc_mis_graph::NodeId;

    #[test]
    fn basic_delivery_and_ordering() {
        let mut e = CliqueEngine::strict(4, 64);
        let mut r = e.begin_round::<u8>();
        r.send(NodeId::new(3), NodeId::new(0), 8, 30)
            .expect("send fits the per-pair budget");
        r.send(NodeId::new(1), NodeId::new(0), 8, 10)
            .expect("send fits the per-pair budget");
        r.send(NodeId::new(2), NodeId::new(0), 8, 20)
            .expect("send fits the per-pair budget");
        assert_eq!(r.pending(), 3);
        let inboxes = r.deliver();
        let senders: Vec<u32> = inboxes[0].iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(senders, vec![1, 2, 3]);
        assert!(inboxes[1].is_empty());
        assert_eq!(e.ledger().rounds, 1);
        assert_eq!(e.ledger().messages, 3);
        assert_eq!(e.ledger().bits, 24);
    }

    #[test]
    fn all_to_all_in_one_round() {
        let n = 8;
        let mut e = CliqueEngine::strict(n, 32);
        let mut r = e.begin_round::<u32>();
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    r.send(NodeId::new(i), NodeId::new(j), 16, i * 100 + j)
                        .expect("send fits the per-pair budget");
                }
            }
        }
        let inboxes = r.deliver();
        for (j, inbox) in inboxes.iter().enumerate() {
            assert_eq!(inbox.len(), n - 1, "inbox of {j}");
        }
        assert_eq!(e.ledger().rounds, 1);
    }

    #[test]
    fn out_of_order_sends_share_one_budget_per_pair() {
        let mut e = CliqueEngine::strict(4, 16);
        let mut r = e.begin_round::<u8>();
        r.send(NodeId::new(0), NodeId::new(1), 8, 1)
            .expect("send fits the per-pair budget");
        r.send(NodeId::new(2), NodeId::new(3), 8, 2)
            .expect("send fits the per-pair budget");
        // Out of key order: the dense per-pair load word must still hold
        // the earlier (0, 1) tally.
        r.send(NodeId::new(0), NodeId::new(1), 8, 3)
            .expect("send fits the per-pair budget");
        let err = r.send(NodeId::new(0), NodeId::new(1), 1, 4).unwrap_err();
        assert!(matches!(
            err,
            BandwidthError::Exceeded {
                attempted: 17,
                budget: 16,
                ..
            }
        ));
        // A pair first seen after the fallback still gets a fresh budget.
        r.send(NodeId::new(1), NodeId::new(0), 16, 5)
            .expect("send fits the per-pair budget");
        let inboxes = r.deliver();
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[0].len(), 1);
    }

    #[test]
    fn strict_mode_enforces_budget() {
        let mut e = CliqueEngine::strict(2, 16);
        let mut r = e.begin_round::<()>();
        r.send(NodeId::new(0), NodeId::new(1), 10, ())
            .expect("send fits the per-pair budget");
        let err = r.send(NodeId::new(0), NodeId::new(1), 10, ()).unwrap_err();
        assert!(matches!(
            err,
            BandwidthError::Exceeded {
                attempted: 20,
                budget: 16,
                ..
            }
        ));
        // A different pair is unaffected.
        r.send(NodeId::new(1), NodeId::new(0), 16, ())
            .expect("send fits the per-pair budget");
    }

    #[test]
    fn audit_mode_tallies_but_delivers() {
        let mut e = CliqueEngine::audit(2, 16);
        let mut r = e.begin_round::<u8>();
        r.send(NodeId::new(0), NodeId::new(1), 100, 1)
            .expect("send fits the per-pair budget");
        let inboxes = r.deliver();
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(e.ledger().violations, 1);
    }

    #[test]
    fn self_and_out_of_range_links_rejected() {
        let mut e = CliqueEngine::strict(3, 32);
        let mut r = e.begin_round::<()>();
        assert!(matches!(
            r.send(NodeId::new(1), NodeId::new(1), 1, ()),
            Err(BandwidthError::InvalidLink { .. })
        ));
        assert!(matches!(
            r.send(NodeId::new(0), NodeId::new(9), 1, ()),
            Err(BandwidthError::InvalidLink { .. })
        ));
    }

    #[test]
    fn budget_resets_each_round() {
        let mut e = CliqueEngine::strict(2, 16);
        for _ in 0..3 {
            let mut r = e.begin_round::<()>();
            r.send(NodeId::new(0), NodeId::new(1), 16, ())
                .expect("send fits the per-pair budget");
            r.deliver();
        }
        assert_eq!(e.ledger().rounds, 3);
        assert_eq!(e.ledger().violations, 0);
    }

    #[test]
    fn dropped_round_does_not_advance_clock() {
        let mut e = CliqueEngine::strict(2, 16);
        {
            let mut r = e.begin_round::<()>();
            r.send(NodeId::new(0), NodeId::new(1), 1, ())
                .expect("send fits the per-pair budget");
            // dropped without deliver
        }
        assert_eq!(e.ledger().rounds, 0);
        // Messages were still tallied as sent attempts; that is acceptable
        // because algorithms never drop rounds on the success path.
    }

    #[test]
    fn idle_round_advances_clock() {
        let mut e = CliqueEngine::strict(2, 16);
        e.idle_round();
        assert_eq!(e.ledger().rounds, 1);
        assert_eq!(e.ledger().messages, 0);
    }
}
