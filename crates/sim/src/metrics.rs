//! Round, message, and bit accounting.
//!
//! Every engine writes into a [`RoundLedger`]; experiment binaries report
//! ledger contents, so the numbers in `EXPERIMENTS.md` are exactly what the
//! simulated network carried.

// Accounting is integer-exact (DESIGN.md §8): float arithmetic is
// rounding-order dependent, and a cast between integers and floats can
// lose exactness. `cast_possible_truncation` is denied crate-wide.
#![cfg_attr(
    not(test),
    deny(
        clippy::float_arithmetic,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

use std::error::Error;
use std::fmt;

/// A per-phase slice of the ledger, labeled by the algorithm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Human-readable phase label (e.g. `"phase 3: exponentiation"`).
    pub label: String,
    /// Rounds consumed within the phase.
    pub rounds: u64,
    /// Messages sent within the phase.
    pub messages: u64,
    /// Total bits sent within the phase.
    pub bits: u64,
}

/// Tally of the communication an execution performed.
///
/// Engines charge it through the round core (`crate::runtime`), which
/// defines the `charge_*` primitives as private methods, so no other module
/// can call one; everything else bills a ledger only through
/// [`RoundLedger::charge_replay`], the one entry for analytic replay
/// accounting.
///
/// # Example
///
/// ```
/// use cc_mis_sim::RoundLedger;
///
/// let mut ledger = RoundLedger::new();
/// ledger.begin_phase("setup");
/// ledger.charge_replay(2, 3, 32);
/// assert_eq!(ledger.rounds, 2);
/// assert_eq!(ledger.bits, 32);
/// assert_eq!(ledger.phases[0].label, "setup");
/// assert_eq!(ledger.phases[0].rounds, 2);
/// assert_eq!(ledger.phases[0].bits, 0);
/// ```
///
/// The primitives are not reachable from other crates:
///
/// ```compile_fail,E0624
/// let mut ledger = cc_mis_sim::RoundLedger::new();
/// ledger.charge_rounds(2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundLedger {
    /// Total synchronous rounds elapsed.
    pub rounds: u64,
    /// Total messages sent (a beep counts as one 1-bit message).
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Number of bandwidth-budget violations observed (audit mode only;
    /// strict engines refuse the send instead).
    pub violations: u64,
    /// Phase-by-phase breakdown, if the algorithm marks phases.
    pub phases: Vec<PhaseRecord>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new labeled phase; subsequent charges accrue to it.
    pub fn begin_phase(&mut self, label: impl Into<String>) {
        self.phases.push(PhaseRecord {
            label: label.into(),
            rounds: 0,
            messages: 0,
            bits: 0,
        });
    }

    /// Analytic replay accounting: bills communication that an execution
    /// computed rather than sent through a live transport (the replayed
    /// Ghaffari'16 iterations of the congested-clique variant).
    /// `rounds` accrue to the current phase as well as the totals;
    /// `messages` and `bits` to the totals only, because a post-hoc charge
    /// has no meaningful per-phase placement.
    pub fn charge_replay(&mut self, rounds: u64, messages: u64, bits: u64) {
        bump(&mut self.rounds, rounds);
        if let Some(p) = self.phases.last_mut() {
            bump(&mut p.rounds, rounds);
        }
        bump(&mut self.messages, messages);
        bump(&mut self.bits, bits);
    }

    /// Adds every counter of `other` into `self` (phases are appended).
    pub fn merge(&mut self, other: &RoundLedger) {
        bump(&mut self.rounds, other.rounds);
        bump(&mut self.messages, other.messages);
        bump(&mut self.bits, other.bits);
        bump(&mut self.violations, other.violations);
        self.phases.extend(other.phases.iter().cloned());
    }
}

/// Checked counter bump: ledger totals are the paper's Theorem 1.1 numbers,
/// so overflow must panic (naming the invariant) rather than wrap silently.
/// Shared with the round core's charge primitives (`crate::runtime`).
pub(crate) fn bump(counter: &mut u64, by: u64) {
    *counter = counter
        .checked_add(by)
        .expect("ledger counter stays within u64 (bits per run bounded far below 2^64)");
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits",
            self.rounds, self.messages, self.bits
        )?;
        if self.violations > 0 {
            write!(f, " ({} bandwidth violations)", self.violations)?;
        }
        Ok(())
    }
}

/// Error returned by strict engines when a send would exceed the per-round
/// per-link bit budget, or addresses an invalid link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthError {
    /// The cumulative bits on this ordered link this round would exceed the
    /// budget.
    Exceeded {
        /// Sender index.
        src: u32,
        /// Receiver index.
        dst: u32,
        /// Bits already used plus the attempted message.
        attempted: u64,
        /// The per-round per-link budget.
        budget: u64,
    },
    /// The link does not exist (CONGEST: not an edge; any: out of range or
    /// self-addressed).
    InvalidLink {
        /// Sender index.
        src: u32,
        /// Receiver index.
        dst: u32,
    },
}

impl fmt::Display for BandwidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BandwidthError::Exceeded {
                src,
                dst,
                attempted,
                budget,
            } => write!(
                f,
                "bandwidth exceeded on link v{src}->v{dst}: {attempted} bits attempted, budget {budget}"
            ),
            BandwidthError::InvalidLink { src, dst } => {
                write!(f, "invalid link v{src}->v{dst}")
            }
        }
    }
}

impl Error for BandwidthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = RoundLedger::new();
        l.charge_replay(1, 1, 10);
        l.charge_replay(1, 1, 20);
        assert_eq!(l.rounds, 2);
        assert_eq!(l.messages, 2);
        assert_eq!(l.bits, 30);
    }

    #[test]
    fn phases_slice_the_ledger() {
        let mut l = RoundLedger::new();
        l.begin_phase("a");
        l.charge_replay(1, 1, 8);
        l.begin_phase("b");
        l.charge_replay(3, 0, 0);
        assert_eq!(l.phases.len(), 2);
        assert_eq!(l.phases[0].rounds, 1);
        assert_eq!(
            l.phases[0].bits, 0,
            "replayed bits accrue to the totals only"
        );
        assert_eq!(l.phases[1].rounds, 3);
        assert_eq!(l.rounds, 4);
        assert_eq!(l.bits, 8);
    }

    #[test]
    fn charges_before_any_phase_are_global_only() {
        let mut l = RoundLedger::new();
        l.charge_replay(1, 0, 0);
        assert!(l.phases.is_empty());
        assert_eq!(l.rounds, 1);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = RoundLedger::new();
        a.charge_replay(1, 1, 5);
        let mut b = RoundLedger::new();
        b.begin_phase("x");
        b.charge_replay(2, 0, 0);
        b.violations = 1;
        a.merge(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.bits, 5);
        assert_eq!(a.violations, 1);
        assert_eq!(a.phases.len(), 1);
    }

    #[test]
    fn display_mentions_violations_only_when_present() {
        let mut l = RoundLedger::new();
        l.charge_replay(1, 0, 0);
        assert!(!l.to_string().contains("violations"));
        l.violations = 1;
        assert!(l.to_string().contains("violations"));
    }

    #[test]
    fn bandwidth_error_messages() {
        let e = BandwidthError::Exceeded {
            src: 1,
            dst: 2,
            attempted: 99,
            budget: 32,
        };
        assert!(e.to_string().contains("v1->v2"));
        let e2 = BandwidthError::InvalidLink { src: 0, dst: 0 };
        assert!(e2.to_string().contains("invalid link"));
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<BandwidthError>();
    }
}
