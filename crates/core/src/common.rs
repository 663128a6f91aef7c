//! Shared result types and probability-exponent arithmetic.
//!
//! Every marking/beeping probability in the paper's algorithms is a power of
//! two: `p` starts at `1/2` and is only ever halved or doubled (capped at
//! `1/2`). We therefore represent probabilities by their negative exponent
//! `e` (`p = 2^{-e}`, `e ≥ 1`), which makes state exact (no floating-point
//! drift between the direct execution and the simulated replay) and makes a
//! probability message exactly [`cc_mis_sim::bits::PROBABILITY_EXPONENT_BITS`]
//! bits.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::MAX_PROBABILITY_EXPONENT;
use cc_mis_sim::snapshot::SnapshotError;
use cc_mis_sim::RoundLedger;

/// The probability exponent at the start of every algorithm (`p = 1/2`).
pub const INITIAL_PEXP: u32 = 1;

/// Converts a probability exponent to the probability `2^{-e}` it encodes.
///
/// Every exponent the algorithms produce (at most
/// [`MAX_PROBABILITY_EXPONENT`]) gives a normal `f64`, which is built
/// directly from its biased exponent field; only exponents past the
/// normal range (`e ≥ 1023`) go through `exp2`. Both are exact, so the
/// result is the same either way.
///
/// # Example
///
/// ```
/// use cc_mis_core::common::p_of;
/// assert_eq!(p_of(1), 0.5);
/// assert_eq!(p_of(3), 0.125);
/// ```
#[inline]
pub fn p_of(pexp: u32) -> f64 {
    const BIAS: u32 = 1023;
    if pexp < BIAS {
        f64::from_bits(u64::from(BIAS - pexp) << 52)
    } else {
        (-f64::from(pexp)).exp2()
    }
}

/// Halves the probability (increments the exponent), saturating at the
/// encoding cap `2^-64`, below which a beep can no longer occur in any
/// realistic execution length.
#[inline]
pub fn halve(pexp: u32) -> u32 {
    (pexp + 1).min(MAX_PROBABILITY_EXPONENT)
}

/// Doubles the probability (decrements the exponent), capped at `1/2`
/// (`min{2 p, 1/2}` in the paper).
#[inline]
pub fn double_capped(pexp: u32) -> u32 {
    pexp.saturating_sub(1).max(INITIAL_PEXP)
}

/// The iteration budget `⌈factor · log₂(Δ + 2)⌉` used by the `O(log Δ)`
/// phases of every algorithm; `factor` plays the paper's constant `C`.
///
/// `Δ + 2` keeps the budget positive on edgeless graphs.
pub fn iterations_for_max_degree(max_degree: usize, factor: f64) -> u64 {
    (((max_degree + 2) as f64).log2() * factor).ceil() as u64
}

/// Outcome of a complete MIS computation.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// The maximal independent set, sorted by node id.
    pub mis: Vec<NodeId>,
    /// Communication/rounds tally of the run.
    pub ledger: RoundLedger,
    /// Iterations of the underlying local process that were executed
    /// (0 for purely sequential algorithms).
    pub iterations: u64,
}

impl MisOutcome {
    /// Convenience: the number of rounds charged to the ledger.
    pub fn rounds(&self) -> u64 {
        self.ledger.rounds
    }
}

/// Collects the nodes whose membership flag is set, in ascending id order —
/// the canonical way executions turn a per-node `in_mis` vector into the
/// sorted [`MisOutcome::mis`] list.
pub(crate) fn mis_from_flags(g: &Graph, in_mis: &[bool]) -> Vec<NodeId> {
    g.nodes().filter(|v| in_mis[v.index()]).collect()
}

/// Rejects a restored per-node vector whose length does not match this
/// graph's node count. The graph fingerprint check catches every realistic
/// mismatch first; this guards the snapshot payload itself so corruption
/// surfaces as a named error instead of an index panic mid-run.
pub(crate) fn check_node_vec_len(
    field: &'static str,
    got: usize,
    n: usize,
) -> Result<(), SnapshotError> {
    if got != n {
        return Err(SnapshotError::Mismatch {
            field,
            expected: n.to_string(),
            found: got.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_arithmetic() {
        assert_eq!(halve(1), 2);
        assert_eq!(double_capped(2), 1);
        // Cap at 1/2: doubling from 1/2 stays at 1/2.
        assert_eq!(double_capped(1), 1);
        // Saturate at the encoding floor.
        assert_eq!(halve(MAX_PROBABILITY_EXPONENT), MAX_PROBABILITY_EXPONENT);
        assert!(p_of(MAX_PROBABILITY_EXPONENT) > 0.0);
    }

    #[test]
    fn halve_then_double_is_identity_away_from_bounds() {
        for e in 2..60 {
            assert_eq!(double_capped(halve(e)), e);
            assert_eq!(halve(double_capped(e)), e);
        }
    }

    #[test]
    fn iteration_budget_grows_with_degree() {
        let small = iterations_for_max_degree(2, 4.0);
        let large = iterations_for_max_degree(1 << 16, 4.0);
        assert!(small >= 1);
        assert!(large > small);
        assert_eq!(iterations_for_max_degree(0, 1.0), 1);
    }

    /// The bit-built `2^-e` is the libm `exp2` value, bit for bit, over
    /// every exponent the algorithms use and through the fallback range.
    #[test]
    fn p_of_is_exp2_bit_for_bit() {
        for e in (0..=MAX_PROBABILITY_EXPONENT).chain(65..=1100) {
            assert_eq!(
                p_of(e).to_bits(),
                (-f64::from(e)).exp2().to_bits(),
                "exponent {e}"
            );
        }
        assert_eq!(p_of(1074), f64::from_bits(1), "smallest subnormal");
        assert_eq!(p_of(1075), 0.0);
    }

    #[test]
    fn p_of_matches_exponent() {
        for e in 1..30u32 {
            let expected = 1.0 / (1u64 << e) as f64;
            assert_eq!(p_of(e), expected);
        }
    }
}
