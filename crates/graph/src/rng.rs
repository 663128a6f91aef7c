//! Dependency-free deterministic random number primitives.
//!
//! The whole workspace needs randomness that is (a) reproducible across
//! platforms and runs, and (b) *addressable*: the congested-clique simulation
//! of §2.4 of the paper only works because each node's coin for round `t`
//! can be drawn *by any party that knows `(seed, node, round)`*. The paper
//! phrases this as each node drawing all of its `r_t(v)` values at the start
//! of a phase; we implement it with a counter-based generator so the direct
//! execution and the simulated execution consume bit-identical randomness.
//!
//! Two flavors are provided:
//!
//! * [`SplitMix64`] — a tiny sequential PRNG, used by the graph generators.
//! * [`mix3`] / [`unit_f64`] — stateless counter-based draws keyed by up to
//!   three 64-bit words, used by the simulators (`cc-mis-sim`) to implement
//!   per-`(seed, node, round)` streams.

/// A minimal SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush and is the standard seeding generator for
/// xoshiro-family PRNGs; its statistical quality is far beyond what the
/// experiments here need, while being fully deterministic and portable.
///
/// # Example
///
/// ```
/// use cc_mis_graph::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.state)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        to_unit_f64(self.next_u64())
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// SplitMix64 finalizer: bijective 64-bit mixing.
#[inline]
const fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts 64 random bits to a uniform `f64` in `[0, 1)` using the top 53
/// bits.
#[inline]
pub fn to_unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless counter-based mix of three 64-bit words into 64 pseudo-random
/// bits. Distinct inputs give statistically independent outputs (this is the
/// SplitMix64 finalizer applied to a distinct-prime linear combination).
///
/// The simulators use `mix3(seed, node, round)` so that any party that knows
/// the address of a coin can reproduce it — the exact property Lemma 2.13 of
/// the paper needs for local replay.
///
/// # Example
///
/// ```
/// use cc_mis_graph::rng::mix3;
/// assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
/// assert_ne!(mix3(1, 2, 3), mix3(1, 2, 4));
/// ```
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    // Distinct odd multipliers keep the three coordinates from aliasing.
    let x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    finalize(finalize(x).wrapping_add(0x632B_E593_04B4_92ED))
}

/// Uniform `f64` in `[0, 1)` addressed by three 64-bit words.
///
/// # Example
///
/// ```
/// use cc_mis_graph::rng::unit_f64;
/// let r = unit_f64(42, 7, 0);
/// assert!((0.0..1.0).contains(&r));
/// ```
#[inline]
pub fn unit_f64(a: u64, b: u64, c: u64) -> f64 {
    to_unit_f64(mix3(a, b, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_bool_frequency_tracks_p() {
        let mut r = SplitMix64::new(7);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| r.next_bool(0.25)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq} too far from 0.25");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        // conform: allow(R11) -- clones the shuffled Vec for a sort check, not an RNG stream
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<u32>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn mix3_distinct_inputs_distinct_outputs() {
        // Not a cryptographic claim, just a smoke test for aliasing bugs
        // such as swapping coordinates or losing a word.
        let a = mix3(1, 2, 3);
        assert_ne!(a, mix3(3, 2, 1));
        assert_ne!(a, mix3(2, 1, 3));
        assert_ne!(a, mix3(1, 2, 4));
        assert_ne!(a, mix3(0, 2, 3));
    }

    #[test]
    fn mix3_no_collisions_over_grid() {
        // BTreeSet keeps even test code on deterministic collections, as
        // the root clippy.toml requires of every target.
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for node in 0..64u64 {
            for round in 0..64u64 {
                assert!(
                    seen.insert(mix3(42, node, round)),
                    "collision at ({node}, {round})"
                );
            }
        }
    }

    #[test]
    fn unit_f64_mean_is_near_half() {
        let mut sum = 0.0;
        let trials = 10_000u64;
        for i in 0..trials {
            sum += unit_f64(9, i, 0);
        }
        let mean = sum / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
