// conform-fixture: crates/core/src/fixture_demo.rs
//! P2 firing fixture: a justified allow whose rule no longer fires at the
//! site it covers. The wall-clock read it once waived was replaced by a
//! seeded counter, so the pragma is stale audit debt — delete it.

pub fn demo(seed: u64) -> u64 {
    // conform: allow(R3) -- kept from before the clock read became a seed
    seed.wrapping_add(1)
}
