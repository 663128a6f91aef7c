// conform-fixture: crates/core/src/fixture_demo.rs
//! A justified pragma suppresses findings on its own line and the next.

pub fn demo() -> u128 {
    // conform: allow(R3) -- fixture demonstrating the justified escape hatch
    std::time::Instant::now().elapsed().as_nanos()
}
