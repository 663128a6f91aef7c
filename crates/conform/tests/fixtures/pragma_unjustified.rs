// conform-fixture: crates/core/src/fixture_demo.rs
// conform: allow(R3)
pub fn demo() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
