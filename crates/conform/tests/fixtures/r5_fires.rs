// conform-fixture: crates/sim/src/fixture_demo.rs
pub fn demo(v: Vec<u32>) -> u32 {
    let a = v.first().expect("caller guarantees v is non-empty");
    let b = v.last().expect("ok");
    a + b
}
