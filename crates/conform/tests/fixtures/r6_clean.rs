// conform-fixture: crates/core/src/fixture_demo.rs
use cc_mis_sim::RoundLedger;

pub fn demo(ledger: &mut RoundLedger) {
    ledger.charge_replay(1, 0, 0);
    let _settled = ledger.bits == 0 || ledger.rounds <= 1 || ledger.rounds != ledger.bits;
    let _views = (&ledger.bits, &mut ledger.phases);
}
