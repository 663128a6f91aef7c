// conform-fixture: crates/core/src/fixture_demo.rs
use cc_mis_sim::RoundLedger;

pub fn demo(ledger: &mut RoundLedger) {
    ledger.bits += 8;
    ledger.messages = ledger.messages + 1;
    bump(&mut ledger.rounds, 1);
}
