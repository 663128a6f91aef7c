// conform-fixture: crates/sim/src/runtime.rs
//! R18 firing fixture: a `RoundObserver` impl that charges the ledger —
//! attaching it with --trace would perturb the golden ledgers. (Scoped as
//! runtime.rs, where charging is sanctioned, so R18's own dataflow finding
//! is isolated.)

pub struct ChattyObserver;

impl RoundObserver for ChattyObserver {
    fn on_round_end(&mut self, ledger: &mut RoundLedger, summary: &RoundSummary) {
        ledger.charge_bits(64);
    }
}
