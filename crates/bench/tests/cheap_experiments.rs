//! The two cheapest experiments, checked against their pinned output in
//! `results/experiments_all.txt` on every `cargo test`.
//!
//! E4 (golden rounds) and E10 (round, message and bit accounting) pin the
//! accounting of every message-passing algorithm, and run in well under a
//! second even in a debug build. The other eleven are checked only by
//! `scripts/experiments.sh --check`, which runs the release binaries. Like
//! that script, this assumes the default configuration: `TRIALS` unset.

use cc_mis_analysis::table::Table;
use cc_mis_bench::experiments::{e10_accounting, e4_golden_rounds};

const PINNED: &str = include_str!("../../../results/experiments_all.txt");

/// The tables as the experiment binary prints them
/// (`experiments::emit`, without `CSV_DIR`).
fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// The output pinned under `=== name ===`, up to the next header.
fn pinned_section(name: &str) -> String {
    let header = format!("=== {name} ===\n");
    let start = PINNED.find(&header).expect("experiment is pinned") + header.len();
    let len = PINNED[start..].find("=== ").unwrap_or(PINNED.len() - start);
    PINNED[start..start + len].to_string()
}

#[test]
fn e4_golden_rounds_matches_its_pin() {
    assert_eq!(
        render(&e4_golden_rounds::run(false)),
        pinned_section("e4_golden_rounds")
    );
}

#[test]
fn e10_accounting_matches_its_pin() {
    assert_eq!(
        render(&e10_accounting::run(false)),
        pinned_section("e10_accounting")
    );
}
