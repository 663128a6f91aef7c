//! Golden checkpoints: the snapshot byte format, pinned by committed files.
//!
//! Every execution shape runs on a small golden-ledger graph, is stepped
//! to the middle of its run, and is saved. The bytes must equal the
//! committed `tests/fixtures/snapshots/<case>.ccms` exactly, so any change
//! to a field list (order, width, a field added or dropped) fails here
//! before it can strand a checkpoint written by an older build. The
//! committed bytes must also resume into a fresh execution and finish
//! with the straight run's MIS and full ledger.
//!
//! The same files double as hostile input: every strict prefix must be
//! rejected with a typed error, and flipping any single byte must yield
//! `Ok` or `Err` from `resume`, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use clique_mis::algorithms::beeping_mis::{BeepingExecution, BeepingParams, BeepingRun};
use clique_mis::algorithms::clique_mis::{CliqueMisExecution, CliqueMisParams, CliqueMisResult};
use clique_mis::algorithms::ghaffari16::{
    Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params,
};
use clique_mis::algorithms::lowdeg::{
    AutoExecution, LowDegExecution, LowDegParams, LowDegResult, Strategy,
};
use clique_mis::algorithms::luby::{LubyExecution, LubyParams};
use clique_mis::algorithms::sparsified::{
    finish_with_cleanup, SparsifiedExecution, SparsifiedMessagedExecution, SparsifiedParams,
    SparsifiedRun,
};
use clique_mis::algorithms::MisOutcome;
use clique_mis::graph::{generators, Graph, NodeId};
use clique_mis::sim::driver::{resume, snapshot};
use clique_mis::sim::snapshot::SnapshotError;
use clique_mis::sim::{drive, BoxedExecution, Execution, MapOutcome, RoundLedger, Status};

const SEED: u64 = 7;

type Solved = (Vec<NodeId>, RoundLedger);

/// Every execution shape, with the golden graph it is pinned on.
const CASES: [(&str, &str); 10] = [
    ("luby", "gnp80"),
    ("ghaffari16", "gnp80"),
    ("g16-clique", "gnp80"),
    ("beeping", "gnp80"),
    ("sparsified", "gnp80"),
    ("sparsified-messaged", "gnp80"),
    ("thm11", "gnp80"),
    ("lowdeg", "cycle48"),
    ("auto-sparsified", "gnp80"),
    ("auto-lowdeg", "cycle48"),
];

fn graph_for(name: &str) -> Graph {
    match name {
        "gnp80" => generators::erdos_renyi_gnp(80, 0.1, 9),
        "cycle48" => generators::cycle(48),
        other => panic!("unknown golden graph '{other}'"),
    }
}

fn outcome(o: MisOutcome) -> Solved {
    (o.mis, o.ledger)
}

/// A fresh execution for `case`, boxed behind one outcome type. The
/// [`MapOutcome`] wrapper forwards `save`/`restore` untouched, so the bytes
/// are exactly the inner execution's.
fn make<'g>(case: &str, g: &'g Graph) -> BoxedExecution<'g, Solved> {
    match case {
        "luby" => Box::new(MapOutcome::new(
            LubyExecution::new(g, &LubyParams::for_graph(g), SEED),
            outcome,
        )),
        "ghaffari16" => Box::new(MapOutcome::new(
            Ghaffari16Execution::new(g, &Ghaffari16Params::for_graph(g), SEED),
            outcome,
        )),
        "g16-clique" => Box::new(MapOutcome::new(
            Ghaffari16CliqueExecution::new(g, &Ghaffari16Params::for_graph(g), SEED),
            outcome,
        )),
        "beeping" => Box::new(MapOutcome::new(
            BeepingExecution::new(g, &BeepingParams::for_graph(g), SEED),
            |r: BeepingRun| (r.mis, r.ledger),
        )),
        "sparsified" => Box::new(MapOutcome::new(
            SparsifiedExecution::new(g, &SparsifiedParams::for_graph(g), SEED),
            move |r: SparsifiedRun| outcome(finish_with_cleanup(g, r)),
        )),
        "sparsified-messaged" => Box::new(MapOutcome::new(
            SparsifiedMessagedExecution::new(g, &SparsifiedParams::for_graph(g), SEED),
            move |r: SparsifiedRun| outcome(finish_with_cleanup(g, r)),
        )),
        "thm11" => Box::new(MapOutcome::new(
            CliqueMisExecution::new(g, &CliqueMisParams::default(), SEED),
            |r: CliqueMisResult| (r.mis, r.ledger),
        )),
        "lowdeg" => Box::new(MapOutcome::new(
            LowDegExecution::new(g, &LowDegParams::default(), SEED),
            |r: LowDegResult| (r.mis, r.ledger),
        )),
        "auto-sparsified" | "auto-lowdeg" => {
            let exec = AutoExecution::new(g, SEED);
            let want = if case == "auto-lowdeg" {
                Strategy::LowDegree
            } else {
                Strategy::Sparsified
            };
            assert_eq!(
                exec.strategy(),
                want,
                "{case}: dispatcher took the other branch"
            );
            Box::new(MapOutcome::new(exec, |(o, _): (MisOutcome, Strategy)| {
                outcome(o)
            }))
        }
        other => panic!("unknown case '{other}'"),
    }
}

/// Steps `exec` to completion, returning the outcome and how many steps
/// reported `Running` on the way.
fn run_counting(mut exec: BoxedExecution<'_, Solved>) -> (Solved, u64) {
    let mut steps = 0;
    loop {
        match exec.step() {
            Status::Running => steps += 1,
            Status::Done(out) => return (out, steps),
        }
    }
}

/// The straight run's outcome and the snapshot taken halfway through it.
fn straight_and_mid_snapshot(case: &str, g: &Graph) -> (Solved, Vec<u8>) {
    let (straight, steps) = run_counting(make(case, g));
    let mid = steps / 2;
    assert!(mid >= 1, "{case}: run too short to snapshot mid-run");
    let mut exec = make(case, g);
    for _ in 0..mid {
        assert!(
            matches!(exec.step(), Status::Running),
            "{case}: finished before the mid-run step"
        );
    }
    (straight, snapshot(&exec))
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/snapshots")
        .join(format!("{case}.ccms"))
}

fn golden_bytes(case: &str) -> Vec<u8> {
    let path = golden_path(case);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn save_reproduces_the_golden_bytes() {
    for (case, gname) in CASES {
        let g = graph_for(gname);
        let (_, bytes) = straight_and_mid_snapshot(case, &g);
        let golden = golden_bytes(case);
        if bytes != golden {
            let at = bytes
                .iter()
                .zip(&golden)
                .position(|(a, b)| a != b)
                .unwrap_or(bytes.len().min(golden.len()));
            panic!(
                "{case}: snapshot differs from {} at byte {at} (saved {} bytes, golden {})",
                golden_path(case).display(),
                bytes.len(),
                golden.len()
            );
        }
    }
}

#[test]
fn golden_bytes_resume_to_the_straight_run() {
    for (case, gname) in CASES {
        let g = graph_for(gname);
        let (straight, _) = run_counting(make(case, &g));
        let mut exec = make(case, &g);
        resume(&mut exec, &golden_bytes(case))
            .unwrap_or_else(|e| panic!("{case}: golden snapshot does not resume: {e}"));
        let resumed = drive(exec);
        assert_eq!(resumed.0, straight.0, "{case}: MIS differs after resume");
        assert_eq!(resumed.1, straight.1, "{case}: ledger differs after resume");
    }
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    for (case, gname) in CASES {
        let g = graph_for(gname);
        let golden = golden_bytes(case);
        for len in 0..golden.len() {
            let mut exec = make(case, &g);
            match resume(&mut exec, &golden[..len]) {
                Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }) => {}
                other => panic!("{case}: {len}-byte prefix gave {other:?}"),
            }
        }
    }
}

#[test]
fn a_flipped_byte_never_panics_resume() {
    for (case, gname) in CASES {
        let g = graph_for(gname);
        let golden = golden_bytes(case);
        for at in 0..golden.len() {
            let mut bytes = golden.clone();
            bytes[at] ^= 0xFF;
            let mut exec = make(case, &g);
            let result = catch_unwind(AssertUnwindSafe(|| resume(&mut exec, &bytes).is_ok()));
            assert!(
                result.is_ok(),
                "{case}: resume panicked with byte {at} flipped"
            );
        }
    }
}
