//! Checkpoint/resume equivalence: resuming any algorithm from any step
//! boundary must reproduce the straight run bit-for-bit.
//!
//! For every case in the golden-ledger matrix we drive the execution once
//! straight through, then drive it again snapshotting at *every* step
//! boundary (including the pristine pre-step state), and finally restore a
//! fresh execution from each snapshot and drive it to completion. The
//! resumed run must produce the same MIS and a `RoundLedger` that compares
//! equal field-for-field (rounds, messages, bits, violations, and the full
//! per-phase breakdown) to the straight run.
//!
//! A failure here means some per-node or engine state escaped the
//! `Execution::save`/`restore` round trip.

use clique_mis::algorithms::beeping_mis::{BeepingExecution, BeepingParams};
use clique_mis::algorithms::clique_mis::{CliqueMisExecution, CliqueMisParams};
use clique_mis::algorithms::ghaffari16::{
    Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params,
};
use clique_mis::algorithms::lowdeg::{AutoExecution, LowDegExecution, LowDegParams};
use clique_mis::algorithms::luby::{LubyExecution, LubyParams};
use clique_mis::algorithms::sparsified::{
    finish_with_cleanup, SparsifiedExecution, SparsifiedParams,
};
use clique_mis::graph::{generators, Graph, NodeId};
use clique_mis::sim::driver::{resume, snapshot, Status};
use clique_mis::sim::{drive, drive_with_checkpoints, Execution, Frontier, RoundLedger};

const SEED: u64 = 7;

fn graph_for(name: &str) -> Graph {
    match name {
        "gnp80" => generators::erdos_renyi_gnp(80, 0.1, 9),
        "grid8x8" => generators::grid(8, 8),
        "cycle48" => generators::cycle(48),
        other => panic!("unknown golden graph '{other}'"),
    }
}

/// Drives `make()` straight through, snapshots a second run at every step
/// boundary, then resumes a fresh execution from each snapshot and checks
/// the projected `(mis, ledger)` against the straight run.
fn check_resume<E, F, P>(make: F, proj: P, label: &str)
where
    E: Execution,
    F: Fn() -> E,
    P: Fn(E::Outcome) -> (Vec<NodeId>, RoundLedger),
{
    let (straight_mis, straight_ledger) = proj(drive(make()));

    let mut snaps: Vec<Vec<u8>> = vec![snapshot(&make())];
    let checkpointed = drive_with_checkpoints(make(), None, 1, |_, bytes| {
        snaps.push(bytes.to_vec());
    });
    let (ck_mis, ck_ledger) = proj(checkpointed);
    assert_eq!(
        ck_mis, straight_mis,
        "{label}: checkpointing changed the MIS"
    );
    assert_eq!(
        ck_ledger, straight_ledger,
        "{label}: checkpointing changed the ledger"
    );
    assert!(snaps.len() > 1, "{label}: no step boundaries snapshotted");

    for (boundary, snap) in snaps.iter().enumerate() {
        let mut exec = make();
        resume(&mut exec, snap)
            .unwrap_or_else(|e| panic!("{label}: resume at boundary {boundary}: {e}"));
        let (mis, ledger) = proj(drive(exec));
        assert_eq!(
            mis, straight_mis,
            "{label}: MIS differs after resume at boundary {boundary}"
        );
        assert_eq!(
            ledger, straight_ledger,
            "{label}: ledger differs after resume at boundary {boundary}"
        );
    }
}

fn run_case(algorithm: &str, gname: &str) {
    let g = graph_for(gname);
    let label = format!("{algorithm}/{gname}");
    match algorithm {
        "luby" => {
            let p = LubyParams::for_graph(&g);
            check_resume(
                || LubyExecution::new(&g, &p, SEED),
                |o| (o.mis, o.ledger),
                &label,
            );
        }
        "ghaffari16" => {
            let p = Ghaffari16Params::for_graph(&g);
            check_resume(
                || Ghaffari16Execution::new(&g, &p, SEED),
                |o| (o.mis, o.ledger),
                &label,
            );
        }
        "g16-clique" => {
            let p = Ghaffari16Params::for_graph(&g);
            check_resume(
                || Ghaffari16CliqueExecution::new(&g, &p, SEED),
                |o| (o.mis, o.ledger),
                &label,
            );
        }
        "beeping" => {
            let p = BeepingParams::for_graph(&g);
            check_resume(
                || BeepingExecution::new(&g, &p, SEED),
                |r| {
                    assert!(r.residual.is_empty(), "beeping left undecided nodes");
                    (r.mis, r.ledger)
                },
                &label,
            );
        }
        "sparsified" => {
            let p = SparsifiedParams::for_graph(&g);
            check_resume(
                || SparsifiedExecution::new(&g, &p, SEED),
                |r| {
                    let o = finish_with_cleanup(&g, r);
                    (o.mis, o.ledger)
                },
                &label,
            );
        }
        "thm11" => {
            let p = CliqueMisParams::default();
            check_resume(
                || CliqueMisExecution::new(&g, &p, SEED),
                |r| (r.mis, r.ledger),
                &label,
            );
        }
        "lowdeg" => {
            let p = LowDegParams::default();
            check_resume(
                || LowDegExecution::new(&g, &p, SEED),
                |r| (r.mis, r.ledger),
                &label,
            );
        }
        "auto" => {
            check_resume(
                || AutoExecution::new(&g, SEED),
                |(o, _strategy)| (o.mis, o.ledger),
                &label,
            );
        }
        other => panic!("unknown algorithm '{other}'"),
    }
}

#[test]
fn resume_equivalence_gnp80() {
    for algorithm in [
        "luby",
        "ghaffari16",
        "g16-clique",
        "beeping",
        "sparsified",
        "thm11",
        "auto",
    ] {
        run_case(algorithm, "gnp80");
    }
}

#[test]
fn resume_equivalence_grid8x8() {
    for algorithm in [
        "luby",
        "ghaffari16",
        "g16-clique",
        "beeping",
        "sparsified",
        "thm11",
    ] {
        run_case(algorithm, "grid8x8");
    }
}

#[test]
fn resume_equivalence_grid8x8_auto() {
    // Split out: the dispatcher picks the low-degree branch on the grid,
    // whose gather phase dominates this suite's runtime.
    run_case("auto", "grid8x8");
}

#[test]
fn resume_equivalence_cycle48() {
    for algorithm in [
        "luby",
        "ghaffari16",
        "g16-clique",
        "beeping",
        "sparsified",
        "thm11",
        "auto",
        "lowdeg",
    ] {
        run_case(algorithm, "cycle48");
    }
}

/// Steps a run that is never parked and, at every step boundary, resumes a
/// fresh execution from that run's snapshot: the resumed frontier must
/// equal the live one (it is rebuilt from the snapshot, never stored), and
/// the resumed run must finish with the outcome of the run never parked.
fn check_frontier_resume<E, F, P, O>(make: F, frontier: fn(&E) -> &Frontier, proj: P, label: &str)
where
    E: Execution,
    F: Fn() -> E,
    P: Fn(E::Outcome) -> O,
    O: PartialEq + std::fmt::Debug,
{
    let straight = proj(drive(make()));
    let mut live = make();
    let mut boundary = 0;
    loop {
        let mut resumed = make();
        resume(&mut resumed, &snapshot(&live))
            .unwrap_or_else(|e| panic!("{label}: resume at boundary {boundary}: {e}"));
        assert_eq!(
            frontier(&resumed),
            frontier(&live),
            "{label}: frontier after resume at boundary {boundary}"
        );
        assert_eq!(
            proj(drive(resumed)),
            straight,
            "{label}: outcome after resume at boundary {boundary}"
        );
        match live.step() {
            Status::Running => boundary += 1,
            Status::Done(outcome) => {
                assert_eq!(proj(outcome), straight, "{label}: stepped run");
                break;
            }
        }
    }
    assert!(boundary >= 3, "{label}: only {boundary} steps");
}

/// Theorem 1.1, Luby, Ghaffari'16 and the sparsified algorithm each keep a
/// frontier of undecided nodes; parking and resuming at any step leaves it,
/// and the outcome, as in a run that was never parked.
#[test]
fn resumed_frontiers_match_the_unparked_run() {
    let g = generators::kronecker(10, 8, 3);
    let p = CliqueMisParams::default();
    check_frontier_resume(
        || CliqueMisExecution::new(&g, &p, SEED),
        CliqueMisExecution::frontier,
        |r| (r.mis, r.ledger, r.phases.len(), r.residual_edges),
        "thm11",
    );
    let p = LubyParams::for_graph(&g);
    check_frontier_resume(
        || LubyExecution::new(&g, &p, SEED),
        LubyExecution::frontier,
        |o| (o.mis, o.ledger),
        "luby",
    );
    let p = Ghaffari16Params::for_graph(&g);
    check_frontier_resume(
        || Ghaffari16Execution::new(&g, &p, SEED),
        Ghaffari16Execution::frontier,
        |o| (o.mis, o.ledger),
        "ghaffari16",
    );
    let p = SparsifiedParams::for_graph(&g);
    check_frontier_resume(
        || SparsifiedExecution::new(&g, &p, SEED),
        SparsifiedExecution::frontier,
        |r| (r.mis, r.ledger, r.residual),
        "sparsified",
    );
}
