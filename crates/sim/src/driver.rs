//! The step-driven execution driver.
//!
//! Every MIS algorithm in `crates/core` is a state machine implementing
//! [`Execution`]: construction captures the inputs (graph, parameters,
//! seed), each [`Execution::step`] advances the run by one suspension point
//! (an iteration or a phase — always a round boundary), and the final step
//! returns the outcome. The loop itself lives *here*, in [`drive`]: the
//! algorithm no longer owns its control flow, so a driver can pause,
//! inspect, snapshot, or resume a run between any two steps.
//!
//! The paper's structure makes the suspension points natural: §2.3's
//! phases and §2.4's simulate-a-phase-locally step (Lemma 2.13) are exactly
//! the boundaries at which all inter-node information is back in per-node
//! state. Checkpointing ([`drive_with_checkpoints`], [`snapshot`],
//! [`resume`]) piggybacks on that: a snapshot taken at a step boundary and
//! resumed in a fresh process reproduces the straight run bit-for-bit —
//! same MIS, byte-identical ledger — because every execution keeps *all*
//! cross-step state in explicit serializable fields.
//!
//! # Example
//!
//! ```
//! use cc_mis_sim::driver::{drive, resume, snapshot, Execution, Status};
//!
//! /// Counts down from `n`; outcome is the number of steps taken.
//! struct Countdown {
//!     left: u64,
//!     taken: u64,
//! }
//!
//! impl Execution for Countdown {
//!     type Outcome = u64;
//!     fn algorithm_id(&self) -> &'static str {
//!         "countdown"
//!     }
//!     fn attach_observer(&mut self, _observer: cc_mis_sim::SharedObserver) {}
//!     fn step(&mut self) -> Status<u64> {
//!         if self.left == 0 {
//!             return Status::Done(self.taken);
//!         }
//!         self.left -= 1;
//!         self.taken += 1;
//!         Status::Running
//!     }
//!     // One field list generates both `save` and `restore`.
//!     cc_mis_sim::snapshot_fields! {
//!         self;
//!         identity {}
//!         state { self.left, self.taken }
//!     }
//! }
//!
//! let mut half = Countdown { left: 4, taken: 0 };
//! half.step();
//! half.step();
//! let bytes = snapshot(&half);
//! let mut resumed = Countdown { left: 4, taken: 0 };
//! resume(&mut resumed, &bytes)?;
//! assert_eq!(drive(resumed), 4);
//! # Ok::<(), cc_mis_sim::snapshot::SnapshotError>(())
//! ```

use crate::runtime::SharedObserver;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// What a step left behind: either the run continues, or it finished and
/// produced its outcome.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status<O> {
    /// More steps remain.
    Running,
    /// The run finished with this outcome; calling `step` again is a
    /// contract violation.
    Done(O),
}

/// A suspended MIS run: one `step` call advances it by one iteration or
/// phase, and every bit of cross-step state lives in explicit fields so
/// the run can be snapshotted at any step boundary.
///
/// Contract (what the resume-equivalence tests pin):
///
/// * `step` is deterministic: two executions constructed with the same
///   inputs produce identical step sequences, outcomes, and ledgers.
/// * `save`/`restore` round-trip *all* cross-step state, including the
///   engine ledger and RNG stream positions, and `restore` verifies the
///   identity fields (graph fingerprint, seed, parameters) written by
///   `save`, returning [`SnapshotError::Mismatch`] instead of resuming a
///   run that would silently diverge.
pub trait Execution {
    /// What the run produces when it completes.
    type Outcome;

    /// Stable name used as the snapshot header's algorithm id.
    fn algorithm_id(&self) -> &'static str;

    /// Attaches a round observer to the underlying engine(s). Must be
    /// called before the first `step` to see every event.
    fn attach_observer(&mut self, observer: SharedObserver);

    /// Advances the run by one suspension point.
    fn step(&mut self) -> Status<Self::Outcome>;

    /// Serializes identity fields and all cross-step state.
    fn save(&self, w: &mut SnapshotWriter);

    /// Restores state saved by [`Execution::save`], verifying identity
    /// fields against this execution's own construction inputs.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Boxed executions delegate, so the batch scheduler can queue
/// heterogeneous algorithms behind one outcome type (see
/// [`crate::scheduler::BoxedExecution`]).
impl<E: Execution + ?Sized> Execution for Box<E> {
    type Outcome = E::Outcome;

    fn algorithm_id(&self) -> &'static str {
        (**self).algorithm_id()
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        (**self).attach_observer(observer);
    }

    fn step(&mut self) -> Status<Self::Outcome> {
        (**self).step()
    }

    fn save(&self, w: &mut SnapshotWriter) {
        (**self).save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        (**self).restore(r)
    }
}

/// Runs a single-job batch and unwraps its one result.
fn drive_single<O>(
    scheduler: crate::scheduler::BatchScheduler,
    spec: crate::scheduler::JobSpec<'_, O>,
) -> O {
    let mut results = scheduler.run(vec![spec]);
    results
        .pop()
        .expect("a single-job batch yields exactly one result")
        .outcome
}

/// Runs an execution to completion and returns its outcome.
///
/// Since the batch-scheduler refactor this is a thin single-job batch
/// over [`crate::scheduler::BatchScheduler`] with an unbounded quantum —
/// the loop the algorithm used to own now lives in the scheduler's
/// run-one-turn core, shared with every multi-tenant batch.
pub fn drive<E: Execution>(exec: E) -> E::Outcome {
    drive_observed(exec, None)
}

/// [`drive`] with an optional observer attached before the first step —
/// the single entry point behind every `run_*` / `run_*_observed` pair.
pub fn drive_observed<E: Execution>(exec: E, observer: Option<SharedObserver>) -> E::Outcome {
    let mut spec = crate::scheduler::JobSpec::solo(exec);
    if let Some(obs) = observer {
        spec = spec.observed(obs);
    }
    drive_single(crate::scheduler::BatchScheduler::unbounded(), spec)
}

/// Runs an execution to completion, handing an encoded snapshot to `sink`
/// after every `every`-th completed step. The sink receives the number of
/// completed steps and the snapshot bytes; overwriting one file with the
/// latest snapshot is the expected use. The snapshot encode buffer is
/// recycled across checkpoints by the scheduler, so after the first
/// checkpoint the encode is allocation-free.
///
/// # Panics
///
/// Panics if `every == 0`.
pub fn drive_with_checkpoints<E: Execution>(
    exec: E,
    observer: Option<SharedObserver>,
    every: u64,
    sink: impl FnMut(u64, &[u8]),
) -> E::Outcome {
    assert!(every > 0, "checkpoint interval must be at least 1 step");
    let mut spec = crate::scheduler::JobSpec::solo(exec).checkpointed(every, sink);
    if let Some(obs) = observer {
        spec = spec.observed(obs);
    }
    drive_single(crate::scheduler::BatchScheduler::unbounded(), spec)
}

/// [`drive`] with a sharded-runtime fault injected: arms `plan` for the
/// run's duration, so the matching `(shard, round)` delivery kills that
/// worker shard mid-round and the transport must recover it (respawn +
/// checkpoint restore + round replay). The headline invariant — pinned by
/// `tests/fault_recovery.rs` — is that the outcome, ledger, and trace are
/// byte-identical to the unfaulted run. Use
/// [`crate::shard::fault_injections`] to check the fault actually fired
/// (a plan aimed past the last round never triggers).
///
/// Has no effect unless the engines run with a sharded transport
/// (`CC_MIS_SHARDS` / [`crate::shard::set_shards_override`]).
pub fn drive_with_fault<E: Execution>(exec: E, plan: crate::shard::FaultPlan) -> E::Outcome {
    let spec = crate::scheduler::JobSpec::solo(exec).faulted(plan);
    drive_single(crate::scheduler::BatchScheduler::unbounded(), spec)
}

/// Encodes an execution's state as snapshot bytes (header + payload).
pub fn snapshot<E: Execution>(exec: &E) -> Vec<u8> {
    let mut w = SnapshotWriter::new(exec.algorithm_id());
    exec.save(&mut w);
    w.finish()
}

/// Restores a freshly constructed execution from snapshot bytes, verifying
/// the header and the execution's identity fields. On success the next
/// [`Execution::step`] continues exactly where the checkpointing run
/// stopped.
pub fn resume<E: Execution>(exec: &mut E, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    if r.algorithm() != exec.algorithm_id() {
        return Err(SnapshotError::Mismatch {
            field: "algorithm",
            expected: exec.algorithm_id().to_string(),
            found: r.algorithm().to_string(),
        });
    }
    exec.restore(&mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles an accumulator a fixed number of times.
    struct Doubler {
        rounds_left: u64,
        acc: u64,
    }

    impl Doubler {
        fn new(rounds: u64) -> Self {
            Doubler {
                rounds_left: rounds,
                acc: 1,
            }
        }
    }

    impl Execution for Doubler {
        type Outcome = u64;
        fn algorithm_id(&self) -> &'static str {
            "doubler"
        }
        fn attach_observer(&mut self, _observer: SharedObserver) {}
        fn step(&mut self) -> Status<u64> {
            if self.rounds_left == 0 {
                return Status::Done(self.acc);
            }
            self.rounds_left -= 1;
            self.acc *= 2;
            Status::Running
        }
        crate::snapshot_fields! {
            self;
            identity {}
            state { self.rounds_left, self.acc }
        }
    }

    #[test]
    fn drive_runs_to_completion() {
        assert_eq!(drive(Doubler::new(5)), 32);
    }

    #[test]
    fn checkpoints_fire_at_the_requested_cadence() {
        let mut seen = Vec::new();
        let out = drive_with_checkpoints(Doubler::new(7), None, 2, |steps, bytes| {
            seen.push((steps, bytes.to_vec()));
        });
        assert_eq!(out, 128);
        let steps: Vec<u64> = seen.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![2, 4, 6]);
    }

    #[test]
    fn every_checkpoint_resumes_to_the_same_outcome() {
        let mut snapshots = Vec::new();
        let straight = drive_with_checkpoints(Doubler::new(6), None, 1, |_, bytes| {
            snapshots.push(bytes.to_vec());
        });
        assert_eq!(snapshots.len(), 6);
        for bytes in &snapshots {
            let mut fresh = Doubler::new(6);
            resume(&mut fresh, bytes).expect("snapshot restores into a fresh execution");
            assert_eq!(drive(fresh), straight);
        }
    }

    #[test]
    fn resume_rejects_a_different_algorithm() {
        let bytes = snapshot(&Doubler::new(3));
        struct Other;
        impl Execution for Other {
            type Outcome = ();
            fn algorithm_id(&self) -> &'static str {
                "other"
            }
            fn attach_observer(&mut self, _observer: SharedObserver) {}
            fn step(&mut self) -> Status<()> {
                Status::Done(())
            }
            fn save(&self, _w: &mut SnapshotWriter) {}
            fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                Ok(())
            }
        }
        let err = resume(&mut Other, &bytes).expect_err("algorithm mismatch detected");
        assert!(err.to_string().contains("algorithm"), "{err}");
    }

    #[test]
    fn resume_rejects_trailing_bytes() {
        let mut bytes = snapshot(&Doubler::new(3));
        bytes.push(0);
        let err = resume(&mut Doubler::new(3), &bytes).expect_err("trailing bytes detected");
        assert!(matches!(err, SnapshotError::TrailingBytes { .. }));
    }
}
