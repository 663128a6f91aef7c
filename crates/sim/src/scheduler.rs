//! Multi-tenant batch scheduling over step-driven executions.
//!
//! PR 5 turned every algorithm into a preemptible [`Execution`] state
//! machine; this module turns the driver into a *service*. The unit of
//! traffic is a [`JobSpec`] — how to build one execution (graph ×
//! algorithm × seed), plus an optional observer and checkpoint policy —
//! and a [`BatchScheduler`] interleaves many jobs' executions at step
//! boundaries, so a long-running tenant cannot starve the queue.
//!
//! # Queue discipline and preemption
//!
//! The scheduler is a FIFO round-robin: the head job runs for up to
//! `quantum` steps; if it finishes, its outcome is recorded, otherwise it
//! is *parked* — its state is encoded into a CCMS snapshot (the PR-5
//! format, written into a recycled buffer), the live execution is dropped,
//! and the job re-enters the tail of the queue. When the job's turn comes
//! again, `make()` constructs a fresh execution, the snapshot is restored
//! into it, and stepping continues. Parking through snapshots (rather than
//! keeping every execution live) is what lets a queue of thousands of
//! jobs hold one live engine at a time: the working set is one execution
//! plus one byte blob per waiting job.
//!
//! # Determinism
//!
//! The scheduler may reorder work *between* jobs but never perturbs one:
//!
//! * each `step` is deterministic in the execution's own state (the PR-5
//!   contract), and intra-step parallelism goes through the `par_nodes`
//!   pool, which is bit-identical for every thread count;
//! * parking and reviving is exactly the save → fresh-construct → restore
//!   cycle the resume-equivalence suite pins byte-identical to a straight
//!   run, so a preempted job's MIS, ledger, and trace match its solo
//!   `drive` at *any* quantum;
//! * jobs share no mutable state — observers are per-job, and the ledger
//!   lives inside each execution.
//!
//! `tests/batch_equivalence.rs` checks the product of thread counts and
//! quanta against solo runs, byte for byte.

use std::collections::VecDeque;

use crate::driver::{resume, Execution, Status};
use crate::runtime::SharedObserver;
use crate::snapshot::SnapshotWriter;

/// A boxed, type-erased execution whose outcome has been unified to `O`.
pub type BoxedExecution<'a, O> = Box<dyn Execution<Outcome = O> + 'a>;

/// Callback receiving `(cumulative_steps, snapshot_bytes)` at every
/// checkpoint boundary of a job (see [`JobSpec::checkpointed`]).
type CheckpointSink<'a> = Box<dyn FnMut(u64, &[u8]) + 'a>;

/// Adapts an execution by mapping its outcome through `f`, leaving every
/// other part of the [`Execution`] contract (stepping, snapshots,
/// observers) untouched. This is how heterogeneous algorithm outcomes are
/// unified into one batch outcome type.
#[derive(Debug)]
pub struct MapOutcome<E, F> {
    inner: E,
    f: F,
}

impl<E, F> MapOutcome<E, F> {
    /// Wraps `inner`, mapping its outcome through `f` when it completes.
    pub fn new(inner: E, f: F) -> Self {
        MapOutcome { inner, f }
    }
}

impl<E, F, O> Execution for MapOutcome<E, F>
where
    E: Execution,
    F: FnMut(E::Outcome) -> O,
{
    type Outcome = O;

    fn algorithm_id(&self) -> &'static str {
        self.inner.algorithm_id()
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.inner.attach_observer(observer);
    }

    fn step(&mut self) -> Status<O> {
        match self.inner.step() {
            Status::Running => Status::Running,
            Status::Done(o) => Status::Done((self.f)(o)),
        }
    }

    fn save(&self, w: &mut SnapshotWriter) {
        self.inner.save(w);
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.inner.restore(r)
    }
}

/// One solve request: how to construct its execution, plus the per-job
/// observer and checkpoint policy.
///
/// `make` must construct a *fresh, deterministic* execution each call —
/// after a preemption the scheduler rebuilds the execution and restores
/// the parked snapshot into it, exactly like the checkpoint/resume CLI
/// path. Jobs driven with an unbounded quantum (the solo `drive*`
/// wrappers) construct exactly once, which is why [`JobSpec::solo`] can
/// wrap an already-built execution.
pub struct JobSpec<'a, O> {
    label: String,
    make: Box<dyn FnMut() -> BoxedExecution<'a, O> + 'a>,
    observer: Option<SharedObserver>,
    checkpoint_every: Option<u64>,
    checkpoint_sink: Option<CheckpointSink<'a>>,
    fault: Option<crate::shard::FaultPlan>,
}

impl<'a, O> JobSpec<'a, O> {
    /// A job built from a factory; `make` is re-invoked after every
    /// preemption to host the restored snapshot.
    pub fn new(label: impl Into<String>, make: impl FnMut() -> BoxedExecution<'a, O> + 'a) -> Self {
        JobSpec {
            label: label.into(),
            make: Box::new(make),
            observer: None,
            checkpoint_every: None,
            checkpoint_sink: None,
            fault: None,
        }
    }

    /// A job wrapping one already-constructed execution. Only valid with
    /// an unbounded quantum (no preemption): a parked solo job cannot be
    /// rebuilt, and reviving it panics with an invariant message.
    pub fn solo<E>(exec: E) -> Self
    where
        E: Execution<Outcome = O> + 'a,
    {
        let mut slot = Some(exec);
        JobSpec::new("solo", move || {
            Box::new(
                slot.take().expect(
                    "a solo job is constructed exactly once; preemption needs JobSpec::new",
                ),
            )
        })
    }

    /// Attaches a round observer to the job's execution (re-attached after
    /// every revival, before the next step).
    #[must_use]
    pub fn observed(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Hands an encoded snapshot to `sink` after every `every`-th
    /// completed step of *this job* (counted across preemptions, so the
    /// cadence matches a solo run).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    #[must_use]
    pub fn checkpointed(mut self, every: u64, sink: impl FnMut(u64, &[u8]) + 'a) -> Self {
        assert!(every > 0, "checkpoint interval must be at least 1 step");
        self.checkpoint_every = Some(every);
        self.checkpoint_sink = Some(Box::new(sink));
        self
    }

    /// Arms a sharded-runtime [`crate::shard::FaultPlan`] while this job
    /// runs: the plan is armed at the start of each of the job's turns and
    /// disarmed when the turn ends, so the shard death is injected into
    /// this job's deliveries only. Has no effect unless the job's engines
    /// run with a sharded transport (`CC_MIS_SHARDS` /
    /// [`crate::shard::set_shards_override`]).
    #[must_use]
    pub fn faulted(mut self, plan: crate::shard::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The job's label (used in diagnostics and batch manifests).
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<O> std::fmt::Debug for JobSpec<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("label", &self.label)
            .field("observed", &self.observer.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .finish()
    }
}

/// A completed job: its outcome plus scheduling accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult<O> {
    /// Label copied from the [`JobSpec`].
    pub label: String,
    /// The execution's outcome, exactly as a solo `drive` would return it.
    pub outcome: O,
    /// Completed steps (suspension points) the execution took.
    pub steps: u64,
    /// How many times the job was parked and revived.
    pub preemptions: u64,
}

/// One queued job: its spec plus the scheduler's bookkeeping.
struct QueuedJob<'a, O> {
    /// Submission index — results are returned in submission order.
    idx: usize,
    spec: JobSpec<'a, O>,
    /// Parked CCMS snapshot, present iff the job has been preempted.
    parked: Option<Vec<u8>>,
    steps: u64,
    preemptions: u64,
}

/// FIFO round-robin batch scheduler with checkpoint-based preemption.
///
/// See the module docs for the discipline and the determinism argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchScheduler {
    /// Steps a job may take per turn; `None` runs each job to completion.
    quantum: Option<u64>,
}

impl BatchScheduler {
    /// A scheduler that runs each job to completion in submission order
    /// (no preemption) — the discipline behind the solo `drive*` wrappers.
    pub fn unbounded() -> Self {
        BatchScheduler { quantum: None }
    }

    /// A scheduler that preempts the running job after `quantum` steps.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn with_quantum(quantum: u64) -> Self {
        assert!(quantum > 0, "preemption quantum must be at least 1 step");
        BatchScheduler {
            quantum: Some(quantum),
        }
    }

    /// The configured preemption quantum (`None` = unbounded).
    pub fn quantum(&self) -> Option<u64> {
        self.quantum
    }

    /// Runs every job to completion, interleaving them at step boundaries,
    /// and returns their results in submission order.
    ///
    /// Two buffer families are recycled across the whole batch, keeping
    /// the steady state allocation-light the same way the round core's
    /// pool does: one encode buffer per *checkpoint* stream, and a small
    /// free list of parked-snapshot buffers that cycle between jobs as
    /// they park and revive.
    pub fn run<'a, O>(&self, jobs: Vec<JobSpec<'a, O>>) -> Vec<JobResult<O>> {
        let mut results: Vec<Option<JobResult<O>>> = Vec::new();
        results.resize_with(jobs.len(), || None);
        let mut ready: VecDeque<QueuedJob<'a, O>> = jobs
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| QueuedJob {
                idx,
                spec,
                parked: None,
                steps: 0,
                preemptions: 0,
            })
            .collect();
        // Recycled encode buffers: `ck_buf` for the checkpoint sinks,
        // `park_spare` for parked snapshots handed from reviving jobs to
        // parking ones.
        let mut ck_buf: Vec<u8> = Vec::new();
        let mut park_spare: Vec<Vec<u8>> = Vec::new();
        while let Some(mut job) = ready.pop_front() {
            let mut exec = (job.spec.make)();
            if let Some(bytes) = job.parked.take() {
                resume(&mut exec, &bytes).unwrap_or_else(|e| {
                    panic!(
                        "scheduler invariant: a parked snapshot of '{}' restores into a fresh \
                         `make()` execution (same graph, params, seed): {e}",
                        job.spec.label
                    )
                });
                park_spare.push(bytes);
            }
            if let Some(obs) = job.spec.observer.clone() {
                exec.attach_observer(obs);
            }
            // Fault plans are process-global (the transport checks them at
            // delivery); scope the armed window to this job's turn so a
            // batch can mix faulted and clean jobs.
            if let Some(plan) = job.spec.fault {
                crate::shard::arm_fault(plan);
            }
            let mut ran: u64 = 0;
            let outcome = loop {
                if let Status::Done(o) = exec.step() {
                    break Some(o);
                }
                job.steps = job
                    .steps
                    .checked_add(1)
                    .expect("step count stays within u64 (runs are bounded far below 2^64 steps)");
                ran += 1;
                if let (Some(every), Some(sink)) =
                    (job.spec.checkpoint_every, job.spec.checkpoint_sink.as_mut())
                {
                    if job.steps.is_multiple_of(every) {
                        let mut w = SnapshotWriter::with_buffer(
                            std::mem::take(&mut ck_buf),
                            exec.algorithm_id(),
                        );
                        exec.save(&mut w);
                        ck_buf = w.finish();
                        sink(job.steps, &ck_buf);
                    }
                }
                if self.quantum.is_some_and(|q| ran >= q) {
                    break None;
                }
            };
            if job.spec.fault.is_some() {
                crate::shard::disarm_fault();
            }
            match outcome {
                Some(outcome) => {
                    results[job.idx] = Some(JobResult {
                        label: job.spec.label.clone(),
                        outcome,
                        steps: job.steps,
                        preemptions: job.preemptions,
                    });
                }
                None => {
                    let buf = park_spare.pop().unwrap_or_default();
                    let mut w = SnapshotWriter::with_buffer(buf, exec.algorithm_id());
                    exec.save(&mut w);
                    job.parked = Some(w.finish());
                    job.preemptions += 1;
                    drop(exec);
                    ready.push_back(job);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every queued job either completes or re-enters the ready queue"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts up to `target`, recording the interleaving order into a
    /// shared log so tests can observe the queue discipline.
    struct Counter {
        id: u64,
        target: u64,
        at: u64,
        log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }

    impl Execution for Counter {
        type Outcome = u64;
        fn algorithm_id(&self) -> &'static str {
            "counter"
        }
        fn attach_observer(&mut self, _observer: SharedObserver) {}
        fn step(&mut self) -> Status<u64> {
            if self.at == self.target {
                return Status::Done(self.at);
            }
            self.at += 1;
            self.log.borrow_mut().push(self.id);
            Status::Running
        }
        crate::snapshot_fields! {
            self;
            identity { "id" => self.id, "target" => self.target }
            state { self.at }
        }
    }

    fn counter_job<'a>(
        id: u64,
        target: u64,
        log: &std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    ) -> JobSpec<'a, u64> {
        let log = log.clone();
        JobSpec::new(format!("counter-{id}"), move || {
            Box::new(Counter {
                id,
                target,
                at: 0,
                log: log.clone(),
            })
        })
    }

    #[test]
    fn unbounded_runs_jobs_to_completion_in_submission_order() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let jobs = vec![counter_job(1, 3, &log), counter_job(2, 2, &log)];
        let results = BatchScheduler::unbounded().run(jobs);
        assert_eq!(log.borrow().as_slice(), &[1, 1, 1, 2, 2]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].outcome, 3);
        assert_eq!(results[1].outcome, 2);
        assert!(results.iter().all(|r| r.preemptions == 0));
    }

    #[test]
    fn quantum_interleaves_round_robin_and_parks_through_snapshots() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let jobs = vec![counter_job(1, 3, &log), counter_job(2, 5, &log)];
        let results = BatchScheduler::with_quantum(2).run(jobs);
        // Quantum 2: job 1 steps twice, job 2 twice, job 1 finishes its
        // third step (Done happens on the 4th call), job 2 runs out.
        assert_eq!(log.borrow().as_slice(), &[1, 1, 2, 2, 1, 2, 2, 2]);
        assert_eq!(results[0].outcome, 3);
        assert_eq!(results[1].outcome, 5);
        assert!(results[0].preemptions >= 1, "{results:?}");
        assert!(results[1].preemptions >= 1, "{results:?}");
        assert_eq!(results[0].steps, 3);
        assert_eq!(results[1].steps, 5);
    }

    #[test]
    fn outcomes_are_identical_across_quanta() {
        let solo: Vec<u64> = (0..6)
            .map(|i| {
                let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
                crate::driver::drive(Counter {
                    id: i,
                    target: 3 + i,
                    at: 0,
                    log,
                })
            })
            .collect();
        for quantum in [Some(1), Some(2), Some(7), None] {
            let sched = match quantum {
                Some(q) => BatchScheduler::with_quantum(q),
                None => BatchScheduler::unbounded(),
            };
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let jobs: Vec<JobSpec<'_, u64>> = (0..6).map(|i| counter_job(i, 3 + i, &log)).collect();
            let results = sched.run(jobs);
            let outcomes: Vec<u64> = results.iter().map(|r| r.outcome).collect();
            assert_eq!(outcomes, solo, "quantum {quantum:?}");
        }
    }

    #[test]
    fn checkpoint_cadence_matches_a_solo_run_across_preemptions() {
        let make = || Counter {
            id: 9,
            target: 7,
            at: 0,
            log: std::rc::Rc::new(std::cell::RefCell::new(Vec::new())),
        };
        let mut solo: Vec<(u64, Vec<u8>)> = Vec::new();
        crate::driver::drive_with_checkpoints(make(), None, 2, |steps, bytes| {
            solo.push((steps, bytes.to_vec()));
        });
        let mut batched: Vec<(u64, Vec<u8>)> = Vec::new();
        let spec = JobSpec::new("ck", move || Box::new(make()) as BoxedExecution<'_, u64>)
            .checkpointed(2, |steps, bytes| batched.push((steps, bytes.to_vec())));
        // A decoy job forces real interleaving around the checkpoints.
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let results = BatchScheduler::with_quantum(1).run(vec![spec, counter_job(1, 4, &log)]);
        assert_eq!(results[0].outcome, 7);
        assert_eq!(batched, solo, "checkpoint stream diverged under preemption");
    }

    #[test]
    fn map_outcome_projects_and_delegates_snapshots() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let exec = MapOutcome::new(
            Counter {
                id: 4,
                target: 5,
                at: 0,
                log,
            },
            |n: u64| format!("done:{n}"),
        );
        assert_eq!(crate::driver::drive(exec), "done:5");
    }

    #[test]
    #[should_panic(expected = "constructed exactly once")]
    fn solo_jobs_reject_preemption() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let spec = JobSpec::solo(Counter {
            id: 1,
            target: 5,
            at: 0,
            log,
        });
        let _ = BatchScheduler::with_quantum(1).run(vec![spec]);
    }
}
