//! The four benchmark workloads, their output checks, and the metrics each
//! run reports.
//!
//! Every workload loops over instances until the run's time is up. An
//! instance is one generated graph solved to a verified MIS, or for
//! `batch_mixed` one whole batch of jobs. Instance inputs derive from the
//! run seed only, so two runs with one seed solve the same graphs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cc_mis_core::beeping_mis::{BeepingExecution, BeepingParams, BeepingRun};
use cc_mis_core::clique_mis::{CliqueMisExecution, CliqueMisParams, CliqueMisResult};
use cc_mis_core::ghaffari16::{Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params};
use cc_mis_core::lowdeg::{AutoExecution, LowDegExecution, LowDegParams, LowDegResult, Strategy};
use cc_mis_core::luby::{LubyExecution, LubyParams};
use cc_mis_core::sparsified::{finish_with_cleanup, SparsifiedExecution, SparsifiedParams};
use cc_mis_core::MisOutcome;
use cc_mis_graph::rng::mix3;
use cc_mis_graph::{checks, generators, Graph, NodeId};
use cc_mis_sim::driver::{drive, resume, snapshot, Execution, Status};
use cc_mis_sim::shard::{decode_frame, encode_frame, FrameKind};
use cc_mis_sim::{fault_injections, set_shards_override, BatchScheduler, BoxedExecution, JobSpec};
use cc_mis_sim::{MapOutcome, RoundLedger};

use crate::spans::{drive_spanned, now, self_times_ns, step_spanned, timed, SharedLog, SpanLog};
use crate::stats::{mean, median, p90};

/// Worker shards of the framed-delivery workload.
pub const SHARDS: usize = 2;
/// Preemption quantum of `batch_mixed`: the `clique-mis batch` default.
pub const QUANTUM: u64 = 8;
/// Jobs per batch: 18 of each of the seven algorithms.
const BATCH_JOBS: usize = 126;
/// Graphs per batch pool: two each of gnp, kronecker and geometric.
const POOL_GRAPHS: usize = 6;
/// Nodes of every pool graph.
const POOL_N: usize = 2048;
/// Before each untraced instance, set-up is sampled on fresh inputs until
/// the samples add up to this many seconds. Short set-ups vary with their
/// input (`random_regular` restarts its pairing a seed-dependent number of
/// times), so a run needs many more set-up samples than it has solves.
const SETUP_BUDGET_S: f64 = 0.04;
/// Fewest instances a run measures, however short its time.
const MIN_INSTANCES: u64 = 3;
/// Marks the instance id of the direct-delivery reference solve.
const REFERENCE: u64 = 1 << 40;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.1 on R-MAT graphs, direct delivery.
    Thm11Rmat,
    /// The same graphs and seeds through two framed worker shards.
    Thm11RmatSharded,
    /// The low-degree fast path on random 4-regular graphs.
    LowdegRegular,
    /// A batch of small mixed-algorithm jobs under quantum-8 preemption.
    BatchMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Thm11Rmat,
        Workload::Thm11RmatSharded,
        Workload::LowdegRegular,
        Workload::BatchMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm11Rmat => "thm11_rmat",
            Workload::Thm11RmatSharded => "thm11_rmat_sharded",
            Workload::LowdegRegular => "lowdeg_regular",
            Workload::BatchMixed => "batch_mixed",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker shards the measured solves use.
    pub fn shards(self) -> usize {
        if self == Workload::Thm11RmatSharded {
            SHARDS
        } else {
            0
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// Every output verified and every cross-check matched.
    pub correct: bool,
    /// Instances (solves or batch jobs) attempted.
    pub attempted: u64,
    /// Instances that failed verification, panicked or left residual nodes.
    pub failed: u64,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result.
    pub lines: Vec<String>,
    /// The span log of a traced run.
    pub log: Option<SharedLog>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The times in seconds of `setup(1)`, `setup(2)`, ... until they add up
/// to [`SETUP_BUDGET_S`]. Repeat `r` sets up inputs drawn from `r` and the
/// instance's own seeds.
fn setup_samples(mut setup: impl FnMut(u64)) -> Vec<f64> {
    let mut samples = Vec::new();
    for r in 1.. {
        let t0 = now();
        setup(r);
        samples.push(secs(t0));
        if samples.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
    }
    samples
}

/// What the per-layer metrics need from a finished run beyond its ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum Detail {
    /// Nothing algorithm-specific.
    Plain,
    /// Theorem 1.1: node count and alive nodes at the start of each phase.
    Thm11 { n: usize, alive: Vec<usize> },
    /// Low-degree fast path: largest gathered ball and gather rounds.
    LowDeg {
        max_ball_edges: usize,
        gather_rounds: u64,
    },
}

/// A finished run reduced to what the benchmark checks and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// The MIS, sorted by node id.
    pub mis: Vec<NodeId>,
    /// The run's full ledger.
    pub ledger: RoundLedger,
    /// Algorithm-specific extras.
    pub detail: Detail,
}

impl Solved {
    fn plain(o: MisOutcome) -> Solved {
        Solved {
            mis: o.mis,
            ledger: o.ledger,
            detail: Detail::Plain,
        }
    }

    fn thm11(r: CliqueMisResult, n: usize) -> Solved {
        Solved {
            mis: r.mis,
            ledger: r.ledger,
            detail: Detail::Thm11 {
                n,
                alive: r.phases.iter().map(|p| p.alive_at_start).collect(),
            },
        }
    }

    fn lowdeg(r: LowDegResult) -> Solved {
        Solved {
            mis: r.mis,
            ledger: r.ledger,
            detail: Detail::LowDeg {
                max_ball_edges: r.max_ball_edges,
                gather_rounds: r.gather_rounds,
            },
        }
    }

    fn beeping(run: BeepingRun) -> Result<Solved, String> {
        if !run.residual.is_empty() {
            return Err(format!(
                "beeping left {} residual nodes",
                run.residual.len()
            ));
        }
        Ok(Solved::plain(MisOutcome {
            mis: run.mis,
            ledger: run.ledger,
            iterations: run.iterations,
        }))
    }

    /// FNV-1a over the MIS, the ledger totals and every per-phase record:
    /// equal digests mean byte-identical outputs.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for v in &self.mis {
            eat(&v.raw().to_le_bytes());
        }
        let l = &self.ledger;
        for x in [l.rounds, l.messages, l.bits, l.violations] {
            eat(&x.to_le_bytes());
        }
        for p in &l.phases {
            eat(p.label.as_bytes());
            for x in [p.rounds, p.messages, p.bits] {
                eat(&x.to_le_bytes());
            }
        }
        h
    }
}

/// One solve of a single-graph workload.
#[derive(Debug)]
struct Solve {
    /// `Execution::new`.
    new_s: f64,
    /// First step to a verified MIS.
    solve_s: f64,
    /// The MIS passed `checks::is_maximal_independent_set`.
    ok: bool,
    solved: Solved,
}

/// Constructs, drives and verifies one execution: through `drive`, or
/// stepped with spans when `log` is given.
fn run_solve<E: Execution>(
    g: &Graph,
    make: impl FnOnce() -> E,
    conv: impl FnOnce(E::Outcome) -> Solved,
    log: Option<&SharedLog>,
    id: u64,
) -> Result<Solve, String> {
    let t0 = now();
    let exec = timed(log, "driver.new", id, make);
    let new_s = secs(t0);
    let outcome = match log {
        None => catch_unwind(AssertUnwindSafe(|| drive(exec)))
            .map_err(|_| "solve panicked".to_string())?,
        Some(log) => drive_spanned(exec, log, id)?,
    };
    let solved = conv(outcome);
    let ok = timed(log, "graph.verify", id, || {
        checks::is_maximal_independent_set(g, &solved.mis)
    });
    Ok(Solve {
        new_s,
        solve_s: secs(t0) - new_s,
        ok,
        solved,
    })
}

/// Solves `g` with the workload's algorithm, under `shards` worker shards.
fn solve(
    w: Workload,
    g: &Graph,
    seed: u64,
    shards: usize,
    log: Option<&SharedLog>,
    id: u64,
) -> Result<Solve, String> {
    set_shards_override(Some(shards));
    if w == Workload::LowdegRegular {
        run_solve(
            g,
            || LowDegExecution::new(g, &LowDegParams::default(), seed),
            Solved::lowdeg,
            log,
            id,
        )
    } else {
        let n = g.node_count();
        run_solve(
            g,
            || CliqueMisExecution::new(g, &CliqueMisParams::default(), seed),
            |r| Solved::thm11(r, n),
            log,
            id,
        )
    }
}

fn single_graph(w: Workload, seed: u64) -> Graph {
    match w {
        Workload::LowdegRegular => generators::random_regular(512, 4, seed),
        _ => generators::kronecker(16, 8, seed),
    }
}

/// One instance of a single-graph workload: the measured solve, the
/// direct-delivery reference on the same graph (sharded workload only),
/// and in a traced run an untraced solve of the same inputs.
#[derive(Debug)]
struct Instance {
    id: u64,
    /// Graph generation + `Execution::new`, once per set-up repeat.
    setup_s: Vec<f64>,
    primary: Solve,
    reference: Option<Solve>,
    untraced: Option<Solve>,
}

impl Instance {
    /// Every output verified and all solves of these inputs agree.
    fn consistent(&self) -> bool {
        let d = self.primary.solved.digest();
        self.primary.ok
            && [&self.reference, &self.untraced]
                .into_iter()
                .flatten()
                .all(|s| s.ok && s.solved.digest() == d)
    }
}

fn run_instance(
    w: Workload,
    seed: u64,
    i: u64,
    log: Option<&SharedLog>,
) -> Result<Instance, String> {
    let (gseed, aseed) = (mix3(seed, 0, i), mix3(seed, 1, i));
    let mut setup_s = Vec::new();
    if log.is_none() {
        setup_s = setup_samples(|r| {
            let (gseed, aseed) = (mix3(gseed, r, 0), mix3(aseed, r, 0));
            let g = single_graph(w, gseed);
            match w {
                Workload::LowdegRegular => {
                    drop(LowDegExecution::new(&g, &LowDegParams::default(), aseed));
                }
                _ => drop(CliqueMisExecution::new(
                    &g,
                    &CliqueMisParams::default(),
                    aseed,
                )),
            }
        });
    }
    let (g, gen_s, reference, primary) = timed(log, "instance", i, || {
        let t0 = now();
        let g = timed(log, "graph.gen", i, || single_graph(w, gseed));
        let gen_s = secs(t0);
        let reference = (w.shards() > 0)
            .then(|| solve(w, &g, aseed, 0, log, i | REFERENCE))
            .transpose()?;
        let primary = solve(w, &g, aseed, w.shards(), log, i)?;
        Ok::<_, String>((g, gen_s, reference, primary))
    })?;
    let untraced = log
        .map(|_| solve(w, &g, aseed, w.shards(), None, i))
        .transpose()?;
    setup_s.push(gen_s + primary.new_s);
    Ok(Instance {
        id: i,
        setup_s,
        primary,
        reference,
        untraced,
    })
}

/// The outcome every batch job maps to: the reduced run plus when its MIS
/// was verified, or why the job failed.
type JobOut = Result<(Solved, bool, Instant), String>;

/// A batch job's factory: builds a fresh execution, and is called again
/// after every park to host the restored snapshot.
type Factory<'a> = Box<dyn FnMut() -> BoxedExecution<'a, JobOut> + 'a>;

/// The seven algorithms a batch cycles through.
const ALGORITHMS: [&str; 7] = [
    "luby",
    "ghaffari16",
    "g16-clique",
    "beeping",
    "sparsified",
    "thm11",
    "auto",
];

/// Boxes `exec` for the scheduler, mapping its outcome through `conv` and
/// the MIS check.
fn boxed<'a, E: Execution + 'a>(
    exec: E,
    g: &'a Graph,
    conv: impl Fn(E::Outcome) -> Result<Solved, String> + 'a,
    log: Option<SharedLog>,
    id: u64,
) -> BoxedExecution<'a, JobOut> {
    let finish = move |o: E::Outcome| -> JobOut {
        let solved = conv(o)?;
        let ok = timed(log.as_ref(), "graph.verify", id, || {
            checks::is_maximal_independent_set(g, &solved.mis)
        });
        Ok((solved, ok, now()))
    };
    Box::new(MapOutcome::new(exec, finish))
}

/// Builds a fresh execution of `algorithm` on `g`.
fn build_job<'a>(
    algorithm: &str,
    g: &'a Graph,
    seed: u64,
    log: Option<SharedLog>,
    id: u64,
) -> BoxedExecution<'a, JobOut> {
    let plain = |o: MisOutcome| Ok(Solved::plain(o));
    match algorithm {
        "luby" => boxed(
            LubyExecution::new(g, &LubyParams::for_graph(g), seed),
            g,
            plain,
            log,
            id,
        ),
        "ghaffari16" => boxed(
            Ghaffari16Execution::new(g, &Ghaffari16Params::for_graph(g), seed),
            g,
            plain,
            log,
            id,
        ),
        "g16-clique" => boxed(
            Ghaffari16CliqueExecution::new(g, &Ghaffari16Params::for_graph(g), seed),
            g,
            plain,
            log,
            id,
        ),
        "beeping" => boxed(
            BeepingExecution::new(g, &BeepingParams::for_graph(g), seed),
            g,
            Solved::beeping,
            log,
            id,
        ),
        "sparsified" => boxed(
            SparsifiedExecution::new(g, &SparsifiedParams::for_graph(g), seed),
            g,
            move |run| Ok(Solved::plain(finish_with_cleanup(g, run))),
            log,
            id,
        ),
        "thm11" => {
            let n = g.node_count();
            boxed(
                CliqueMisExecution::new(g, &CliqueMisParams::default(), seed),
                g,
                move |r| Ok(Solved::thm11(r, n)),
                log,
                id,
            )
        }
        "auto" => boxed(
            AutoExecution::new(g, seed),
            g,
            |(o, strategy): (MisOutcome, Strategy)| match strategy {
                Strategy::Sparsified => Ok(Solved::plain(o)),
                Strategy::LowDegree => Err("auto left the sparsified branch".to_string()),
            },
            log,
            id,
        ),
        other => unreachable!("batch jobs use the algorithms in ALGORITHMS, not '{other}'"),
    }
}

/// A job factory that records `driver.new` for the first construction and
/// `scheduler.make` for every revival after a park.
fn job_factory<'a>(
    algorithm: &'static str,
    g: &'a Graph,
    seed: u64,
    log: Option<SharedLog>,
    id: u64,
) -> Factory<'a> {
    let mut made = false;
    Box::new(move || {
        let name = if made { "scheduler.make" } else { "driver.new" };
        made = true;
        timed(log.as_ref(), name, id, || {
            build_job(algorithm, g, seed, log.clone(), id)
        })
    })
}

/// One batch job as it finished.
#[derive(Debug)]
struct JobRun {
    out: JobOut,
    /// Steps short of done, counted across parks.
    steps: u64,
    /// Times the job was parked and revived.
    parks: u64,
    /// Snapshot bytes over all its parks (counted by the traced replay).
    snapshot_bytes: u64,
}

impl JobRun {
    fn failed(why: &str) -> JobRun {
        JobRun {
            out: Err(why.to_string()),
            steps: 0,
            parks: 0,
            snapshot_bytes: 0,
        }
    }
}

/// Runs every job under `BatchScheduler::with_quantum(QUANTUM)`. The
/// scheduler steps the jobs itself, so a panic in one fails the batch.
fn scheduled(jobs: Vec<(&'static str, Factory<'_>)>) -> Vec<JobRun> {
    let count = jobs.len();
    let specs: Vec<JobSpec<'_, JobOut>> = jobs
        .into_iter()
        .map(|(algorithm, make)| JobSpec::new(algorithm, make))
        .collect();
    match catch_unwind(AssertUnwindSafe(|| {
        BatchScheduler::with_quantum(QUANTUM).run(specs)
    })) {
        Ok(results) => results
            .into_iter()
            .map(|r| JobRun {
                out: r.outcome,
                steps: r.steps,
                parks: r.preemptions,
                snapshot_bytes: 0,
            })
            .collect(),
        Err(_) => (0..count)
            .map(|_| JobRun::failed("batch panicked"))
            .collect(),
    }
}

/// Steps one job the way `BatchScheduler::with_quantum(quantum)` does, with
/// spans: after every `quantum` steps short of done the job is parked
/// (`driver::snapshot`), dropped, rebuilt by its factory and resumed
/// (`driver::resume`). The scheduler parks and revives at the same step
/// counts; it only interleaves the jobs, which no outcome depends on.
fn replay_job(mut make: Factory<'_>, quantum: u64, log: &SharedLog, id: u64) -> JobRun {
    let mut run = JobRun::failed("");
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        let mut exec = make();
        loop {
            if let Status::Done(out) = step_spanned(&mut exec, log, id)? {
                return Ok(out);
            }
            run.steps += 1;
            if run.steps.is_multiple_of(quantum) {
                let bytes = timed(Some(log), "snapshot.save", id, || snapshot(&exec));
                drop(exec);
                exec = make();
                timed(Some(log), "snapshot.restore", id, || {
                    resume(&mut exec, &bytes)
                })
                .map_err(|e| format!("resume: {e}"))?;
                run.parks += 1;
                run.snapshot_bytes += bytes.len() as u64;
            }
        }
    }));
    run.out = match replayed {
        Ok(Ok(out)) => out,
        Ok(Err(why)) => Err(why),
        Err(_) => Err("job panicked".to_string()),
    };
    run
}

fn pool_graph(k: usize, seed: u64) -> Graph {
    let avg = 8.0;
    match k % 3 {
        0 => generators::erdos_renyi_gnp(POOL_N, avg / (POOL_N - 1) as f64, seed),
        1 => generators::kronecker(11, 8, seed),
        _ => {
            let r = (avg / (std::f64::consts::PI * POOL_N as f64)).sqrt();
            generators::random_geometric(POOL_N, r, seed)
        }
    }
}

/// One finished batch.
#[derive(Debug)]
struct Batch {
    /// Graph pool plus job factories, once per set-up repeat.
    setup_s: Vec<f64>,
    /// When the first job started.
    start: Instant,
    /// First job start to the last job's verified MIS.
    wall_s: f64,
    /// Every job, in submission order.
    jobs: Vec<JobRun>,
}

fn batch_id(b: u64) -> u64 {
    b << 20
}

/// The batch's graph pool: two each of gnp, kronecker and geometric.
fn batch_pool(seed: u64, b: u64, log: Option<&SharedLog>) -> Vec<Graph> {
    (0..POOL_GRAPHS)
        .map(|k| {
            let gseed = mix3(seed, 2, b * POOL_GRAPHS as u64 + k as u64);
            timed(log, "graph.gen", batch_id(b), || pool_graph(k, gseed))
        })
        .collect()
}

/// The batch's jobs over `pool`, cycling through the seven algorithms.
fn batch_jobs<'a>(
    seed: u64,
    b: u64,
    pool: &'a [Graph],
    log: Option<&SharedLog>,
) -> Vec<(&'static str, Factory<'a>)> {
    (0..BATCH_JOBS)
        .map(|j| {
            let aseed = mix3(seed, 3, b * BATCH_JOBS as u64 + j as u64);
            let id = batch_id(b) + 1 + j as u64;
            let algorithm = ALGORITHMS[j % 7];
            let make = job_factory(algorithm, &pool[j % POOL_GRAPHS], aseed, log.cloned(), id);
            (algorithm, make)
        })
        .collect()
}

/// Sets up and runs batch `b`: through the scheduler, or with `log` as a
/// traced replay of the scheduler's park schedule.
fn run_batch(seed: u64, b: u64, log: Option<&SharedLog>) -> Batch {
    let mut setup_s = Vec::new();
    if log.is_none() {
        setup_s = setup_samples(|r| {
            let seed = mix3(seed, b, r);
            let pool = batch_pool(seed, b, None);
            drop(batch_jobs(seed, b, &pool, None));
        });
    }
    let (first_setup_s, start, jobs) = timed(log, "batch", batch_id(b), || {
        let t0 = now();
        let pool = batch_pool(seed, b, log);
        let jobs = batch_jobs(seed, b, &pool, log);
        let first_setup_s = secs(t0);
        let start = now();
        let jobs = match log {
            None => scheduled(jobs),
            Some(log) => jobs
                .into_iter()
                .enumerate()
                .map(|(j, (_, make))| replay_job(make, QUANTUM, log, batch_id(b) + 1 + j as u64))
                .collect(),
        };
        (first_setup_s, start, jobs)
    });
    let wall_s = secs(start);
    setup_s.push(first_setup_s);
    Batch {
        setup_s,
        start,
        wall_s,
        jobs,
    }
}

fn job_ok(out: &JobOut) -> bool {
    matches!(out, Ok((_, true, _)))
}

fn job_digest(out: &JobOut) -> Option<u64> {
    out.as_ref().ok().map(|(s, _, _)| s.digest())
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; 0 where that file is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds per frame byte of `encode_frame` + `decode_frame` on a
/// `payload`-byte ROUND frame, timed over at least 20 ms of calls.
pub fn codec_ns_per_byte(payload: usize) -> f64 {
    let data: Vec<u8> = (0..payload)
        .map(|i| (i.wrapping_mul(131) >> 3) as u8)
        .collect();
    let mut frame = Vec::new();
    let mut bytes = 0u64;
    let t0 = now();
    while bytes == 0 || t0.elapsed().as_millis() < 20 {
        for _ in 0..16 {
            encode_frame(FrameKind::Round, std::hint::black_box(&data), &mut frame);
            let (_, p, _) = decode_frame(std::hint::black_box(&frame)).expect("own frame decodes");
            std::hint::black_box(p);
            bytes += frame.len() as u64;
        }
    }
    t0.elapsed().as_nanos() as f64 / bytes as f64
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs workload `w` for about `seconds` and reports end-to-end metrics,
/// or per-layer metrics when `trace` is set.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let faults_before = fault_injections();
    let log = trace.then(SpanLog::shared);
    let mut report = match w {
        Workload::BatchMixed => run_batches(seed, seconds, log.as_ref()),
        _ => run_singles(w, seed, seconds, log.as_ref()),
    };
    let faults = fault_injections() - faults_before;
    if faults != 0 {
        report.correct = false;
        report
            .lines
            .push(format!("error: {faults} shard faults injected"));
    }
    // Present only in the per-layer list of a traced run.
    if let Some(m) = report
        .metrics
        .iter_mut()
        .find(|m| m.name == "shard.fault_injections")
    {
        m.value = faults as f64;
    }
    report.log = log;
    report
}

/// The gated end-to-end metrics, from per-instance solve and set-up times,
/// the solve phase's wall time, and the ledgers of the verified instances.
fn e2e_metrics(
    solve_s: &[f64],
    setup_s: &[f64],
    solve_wall_s: f64,
    ledgers: &[&RoundLedger],
) -> Vec<Metric> {
    let per_instance =
        |f: fn(&RoundLedger) -> u64| mean(&ledgers.iter().map(|l| f(l) as f64).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("solve_s_p50", median(solve_s), "s"),
        metric("jobs_per_s", solve_s.len() as f64 / solve_wall_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("sim_rounds", per_instance(|l| l.rounds), "rounds"),
        metric("sim_bits", per_instance(|l| l.bits), "bits"),
    ]
}

/// The human-readable table of all eight end-to-end metrics.
fn e2e_lines(
    w: Workload,
    samples: &[f64],
    setup: &[f64],
    m: &[Metric],
    attempted: u64,
    failed: u64,
) -> Vec<String> {
    let mut lines = vec![format!(
        "workload {}: {} instances attempted, {} solve samples, {} setup samples",
        w.name(),
        attempted,
        samples.len(),
        setup.len()
    )];
    for x in m {
        lines.push(format!("  {:<14} {:>16.6} {}", x.name, x.value, x.unit));
    }
    lines.push(match p90(samples) {
        Some(v) => format!(
            "  {:<14} {:>16.6} s (n={})",
            "solve_s_p90",
            v,
            samples.len()
        ),
        None => format!(
            "  {:<14} {:>16} (n={} has <10 samples beyond p90)",
            "solve_s_p90",
            "n/a",
            samples.len()
        ),
    });
    let frac = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    lines.push(format!(
        "  {:<14} {:>16.6} ratio ({failed}/{attempted})",
        "failed_frac", frac
    ));
    lines
}

fn run_singles(w: Workload, seed: u64, seconds: f64, log: Option<&SharedLog>) -> Report {
    let t0 = now();
    let mut instances: Vec<Instance> = Vec::new();
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    let mut lines = Vec::new();
    let mut i = 0u64;
    while i < MIN_INSTANCES || secs(t0) < seconds {
        attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| run_instance(w, seed, i, log))) {
            Ok(Ok(inst)) => {
                lines.push(format!(
                    "digest {} instance {} {:016x}",
                    w.name(),
                    i,
                    inst.primary.solved.digest()
                ));
                if !inst.consistent() {
                    failed += 1;
                    if inst.primary.ok {
                        mismatched += 1;
                        lines.push(format!("error: instance {i} digests differ across solves"));
                    }
                }
                instances.push(inst);
            }
            Ok(Err(_)) | Err(_) => failed += 1,
        }
        i += 1;
    }
    let ok: Vec<&Instance> = instances.iter().filter(|s| s.consistent()).collect();
    let solve_s: Vec<f64> = ok.iter().map(|s| s.primary.solve_s).collect();
    let setup_s: Vec<f64> = ok.iter().flat_map(|s| s.setup_s.iter().copied()).collect();
    let ledgers: Vec<&RoundLedger> = ok.iter().map(|s| &s.primary.solved.ledger).collect();
    let metrics = match log {
        None => {
            let e2e = e2e_metrics(&solve_s, &setup_s, solve_s.iter().sum(), &ledgers);
            lines.extend(e2e_lines(w, &solve_s, &setup_s, &e2e, attempted, failed));
            e2e
        }
        Some(l) => per_layer_metrics(&single_layers(w, &l.borrow(), &ok)),
    };
    Report {
        correct: failed == 0 && mismatched == 0 && !ok.is_empty(),
        attempted,
        failed,
        metrics,
        lines,
        log: None,
    }
}

fn run_batches(seed: u64, seconds: f64, log: Option<&SharedLog>) -> Report {
    let t0 = now();
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    let mut batches: Vec<(Batch, Option<Batch>)> = Vec::new();
    let mut lines = Vec::new();
    let mut b = 0u64;
    while b < 1 || secs(t0) < seconds {
        let batch = run_batch(seed, b, log);
        // A traced batch is a replay; the scheduler must agree with it on
        // every output, step count and park.
        let untraced = log.map(|_| run_batch(seed, b, None));
        for (j, run) in batch.jobs.iter().enumerate() {
            attempted += 1;
            let out = &run.out;
            let digest = job_digest(out);
            if let Some(d) = digest {
                lines.push(format!("digest batch_mixed batch {b} job {j} {d:016x}"));
            }
            let again = untraced.as_ref().map(|u| &u.jobs[j]);
            let agrees = again.is_none_or(|u| {
                job_ok(&u.out)
                    && job_digest(&u.out) == digest
                    && (u.steps, u.parks) == (run.steps, run.parks)
            });
            if !job_ok(out) || !agrees {
                failed += 1;
                if job_ok(out) {
                    mismatched += 1;
                }
                lines.push(format!(
                    "error: batch {b} job {j}: {:?}",
                    out.as_ref().map(|(_, ok, _)| ok)
                ));
            }
        }
        batches.push((batch, untraced));
        b += 1;
    }
    let turnaround = turnarounds(batches.iter().map(|(x, _)| x));
    let setup_s: Vec<f64> = batches
        .iter()
        .flat_map(|(x, _)| x.setup_s.iter().copied())
        .collect();
    let wall: f64 = batches.iter().map(|(x, _)| x.wall_s).sum();
    let ledgers: Vec<&RoundLedger> = batches
        .iter()
        .flat_map(|(x, _)| {
            x.jobs
                .iter()
                .filter_map(|r| r.out.as_ref().ok().map(|(s, _, _)| &s.ledger))
        })
        .collect();
    let metrics = match log {
        None => {
            let e2e = e2e_metrics(&turnaround, &setup_s, wall, &ledgers);
            let w = Workload::BatchMixed;
            lines.extend(e2e_lines(w, &turnaround, &setup_s, &e2e, attempted, failed));
            e2e
        }
        Some(l) => per_layer_metrics(&batch_layers(&l.borrow(), &batches)),
    };
    Report {
        correct: failed == 0 && mismatched == 0,
        attempted,
        failed,
        metrics,
        lines,
        log: None,
    }
}

/// Spans grouped by instance id, each group in opening order.
fn by_instance(log: &SpanLog) -> BTreeMap<u64, Vec<usize>> {
    let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in log.spans().iter().enumerate() {
        map.entry(s.instance).or_default().push(i);
    }
    map
}

/// Seconds in the spans named `name` among `idx`.
fn span_s(log: &SpanLog, idx: &[usize], name: &str) -> f64 {
    idx.iter()
        .map(|&i| &log.spans()[i])
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// Durations in seconds of the `driver.step` spans among `idx`, in order.
fn step_s(log: &SpanLog, idx: &[usize]) -> Vec<f64> {
    idx.iter()
        .map(|&i| &log.spans()[i])
        .filter(|s| s.name == "driver.step")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// `trace.coverage`: span self time outside the root spans over the root
/// spans' wall time.
fn coverage(log: &SpanLog) -> f64 {
    let spans = log.spans();
    let own = self_times_ns(spans);
    let (mut covered, mut wall) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(own) {
        if s.parent.is_none() {
            wall += s.duration_ns();
        } else {
            covered += t;
        }
    }
    covered as f64 / wall.max(1) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric with its unit, in reporting order. A layer idle
/// on a workload reports 0 there.
const PER_LAYER: [(&str, &str); 27] = [
    ("graph.gen_s", "s"),
    ("graph.verify_s", "s"),
    ("driver.new_s", "s"),
    ("driver.steps", "count"),
    ("thm11.phase_s", "s"),
    ("thm11.tail_s", "s"),
    ("thm11.active_frac", "ratio"),
    ("thm11.cleanup_s", "s"),
    ("thm11.step_ns_per_msg", "ns/msg"),
    ("runtime.messages", "count"),
    ("lowdeg.gather_s", "s"),
    ("lowdeg.replay_s", "s"),
    ("lowdeg.cleanup_s", "s"),
    ("lowdeg.max_ball_edges", "edges"),
    ("lowdeg.gather_rounds", "rounds"),
    ("scheduler.parks", "count"),
    ("scheduler.make_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("scheduler.overhead_frac", "ratio"),
    ("shard.framed_extra_s", "s"),
    ("shard.framed_over_direct", "ratio"),
    ("shard.codec_ns_per_byte", "ns/B"),
    ("shard.fault_injections", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// The full per-layer metric list, taking measured values from `measured`.
fn per_layer_metrics(measured: &BTreeMap<&str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, measured.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Per-layer values of a traced single-graph run.
fn single_layers(w: Workload, log: &SpanLog, ok: &[&Instance]) -> BTreeMap<&'static str, f64> {
    let groups = by_instance(log);
    let empty = Vec::new();
    let spans_of = |id: u64| groups.get(&id).unwrap_or(&empty);
    let per = |f: &dyn Fn(&Instance) -> f64| median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    let steps = |s: &Instance| step_s(log, spans_of(s.id));
    let step_sum = |id: u64| step_s(log, spans_of(id)).iter().sum::<f64>();
    let traced: Vec<f64> = ok.iter().map(|s| s.primary.solve_s).collect();
    let untraced: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.untraced.as_ref().map(|u| u.solve_s))
        .collect();
    let mut m = BTreeMap::from([
        (
            "graph.gen_s",
            per(&|s| span_s(log, spans_of(s.id), "graph.gen")),
        ),
        (
            "graph.verify_s",
            per(&|s| span_s(log, spans_of(s.id), "graph.verify")),
        ),
        (
            "driver.new_s",
            per(&|s| span_s(log, spans_of(s.id), "driver.new")),
        ),
        (
            "driver.steps",
            mean(&ok.iter().map(|s| steps(s).len() as f64).collect::<Vec<_>>()),
        ),
        (
            "trace.overhead_frac",
            ratio(median(&traced), median(&untraced)) - 1.0,
        ),
        ("trace.coverage", coverage(log)),
    ]);
    let ledgers: Vec<&RoundLedger> = ok.iter().map(|s| &s.primary.solved.ledger).collect();
    let messages: u64 = ledgers.iter().map(|l| l.messages).sum();

    if w == Workload::LowdegRegular {
        // Steps are gather, replay, clean-up, done.
        let nth = |k: usize| per(&|s| steps(s).get(k).copied().unwrap_or(0.0));
        let detail = |f: fn(usize, u64) -> f64| {
            let v: Vec<f64> = ok
                .iter()
                .filter_map(|s| match s.primary.solved.detail {
                    Detail::LowDeg {
                        max_ball_edges,
                        gather_rounds,
                    } => Some(f(max_ball_edges, gather_rounds)),
                    _ => None,
                })
                .collect();
            mean(&v)
        };
        m.extend([
            ("lowdeg.gather_s", nth(0)),
            ("lowdeg.replay_s", nth(1)),
            ("lowdeg.cleanup_s", nth(2)),
            ("lowdeg.max_ball_edges", detail(|b, _| b as f64)),
            ("lowdeg.gather_rounds", detail(|_, r| r as f64)),
        ]);
        return m;
    }

    // Theorem 1.1: step k < phases is phase k; the next one is clean-up.
    let (mut phase, mut tail, mut cleanup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut alive_sum, mut alive_slots, mut step_total) = (0f64, 0f64, 0f64);
    for s in ok {
        let st = steps(s);
        step_total += st.iter().sum::<f64>();
        if let Detail::Thm11 { n, alive } = &s.primary.solved.detail {
            let k = alive.len().min(st.len());
            phase.push(st[..k].iter().sum::<f64>());
            let tail_phases = (0..k).filter(|&p| alive[p] * 100 <= *n);
            tail.push(tail_phases.map(|p| st[p]).sum::<f64>());
            cleanup.push(st.get(k).copied().unwrap_or(0.0));
            alive_sum += alive.iter().sum::<usize>() as f64;
            alive_slots += (alive.len() * n) as f64;
        }
    }
    m.extend([
        ("thm11.phase_s", median(&phase)),
        ("thm11.tail_s", median(&tail)),
        ("thm11.active_frac", ratio(alive_sum, alive_slots)),
        ("thm11.cleanup_s", median(&cleanup)),
        (
            "thm11.step_ns_per_msg",
            ratio(step_total * 1e9, messages as f64),
        ),
        ("runtime.messages", ratio(messages as f64, ok.len() as f64)),
    ]);

    if w.shards() > 0 {
        // Framed delivery against the direct reference on the same inputs.
        let framed: f64 = ok.iter().map(|s| step_sum(s.id)).sum();
        let direct: f64 = ok.iter().map(|s| step_sum(s.id | REFERENCE)).sum();
        // Mean ROUND frame: per message, a 12-byte entry header and its
        // payload (the ledger's mean bits, in bytes); 13 header bytes are
        // added by the codec.
        let rounds: u64 = ledgers.iter().map(|l| l.rounds).sum();
        let bits: u64 = ledgers.iter().map(|l| l.bits).sum();
        let per_frame = ratio(messages as f64, (rounds * SHARDS as u64) as f64);
        let entry = 12.0 + ratio(bits as f64, messages as f64 * 8.0).ceil();
        m.extend([
            (
                "shard.framed_extra_s",
                per(&|s| step_sum(s.id) - step_sum(s.id | REFERENCE)),
            ),
            ("shard.framed_over_direct", ratio(framed, direct)),
            (
                "shard.codec_ns_per_byte",
                codec_ns_per_byte((per_frame * entry) as usize),
            ),
        ]);
    }
    m
}

/// Turnaround of every verified job in `batches`: batch start to the
/// job's verified MIS.
fn turnarounds<'a>(batches: impl Iterator<Item = &'a Batch>) -> Vec<f64> {
    batches
        .flat_map(|x| {
            x.jobs.iter().filter_map(|r| match &r.out {
                Ok((_, true, done)) => Some(done.duration_since(x.start).as_secs_f64()),
                _ => None,
            })
        })
        .collect()
}

/// Per-layer values of a traced `batch_mixed` run.
fn batch_layers(log: &SpanLog, batches: &[(Batch, Option<Batch>)]) -> BTreeMap<&'static str, f64> {
    let groups = by_instance(log);
    let spans = log.spans();
    // Per batch: spans of its root id and of its jobs (ids root+1..).
    let per_batch = |name: &str| {
        let v: Vec<f64> = (0..batches.len() as u64)
            .map(|b| {
                let idx: Vec<usize> = groups
                    .range(batch_id(b)..batch_id(b + 1))
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect();
                span_s(log, &idx, name)
            })
            .collect();
        median(&v)
    };
    let jobs: Vec<&Vec<usize>> = groups
        .iter()
        .filter(|(id, _)| **id != batch_id(**id >> 20))
        .map(|(_, v)| v)
        .collect();
    let per_job = |name: &str| {
        median(
            &jobs
                .iter()
                .map(|v| span_s(log, v, name))
                .collect::<Vec<_>>(),
        )
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let all: Vec<usize> = (0..spans.len()).collect();
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    let overhead: f64 = ["snapshot.save", "snapshot.restore", "scheduler.make"]
        .iter()
        .map(|name| span_s(log, &all, name))
        .sum();
    // The replay runs the jobs one after another, so per-job turnarounds
    // are not comparable with the scheduler's; whole batches are.
    let traced = median(&batches.iter().map(|p| p.0.wall_s).collect::<Vec<_>>());
    let untraced = median(
        &batches
            .iter()
            .filter_map(|p| p.1.as_ref().map(|u| u.wall_s))
            .collect::<Vec<_>>(),
    );
    let replayed = || batches.iter().flat_map(|(x, _)| &x.jobs);
    let parks: u64 = replayed().map(|r| r.parks).sum();
    let bytes: u64 = replayed().map(|r| r.snapshot_bytes).sum();
    BTreeMap::from([
        ("graph.gen_s", per_batch("graph.gen")),
        ("graph.verify_s", per_job("graph.verify")),
        ("driver.new_s", per_job("driver.new")),
        (
            "driver.steps",
            ratio(count("driver.step"), jobs.len() as f64),
        ),
        ("scheduler.parks", ratio(parks as f64, batches.len() as f64)),
        ("scheduler.make_s", per_batch("scheduler.make")),
        ("snapshot.save_s", per_batch("snapshot.save")),
        ("snapshot.restore_s", per_batch("snapshot.restore")),
        ("snapshot.bytes", ratio(bytes as f64, parks as f64)),
        ("scheduler.overhead_frac", ratio(overhead, wall)),
        ("trace.overhead_frac", ratio(traced, untraced) - 1.0),
        ("trace.coverage", coverage(log)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_sim::runtime::SharedObserver;
    use cc_mis_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

    fn solved_of(out: &JobOut) -> &Solved {
        &out.as_ref().expect("job succeeds").0
    }

    #[test]
    fn spanned_stepping_is_transparent_under_drive() {
        let g = generators::erdos_renyi_gnp(300, 0.05, 7);
        let n = g.node_count();
        let params = CliqueMisParams::default();
        let plain = Solved::thm11(drive(CliqueMisExecution::new(&g, &params, 11)), n);
        let log = SpanLog::shared();
        let exec = CliqueMisExecution::new(&g, &params, 11);
        let spanned = Solved::thm11(drive_spanned(exec, &log, 0).expect("no panic"), n);
        assert_eq!(plain, spanned, "same MIS, ledger and phase statistics");
        let Detail::Thm11 { alive, .. } = &plain.detail else {
            panic!("thm11 detail");
        };
        // One span per phase, one for clean-up, one for the final step.
        assert_eq!(log.borrow().spans().len(), alive.len() + 2);

        let r = generators::random_regular(64, 4, 3);
        let lp = LowDegParams::default();
        let plain = Solved::lowdeg(drive(LowDegExecution::new(&r, &lp, 5)));
        let exec = LowDegExecution::new(&r, &lp, 5);
        let spanned = drive_spanned(exec, &log, 1).expect("no panic");
        assert_eq!(plain, Solved::lowdeg(spanned));
    }

    #[test]
    fn park_replay_at_quantum_one_matches_the_scheduler() {
        let small = [
            generators::erdos_renyi_gnp(120, 0.08, 1),
            generators::kronecker(7, 4, 2),
        ];
        let jobs = |log: Option<&SharedLog>| -> Vec<(&'static str, Factory<'_>)> {
            (0..ALGORITHMS.len())
                .map(|j| {
                    let (algorithm, g) = (ALGORITHMS[j], &small[j % 2]);
                    let make =
                        job_factory(algorithm, g, 100 + j as u64, log.cloned(), j as u64 + 1);
                    (algorithm, make)
                })
                .collect()
        };
        let specs = |log| {
            jobs(log)
                .into_iter()
                .map(|(algorithm, make)| JobSpec::new(algorithm, make))
                .collect::<Vec<_>>()
        };
        let straight = BatchScheduler::unbounded().run(specs(None));
        let sliced = BatchScheduler::with_quantum(1).run(specs(None));
        let log = SpanLog::shared();
        let replayed: Vec<JobRun> = jobs(Some(&log))
            .into_iter()
            .enumerate()
            .map(|(j, (_, make))| replay_job(make, 1, &log, j as u64 + 1))
            .collect();
        assert_eq!(straight.len(), replayed.len());
        for ((a, b), r) in straight.iter().zip(&sliced).zip(&replayed) {
            assert!(job_ok(&a.outcome) && job_ok(&r.out), "{}", a.label);
            assert_eq!(solved_of(&a.outcome), solved_of(&b.outcome), "{}", a.label);
            assert_eq!(solved_of(&a.outcome), solved_of(&r.out), "{}", a.label);
            assert_eq!((b.steps, b.preemptions), (r.steps, r.parks), "{}", a.label);
        }
        let parks: u64 = replayed.iter().map(|r| r.parks).sum();
        assert!(parks > 0, "quantum 1 parks every multi-step job");
        let log = log.borrow();
        let count = |name: &str| log.spans().iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(count("snapshot.save"), parks);
        assert_eq!(count("snapshot.restore"), parks);
        assert_eq!(
            count("scheduler.make"),
            parks,
            "every revival rebuilds through the factory"
        );
        assert_eq!(count("driver.new"), ALGORITHMS.len() as u64);
        assert!(replayed.iter().map(|r| r.snapshot_bytes).sum::<u64>() > 0);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        struct Boom;
        impl Execution for Boom {
            type Outcome = MisOutcome;
            fn algorithm_id(&self) -> &'static str {
                "boom"
            }
            fn attach_observer(&mut self, _observer: SharedObserver) {}
            fn step(&mut self) -> Status<MisOutcome> {
                panic!("does not terminate");
            }
            fn save(&self, _w: &mut SnapshotWriter) {}
            fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                Ok(())
            }
        }
        let g = generators::cycle(30);
        let log = SpanLog::shared();
        let boom: Factory<'_> = Box::new(|| boxed(Boom, &g, |o| Ok(Solved::plain(o)), None, 0));
        let failed = replay_job(boom, QUANTUM, &log, 0);
        assert_eq!(failed.out, Err("step panicked".to_string()));
        let luby = replay_job(job_factory("luby", &g, 1, None, 1), QUANTUM, &log, 1);
        assert!(job_ok(&luby.out));
    }
}
