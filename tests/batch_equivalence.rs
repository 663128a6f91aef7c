//! Batch/solo equivalence: a job run through [`BatchScheduler`] must be
//! indistinguishable from the same execution driven solo — same MIS, same
//! `RoundLedger` field-for-field, and the same observer event stream byte
//! for byte — at every preemption quantum and every thread count.
//!
//! A 30+ job mixed workload (every step-driven algorithm × the golden
//! graph trio × two seeds) is scheduled at quanta {1, 8, unbounded} and
//! thread overrides {1, 2, 7}; each grid point is diffed against solo
//! baselines captured once up front. A failure here means preemption
//! (park/revive through CCMS snapshots) or the thread pool leaked into an
//! execution's observable behaviour.

use std::cell::RefCell;
use std::rc::Rc;

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
    finish_with_cleanup, SparsifiedExecution, SparsifiedParams, SparsifiedRun,
};
use clique_mis::algorithms::MisOutcome;
use clique_mis::analysis::trace::write_event_line;
use clique_mis::graph::{generators, Graph, NodeId};
use clique_mis::sim::par_nodes::set_thread_override;
use clique_mis::sim::runtime::{RoundEvent, RoundObserver};
use clique_mis::sim::{
    drive_observed, BatchScheduler, BoxedExecution, JobSpec, MapOutcome, RoundLedger,
    SharedObserver,
};

/// In-memory observer: accumulates the exact JSONL lines a trace file
/// would contain, so solo and batch event streams compare byte-for-byte.
#[derive(Default)]
struct StringTrace {
    lines: String,
}

impl RoundObserver for StringTrace {
    fn on_event(&mut self, event: &RoundEvent) {
        write_event_line(&mut self.lines, event);
    }
}

fn graph_for(name: &str) -> Graph {
    match name {
        "gnp80" => generators::erdos_renyi_gnp(80, 0.1, 9),
        "grid8x8" => generators::grid(8, 8),
        "cycle48" => generators::cycle(48),
        other => panic!("unknown golden graph '{other}'"),
    }
}

type Solved = (Vec<NodeId>, RoundLedger);

/// Factory for one job's execution, projected to `(mis, ledger)`. The
/// scheduler re-invokes this after every preemption, so everything it
/// captures is deterministic in `(graph, seed)`.
fn make_exec<'a>(
    algorithm: &str,
    g: &'a Graph,
    seed: u64,
) -> Box<dyn FnMut() -> BoxedExecution<'a, Solved> + 'a> {
    match algorithm {
        "luby" => {
            let p = LubyParams::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    LubyExecution::new(g, &p, seed),
                    |o: MisOutcome| (o.mis, o.ledger),
                ))
            })
        }
        "ghaffari16" => {
            let p = Ghaffari16Params::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    Ghaffari16Execution::new(g, &p, seed),
                    |o: MisOutcome| (o.mis, o.ledger),
                ))
            })
        }
        "g16-clique" => {
            let p = Ghaffari16Params::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    Ghaffari16CliqueExecution::new(g, &p, seed),
                    |o: MisOutcome| (o.mis, o.ledger),
                ))
            })
        }
        "beeping" => {
            let p = BeepingParams::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    BeepingExecution::new(g, &p, seed),
                    |r: BeepingRun| {
                        assert!(r.residual.is_empty(), "beeping left undecided nodes");
                        (r.mis, r.ledger)
                    },
                ))
            })
        }
        "sparsified" => {
            let p = SparsifiedParams::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    SparsifiedExecution::new(g, &p, seed),
                    |r: SparsifiedRun| {
                        let o = finish_with_cleanup(g, r);
                        (o.mis, o.ledger)
                    },
                ))
            })
        }
        "thm11" => Box::new(move || {
            Box::new(MapOutcome::new(
                CliqueMisExecution::new(g, &CliqueMisParams::default(), seed),
                |r: CliqueMisResult| (r.mis, r.ledger),
            ))
        }),
        "lowdeg" => Box::new(move || {
            Box::new(MapOutcome::new(
                LowDegExecution::new(g, &LowDegParams::default(), seed),
                |r: LowDegResult| (r.mis, r.ledger),
            ))
        }),
        "auto" => Box::new(move || {
            Box::new(MapOutcome::new(
                AutoExecution::new(g, seed),
                |(o, _): (MisOutcome, Strategy)| (o.mis, o.ledger),
            ))
        }),
        other => panic!("unknown algorithm '{other}'"),
    }
}

/// The mixed workload: 31 jobs across 8 algorithms, 3 graphs, 2 seeds.
fn workload() -> Vec<(&'static str, &'static str, u64)> {
    let mut jobs = Vec::new();
    for gname in ["gnp80", "grid8x8", "cycle48"] {
        for seed in [7, 11] {
            for algorithm in ["luby", "thm11", "sparsified"] {
                jobs.push((algorithm, gname, seed));
            }
        }
        for algorithm in ["ghaffari16", "g16-clique", "beeping", "auto"] {
            jobs.push((algorithm, gname, 7));
        }
    }
    jobs.push(("lowdeg", "cycle48", 7));
    assert!(jobs.len() >= 30, "the mixed workload must hold 30+ jobs");
    jobs
}

struct Baseline {
    mis: Vec<NodeId>,
    ledger: RoundLedger,
    trace: String,
}

/// Solo baselines, driven once through the plain driver (itself a
/// single-job batch, but unbounded and un-preempted by construction).
fn baselines(graphs: &[Graph; 3], jobs: &[(&str, &str, u64)]) -> Vec<Baseline> {
    jobs.iter()
        .map(|&(algorithm, gname, seed)| {
            let g = &graphs[graph_slot(gname)];
            let trace = Rc::new(RefCell::new(StringTrace::default()));
            let obs: SharedObserver = trace.clone();
            let (mis, ledger) = drive_observed(make_exec(algorithm, g, seed)(), Some(obs));
            let lines = std::mem::take(&mut trace.borrow_mut().lines);
            Baseline {
                mis,
                ledger,
                trace: lines,
            }
        })
        .collect()
}

fn graph_slot(gname: &str) -> usize {
    match gname {
        "gnp80" => 0,
        "grid8x8" => 1,
        "cycle48" => 2,
        other => panic!("unknown golden graph '{other}'"),
    }
}

/// Schedules the whole workload at one (quantum, threads) grid point and
/// diffs every job against its solo baseline.
fn check_grid_point(
    graphs: &[Graph; 3],
    jobs: &[(&str, &str, u64)],
    base: &[Baseline],
    quantum: Option<u64>,
    threads: usize,
) {
    let point = format!("quantum {quantum:?}, {threads} thread(s)");
    let traces: Vec<Rc<RefCell<StringTrace>>> = jobs
        .iter()
        .map(|_| Rc::new(RefCell::new(StringTrace::default())))
        .collect();
    let specs: Vec<JobSpec<'_, Solved>> = jobs
        .iter()
        .zip(&traces)
        .enumerate()
        .map(|(i, (&(algorithm, gname, seed), trace))| {
            let obs: SharedObserver = trace.clone();
            JobSpec::new(
                format!("job-{i:02}:{algorithm}/{gname}"),
                make_exec(algorithm, &graphs[graph_slot(gname)], seed),
            )
            .observed(obs)
        })
        .collect();
    let scheduler = match quantum {
        None => BatchScheduler::unbounded(),
        Some(q) => BatchScheduler::with_quantum(q),
    };
    set_thread_override(Some(threads));
    let results = scheduler.run(specs);
    set_thread_override(None);

    assert_eq!(results.len(), jobs.len());
    let preemptions: u64 = results.iter().map(|r| r.preemptions).sum();
    match quantum {
        Some(1) => assert!(
            preemptions > 0,
            "{point}: quantum 1 must park multi-step executions"
        ),
        None => assert_eq!(preemptions, 0, "{point}: unbounded runs never park"),
        _ => {}
    }
    for (i, result) in results.iter().enumerate() {
        let label = format!("{point}, {}", result.label);
        let (mis, ledger) = &result.outcome;
        assert_eq!(*mis, base[i].mis, "{label}: MIS diverged from solo");
        assert_eq!(
            *ledger, base[i].ledger,
            "{label}: ledger diverged from solo"
        );
        assert_eq!(
            traces[i].borrow().lines,
            base[i].trace,
            "{label}: event stream diverged from solo"
        );
    }
}

fn golden_graphs() -> [Graph; 3] {
    [
        graph_for("gnp80"),
        graph_for("grid8x8"),
        graph_for("cycle48"),
    ]
}

#[test]
fn batch_matches_solo_across_quanta_single_thread() {
    let graphs = golden_graphs();
    let jobs = workload();
    let base = baselines(&graphs, &jobs);
    for quantum in [Some(1), Some(8), None] {
        check_grid_point(&graphs, &jobs, &base, quantum, 1);
    }
}

#[test]
fn batch_matches_solo_across_thread_counts() {
    let graphs = golden_graphs();
    let jobs = workload();
    let base = baselines(&graphs, &jobs);
    for threads in [2, 7] {
        for quantum in [Some(1), Some(8), None] {
            check_grid_point(&graphs, &jobs, &base, quantum, threads);
        }
    }
}
