//! The determinism contract of `cc_mis_sim::par_nodes`: for a fixed seed,
//! every algorithm that adopted `par_map_nodes` produces *bit-identical*
//! results whether the per-node steps run sequentially (the
//! `CC_MIS_THREADS=1` escape hatch) or on a real worker pool.
//!
//! The thread-count override is process-global, so every test here takes
//! [`OVERRIDE_LOCK`] to keep the forced-pool and forced-sequential runs of
//! the different tests strictly ordered.

use std::sync::Mutex;

use cc_mis_core::beeping_mis::{run_beeping, run_beeping_to_completion, BeepingParams};
use cc_mis_core::clique_mis::{
    run_clique_mis, run_clique_mis_outcome, CliqueMisExecution, CliqueMisParams,
};
use cc_mis_core::ghaffari16::{run_ghaffari16, run_ghaffari16_clique, Ghaffari16Params};
use cc_mis_core::lowdeg::{run_lowdeg, run_theorem_1_1, LowDegParams};
use cc_mis_core::luby::{run_luby, LubyParams};
use cc_mis_core::sparsified::{run_sparsified_with_cleanup, SparsifiedParams};
use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::driver::{resume, snapshot};
use cc_mis_sim::par_nodes::set_thread_override;
use cc_mis_sim::{drive, drive_with_checkpoints, RoundLedger};

/// Serializes the tests of this file (the override is process-global).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    set_thread_override(Some(threads));
    let out = f();
    set_thread_override(None);
    out
}

#[test]
fn multithreaded_runs_are_bit_identical_to_sequential() {
    let _guard = lock();
    let g = generators::erdos_renyi_gnp(400, 0.035, 17);

    for seed in [1u64, 2, 3] {
        // Theorem 1.1 simulation (gather + grouped local replay).
        let params = CliqueMisParams::default();
        let seq = with_threads(1, || run_clique_mis(&g, &params, seed));
        let par = with_threads(4, || run_clique_mis(&g, &params, seed));
        assert_eq!(seq.mis, par.mis, "clique MIS diverged (seed {seed})");
        assert_eq!(
            seq.rounds, par.rounds,
            "clique rounds diverged (seed {seed})"
        );
        assert_eq!(
            seq.ledger, par.ledger,
            "clique ledger diverged (seed {seed})"
        );
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(
            seq.joined_at, par.joined_at,
            "join times diverged (seed {seed})"
        );
        assert_eq!(
            seq.removed_at, par.removed_at,
            "removal times diverged (seed {seed})"
        );
        assert_eq!(seq.residual_nodes, par.residual_nodes);
        assert_eq!(seq.residual_edges, par.residual_edges);

        // Ghaffari'16, CONGEST and clique variants (parallel mark/update).
        let gp = Ghaffari16Params::for_graph(&g);
        let seq = with_threads(1, || run_ghaffari16(&g, &gp, seed));
        let par = with_threads(4, || run_ghaffari16(&g, &gp, seed));
        assert_eq!(seq.mis, par.mis, "g16 MIS diverged (seed {seed})");
        assert_eq!(seq.ledger, par.ledger);
        assert_eq!(seq.iterations, par.iterations);
        let seq = with_threads(1, || run_ghaffari16_clique(&g, &gp, seed));
        let par = with_threads(4, || run_ghaffari16_clique(&g, &gp, seed));
        assert_eq!(seq.mis, par.mis, "g16-clique MIS diverged (seed {seed})");
        assert_eq!(seq.ledger, par.ledger);

        // Direct beeping run (parallel beep draws and d sums).
        let bp = BeepingParams::for_graph(&g);
        let seq = with_threads(1, || run_beeping(&g, &bp, seed));
        let par = with_threads(4, || run_beeping(&g, &bp, seed));
        assert_eq!(seq.mis, par.mis, "beeping MIS diverged (seed {seed})");
        assert_eq!(seq.iterations, par.iterations);

        // Sparsified beeping with cleanup (parallel sampling and degrees).
        let sp = SparsifiedParams::for_graph(&g);
        let seq = with_threads(1, || run_sparsified_with_cleanup(&g, &sp, seed));
        let par = with_threads(4, || run_sparsified_with_cleanup(&g, &sp, seed));
        assert_eq!(seq.mis, par.mis, "sparsified MIS diverged (seed {seed})");
        assert_eq!(seq.ledger, par.ledger);
        assert_eq!(seq.iterations, par.iterations);
    }

    // Low-degree fast path (one local replay per distinct ball): one ball
    // shared by all (a random regular graph gathered past its diameter),
    // one ball per node (a long cycle), and empty balls (isolated nodes).
    let mut with_isolated = cc_mis_graph::GraphBuilder::new(40);
    for (u, v) in generators::cycle(30).edges() {
        with_isolated.add_edge(u, v).expect("cycle edge is valid");
    }
    for g in [
        generators::random_regular(512, 4, 7),
        generators::cycle(200),
        with_isolated.build(),
    ] {
        let seq = with_threads(1, || run_lowdeg(&g, &LowDegParams::default(), 5));
        for threads in [2usize, 7] {
            let par = with_threads(threads, || run_lowdeg(&g, &LowDegParams::default(), 5));
            assert_eq!(seq.mis, par.mis, "{g:?}: lowdeg MIS at {threads} threads");
            assert_eq!(
                seq.ledger, par.ledger,
                "{g:?}: lowdeg ledger at {threads} threads"
            );
        }
    }
}

/// Seed of the golden-ledger matrix (`tests/golden_ledgers.rs`).
const GOLDEN_SEED: u64 = 7;

fn golden_graph(name: &str) -> Graph {
    match name {
        "gnp80" => generators::erdos_renyi_gnp(80, 0.1, 9),
        "grid8x8" => generators::grid(8, 8),
        "cycle48" => generators::cycle(48),
        other => panic!("unknown golden graph '{other}'"),
    }
}

fn golden_run(algorithm: &str, g: &Graph) -> (Vec<NodeId>, RoundLedger) {
    match algorithm {
        "luby" => {
            let r = run_luby(g, &LubyParams::for_graph(g), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "ghaffari16" => {
            let r = run_ghaffari16(g, &Ghaffari16Params::for_graph(g), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "g16-clique" => {
            let r = run_ghaffari16_clique(g, &Ghaffari16Params::for_graph(g), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "beeping" => {
            let r = run_beeping_to_completion(g, &BeepingParams::for_graph(g), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "sparsified" => {
            let r = run_sparsified_with_cleanup(g, &SparsifiedParams::for_graph(g), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "thm11" => {
            let r = run_clique_mis_outcome(g, &CliqueMisParams::default(), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        "auto" => {
            let r = run_theorem_1_1(g, GOLDEN_SEED).0;
            (r.mis, r.ledger)
        }
        "lowdeg" => {
            let r = run_lowdeg(g, &LowDegParams::default(), GOLDEN_SEED);
            (r.mis, r.ledger)
        }
        other => panic!("unknown golden algorithm '{other}'"),
    }
}

/// The full golden-ledger matrix at thread counts {1, 2, 7}: for every
/// algorithm/graph cell, the MIS and the *entire* `RoundLedger` (rounds,
/// messages, bits, violations, and the per-phase breakdown) must be
/// byte-identical across thread counts. Together with
/// `tests/golden_ledgers.rs` (which pins the threads-default numbers) this
/// pins the sharded delivery path to the sequential one.
#[test]
fn golden_matrix_is_thread_count_invariant() {
    let _guard = lock();
    let cases: &[(&str, &[&str])] = &[
        (
            "gnp80",
            &[
                "luby",
                "ghaffari16",
                "g16-clique",
                "beeping",
                "sparsified",
                "thm11",
                "auto",
            ],
        ),
        (
            "grid8x8",
            &[
                "luby",
                "ghaffari16",
                "g16-clique",
                "beeping",
                "sparsified",
                "thm11",
                "auto",
            ],
        ),
        (
            "cycle48",
            &[
                "luby",
                "ghaffari16",
                "g16-clique",
                "beeping",
                "sparsified",
                "thm11",
                "auto",
                "lowdeg",
            ],
        ),
    ];
    for &(gname, algorithms) in cases {
        let g = golden_graph(gname);
        for &algorithm in algorithms {
            let base = with_threads(1, || golden_run(algorithm, &g));
            for threads in [2usize, 7] {
                let run = with_threads(threads, || golden_run(algorithm, &g));
                assert_eq!(
                    run.0, base.0,
                    "{algorithm}/{gname}: MIS diverged at {threads} threads"
                );
                assert_eq!(
                    run.1, base.1,
                    "{algorithm}/{gname}: ledger diverged at {threads} threads"
                );
            }
        }
    }
}

/// Inbox *contents* (not just ledgers) are identical across thread counts,
/// both for a clique round big enough to take the sharded delivery path
/// (n = 128 all-to-all ⇒ 16k messages) and for a CONGEST broadcast round.
#[test]
fn sharded_rounds_deliver_identical_inboxes() {
    let _guard = lock();

    fn clique_round(threads: usize) -> Vec<Vec<(u32, u32)>> {
        with_threads(threads, || {
            let n = 128usize;
            let mut e = CliqueEngine::strict(n, 64);
            let mut r = e.begin_round::<u32>();
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i != j {
                        r.send(NodeId::new(i), NodeId::new(j), 16, i.wrapping_mul(31) ^ j)
                            .expect("one 16-bit message per pair fits the budget");
                    }
                }
            }
            r.deliver()
                .iter()
                .map(|inbox| inbox.iter().map(|&(s, p)| (s.raw(), p)).collect())
                .collect()
        })
    }

    fn congest_round(threads: usize) -> Vec<Vec<(u32, u32)>> {
        with_threads(threads, || {
            let g = generators::erdos_renyi_gnp(200, 0.08, 5);
            let mut e = CongestEngine::strict(&g, 64);
            let mut r = e.begin_round::<u32>();
            for v in g.nodes() {
                r.broadcast(v, 16, v.raw())
                    .expect("broadcast fits the budget");
            }
            r.deliver()
                .iter()
                .map(|inbox| inbox.iter().map(|&(s, p)| (s.raw(), p)).collect())
                .collect()
        })
    }

    let clique_base = clique_round(1);
    let congest_base = congest_round(1);
    for threads in [2usize, 7] {
        assert_eq!(
            clique_round(threads),
            clique_base,
            "clique inboxes diverged at {threads} threads"
        );
        assert_eq!(
            congest_round(threads),
            congest_base,
            "CONGEST inboxes diverged at {threads} threads"
        );
    }
}

/// Resume-equivalence spot-check under threading: snapshots taken by a
/// 2-thread run restore and finish identically on a 7-thread run, matching
/// the 1-thread straight run.
#[test]
fn resume_is_thread_count_invariant() {
    let _guard = lock();
    let g = golden_graph("gnp80");
    let cfg = CliqueMisParams::default();

    let straight = with_threads(1, || drive(CliqueMisExecution::new(&g, &cfg, GOLDEN_SEED)));

    let mut snaps: Vec<Vec<u8>> = vec![snapshot(&CliqueMisExecution::new(&g, &cfg, GOLDEN_SEED))];
    let checkpointed = with_threads(2, || {
        drive_with_checkpoints(
            CliqueMisExecution::new(&g, &cfg, GOLDEN_SEED),
            None,
            1,
            |_, bytes| snaps.push(bytes.to_vec()),
        )
    });
    assert_eq!(checkpointed.mis, straight.mis);
    assert_eq!(checkpointed.ledger, straight.ledger);
    assert!(snaps.len() > 1, "no step boundaries snapshotted");

    // Resume from the pristine snapshot, one mid-run boundary, and the
    // final boundary, each on a 7-thread pool.
    let picks = [0usize, snaps.len() / 2, snaps.len() - 1];
    for boundary in picks {
        let outcome = with_threads(7, || {
            let mut exec = CliqueMisExecution::new(&g, &cfg, GOLDEN_SEED);
            resume(&mut exec, &snaps[boundary])
                .unwrap_or_else(|e| panic!("resume at boundary {boundary}: {e}"));
            drive(exec)
        });
        assert_eq!(
            outcome.mis, straight.mis,
            "MIS differs after threaded resume at boundary {boundary}"
        );
        assert_eq!(
            outcome.ledger, straight.ledger,
            "ledger differs after threaded resume at boundary {boundary}"
        );
    }
}
