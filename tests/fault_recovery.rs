//! Shard-fault recovery equivalence: killing any worker shard at any
//! checkpoint boundary and recovering from its last checkpoint must
//! reproduce the unkilled run byte-for-byte.
//!
//! The sharded transport checkpoints every shard after every delivered
//! round, so each `(shard, round)` pair is an injection point. For every
//! case in the matrix we run the algorithm once unsharded (the direct
//! scatter), once framed with no fault (sharding alone must change
//! nothing), and then once per injection point with `FaultPlan` arming a
//! kill of that shard at that round. Recovery (respawn → restore from the
//! last checkpoint → replay the interrupted round frame) is invisible on
//! success: the MIS, the full `RoundLedger` (including the per-phase
//! breakdown), and the trace must compare equal to the straight run.
//!
//! The shard count, backend, worker binary, and fault plan are
//! process-global knobs, so every test in this binary serializes on one
//! mutex.

use std::sync::Mutex;

use clique_mis::algorithms::clique_mis::{CliqueMisExecution, CliqueMisParams};
use clique_mis::algorithms::ghaffari16::{Ghaffari16Execution, Ghaffari16Params};
use clique_mis::algorithms::luby::{LubyExecution, LubyParams};
use clique_mis::algorithms::sparsified::{SparsifiedExecution, SparsifiedParams};
use clique_mis::analysis::trace::JsonlTraceSink;
use clique_mis::graph::{generators, Graph, NodeId};
use clique_mis::sim::par_nodes::set_thread_override;
use clique_mis::sim::{
    arm_fault, disarm_fault, drive, drive_observed, drive_with_fault, fault_injections,
    set_backend_override, set_shards_override, set_worker_binary, FaultPlan, RoundLedger,
    ShardBackend,
};

const SEED: u64 = 7;

/// Serializes the tests in this binary (see module docs).
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph_for(name: &str) -> Graph {
    match name {
        "gnp32" => generators::erdos_renyi_gnp(32, 0.15, 9),
        "cycle24" => generators::cycle(24),
        other => panic!("unknown fault-matrix graph '{other}'"),
    }
}

type MisLedger = (Vec<NodeId>, RoundLedger);

fn run_algorithm(algorithm: &str, g: &Graph) -> MisLedger {
    match algorithm {
        "luby" => {
            let o = drive(LubyExecution::new(g, &LubyParams::for_graph(g), SEED));
            (o.mis, o.ledger)
        }
        "ghaffari16" => {
            let o = drive(Ghaffari16Execution::new(
                g,
                &Ghaffari16Params::for_graph(g),
                SEED,
            ));
            (o.mis, o.ledger)
        }
        "sparsified" => {
            let o = drive(SparsifiedExecution::new(
                g,
                &SparsifiedParams::for_graph(g),
                SEED,
            ));
            (o.mis, o.ledger)
        }
        "thm11" => {
            let o = drive(CliqueMisExecution::new(
                g,
                &CliqueMisParams::default(),
                SEED,
            ));
            (o.mis, o.ledger)
        }
        other => panic!("unknown fault-matrix algorithm '{other}'"),
    }
}

/// Runs the kill matrix for one `(algorithm, graph, shards)` configuration:
/// each shard killed at rounds `1, 1 + stride, …` until a planned round is
/// never reached (the run ended first — the matrix is exhausted). Returns
/// the number of injection points actually exercised.
fn kill_matrix(algorithm: &str, gname: &str, shards: usize, stride: u64) -> usize {
    let g = graph_for(gname);
    let label = format!("{algorithm}/{gname}/S={shards}");
    set_shards_override(None);
    let straight = run_algorithm(algorithm, &g);
    set_shards_override(Some(shards));
    let framed = run_algorithm(algorithm, &g);
    assert_eq!(framed, straight, "{label}: sharding alone changed the run");
    let mut points = 0;
    for kill_shard in 0..shards {
        let mut at_round = 1;
        loop {
            let before = fault_injections();
            arm_fault(FaultPlan {
                kill_shard,
                at_round,
            });
            let recovered = run_algorithm(algorithm, &g);
            disarm_fault();
            if fault_injections() == before {
                // The run finished before `at_round`: no later round can
                // fire either, so this shard's boundary set is exhausted.
                break;
            }
            assert_eq!(
                recovered, straight,
                "{label}: kill shard {kill_shard} at round {at_round} diverged"
            );
            points += 1;
            at_round += stride;
        }
    }
    set_shards_override(None);
    points
}

/// Channel backend, exhaustive: every shard killed at every checkpoint
/// boundary, for S ∈ {1, 2, 4}, on CONGEST algorithms (Luby, Ghaffari'16,
/// the §2.3 sparsified beeping MIS) and a clique one (Theorem 1.1). Their
/// neighbour exchanges are pulled through `ROUND` frames (one sender table
/// shared by all receivers), so kills land in framed pulls on both
/// transports.
#[test]
fn every_shard_killed_at_every_round_recovers_identically() {
    let _guard = lock();
    for shards in [1usize, 2, 4] {
        let points = kill_matrix("luby", "gnp32", shards, 1);
        assert!(points >= shards, "luby/gnp32/S={shards}: matrix was empty");
    }
    let points = kill_matrix("ghaffari16", "gnp32", 2, 1);
    assert!(points >= 2, "ghaffari16/gnp32/S=2: matrix was empty");
    let points = kill_matrix("sparsified", "gnp32", 2, 1);
    assert!(points >= 2, "sparsified/gnp32/S=2: matrix was empty");
    let points = kill_matrix("thm11", "cycle24", 2, 1);
    assert!(points >= 2, "thm11/cycle24/S=2: matrix was empty");
}

/// The recovery path composes with node-level parallelism: the framed run
/// and a mid-run kill stay byte-identical at 1 and 7 worker threads.
#[test]
fn recovery_is_identical_across_thread_counts() {
    let _guard = lock();
    let g = graph_for("gnp32");
    set_shards_override(None);
    let straight = run_algorithm("luby", &g);
    for threads in [1usize, 7] {
        set_thread_override(Some(threads));
        set_shards_override(Some(2));
        let framed = run_algorithm("luby", &g);
        assert_eq!(framed, straight, "threads={threads}: framed run diverged");
        let before = fault_injections();
        arm_fault(FaultPlan {
            kill_shard: 1,
            at_round: 3,
        });
        let recovered = run_algorithm("luby", &g);
        disarm_fault();
        assert_eq!(
            fault_injections(),
            before + 1,
            "threads={threads}: fault did not fire"
        );
        assert_eq!(recovered, straight, "threads={threads}: recovery diverged");
        set_shards_override(None);
        set_thread_override(None);
    }
}

/// OS-process workers over Unix sockets: a reduced sub-matrix (two shard
/// counts, first and last shard, three round boundaries) of real
/// kill-the-child injections, driven through the public
/// `drive_with_fault` entry point.
#[test]
fn process_backend_killed_worker_recovers_identically() {
    let _guard = lock();
    let g = graph_for("gnp32");
    set_shards_override(None);
    let straight = run_algorithm("luby", &g);
    set_worker_binary(Some(env!("CARGO_BIN_EXE_clique-mis").into()));
    set_backend_override(Some(ShardBackend::Process));
    for shards in [2usize, 4] {
        set_shards_override(Some(shards));
        let framed = run_algorithm("luby", &g);
        assert_eq!(framed, straight, "S={shards}: process backend diverged");
        for kill_shard in [0, shards - 1] {
            let mut fired = 0;
            for at_round in 1..=3u64 {
                let before = fault_injections();
                let o = drive_with_fault(
                    LubyExecution::new(&g, &LubyParams::for_graph(&g), SEED),
                    FaultPlan {
                        kill_shard,
                        at_round,
                    },
                );
                if fault_injections() == before {
                    break; // the run ended before `at_round`
                }
                fired += 1;
                assert_eq!(
                    (o.mis, o.ledger),
                    straight.clone(),
                    "S={shards}: kill {kill_shard}@{at_round} diverged"
                );
            }
            assert!(
                fired >= 2,
                "S={shards}: shard {kill_shard} saw only {fired} injection(s)"
            );
        }
    }
    set_shards_override(None);
    set_backend_override(None);
    set_worker_binary(None);
}

/// The trace is part of the byte-identity contract: a killed-and-recovered
/// observed run writes the same JSONL trace as the unsharded run.
#[test]
fn fault_injected_trace_is_byte_identical() {
    let _guard = lock();
    let g = graph_for("gnp32");
    let trace_of = |tag: &str| -> Vec<u8> {
        let path = std::env::temp_dir().join(format!(
            "cc-mis-fault-trace-{}-{tag}.jsonl",
            std::process::id()
        ));
        let path_str = path.to_str().expect("temp path is valid UTF-8").to_string();
        let sink = JsonlTraceSink::new(&path_str).shared();
        let exec = LubyExecution::new(&g, &LubyParams::for_graph(&g), SEED);
        drive_observed(exec, Some(JsonlTraceSink::as_observer(&sink)));
        JsonlTraceSink::finish_shared(&sink).expect("trace flush succeeds");
        let bytes = std::fs::read(&path).expect("trace file is readable");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    set_shards_override(None);
    let straight = trace_of("straight");
    set_shards_override(Some(3));
    arm_fault(FaultPlan {
        kill_shard: 2,
        at_round: 4,
    });
    let before = fault_injections();
    let killed = trace_of("killed");
    disarm_fault();
    set_shards_override(None);
    assert_eq!(fault_injections(), before + 1, "fault did not fire");
    assert!(!straight.is_empty(), "straight trace is empty");
    assert_eq!(killed, straight, "recovered trace diverged byte-wise");
}

/// The frame codec, via the public API: encode/decode round-trips, and the
/// three corruption classes (payload flip, truncation, unknown kind) are
/// each rejected with the matching error.
#[test]
fn frame_codec_round_trips_and_rejects_corruption() {
    use clique_mis::sim::shard::{decode_frame, encode_frame, FrameKind};
    use clique_mis::sim::ShardError;
    let payload: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
    let mut frame = Vec::new();
    let checksum = encode_frame(FrameKind::Round, &payload, &mut frame);
    let (kind, decoded, sum) = decode_frame(&frame).expect("clean frame decodes");
    assert_eq!(kind, FrameKind::Round);
    assert_eq!(decoded, &payload[..]);
    assert_eq!(sum, checksum);

    let mut flipped = frame.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        decode_frame(&flipped),
        Err(ShardError::BadChecksum { .. })
    ));

    assert!(matches!(
        decode_frame(&frame[..frame.len() - 1]),
        Err(ShardError::Truncated)
    ));

    let mut bad_kind = frame.clone();
    bad_kind[4] = 99;
    assert!(matches!(
        decode_frame(&bad_kind),
        Err(ShardError::BadKind(99))
    ));
}
