//! Steady-state rounds never touch the heap allocator.
//!
//! The clique round moves `O(n²)` messages, so the round core recycles
//! every buffer it needs through `pool::RoundBuffers` (DESIGN.md §11).
//! This binary measures that claim instead of pattern-matching for it: a
//! counting global allocator tallies every `alloc`/`realloc` made on the
//! calling thread, and each round shape below must make **zero** of them
//! per warmed round — in `send`, in `deliver`, in any callee, and in the
//! pool's own take/retire bookkeeping. A buffer that is taken and never
//! retired shows up here too: the next round's `take_*` comes back empty
//! and has to allocate.
//!
//! The allocator also sums the bytes it hands out, which pins the cost of
//! a *fresh* engine: its first round may only allocate what the messages
//! it carries need, not storage for all `n²` ordered pairs.
//!
//! All shapes run at one worker thread with no observer attached, and all
//! message-passing shapes but two with direct delivery; the framed shapes
//! (a pulled exchange and an addressed clique round) go through two
//! in-process channel shards. The tail shape (3 senders,
//! about 10 receivers on a 2^16-node R-MAT graph) pins that a round which
//! walks only its frontiers needs no `n`-sized buffer either. The beeping shapes write
//! each round's `heard` vector into one buffer the caller keeps. The
//! parallel scatter (more than one thread, at least
//! `PAR_DELIVER_MIN_MESSAGES` messages) spawns scoped workers every round
//! and is deliberately out of scope. The thread override is global, so
//! the shapes run in sequence inside one `#[test]`.

#![allow(
    unsafe_code,
    reason = "a GlobalAlloc impl is unsafe by definition; it only counts and forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::par_nodes;
use cc_mis_sim::runtime::{Round, Transport};
use cc_mis_sim::{set_backend_override, set_shards_override, Frontier, ShardBackend};

thread_local! {
    /// Allocations made by this thread. `const`-initialised and free of
    /// drop glue, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a `realloc` counts its new
    /// size in full).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting allocations and bytes per thread.
struct CountingAlloc;

fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each block and layout this allocator hands out or takes back is one
// `System` made; counting touches only a `const` thread-local `Cell`,
// which never allocates, so the allocator cannot re-enter itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` and `layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Rounds run before measuring, so every pool is primed.
const WARMUP_ROUNDS: usize = 3;
/// Rounds measured per shape.
const MEASURED_ROUNDS: u64 = 5;

/// Runs `round` for the warm-up, then returns the allocations per
/// measured round.
fn allocations_per_round(mut round: impl FnMut()) -> u64 {
    for _ in 0..WARMUP_ROUNDS {
        round();
    }
    let before = allocations();
    for _ in 0..MEASURED_ROUNDS {
        round();
    }
    (allocations() - before) / MEASURED_ROUNDS
}

/// One clique round in which node `v` sends one word to each of the next
/// `fanout` nodes; returns the checksum of everything delivered.
fn clique_round(engine: &mut CliqueEngine, fanout: usize) -> u64 {
    let n = engine.node_count();
    let mut round = engine.begin_round::<u64>();
    for v in 0..n {
        for k in 1..=fanout {
            let dst = (v + k) % n;
            round
                .send(node(v), node(dst), 32, (v * n + dst) as u64)
                .expect("one word per pair fits the standard budget");
        }
    }
    let inboxes = round.deliver();
    inboxes.iter().flatten().map(|&(_, msg)| msg).sum()
}

/// A neighbour exchange on `round` in which each of `senders` sends one
/// word to its neighbours in `receivers`; returns the checksum of
/// everything delivered, folded in the visitor.
fn exchange_round<T: Transport>(
    round: Round<'_, T, u64>,
    graph: &Graph,
    senders: &[NodeId],
    receivers: &Frontier,
) -> u64 {
    let mut checksum = 0;
    round
        .exchange_with_neighbors(
            graph,
            senders,
            receivers,
            |v| (32, u64::from(v.raw()) + 1),
            |_, _, &msg| checksum += msg,
        )
        .expect("one word per pair fits the standard budget");
    checksum
}

/// Every `k`-th node of `graph`, ascending.
fn every_kth(graph: &Graph, k: usize) -> Vec<NodeId> {
    graph.nodes().step_by(k).collect()
}

/// A tail-phase shape on `graph`: 3 senders of degree at least 2, and as
/// receivers their first two neighbours each plus 4 further nodes.
fn tail_frontiers(graph: &Graph) -> (Vec<NodeId>, Frontier) {
    let senders: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.degree(v) >= 2)
        .step_by(997)
        .take(3)
        .collect();
    let mut mask = vec![false; graph.node_count()];
    for &v in &senders {
        for &u in &graph.neighbors(v)[..2] {
            mask[u.index()] = true;
        }
    }
    for v in (0..graph.node_count())
        .step_by(graph.node_count() / 4)
        .take(4)
    {
        mask[v] = true;
    }
    (senders, Frontier::from_mask(&mask))
}

fn node(v: usize) -> NodeId {
    NodeId::new(u32::try_from(v).expect("test graphs have fewer than 2^32 nodes"))
}

#[test]
fn warmed_rounds_make_zero_heap_allocations() {
    par_nodes::set_thread_override(Some(1));

    // Clique, fan-out 8.
    let n = 64;
    let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
    let clique = allocations_per_round(|| {
        assert!(clique_round(&mut engine, 8) > 0);
    });

    // CONGEST local broadcast over graph edges (sparse accounting).
    let graph = generators::grid(12, 12);
    let gn = graph.node_count();
    let mut engine = CongestEngine::strict(&graph, standard_bandwidth(gn));
    let congest = allocations_per_round(|| {
        let mut round = engine.begin_round::<u32>();
        for v in 0..gn {
            round
                .broadcast(node(v), 16, v as u32)
                .expect("one message per edge fits the standard budget");
        }
        let inboxes = round.deliver();
        assert_eq!(inboxes.message_count(), 2 * graph.edge_count());
    });

    // Clique all-to-all above PAR_DELIVER_MIN_MESSAGES (8,192): at one
    // thread the large round still takes the serial scatter.
    let n = 128;
    let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
    let large = allocations_per_round(|| {
        assert!(clique_round(&mut engine, n - 1) > 0);
    });

    // Neighbour exchanges over a G(n, 8/n) graph with every node alive:
    // all nodes sending takes the pull fill, every 50th node sending the
    // push direction (the send loop plus `deliver`).
    let graph = generators::erdos_renyi_gnp(256, 8.0 / 256.0, 1);
    let alive = Frontier::full(graph.node_count());
    let every = every_kth(&graph, 1);
    let fiftieth = every_kth(&graph, 50);
    let mut engine = CliqueEngine::strict(graph.node_count(), standard_bandwidth(256));
    let clique_pull = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &graph, &every, &alive) > 0);
    });
    let clique_push = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &graph, &fiftieth, &alive) > 0);
    });
    let mut engine = CongestEngine::strict(&graph, standard_bandwidth(256));
    let congest_pull = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &graph, &every, &alive) > 0);
    });
    let congest_push = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &graph, &fiftieth, &alive) > 0);
    });

    // The tail of a Theorem 1.1 run: 3 senders and about 10 receivers on
    // an R-MAT graph of 2^16 nodes, which pulls along the receivers only.
    let rmat = generators::kronecker(16, 8, 1);
    let (tail_senders, tail_receivers) = tail_frontiers(&rmat);
    let mut engine = CliqueEngine::strict(rmat.node_count(), standard_bandwidth(rmat.node_count()));
    let tail = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &rmat, &tail_senders, &tail_receivers) > 0);
    });

    // The pulled exchange and an addressed clique round through two
    // in-process shards: the frames of every shard, each shard's decoded
    // table and each worker's per-round checkpoint all reuse their storage
    // once warmed.
    set_backend_override(Some(ShardBackend::Channel));
    set_shards_override(Some(2));
    let mut engine = CliqueEngine::strict(graph.node_count(), standard_bandwidth(256));
    let framed_pull = allocations_per_round(|| {
        assert!(exchange_round(engine.begin_round(), &graph, &every, &alive) > 0);
    });
    let mut engine = CliqueEngine::strict(64, standard_bandwidth(64));
    let framed_deliver = allocations_per_round(|| {
        assert!(clique_round(&mut engine, 8) > 0);
    });
    set_shards_override(None);
    set_backend_override(None);

    // Beeping rounds, dense (every third node beeps) and sparse (every
    // 50th), writing `heard` into one caller-owned buffer.
    let mut engine = BeepingEngine::new(&graph);
    let beeps: Vec<bool> = (0..graph.node_count()).map(|v| v % 3 == 0).collect();
    let beepers: Vec<NodeId> = (0..graph.node_count()).step_by(50).map(node).collect();
    let mut heard = Vec::new();
    let beep_dense = allocations_per_round(|| {
        engine.round(&beeps, &mut heard);
        assert!(heard.contains(&true));
    });
    let beep_sparse = allocations_per_round(|| {
        engine.round_sparse(&beepers, &mut heard);
        assert!(heard.contains(&true));
    });

    // A fresh clique engine's first round at n = 2048, fan-out 8: outbox,
    // arena and pair totals for 16,384 messages take about 1.7 MB with
    // vector growth; an n² pair-indexed array alone would be 32 MiB.
    let n = 2048;
    let before = bytes();
    let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
    assert!(clique_round(&mut engine, 8) > 0);
    let fresh_bytes = bytes() - before;

    // A fresh clique engine's first pulled exchange at n = 2048, average
    // degree 8: the sender list (16 bytes a sender), the per-node sender
    // index and count table (4 bytes a node each) take about 115 KB with
    // vector growth. The ~16,000 messages themselves need no storage: the
    // visitor folds each as it is pulled (an inbox arena for them took
    // the total to about 0.67 MB).
    let graph = generators::erdos_renyi_gnp(2048, 8.0 / 2048.0, 2);
    let alive = Frontier::full(graph.node_count());
    let every = every_kth(&graph, 1);
    let before = bytes();
    let mut engine = CliqueEngine::strict(2048, standard_bandwidth(2048));
    assert!(exchange_round(engine.begin_round(), &graph, &every, &alive) > 0);
    let fresh_exchange_bytes = bytes() - before;

    par_nodes::set_thread_override(None);
    assert_eq!(
        (clique, congest, large, framed_deliver),
        (0, 0, 0, 0),
        "heap allocations per warmed round (clique, CONGEST, clique ≥ 8,192 messages, \
         clique through 2 channel shards)"
    );
    assert_eq!(
        (
            clique_pull,
            clique_push,
            congest_pull,
            congest_push,
            framed_pull,
            tail
        ),
        (0, 0, 0, 0, 0, 0),
        "heap allocations per warmed neighbour exchange (clique pull, clique push, \
         CONGEST pull, CONGEST push, pull through 2 channel shards, kronecker tail)"
    );
    assert_eq!(
        (beep_dense, beep_sparse),
        (0, 0),
        "heap allocations per warmed beeping round (dense, sparse)"
    );
    assert!(
        fresh_bytes < 4 << 20,
        "a fresh n = 2048 clique engine's first round allocated {fresh_bytes} bytes"
    );
    assert!(
        fresh_exchange_bytes < 128 << 10,
        "a fresh n = 2048 clique engine's first exchange allocated {fresh_exchange_bytes} bytes"
    );
}
