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
//! All shapes run at one worker thread with no observer attached. The
//! parallel scatter (more than one thread, at least
//! `PAR_DELIVER_MIN_MESSAGES` messages) spawns scoped workers every round
//! and is deliberately out of scope. The in-process overrides are global,
//! so the shapes run in sequence inside one `#[test]`.

#![allow(unsafe_code)] // a GlobalAlloc impl is unsafe by definition; it only counts and forwards to System

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cc_mis_graph::{generators, NodeId};
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::{par_nodes, pool};

thread_local! {
    /// Allocations made by this thread. `const`-initialised and free of
    /// drop glue, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting allocations per thread.
struct CountingAlloc;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each block and layout this allocator hands out or takes back is one
// `System` made; counting touches only a `const` thread-local `Cell`,
// which never allocates, so the allocator cannot re-enter itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

fn node(v: usize) -> NodeId {
    NodeId::new(u32::try_from(v).expect("test graphs have fewer than 2^32 nodes"))
}

#[test]
fn warmed_rounds_make_zero_heap_allocations() {
    par_nodes::set_thread_override(Some(1));

    // Clique, dense per-pair accounting (n² load words).
    pool::set_dense_pair_max_override(None);
    let n = 64;
    let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
    let dense = allocations_per_round(|| {
        assert!(clique_round(&mut engine, 8) > 0);
    });

    // Clique, sparse per-pair accounting (cutoff forced below n).
    pool::set_dense_pair_max_override(Some(1));
    let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
    let sparse = allocations_per_round(|| {
        assert!(clique_round(&mut engine, 8) > 0);
    });
    pool::set_dense_pair_max_override(None);

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

    par_nodes::set_thread_override(None);
    assert_eq!(
        (dense, sparse, congest, large),
        (0, 0, 0, 0),
        "heap allocations per warmed round (clique dense, clique sparse, CONGEST, clique ≥ 8,192 messages)"
    );
}
