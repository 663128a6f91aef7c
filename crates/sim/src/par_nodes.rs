//! Deterministic per-node parallelism for simulation steps.
//!
//! Every simulated algorithm spends most of its wall-clock in loops of the
//! shape "for each node, compute something from shared read-only state".
//! Because all randomness flows through the *addressable* coins of
//! [`crate::rng::SharedRandomness`] (a pure function of `(stream, node,
//! round)`), those per-node computations are pure functions of the node
//! index — so they can run on any number of threads in any order and still
//! produce the same values. [`par_map_nodes`] exploits exactly that: it
//! evaluates `f(0), f(1), …, f(n-1)` across a scoped worker pool and returns
//! the results **in index order**, making the surrounding algorithm
//! bit-identical to its sequential execution for a fixed seed.
//!
//! The contract is on the caller: `f` must not mutate shared state or
//! otherwise depend on the execution order of other indices. Reductions over
//! the returned `Vec` then happen on the calling thread in index order, so
//! even floating-point sums are unaffected by the thread count.
//!
//! Thread-count resolution, in priority order:
//! 1. [`set_thread_override`] (in-process, used by tests and embedders);
//! 2. the `CC_MIS_THREADS` environment variable, read through
//!    [`crate::config::env_threads`] (`1` is the escape hatch that forces
//!    sequential execution);
//! 3. [`std::thread::available_parallelism`].
//!
//! Sources 2 and 3 are read once per process; the override is not cached.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// In-process thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for subsequent [`par_map_nodes`] calls
/// in this process, taking precedence over `CC_MIS_THREADS`. `None` clears
/// the override. Because `par_map_nodes` results are independent of the
/// thread count by construction, flipping this concurrently with running
/// simulations changes scheduling only, never results.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The effective worker-thread count: the in-process override if set, else
/// `CC_MIS_THREADS` (values `< 1` or unparsable fall back to 1), else the
/// machine's available parallelism. The fallback is resolved once per
/// process (`available_parallelism` reads cgroup files, and every round
/// asks); the override is still checked first on every call.
#[allow(
    clippy::disallowed_methods,
    reason = "par_nodes owns the worker count, so it is resolved in one place"
)]
pub fn thread_count() -> usize {
    let ov = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if ov >= 1 {
        return ov;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        crate::config::env_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
}

/// Maps `f` over `0..n` on a scoped worker pool, returning results in index
/// order.
///
/// `f` must be a pure function of its index with respect to the shared state
/// it captures (read-only borrows are fine; that is the whole point). Under
/// that contract the output — and therefore anything downstream of it — is
/// bit-identical for every thread count, including 1.
#[allow(
    clippy::disallowed_methods,
    reason = "par_nodes owns the scoped pool; its index-order contract keeps runs bit-identical to sequential"
)]
pub fn par_map_nodes<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count().min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    // Contiguous chunks: each worker owns a disjoint slice of the output,
    // so no synchronization beyond the scope join is needed.
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = ci * chunk;
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index is covered by exactly one chunk"))
        .collect()
}

/// Splits `items` into `shards` contiguous chunks and `out` into `shards`
/// equal-length rows, running `f(shard_index, chunk, row)` across the
/// scoped pool.
///
/// Chunk boundaries depend only on `items.len()` and `shards`, and each
/// worker owns a disjoint output row, so the combined output is a pure
/// function of the inputs — bit-identical for every thread count. The
/// canonical use is per-shard count/histogram rows that the caller then
/// merges in fixed shard order.
///
/// # Panics
///
/// Panics if `shards == 0` or `out.len()` is not a positive multiple of
/// `shards`.
#[allow(
    clippy::disallowed_methods,
    reason = "par_nodes owns the scoped pool; its index-order contract keeps runs bit-identical to sequential"
)]
pub fn par_zip_shards<A, B, F>(items: &[A], out: &mut [B], shards: usize, f: F)
where
    A: Sync,
    B: Send,
    F: Fn(usize, &[A], &mut [B]) + Sync,
{
    assert!(shards > 0, "shard count must be positive");
    assert_eq!(
        out.len() % shards,
        0,
        "output length must be a multiple of the shard count"
    );
    let row = out.len() / shards;
    assert!(row > 0, "output rows must be non-empty");
    if shards == 1 {
        f(0, items, out);
        return;
    }
    let chunk = items.len().div_ceil(shards).max(1);
    std::thread::scope(|scope| {
        for (i, out_row) in out.chunks_mut(row).enumerate() {
            let lo = (i * chunk).min(items.len());
            let hi = ((i + 1) * chunk).min(items.len());
            let slice = &items[lo..hi];
            let f = &f;
            scope.spawn(move || f(i, slice, out_row));
        }
    });
}

/// Runs `f(shard_index, a_chunk, b_chunk)` over two mutable buffers split
/// at caller-chosen shard boundaries: `a_cuts` and `b_cuts` are aligned
/// monotone position tables of length `shards + 1`, starting at 0 and
/// ending at the respective buffer length.
///
/// The chunks of each buffer are disjoint by construction, so the workers
/// need no synchronization beyond the scope join. Determinism is the
/// caller's contract: each output cell must depend only on the inputs, not
/// on the shard boundaries — the runtime's sharded scatter satisfies this
/// by giving every destination range exactly one worker.
///
/// # Panics
///
/// Panics if the cut tables disagree in length, describe fewer than one
/// shard, or do not span their buffers exactly.
#[allow(
    clippy::disallowed_methods,
    reason = "par_nodes owns the scoped pool; its index-order contract keeps runs bit-identical to sequential"
)]
pub fn par_scatter_shards<A, B, F>(
    a: &mut [A],
    a_cuts: &[usize],
    b: &mut [B],
    b_cuts: &[usize],
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a_cuts.len(), b_cuts.len(), "cut tables must align");
    let shards = a_cuts.len().saturating_sub(1);
    assert!(shards > 0, "cut tables need at least one shard");
    assert_eq!(a_cuts[0], 0, "first cut must start the buffer");
    assert_eq!(b_cuts[0], 0, "first cut must start the buffer");
    assert_eq!(a_cuts[shards], a.len(), "last cut must end the buffer");
    assert_eq!(b_cuts[shards], b.len(), "last cut must end the buffer");
    if shards == 1 {
        f(0, a, b);
        return;
    }
    std::thread::scope(|scope| {
        let mut a_rest = a;
        let mut b_rest = b;
        for i in 0..shards {
            let (a_chunk, a_tail) = a_rest.split_at_mut(a_cuts[i + 1] - a_cuts[i]);
            let (b_chunk, b_tail) = b_rest.split_at_mut(b_cuts[i + 1] - b_cuts[i]);
            a_rest = a_tail;
            b_rest = b_tail;
            let f = &f;
            scope.spawn(move || f(i, a_chunk, b_chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let out = par_map_nodes(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_nodes(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_nodes(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn explicit_pool_matches_sequential() {
        // Force a real pool even on single-core CI, and compare against the
        // forced-sequential path on a closure with non-trivial per-index
        // state (a counter-addressed hash, like the shared randomness).
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        set_thread_override(Some(4));
        let parallel = par_map_nodes(1000, f);
        set_thread_override(Some(1));
        let sequential = par_map_nodes(1000, f);
        set_thread_override(None);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn more_threads_than_items() {
        set_thread_override(Some(16));
        let out = par_map_nodes(3, |i| i);
        set_thread_override(None);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zip_shards_cover_items_and_rows_disjointly() {
        // 10 items histogrammed mod 4 into 3 shard rows, then merged:
        // identical to the sequential histogram regardless of sharding.
        let items: Vec<usize> = (0..10).collect();
        for shards in [1usize, 2, 3] {
            let mut rows = vec![0u32; shards * 4];
            par_zip_shards(&items, &mut rows, shards, |_, chunk, row| {
                for &x in chunk {
                    row[x % 4] += 1;
                }
            });
            let mut merged = [0u32; 4];
            for s in 0..shards {
                for d in 0..4 {
                    merged[d] += rows[s * 4 + d];
                }
            }
            assert_eq!(merged, [3, 3, 2, 2], "shards={shards}");
        }
    }

    #[test]
    fn zip_shards_with_empty_items() {
        let items: Vec<u8> = Vec::new();
        let mut rows = vec![0u32; 6];
        par_zip_shards(&items, &mut rows, 3, |_, chunk, _| {
            assert!(chunk.is_empty());
        });
        assert_eq!(rows, vec![0; 6]);
    }

    #[test]
    fn scatter_shards_write_disjoint_aligned_chunks() {
        let mut a = vec![0usize; 10];
        let mut b = vec![0usize; 5];
        let a_cuts = [0usize, 4, 4, 10];
        let b_cuts = [0usize, 1, 3, 5];
        par_scatter_shards(&mut a, &a_cuts, &mut b, &b_cuts, |i, ac, bc| {
            for slot in ac.iter_mut() {
                *slot = i + 1;
            }
            for slot in bc.iter_mut() {
                *slot = 10 * (i + 1);
            }
        });
        assert_eq!(a, vec![1, 1, 1, 1, 3, 3, 3, 3, 3, 3]);
        assert_eq!(b, vec![10, 20, 20, 30, 30]);
    }

    #[test]
    #[should_panic(expected = "last cut must end the buffer")]
    fn scatter_shards_reject_short_cut_tables() {
        let mut a = vec![0u8; 4];
        let mut b = vec![0u8; 4];
        par_scatter_shards(&mut a, &[0, 3], &mut b, &[0, 4], |_, _, _| {});
    }
}
