//! Round-buffer recycling: every allocation the round hot path needs.
//!
//! [`crate::runtime::Round::send`] and [`crate::runtime::Round::deliver`]
//! are the simulator's hottest code. All the storage they use is acquired
//! here, from two pools, so a warmed round makes no heap allocation at all
//! (measured by `crates/sim/tests/steady_state_alloc.rs`):
//!
//! * [`RoundBuffers`] — owned by [`crate::runtime::RoundCore`], recycles
//!   the outbox arena, the per-destination count/offset/cursor tables, the
//!   dense per-pair load array, and the sparse [`PairBits`] log across
//!   rounds. After the first round of a steady-state loop, opening and
//!   closing a round performs no heap allocation (the way
//!   `drive_with_checkpoints` already recycles its encode buffer).
//! * [`ArenaPool`] — shared (behind `Arc<Mutex<..>>`) between the core and
//!   the [`crate::runtime::Inboxes`] values `deliver` returns, so inbox
//!   storage flows back to the engine when the algorithm drops a round's
//!   inboxes, even though the `Inboxes` outlives the `Round`'s borrow.
//!
//! Message types differ per round (`Round<T, M>` is generic), so recycled
//! outboxes and arenas are stored type-erased as `Box<dyn Any + Send>` and
//! reclaimed by downcast — all in safe Rust (`M: Send + 'static`). The
//! boxes themselves stay in the pool: taking a buffer moves the `Vec` out
//! of its box, retiring moves one back in.

use std::any::Any;
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cc_mis_graph::NodeId;

use crate::bits::idx_u32;

/// Default largest node count for which the clique transport uses the dense
/// per-pair `u64` load array (`n²` words; 2048 ⇒ 32 MiB). Beyond this the
/// round falls back to the sparse [`PairBits`] path, which scales with the
/// number of *distinct* pairs actually used.
///
/// The effective cutoff is [`dense_pair_max`]; both accounting paths charge
/// identical per-pair totals (pinned by the boundary test below), so the
/// cutoff is purely a space/time trade, never a semantics knob.
pub const DENSE_PAIR_MAX_DEFAULT: usize = 2048;

/// In-process cutoff override; `0` means "not set".
static DENSE_PAIR_MAX_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the dense-pair cutoff for subsequent rounds in this process,
/// taking precedence over `CC_MIS_DENSE_PAIR_MAX`. `None` clears the
/// override. Because the dense and sparse paths account identically, this
/// changes memory use only, never results.
pub fn set_dense_pair_max_override(max_nodes: Option<usize>) {
    DENSE_PAIR_MAX_OVERRIDE.store(max_nodes.unwrap_or(0), Ordering::Relaxed);
}

/// The effective dense-pair cutoff: the in-process override if set (values
/// ≥ 1), else `CC_MIS_DENSE_PAIR_MAX` (unparsable values fall back to the
/// default; `0` forces the sparse path for every graph), else
/// [`DENSE_PAIR_MAX_DEFAULT`]. The environment is read once per process;
/// every round calls this, and the override is still checked first.
pub fn dense_pair_max() -> usize {
    let ov = DENSE_PAIR_MAX_OVERRIDE.load(Ordering::Relaxed);
    if ov >= 1 {
        return ov;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| crate::config::env_dense_pair_max().unwrap_or(DENSE_PAIR_MAX_DEFAULT))
}

/// How many type-erased buffer slots each pool retains. Two is enough
/// for every in-tree pattern (at most one live `Inboxes` per engine plus
/// one in flight); the cap bounds memory when many message types alternate.
const POOL_RETAIN: usize = 2;

/// Type-erased buffer slots, each a boxed `Vec<T>` for some `T`. A slot
/// whose `Vec` has no capacity is lent out (or was never filled).
type ErasedSlots = Vec<Box<dyn Any + Send>>;

/// Moves a recycled `Vec<T>` out of the first filled slot of that type,
/// leaving the (empty) box in place; a fresh empty `Vec` if there is none.
fn take_erased<T: Send + 'static>(slots: &mut ErasedSlots) -> Vec<T> {
    slots
        .iter_mut()
        .filter_map(|slot| slot.downcast_mut::<Vec<T>>())
        .find(|v| v.capacity() > 0)
        .map(mem::take)
        .unwrap_or_default()
}

/// Moves `v` (contents as the caller left them) back into an empty slot of
/// its type, boxing a new slot only while fewer than [`POOL_RETAIN`]
/// exist. Unallocated vectors are dropped: keeping them saves nothing.
fn retire_erased<T: Send + 'static>(slots: &mut ErasedSlots, v: Vec<T>) {
    if v.capacity() == 0 {
        return;
    }
    let retained = slots.len();
    let empty = slots
        .iter_mut()
        .filter_map(|slot| slot.downcast_mut::<Vec<T>>())
        .find(|slot| slot.capacity() == 0);
    match empty {
        Some(slot) => *slot = v,
        None if retained < POOL_RETAIN => slots.push(Box::new(v)),
        None => {}
    }
}

/// Map from packed `(src, dst)` keys to cumulative bits, used for per-round
/// budget enforcement on transports without a dense pair domain (CONGEST).
///
/// Every round loop in the codebase enqueues messages with non-decreasing
/// packed keys (sources ascend, each source's destinations ascend), so in the
/// common case pair membership is a single compare against the last `log`
/// entry and no hash table exists at all — sends touch only the tail of a
/// sequentially written vector instead of probing a multi-megabyte table.
/// The Fibonacci-hashed linear-probe index is built lazily the first time a
/// round sends out of key order and maps keys to `log` positions thereafter.
///
/// [`PairBits::clear`] retains all three vectors' capacity, so a pooled
/// instance re-enters the monotone fast path each round without
/// reallocating.
#[derive(Debug, Default)]
pub(crate) struct PairBits {
    /// One `(packed key, cumulative bits)` entry per distinct pair seen this
    /// round, in arrival order.
    log: Vec<(u64, u64)>,
    /// Lazily built probe table over packed keys; `u64::MAX` marks an empty
    /// slot (unreachable as a real key because `src == dst` is rejected).
    keys: Vec<u64>,
    /// `log` position for each occupied `keys` slot.
    idxs: Vec<u32>,
}

const PAIR_EMPTY: u64 = u64::MAX;

impl PairBits {
    #[inline]
    fn slot(keys: &[u64], key: u64) -> usize {
        // Fibonacci hashing; table capacity is a power of two.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - keys.len().trailing_zeros())) as usize
    }

    /// The pair's cumulative-bits cell, inserted as 0 if absent — the
    /// caller checks the budget before committing the new total, so a
    /// rejected send consumes none of the pair's budget.
    #[inline]
    pub(crate) fn entry_or_zero(&mut self, key: u64) -> &mut u64 {
        if self.keys.is_empty() {
            match self.log.last() {
                Some(&(last, _)) if key < last => self.build_table(),
                Some(&(last, _)) if key == last => {
                    return &mut self
                        .log
                        .last_mut()
                        .expect("log tail exists: key matched it")
                        .1;
                }
                _ => {
                    self.log.push((key, 0));
                    return &mut self.log.last_mut().expect("log tail exists: just pushed").1;
                }
            }
        }
        self.lookup(key)
    }

    /// Table-mode path: probe for `key`, appending a fresh zero entry on miss.
    fn lookup(&mut self, key: u64) -> &mut u64 {
        if self.log.len() * 4 >= self.keys.len() * 3 {
            self.rebuild(self.keys.len() * 2);
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::slot(&self.keys, key);
        loop {
            let k = self.keys[i];
            if k == key {
                let at = self.idxs[i] as usize;
                return &mut self.log[at].1;
            }
            if k == PAIR_EMPTY {
                self.keys[i] = key;
                self.idxs[i] = idx_u32(self.log.len());
                self.log.push((key, 0));
                return &mut self.log.last_mut().expect("log tail exists: just pushed").1;
            }
            i = (i + 1) & mask;
        }
    }

    /// Leaves the monotone fast path: index every pair logged so far.
    #[cold]
    fn build_table(&mut self) {
        self.rebuild(((self.log.len() + 1) * 2).next_power_of_two().max(64));
    }

    #[cold]
    fn rebuild(&mut self, cap: usize) {
        // clear + resize (not `vec![..]`) so a pooled table's allocation is
        // reused when the new capacity fits it.
        self.keys.clear();
        self.keys.resize(cap, PAIR_EMPTY);
        self.idxs.clear();
        self.idxs.resize(cap, 0);
        let mask = cap - 1;
        for (at, &(k, _)) in self.log.iter().enumerate() {
            let mut i = Self::slot(&self.keys, k);
            while self.keys[i] != PAIR_EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.idxs[i] = idx_u32(at);
        }
    }

    /// Largest cumulative per-pair load committed this round (observer
    /// diagnostics; loads are monotone, so the final value is the peak).
    pub(crate) fn peak(&self) -> u64 {
        self.log.iter().map(|&(_, used)| used).max().unwrap_or(0)
    }

    /// Forgets this round's pairs but keeps all capacity, returning to the
    /// monotone (table-free) fast path.
    pub(crate) fn clear(&mut self) {
        self.log.clear();
        self.keys.clear();
        self.idxs.clear();
    }
}

/// Per-core recycled storage for the round hot path. Everything here is
/// scratch: no field carries information across rounds, only capacity.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    /// Per-destination message counts (`u32`; message counts per round are
    /// checked to fit via [`idx_u32`] before use).
    pub(crate) counts: Vec<u32>,
    /// Per-destination write cursors for the counting scatter.
    pub(crate) cursors: Vec<u32>,
    /// Destination-range shard boundaries (parallel delivery).
    pub(crate) dst_cuts: Vec<usize>,
    /// Arena-position shard boundaries (parallel delivery).
    pub(crate) arena_cuts: Vec<usize>,
    /// Dense per-pair load array. Invariant: all-zero between rounds (the
    /// round scrubs the entries it touched before retiring it).
    dense: Vec<u64>,
    /// Sparse per-pair load log, cleared (capacity kept) between rounds.
    sparse: PairBits,
    /// Retired outboxes (`Vec<(NodeId, NodeId, M)>`), type-erased.
    outboxes: ErasedSlots,
    /// Retired frame byte buffers for the sharded transport (round
    /// payloads, encoded frames, receive scratch).
    frames: Vec<Vec<u8>>,
    /// Inbox arenas shared with the `Inboxes` values rounds return.
    pub(crate) arena_pool: Arc<Mutex<ArenaPool>>,
}

/// How many retired frame buffers the pool retains. A framed delivery holds
/// four at once (round payload, encoded frame, receive scratch, message
/// scratch), so retaining four makes steady-state framed rounds
/// allocation-free.
const FRAME_RETAIN: usize = 4;

impl RoundBuffers {
    /// A dense load array of exactly `len` all-zero words.
    pub(crate) fn take_dense(&mut self, len: usize) -> Vec<u64> {
        let mut dense = mem::take(&mut self.dense);
        if dense.len() != len {
            dense.clear();
            dense.resize(len, 0);
        }
        dense
    }

    /// Returns a dense array whose touched entries the caller has zeroed.
    pub(crate) fn retire_dense(&mut self, dense: Vec<u64>) {
        self.dense = dense;
    }

    /// The pooled sparse pair log (already cleared).
    pub(crate) fn take_sparse(&mut self) -> PairBits {
        mem::take(&mut self.sparse)
    }

    /// Returns the sparse pair log, clearing it but keeping capacity.
    pub(crate) fn retire_sparse(&mut self, mut sparse: PairBits) {
        sparse.clear();
        self.sparse = sparse;
    }

    /// A recycled (empty) outbox for message type `M`, if one was retired.
    pub(crate) fn take_outbox<M: Send + 'static>(&mut self) -> Vec<(NodeId, NodeId, M)> {
        take_erased(&mut self.outboxes)
    }

    /// Retires an outbox, keeping its allocation for the next round of the
    /// same message type.
    pub(crate) fn retire_outbox<M: Send + 'static>(
        &mut self,
        mut outbox: Vec<(NodeId, NodeId, M)>,
    ) {
        outbox.clear();
        retire_erased(&mut self.outboxes, outbox);
    }

    /// A recycled (empty) frame byte buffer.
    pub(crate) fn take_frame(&mut self) -> Vec<u8> {
        self.frames.pop().unwrap_or_default()
    }

    /// Retires a frame buffer, keeping its allocation for later rounds.
    pub(crate) fn retire_frame(&mut self, mut frame: Vec<u8>) {
        frame.clear();
        if frame.capacity() > 0 && self.frames.len() < FRAME_RETAIN {
            self.frames.push(frame);
        }
    }
}

/// Pool of inbox arenas and offset tables, shared between a core and the
/// [`crate::runtime::Inboxes`] values its rounds have returned.
#[derive(Default)]
pub(crate) struct ArenaPool {
    arenas: ErasedSlots,
    offsets: Vec<Vec<u32>>,
}

impl ArenaPool {
    fn take_arena<M: Send + 'static>(&mut self) -> Vec<(NodeId, M)> {
        take_erased(&mut self.arenas)
    }

    fn take_offsets(&mut self) -> Vec<u32> {
        self.offsets.pop().unwrap_or_default()
    }

    /// Accepts an arena and offset table back from a dropped `Inboxes`.
    /// Stale arena contents are kept deliberately: a reused arena whose
    /// length already covers the next round is truncated and overwritten in
    /// place, skipping the filler pass entirely.
    pub(crate) fn retire<M: Send + 'static>(&mut self, arena: Vec<(NodeId, M)>, offsets: Vec<u32>) {
        retire_erased(&mut self.arenas, arena);
        if offsets.capacity() > 0 && self.offsets.len() < POOL_RETAIN {
            self.offsets.push(offsets);
        }
    }
}

/// Locks `pool` and takes one arena (for `M`) plus one offset table;
/// a poisoned lock (a panicking observer mid-drop) degrades to fresh
/// allocations rather than propagating the panic.
pub(crate) fn take_arena_parts<M: Send + 'static>(
    pool: &Arc<Mutex<ArenaPool>>,
) -> (Vec<(NodeId, M)>, Vec<u32>) {
    match pool.lock() {
        Ok(mut p) => (p.take_arena(), p.take_offsets()),
        Err(_) => (Vec::new(), Vec::new()),
    }
}

/// Resets `v` to `n` zeros, reusing its allocation.
pub(crate) fn reset_zeroed(v: &mut Vec<u32>, n: usize) {
    v.clear();
    v.resize(n, 0);
}

/// Sizes `arena` to exactly `m` entries. A long pooled arena is truncated
/// (every surviving slot is overwritten by the scatter); a short one grows
/// with `filler` clones, which the scatter likewise overwrites.
pub(crate) fn ensure_arena_len<M: Clone>(
    arena: &mut Vec<(NodeId, M)>,
    m: usize,
    filler: (NodeId, M),
) {
    arena.truncate(m);
    if arena.len() < m {
        arena.resize(m, filler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_bits_monotone_then_table() {
        let mut pb = PairBits::default();
        *pb.entry_or_zero(5) += 8;
        *pb.entry_or_zero(9) += 4;
        // Out of order: forces the probe table, which must keep both tallies.
        *pb.entry_or_zero(5) += 1;
        assert_eq!(*pb.entry_or_zero(5), 9);
        assert_eq!(*pb.entry_or_zero(9), 4);
        assert_eq!(pb.peak(), 9);
    }

    #[test]
    fn pair_bits_clear_keeps_capacity_and_resets_tallies() {
        let mut pb = PairBits::default();
        for k in (0..100u64).rev() {
            *pb.entry_or_zero(k) += 1;
        }
        let log_cap = pb.log.capacity();
        pb.clear();
        assert_eq!(pb.peak(), 0);
        assert!(pb.log.capacity() >= log_cap.min(100));
        assert_eq!(*pb.entry_or_zero(7), 0);
    }

    #[test]
    fn dense_pool_round_trips_zeroed() {
        let mut b = RoundBuffers::default();
        let mut d = b.take_dense(16);
        assert!(d.iter().all(|&w| w == 0));
        d[3] = 99;
        d[3] = 0; // caller scrubs before retiring
        b.retire_dense(d);
        let d2 = b.take_dense(16);
        assert!(d2.iter().all(|&w| w == 0));
    }

    #[test]
    fn outbox_pool_recycles_by_type() {
        let mut b = RoundBuffers::default();
        let mut o: Vec<(NodeId, NodeId, u32)> = b.take_outbox();
        o.push((NodeId::new(0), NodeId::new(1), 7));
        let cap = o.capacity();
        b.retire_outbox(o);
        // A different message type gets a fresh vector...
        let o_bool: Vec<(NodeId, NodeId, bool)> = b.take_outbox();
        assert_eq!(o_bool.capacity(), 0);
        // ...while the matching type gets the retired one back, empty.
        let o2: Vec<(NodeId, NodeId, u32)> = b.take_outbox();
        assert!(o2.is_empty());
        assert_eq!(o2.capacity(), cap);
    }

    #[test]
    fn erased_slots_are_reused_in_place_and_capped() {
        let mut slots = ErasedSlots::new();
        retire_erased(&mut slots, vec![7u32]);
        let v: Vec<u32> = take_erased(&mut slots);
        assert_eq!(v, [7]);
        assert_eq!(slots.len(), 1, "the box stays while its Vec is lent out");
        retire_erased(&mut slots, v);
        assert_eq!(slots.len(), 1, "retiring refills the lent-out slot");
        retire_erased(&mut slots, vec![1u8]);
        retire_erased(&mut slots, vec![1u16]);
        assert_eq!(slots.len(), POOL_RETAIN);
    }

    #[test]
    fn frame_pool_recycles_cleared_buffers() {
        let mut b = RoundBuffers::default();
        let mut f = b.take_frame();
        f.extend_from_slice(b"frame bytes");
        let cap = f.capacity();
        b.retire_frame(f);
        let f2 = b.take_frame();
        assert!(f2.is_empty());
        assert_eq!(f2.capacity(), cap);
        // The retention cap bounds the pool.
        for _ in 0..10 {
            b.retire_frame(vec![1u8]);
        }
        assert!(b.frames.len() <= FRAME_RETAIN);
    }

    #[test]
    fn arena_pool_round_trips() {
        let pool: Arc<Mutex<ArenaPool>> = Arc::default();
        let (mut arena, mut offsets): (Vec<(NodeId, u8)>, Vec<u32>) = take_arena_parts(&pool);
        arena.push((NodeId::new(0), 1));
        offsets.push(0);
        let cap = arena.capacity();
        pool.lock()
            .expect("pool lock is uncontended in this test")
            .retire(arena, offsets);
        let (arena2, offsets2): (Vec<(NodeId, u8)>, Vec<u32>) = take_arena_parts(&pool);
        assert_eq!(arena2.capacity(), cap);
        assert!(offsets2.capacity() >= 1);
    }

    #[test]
    fn ensure_arena_len_truncates_and_grows() {
        let mut arena: Vec<(NodeId, u8)> = vec![(NodeId::new(0), 1); 5];
        ensure_arena_len(&mut arena, 2, (NodeId::new(9), 9));
        assert_eq!(arena.len(), 2);
        ensure_arena_len(&mut arena, 4, (NodeId::new(9), 9));
        assert_eq!(arena.len(), 4);
        assert_eq!(arena[3], (NodeId::new(9), 9));
    }
}
