//! Round-buffer recycling: every allocation the round hot path needs.
//!
//! [`crate::runtime::Round::send`] and [`crate::runtime::Round::deliver`]
//! are the simulator's hottest code. All the storage they use is acquired
//! here, from two pools, so a warmed round makes no heap allocation at all
//! (measured by `crates/sim/tests/steady_state_alloc.rs`):
//!
//! * [`RoundBuffers`] — owned by [`crate::runtime::RoundCore`], recycles
//!   the outbox arena, the per-destination count/offset/cursor tables,
//!   the [`PairBits`] per-pair budget tracker, the sender lists and index
//!   of [`crate::runtime::Round::exchange_with_neighbors`], and the sharded
//!   transport's decoded tables and frame buffers across rounds. After the first round of a
//!   steady-state loop, opening and closing a round performs no heap
//!   allocation (the way `drive_with_checkpoints` already recycles its
//!   encode buffer).
//! * [`ArenaPool`] — shared (behind `Arc<Mutex<..>>`) between the core and
//!   the [`crate::runtime::Inboxes`] values `deliver` returns, so inbox
//!   storage flows back to the engine when the algorithm drops a round's
//!   inboxes, even though the `Inboxes` outlives the `Round`'s borrow.
//!
//! Message types differ per round (`Round<T, M>` is generic), so recycled
//! outboxes, sender lists and arenas are stored type-erased as
//! `Box<dyn Any + Send>` and reclaimed by downcast — all in safe Rust
//! (`M: Send + 'static`). The boxes themselves stay in the pool: taking a
//! buffer moves the `Vec` out of its box, retiring moves one back in.

use std::any::Any;
use std::mem;
use std::sync::{Arc, Mutex};

use cc_mis_graph::NodeId;

use crate::bits::{idx_u32, pair_key};

/// How many type-erased outboxes and arenas each pool retains. Two is
/// enough for every in-tree pattern (at most one live `Inboxes` per engine
/// plus one in flight); the cap bounds memory when many message types
/// alternate. Only `deliver` fills an arena: the neighbour exchange's pull
/// path needs none, and its push path drops the inboxes it visits before
/// returning, so a Theorem 1.1 phase holds no arena across its rounds.
const POOL_RETAIN: usize = 2;

/// How many type-erased sender lists of the neighbour exchange (and,
/// apart, decoded tables of framed rounds) the pool retains: one per
/// message type of a Theorem 1.1 phase. A sender list holds at most one
/// entry per node, so keeping three costs `O(n)`; a decoded table holds
/// one entry per message of one shard's largest framed `deliver`, or one
/// per sender of a framed exchange.
const SENT_RETAIN: usize = 3;

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
/// its type, boxing a new slot only while fewer than `retain` exist.
/// Unallocated vectors are dropped: keeping them saves nothing.
fn retire_erased<T: Send + 'static>(slots: &mut ErasedSlots, v: Vec<T>, retain: usize) {
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
        None if retained < retain => slots.push(Box::new(v)),
        None => {}
    }
}

/// Per-round, per-ordered-pair cumulative bits: the budget tracker behind
/// [`crate::runtime::Round::send`], the same for every transport.
///
/// A round only ever uses the pairs it sends on, `O(m)` of them, never the
/// `n²` a pair-indexed array would zero. Every round loop in the codebase
/// enqueues messages with non-decreasing packed keys (sources ascend, each
/// source's destinations ascend), and while that holds the tracker keeps
/// one `u64` run total per distinct pair and the current pair's key: a
/// send is one or two compares against `last`. The other keys need no
/// storage, because they are already in the round's outbox.
///
/// The first out-of-order send switches to table mode: the earlier keys are
/// recovered from the outbox (each run of equal consecutive `(src, dst)`
/// entries is one `totals` entry) and a Fibonacci-hashed linear-probe table
/// maps keys to `totals` positions from then on.
///
/// That recovery rests on one invariant, kept by the caller: a send is
/// [`PairBits::commit`]ted if and only if it is pushed to the outbox. The
/// budget check reads [`PairBits::used`] first, which records nothing, so a
/// strict-mode rejection leaves both untouched.
///
/// [`PairBits::clear`] retains every vector's capacity, so a pooled
/// instance re-enters the monotone fast path each round without
/// reallocating.
#[derive(Debug, Default)]
pub(crate) struct PairBits {
    /// Cumulative bits of each distinct pair committed this round, in first
    /// commit order.
    totals: Vec<u64>,
    /// Monotone mode: key of the pair committed last, or 0 before the
    /// first commit (`pair_key(0, 0)` is self-addressed, so never a real
    /// key). Table mode: `PAIR_EMPTY`, above every real key, so both
    /// in-order compares fail and every send takes the table path.
    last: u64,
    /// Largest committed total. Totals only grow within a round, so this is
    /// the round's peak per-pair load.
    peak: u64,
    /// Table mode only: the key of each `totals` entry.
    log_keys: Vec<u64>,
    /// Table mode only: probe table over packed keys; `u64::MAX` marks an
    /// empty slot (unreachable as a real key because `src == dst` is
    /// rejected). Empty while the round is in monotone mode.
    keys: Vec<u64>,
    /// `totals` position for each occupied `keys` slot.
    idxs: Vec<u32>,
}

const PAIR_EMPTY: u64 = u64::MAX;

impl PairBits {
    #[inline]
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the shift keeps trailing_zeros(keys.len()) bits, so the value is below keys.len()"
    )]
    fn slot(keys: &[u64], key: u64) -> usize {
        // Fibonacci hashing; table capacity is a power of two.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - keys.len().trailing_zeros())) as usize
    }

    /// Bits already committed on the pair `key` this round (0 if none).
    /// Records nothing; `outbox` is the round's outbox, read only when this
    /// is the round's first out-of-order key.
    #[inline]
    pub(crate) fn used<M>(&mut self, key: u64, outbox: &[(NodeId, NodeId, M)]) -> u64 {
        if key > self.last {
            return 0;
        }
        if key == self.last {
            return self.totals[self.totals.len() - 1];
        }
        self.used_slow(key, outbox)
    }

    /// `used` off the in-order path: table mode, or the round's first
    /// out-of-order key, which builds the table.
    #[cold]
    fn used_slow<M>(&mut self, key: u64, outbox: &[(NodeId, NodeId, M)]) -> u64 {
        if self.keys.is_empty() {
            self.build_table(outbox);
        }
        let i = self.probe(key);
        if self.keys[i] == key {
            self.totals[self.idxs[i] as usize]
        } else {
            0
        }
    }

    /// Records `total` as the pair's cumulative bits. Must follow
    /// [`PairBits::used`] for the same key, and goes with exactly one push
    /// to the outbox.
    #[inline]
    pub(crate) fn commit(&mut self, key: u64, total: u64) {
        self.peak = self.peak.max(total);
        if key > self.last {
            self.totals.push(total);
            self.last = key;
        } else if key == self.last {
            let at = self.totals.len() - 1;
            self.totals[at] = total;
        } else {
            self.commit_table(key, total);
        }
    }

    #[cold]
    fn commit_table(&mut self, key: u64, total: u64) {
        if self.totals.len() * 4 >= self.keys.len() * 3 {
            self.rebuild(self.keys.len() * 2);
        }
        let i = self.probe(key);
        if self.keys[i] == key {
            self.totals[self.idxs[i] as usize] = total;
        } else {
            self.keys[i] = key;
            self.idxs[i] = idx_u32(self.totals.len());
            self.log_keys.push(key);
            self.totals.push(total);
        }
    }

    /// Table-mode probe: the slot holding `key`, or the empty slot where it
    /// would go.
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = Self::slot(&self.keys, key);
        while self.keys[i] != key && self.keys[i] != PAIR_EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Leaves the monotone fast path: recovers the key of every `totals`
    /// entry from the outbox, then indexes them all.
    #[cold]
    fn build_table<M>(&mut self, outbox: &[(NodeId, NodeId, M)]) {
        self.log_keys.clear();
        for &(src, dst, _) in outbox {
            let key = pair_key(src.raw(), dst.raw());
            if self.log_keys.last() != Some(&key) {
                self.log_keys.push(key);
            }
        }
        debug_assert_eq!(
            self.log_keys.len(),
            self.totals.len(),
            "one outbox run per committed pair"
        );
        self.rebuild(((self.totals.len() + 1) * 2).next_power_of_two().max(64));
        self.last = PAIR_EMPTY;
    }

    #[cold]
    fn rebuild(&mut self, cap: usize) {
        // clear + resize (not `vec![..]`) so a pooled table's allocation is
        // reused when the new capacity fits it.
        self.keys.clear();
        self.keys.resize(cap, PAIR_EMPTY);
        self.idxs.clear();
        self.idxs.resize(cap, 0);
        for (at, &key) in self.log_keys.iter().enumerate() {
            let i = self.probe(key);
            self.keys[i] = key;
            self.idxs[i] = idx_u32(at);
        }
    }

    /// Largest cumulative per-pair load committed this round.
    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    /// Forgets this round's pairs but keeps all capacity, returning to the
    /// monotone (table-free) fast path.
    pub(crate) fn clear(&mut self) {
        self.totals.clear();
        self.last = 0;
        self.peak = 0;
        self.log_keys.clear();
        self.keys.clear();
        self.idxs.clear();
    }
}

/// Per-core recycled storage for the round hot path. Everything here is
/// scratch: no field carries information across rounds, only capacity.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    /// Per-destination message counts (`u32`; message counts per round are
    /// checked to fit via [`idx_u32`] before use). All 0 between rounds:
    /// every round clears the entries it wrote before retiring the table,
    /// so opening a round never refills it.
    pub(crate) counts: Vec<u32>,
    /// Per-destination write cursors for the counting scatter.
    pub(crate) cursors: Vec<u32>,
    /// Destination-range shard boundaries (parallel delivery).
    pub(crate) dst_cuts: Vec<usize>,
    /// Arena-position shard boundaries (parallel delivery).
    pub(crate) arena_cuts: Vec<usize>,
    /// Per-pair budget tracker, cleared (capacity kept) between rounds.
    pair_bits: PairBits,
    /// Retired outboxes (`Vec<(NodeId, NodeId, M)>`), type-erased.
    outboxes: ErasedSlots,
    /// Retired sender lists of the neighbour exchange
    /// (`Vec<(NodeId, u64, M)>`), type-erased.
    sent: ErasedSlots,
    /// Per-node position in the neighbour exchange's sender list.
    pub(crate) sender_at: Vec<u32>,
    /// Retired decoded `ROUND` tables of framed rounds
    /// (`Vec<(NodeId, M)>`), type-erased.
    tables: ErasedSlots,
    /// Retired frame byte buffers for the sharded transport (request
    /// frames and receive scratch).
    frames: Vec<Vec<u8>>,
    /// Inbox arenas shared with the `Inboxes` values rounds return.
    pub(crate) arena_pool: Arc<Mutex<ArenaPool>>,
}

/// How many retired frame buffers the pool retains. A framed round holds
/// two at once (request frame, receive scratch), so retaining two makes
/// steady-state framed rounds allocation-free.
const FRAME_RETAIN: usize = 2;

impl RoundBuffers {
    /// The pooled per-pair budget tracker (already cleared).
    pub(crate) fn take_pair_bits(&mut self) -> PairBits {
        mem::take(&mut self.pair_bits)
    }

    /// Returns the per-pair budget tracker, clearing it but keeping
    /// capacity.
    pub(crate) fn retire_pair_bits(&mut self, mut pair_bits: PairBits) {
        pair_bits.clear();
        self.pair_bits = pair_bits;
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
        retire_erased(&mut self.outboxes, outbox, POOL_RETAIN);
    }

    /// A recycled (empty) sender list for message type `M`.
    pub(crate) fn take_sent<M: Send + 'static>(&mut self) -> Vec<(NodeId, u64, M)> {
        take_erased(&mut self.sent)
    }

    /// Retires a sender list, keeping its allocation.
    pub(crate) fn retire_sent<M: Send + 'static>(&mut self, mut sent: Vec<(NodeId, u64, M)>) {
        sent.clear();
        retire_erased(&mut self.sent, sent, SENT_RETAIN);
    }

    /// A recycled (empty) decoded `ROUND` table for message type `M`.
    pub(crate) fn take_table<M: Send + 'static>(&mut self) -> Vec<(NodeId, M)> {
        take_erased(&mut self.tables)
    }

    /// Retires a decoded `ROUND` table, keeping its allocation.
    pub(crate) fn retire_table<M: Send + 'static>(&mut self, mut table: Vec<(NodeId, M)>) {
        table.clear();
        retire_erased(&mut self.tables, table, SENT_RETAIN);
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
        retire_erased(&mut self.arenas, arena, POOL_RETAIN);
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

    /// Commits `(src, dst, bits)` sends the way `Round::send` does: read,
    /// commit, push to the outbox.
    fn send_all(
        pb: &mut PairBits,
        outbox: &mut Vec<(NodeId, NodeId, ())>,
        sends: &[(u32, u32, u64)],
    ) {
        for &(src, dst, bits) in sends {
            let key = pair_key(src, dst);
            let total = pb.used(key, outbox) + bits;
            pb.commit(key, total);
            outbox.push((NodeId::new(src), NodeId::new(dst), ()));
        }
    }

    #[test]
    fn pair_bits_monotone_then_table() {
        let mut pb = PairBits::default();
        let mut outbox = Vec::new();
        send_all(&mut pb, &mut outbox, &[(0, 5, 8), (0, 5, 1), (0, 9, 4)]);
        assert!(pb.keys.is_empty(), "monotone sends build no table");
        assert_eq!(pb.totals, [9, 4]);
        // Out of order: recovers keys from the outbox runs, keeps both tallies.
        send_all(&mut pb, &mut outbox, &[(0, 5, 1)]);
        assert!(!pb.keys.is_empty());
        assert_eq!(pb.used(pair_key(0, 5), &outbox), 10);
        assert_eq!(pb.used(pair_key(0, 9), &outbox), 4);
        assert_eq!(pb.used(pair_key(1, 0), &outbox), 0);
        assert_eq!(pb.peak(), 10);
    }

    #[test]
    fn pair_bits_clear_keeps_capacity_and_resets_tallies() {
        let mut pb = PairBits::default();
        let mut outbox = Vec::new();
        let sends: Vec<(u32, u32, u64)> = (0..100u32).rev().map(|v| (v, v + 1, 1)).collect();
        send_all(&mut pb, &mut outbox, &sends);
        let (totals_cap, keys_cap) = (pb.totals.capacity(), pb.keys.capacity());
        pb.clear();
        assert_eq!(pb.peak(), 0);
        assert!(pb.keys.is_empty(), "clear returns to the monotone path");
        assert_eq!(pb.totals.capacity(), totals_cap);
        assert_eq!(pb.keys.capacity(), keys_cap);
        assert_eq!(pb.used(pair_key(7, 8), &[] as &[(NodeId, NodeId, ())]), 0);
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
        retire_erased(&mut slots, vec![7u32], POOL_RETAIN);
        let v: Vec<u32> = take_erased(&mut slots);
        assert_eq!(v, [7]);
        assert_eq!(slots.len(), 1, "the box stays while its Vec is lent out");
        retire_erased(&mut slots, v, POOL_RETAIN);
        assert_eq!(slots.len(), 1, "retiring refills the lent-out slot");
        retire_erased(&mut slots, vec![1u8], POOL_RETAIN);
        retire_erased(&mut slots, vec![1u16], POOL_RETAIN);
        assert_eq!(slots.len(), POOL_RETAIN);
        let dropped: Vec<u16> = take_erased(&mut slots);
        assert_eq!(dropped.capacity(), 0, "a type past the cap is not retained");
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
