//! The unified round runtime shared by all three model engines.
//!
//! The paper's three communication models — CONGEST (§1, model (1)),
//! CONGESTED-CLIQUE (model (3)), and full-duplex beeping (§2.2) — run the
//! *same* synchronous round discipline and differ only in **which ordered
//! pairs may carry a message** and **what a round's budget means**. This
//! module factors that shared discipline into one place:
//!
//! * [`Transport`] — the per-model admissibility policy (any ordered pair
//!   for the clique, graph edges for CONGEST). The beeping model has no
//!   addressed links at all; its rounds are executed by [`beep_round`],
//!   which shares the same [`RoundCore`] accounting.
//! * [`RoundCore`] — owns the [`RoundLedger`], the [`Enforcement`] mode,
//!   the per-ordered-pair bandwidth budget, the recycled
//!   [`pool::RoundBuffers`], and the optional [`RoundObserver`]. **Every**
//!   `RoundLedger` charge in `crates/sim` happens here (enforced by
//!   conformance rule R9), so the accounting semantics cannot drift
//!   between engines.
//! * [`Round`] — one open synchronous round, generic over the transport
//!   and the message type. A warmed round makes no heap allocation
//!   (measured by `tests/steady_state_alloc.rs`): per-pair budget loads
//!   live in a dense `u64` array for the clique transport (word-level pair
//!   accounting) or the sparse pooled `PairBits` log for CONGEST, ledger
//!   charges are batched locally and flushed once per round, and delivery
//!   is a stable src-major counting scatter into a pooled arena — no
//!   per-inbox sort, no per-inbox allocation.
//! * [`Inboxes`] — the flat delivered-messages arena `deliver` returns,
//!   indexable per node as a slice; its storage flows back to the engine's
//!   pool on drop.
//! * [`RoundObserver`] / [`RoundEvent`] — a structured per-round trace
//!   hook, no-op by default. Observer-only quantities (max per-pair load,
//!   inbox-size histogram) are computed **only when an observer is
//!   attached**, so an unobserved run does no extra work.
//!
//! The concrete engines ([`crate::clique::CliqueEngine`],
//! [`crate::congest::CongestEngine`], [`crate::beeping::BeepingEngine`])
//! are thin instantiations of this core and keep their historical public
//! APIs.
//!
//! # Delivery-order and determinism invariants
//!
//! Delivery order is pinned: each inbox lists `(sender, message)` pairs
//! sorted by sender, ties (several messages on one ordered pair) in send
//! order. Every in-tree round loop enqueues src-major, so the counting
//! scatter produces that order directly; a round that sent out of source
//! order falls back to a stable per-inbox sort with the identical result.
//! When `par_nodes::thread_count() > 1` and the round is large, the
//! counting pass and the scatter run sharded on the deterministic pool:
//! per-shard count rows merge in fixed order and each worker writes a
//! disjoint arena range whose contents depend only on the outbox, so the
//! delivered bytes are identical for every thread count.

use std::cell::RefCell;
use std::fmt;
use std::mem;
use std::ops;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use cc_mis_graph::{Graph, NodeId};

use crate::bits::{idx_u32, pair_key};
use crate::metrics::{BandwidthError, RoundLedger};
use crate::par_nodes;
use crate::pool::{self, ArenaPool, PairBits, RoundBuffers};
use crate::shard::{self, Wire};

/// Enforcement mode for bandwidth budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Over-budget sends return [`BandwidthError`].
    Strict,
    /// Over-budget sends are delivered but tallied as violations — useful
    /// for measuring how close an algorithm runs to the budget.
    Audit,
}

/// The per-model link-admissibility policy: the *only* behavior that
/// differs between the clique and CONGEST engines.
///
/// | Model            | Transport                  | Admissible `(src, dst)`            |
/// |------------------|----------------------------|------------------------------------|
/// | CONGESTED-CLIQUE | [`CliqueTransport`]        | any ordered pair, `src != dst`     |
/// | CONGEST          | [`CongestTransport`]       | directed versions of graph edges   |
/// | beeping          | *(none — see [`beep_round`])* | 1-bit OR-broadcast to neighbors |
pub trait Transport {
    /// Number of nodes in the network.
    fn node_count(&self) -> usize;

    /// Checks whether `src -> dst` may carry a message in this model.
    fn check_link(&self, src: NodeId, dst: NodeId) -> Result<(), BandwidthError>;

    /// `Some(n)` when every admissible pair fits the dense `n * n` load
    /// array (word-level pair accounting); `None` keeps the sparse
    /// `PairBits` path. Dense transports with huge `n` are still clamped
    /// to sparse by [`pool::dense_pair_max`] (default
    /// [`pool::DENSE_PAIR_MAX_DEFAULT`], env `CC_MIS_DENSE_PAIR_MAX`).
    fn dense_pair_domain(&self) -> Option<usize> {
        None
    }
}

/// Transport of the congested clique: every ordered pair of distinct,
/// in-range nodes is a link.
#[derive(Debug, Clone, Copy)]
pub struct CliqueTransport {
    /// Number of nodes.
    pub n: usize,
}

impl Transport for CliqueTransport {
    fn node_count(&self) -> usize {
        self.n
    }

    fn check_link(&self, src: NodeId, dst: NodeId) -> Result<(), BandwidthError> {
        if src == dst || src.index() >= self.n || dst.index() >= self.n {
            return Err(BandwidthError::InvalidLink {
                src: src.raw(),
                dst: dst.raw(),
            });
        }
        Ok(())
    }

    fn dense_pair_domain(&self) -> Option<usize> {
        Some(self.n)
    }
}

/// Transport of the CONGEST model: only directed versions of the graph's
/// edges are links.
#[derive(Debug, Clone, Copy)]
pub struct CongestTransport<'g> {
    /// The communication graph.
    pub graph: &'g Graph,
}

impl Transport for CongestTransport<'_> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn check_link(&self, src: NodeId, dst: NodeId) -> Result<(), BandwidthError> {
        let n = self.graph.node_count();
        if src.index() >= n || dst.index() >= n || !self.graph.has_edge(src, dst) {
            return Err(BandwidthError::InvalidLink {
                src: src.raw(),
                dst: dst.raw(),
            });
        }
        Ok(())
    }
}

/// One structured per-round trace event, emitted to a [`RoundObserver`]
/// when a round closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEvent {
    /// What closed the round: `"deliver"` (addressed round), `"beep"`
    /// (beeping round), `"idle"` (clock-only round), or `"bulk"` (an
    /// analytically scheduled block of rounds, e.g. the Lenzen router).
    pub kind: &'static str,
    /// Label of the ledger phase the round was charged to, if any.
    pub phase: Option<String>,
    /// Cumulative round index *after* this event (1-based; for `"bulk"`
    /// events the index after the whole block).
    pub round: u64,
    /// Messages charged by this round (or block of rounds).
    pub messages: u64,
    /// Bits charged by this round (or block of rounds).
    pub bits: u64,
    /// Largest cumulative per-ordered-pair bit load of the round. Computed
    /// only when an observer is attached; 0 for idle/beep/bulk rounds.
    pub max_pair_load: u64,
    /// Cumulative budget violations observed so far (audit mode).
    pub violations: u64,
    /// `(inbox size, node count)` pairs, ascending by size. Computed only
    /// when an observer is attached; empty for idle/beep/bulk rounds.
    pub inbox_histogram: Vec<(usize, usize)>,
}

/// Structured per-round trace hook. The default configuration has no
/// observer attached and pays nothing for the hook's existence.
pub trait RoundObserver {
    /// Called once per closed round (or per bulk-scheduled block).
    fn on_event(&mut self, event: &RoundEvent);
}

/// A shareable observer handle: one sink can watch several engines (e.g.
/// the CONGEST and beeping engines of the sparsified algorithm).
pub type SharedObserver = Rc<RefCell<dyn RoundObserver>>;

/// The transport-independent heart of an engine: bandwidth budget,
/// enforcement mode, ledger, recycled round buffers, and the optional
/// observer.
///
/// All `RoundLedger` charging in `crates/sim` funnels through this type
/// (conformance rule R9), which is what makes the "ledger accounting is
/// identical across engines" guarantee checkable.
pub struct RoundCore {
    bandwidth: u64,
    enforcement: Enforcement,
    ledger: RoundLedger,
    observer: Option<SharedObserver>,
    buffers: RoundBuffers,
    /// Sharding mode, latched at the first delivery (see [`shard::probe`]):
    /// direct in-process scatter, or framed delivery through a
    /// [`shard::ShardedTransport`] of worker shards.
    shards: shard::ShardSlot,
}

impl fmt::Debug for RoundCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundCore")
            .field("bandwidth", &self.bandwidth)
            .field("enforcement", &self.enforcement)
            .field("ledger", &self.ledger)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl RoundCore {
    /// Creates a core with the given per-round per-ordered-pair `bandwidth`
    /// (bits) and enforcement mode.
    pub fn new(bandwidth: u64, enforcement: Enforcement) -> Self {
        RoundCore {
            bandwidth,
            enforcement,
            ledger: RoundLedger::new(),
            observer: None,
            buffers: RoundBuffers::default(),
            shards: shard::ShardSlot::default(),
        }
    }

    /// Per-round per-ordered-pair bit budget.
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// The enforcement mode.
    pub fn enforcement(&self) -> Enforcement {
        self.enforcement
    }

    /// The accumulated communication ledger.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (for phase labeling).
    pub fn ledger_mut(&mut self) -> &mut RoundLedger {
        &mut self.ledger
    }

    /// Consumes the core, returning the final ledger.
    pub fn into_ledger(self) -> RoundLedger {
        self.ledger
    }

    /// Attaches a per-round observer (replacing any previous one).
    pub fn attach_observer(&mut self, observer: SharedObserver) {
        self.observer = Some(observer);
    }

    /// Whether an observer is attached (observer-only diagnostics are
    /// skipped entirely when this is false).
    pub fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// Advances the clock by one message-free round.
    pub fn idle_round(&mut self) {
        let start_messages = self.ledger.messages;
        let start_bits = self.ledger.bits;
        self.ledger.charge_round();
        self.emit("idle", 0, Vec::new(), start_messages, start_bits);
    }

    /// Records an analytically scheduled block of `rounds` rounds carrying
    /// `messages` messages of `bits` total bits (the Lenzen scheduler
    /// accounts whole batches at once; one ledger message per fragment
    /// keeps message counts honest).
    pub fn record_schedule(&mut self, rounds: u64, messages: u64, bits: u64) {
        self.ledger.charge_rounds(rounds);
        self.ledger.charge_fragments(messages, bits);
        self.emit_raw("bulk", messages, bits, 0, Vec::new());
    }

    /// Closes a round: one clock tick, then a trace event whose message and
    /// bit counts are the deltas since the round opened.
    fn finish_round(
        &mut self,
        kind: &'static str,
        max_pair_load: u64,
        inbox_histogram: Vec<(usize, usize)>,
        start_messages: u64,
        start_bits: u64,
    ) {
        self.ledger.charge_round();
        self.emit(
            kind,
            max_pair_load,
            inbox_histogram,
            start_messages,
            start_bits,
        );
    }

    fn emit(
        &mut self,
        kind: &'static str,
        max_pair_load: u64,
        inbox_histogram: Vec<(usize, usize)>,
        start_messages: u64,
        start_bits: u64,
    ) {
        let messages = self.ledger.messages - start_messages;
        let bits = self.ledger.bits - start_bits;
        self.emit_raw(kind, messages, bits, max_pair_load, inbox_histogram);
    }

    fn emit_raw(
        &mut self,
        kind: &'static str,
        messages: u64,
        bits: u64,
        max_pair_load: u64,
        inbox_histogram: Vec<(usize, usize)>,
    ) {
        if let Some(observer) = &self.observer {
            let event = RoundEvent {
                kind,
                phase: self.ledger.phases.last().map(|p| p.label.clone()),
                round: self.ledger.rounds,
                messages,
                bits,
                max_pair_load,
                violations: self.ledger.violations,
                inbox_histogram,
            };
            observer.borrow_mut().on_event(&event);
        }
    }
}

/// Per-round per-ordered-pair cumulative bit loads: a flat `u64` word per
/// pair when the transport's pair domain is dense (clique), the pooled
/// sparse log otherwise (CONGEST, whose pair set is the edge set).
#[derive(Debug)]
enum PairLoads {
    /// `loads[src.index() * n + dst.index()]` — one word per ordered pair.
    Dense { loads: Vec<u64>, n: usize },
    /// Monotone log with lazy probe-table fallback (see [`PairBits`]).
    Sparse(PairBits),
}

impl Default for PairLoads {
    fn default() -> Self {
        PairLoads::Sparse(PairBits::default())
    }
}

/// Minimum outbox size for the sharded (parallel) delivery path: below
/// this the scoped-pool spawn overhead exceeds the scatter itself.
const PAR_DELIVER_MIN_MESSAGES: usize = 1 << 13;

/// One open synchronous round, generic over the transport and the message
/// type. Dropping the round without calling [`Round::deliver`] discards it
/// without advancing the clock (sent messages still tally as attempts).
#[derive(Debug)]
pub struct Round<'a, T, M: Send + 'static> {
    core: &'a mut RoundCore,
    transport: T,
    outbox: Vec<(NodeId, NodeId, M)>,
    loads: PairLoads,
    /// Per-destination message counts, maintained incrementally by `send`
    /// (the table is node-count sized and cache-resident, so counting at
    /// send time is cheaper than re-reading the whole outbox at close).
    counts: Vec<u32>,
    /// True while sends have arrived with non-decreasing sources — the
    /// common case, in which the counting scatter needs no sort at all.
    src_monotone: bool,
    last_src: u32,
    /// Ledger charges batched per round and flushed once at close (or on
    /// drop), replacing one ledger call per send on the hot path.
    pending_messages: u64,
    pending_bits: u64,
    pending_violations: u64,
    /// Set by `deliver` so the drop glue knows the buffers are already
    /// retired and the charges flushed.
    finished: bool,
    start_messages: u64,
    start_bits: u64,
}

impl<'a, T: Transport, M: Send + 'static> Round<'a, T, M> {
    /// Opens a round on `core` over `transport`.
    pub(crate) fn begin(core: &'a mut RoundCore, transport: T) -> Self {
        let start_messages = core.ledger.messages;
        let start_bits = core.ledger.bits;
        let loads = match transport.dense_pair_domain() {
            Some(n) if n <= pool::dense_pair_max() => PairLoads::Dense {
                loads: core.buffers.take_dense(n * n),
                n,
            },
            _ => PairLoads::Sparse(core.buffers.take_sparse()),
        };
        let outbox = core.buffers.take_outbox::<M>();
        let mut counts = mem::take(&mut core.buffers.counts);
        pool::reset_zeroed(&mut counts, transport.node_count());
        Round {
            core,
            transport,
            outbox,
            loads,
            counts,
            src_monotone: true,
            last_src: 0,
            pending_messages: 0,
            pending_bits: 0,
            pending_violations: 0,
            finished: false,
            start_messages,
            start_bits,
        }
    }

    /// Enqueues a message of `bits` encoded bits from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// * [`BandwidthError::InvalidLink`] if the transport does not admit
    ///   `src -> dst` (clique: `src == dst` or out of range; CONGEST: not
    ///   an edge).
    /// * [`BandwidthError::Exceeded`] (strict mode) if the pair's cumulative
    ///   bits this round would exceed the budget.
    #[inline]
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bits: u64,
        msg: M,
    ) -> Result<(), BandwidthError> {
        self.transport.check_link(src, dst)?;
        let used = match &mut self.loads {
            PairLoads::Dense { loads, n } => &mut loads[src.index() * *n + dst.index()],
            PairLoads::Sparse(pair_bits) => pair_bits.entry_or_zero(pair_key(src.raw(), dst.raw())),
        };
        let attempted = *used + bits;
        if attempted > self.core.bandwidth {
            match self.core.enforcement {
                Enforcement::Strict => {
                    return Err(BandwidthError::Exceeded {
                        src: src.raw(),
                        dst: dst.raw(),
                        attempted,
                        budget: self.core.bandwidth,
                    });
                }
                Enforcement::Audit => self.pending_violations += 1,
            }
        }
        *used = attempted;
        if src.raw() < self.last_src {
            self.src_monotone = false;
        }
        self.last_src = src.raw();
        self.pending_messages += 1;
        self.pending_bits += bits;
        self.counts[dst.index()] += 1;
        self.outbox.push((src, dst, msg));
        Ok(())
    }

    /// Number of messages enqueued so far this round.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }

    /// Observer-only diagnostics: peak per-pair load (word-at-a-time scan
    /// over the dense array; loads are monotone so final values are peaks)
    /// and the inbox-size histogram. Allocation happens only here, only
    /// when observing — `deliver` itself stays allocation-free.
    fn observer_stats(&self, counts: &[u32]) -> (u64, Vec<(usize, usize)>) {
        if !self.core.observing() {
            return (0, Vec::new());
        }
        let max = match &self.loads {
            PairLoads::Dense { loads, .. } => loads.iter().copied().max().unwrap_or(0),
            PairLoads::Sparse(pair_bits) => pair_bits.peak(),
        };
        (max, inbox_histogram(counts))
    }

    /// Closes the round: advances the clock and returns, for each node, the
    /// `(sender, message)` pairs it received, sorted by sender (see the
    /// module docs for the order pin). The inboxes reuse pooled storage;
    /// dropping them returns it to this engine's pool.
    pub fn deliver(mut self) -> Inboxes<M>
    where
        M: Clone + Sync + Wire,
    {
        let n = self.transport.node_count();
        let mut outbox = mem::take(&mut self.outbox);
        let m = outbox.len();
        let total = idx_u32(m);
        self.flush_charges();

        // Per-destination counts were maintained by `send`; the close is a
        // single pass over the outbox (the scatter below).
        let counts = mem::take(&mut self.counts);
        let threads = par_nodes::thread_count();
        let sharded = threads > 1 && m >= PAR_DELIVER_MIN_MESSAGES && n > 0;
        let shards = if sharded { threads.min(m) } else { 1 };

        // Observer-only diagnostics, read before the loads are scrubbed.
        let (max_pair_load, histogram) = self.observer_stats(&counts);

        // Scrub the dense load array back to all-zero (the pool invariant)
        // and retire the loads. Small rounds scrub per touched pair; big
        // rounds memset the whole array.
        match mem::take(&mut self.loads) {
            PairLoads::Dense { mut loads, n } => {
                if m * 4 >= loads.len() {
                    loads.fill(0);
                } else {
                    for &(src, dst, _) in &outbox {
                        loads[src.index() * n + dst.index()] = 0;
                    }
                }
                self.core.buffers.retire_dense(loads);
            }
            PairLoads::Sparse(pair_bits) => self.core.buffers.retire_sparse(pair_bits),
        }

        // Pass 2 — prefix offsets, then the stable src-major counting
        // scatter into the pooled arena.
        let (mut data, mut offsets) = pool::take_arena_parts::<M>(&self.core.buffers.arena_pool);
        pool::reset_zeroed(&mut offsets, n + 1);
        let mut acc = 0u32;
        for d in 0..n {
            offsets[d] = acc;
            acc += counts[d];
        }
        offsets[n] = acc;
        debug_assert_eq!(acc, total, "offsets must account for every message");
        if m == 0 {
            data.clear();
        } else {
            let filler = (outbox[0].0, outbox[0].2.clone());
            pool::ensure_arena_len(&mut data, m, filler);
        }
        let mut cursors = mem::take(&mut self.core.buffers.cursors);
        cursors.clear();
        cursors.extend_from_slice(&offsets[..n]);
        // Framed delivery: when a sharded transport is configured, the
        // scatter crosses the serialization boundary instead of running
        // in-process. The workers' shard-local counting scatters compose to
        // the identical dst-major arena bytes, so everything below (sort
        // fallback, ledger close, observer event) is shared unchanged.
        let core = &mut *self.core;
        let framed = shard::probe(&mut core.shards, n, &mut core.buffers)
            .unwrap_or_else(|e| panic!("sharded transport setup failed: {e}"));
        if framed {
            if let shard::ShardSlot::Framed(transport) = &mut core.shards {
                transport
                    .deliver(
                        &outbox,
                        &mut data,
                        &mut cursors,
                        &offsets,
                        &mut core.buffers,
                    )
                    .unwrap_or_else(|e| panic!("sharded delivery failed: {e}"));
            }
            outbox.clear();
        } else if sharded {
            // Destination-range shards balanced by message count. Each
            // worker scans the whole outbox and writes only its disjoint
            // contiguous arena chunk in outbox order, so the delivered
            // bytes are identical to the sequential scatter.
            let mut dst_cuts = mem::take(&mut self.core.buffers.dst_cuts);
            let mut arena_cuts = mem::take(&mut self.core.buffers.arena_cuts);
            dst_cuts.clear();
            arena_cuts.clear();
            dst_cuts.push(0);
            arena_cuts.push(0);
            let mut d = 0usize;
            for k in 1..shards {
                let goal = m * k / shards;
                while d < n && (offsets[d] as usize) < goal {
                    d += 1;
                }
                dst_cuts.push(d);
                arena_cuts.push(offsets[d] as usize);
            }
            dst_cuts.push(n);
            arena_cuts.push(m);
            par_nodes::par_scatter_shards(
                &mut data,
                &arena_cuts,
                &mut cursors,
                &dst_cuts,
                |shard, arena_chunk, cursor_chunk| {
                    // conform: allow(R19) -- read-only cut tables: each shard reads its own [shard, shard+1] window of dst_cuts/arena_cuts, built above from monotone offsets, so the windows are disjoint by construction
                    let d_lo = dst_cuts[shard];
                    let d_hi = dst_cuts[shard + 1];
                    let base = arena_cuts[shard];
                    for &(src, dst, ref msg) in &outbox {
                        let d = dst.index();
                        if d >= d_lo && d < d_hi {
                            let at = cursor_chunk[d - d_lo] as usize - base;
                            arena_chunk[at] = (src, msg.clone());
                            cursor_chunk[d - d_lo] += 1;
                        }
                    }
                },
            );
            self.core.buffers.dst_cuts = dst_cuts;
            self.core.buffers.arena_cuts = arena_cuts;
            outbox.clear();
        } else {
            for (src, dst, msg) in outbox.drain(..) {
                let at = cursors[dst.index()];
                data[at as usize] = (src, msg);
                cursors[dst.index()] = at + 1;
            }
        }
        // Sends arrived src-major (the common case): per-inbox scatter
        // order is already the pinned sorted-by-sender order. Otherwise a
        // stable per-inbox sort restores it — identical to the historical
        // sort over arrival order.
        if !self.src_monotone {
            for d in 0..n {
                let lo = offsets[d] as usize;
                let hi = offsets[d + 1] as usize;
                data[lo..hi].sort_by_key(|&(src, _)| src);
            }
        }
        self.core.buffers.counts = counts;
        self.core.buffers.cursors = cursors;
        self.core.buffers.retire_outbox(outbox);
        self.finished = true;
        self.core.finish_round(
            "deliver",
            max_pair_load,
            histogram,
            self.start_messages,
            self.start_bits,
        );
        Inboxes {
            data,
            offsets,
            pool: Arc::clone(&self.core.buffers.arena_pool),
        }
    }
}

impl<T, M: Send + 'static> Round<'_, T, M> {
    /// Flushes the round's batched ledger charges. The final ledger is
    /// byte-identical to per-send charging: nothing can read the ledger
    /// while the round holds the core, and the current phase cannot change
    /// mid-round for the same reason.
    fn flush_charges(&mut self) {
        if self.pending_messages > 0 || self.pending_bits > 0 {
            self.core
                .ledger
                .charge_fragments(self.pending_messages, self.pending_bits);
            self.pending_messages = 0;
            self.pending_bits = 0;
        }
        if self.pending_violations > 0 {
            self.core.ledger.charge_violations(self.pending_violations);
            self.pending_violations = 0;
        }
    }
}

impl<T, M: Send + 'static> Drop for Round<'_, T, M> {
    /// Drop glue for a round discarded without [`Round::deliver`]: flush
    /// the batched charges (sent messages tally as attempts, exactly as
    /// per-send charging did), scrub the dense loads back to all-zero, and
    /// retire every pooled buffer. After `deliver` this is a no-op.
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.flush_charges();
        self.core.buffers.counts = mem::take(&mut self.counts);
        match mem::take(&mut self.loads) {
            PairLoads::Dense { mut loads, n } => {
                for &(src, dst, _) in &self.outbox {
                    loads[src.index() * n + dst.index()] = 0;
                }
                self.core.buffers.retire_dense(loads);
            }
            PairLoads::Sparse(pair_bits) => self.core.buffers.retire_sparse(pair_bits),
        }
        let outbox = mem::take(&mut self.outbox);
        self.core.buffers.retire_outbox(outbox);
    }
}

impl<'g, M: Clone + Send + 'static> Round<'_, CongestTransport<'g>, M> {
    /// Enqueues the same message to every neighbor of `src` (a local
    /// broadcast, the common pattern in CONGEST algorithms).
    ///
    /// # Errors
    ///
    /// As for [`Round::send`].
    pub fn broadcast(&mut self, src: NodeId, bits: u64, msg: M) -> Result<(), BandwidthError> {
        // The graph reference outlives this round's borrow of `self`, so
        // the adjacency slice is iterated in place — no per-call clone of
        // the neighbor list.
        let graph: &'g Graph = self.transport.graph;
        for &dst in graph.neighbors(src) {
            self.send(src, dst, bits, msg.clone())?;
        }
        Ok(())
    }
}

/// Per-node inboxes returned by [`Round::deliver`]: `&inboxes[v]` is node
/// `v`'s received `(sender, message)` slice, sorted by sender.
///
/// Storage is one flat arena plus an offset table, recycled through the
/// engine's arena pool when this value drops — steady-state round loops
/// allocate nothing for delivery.
pub struct Inboxes<M: Send + 'static> {
    data: Vec<(NodeId, M)>,
    offsets: Vec<u32>,
    pool: Arc<Mutex<ArenaPool>>,
}

impl<M: Send + 'static> Inboxes<M> {
    /// Number of nodes (one inbox slice per node).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the round had no nodes (note: *not* "no messages").
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total messages delivered this round.
    pub fn message_count(&self) -> usize {
        self.data.len()
    }

    /// Iterates the per-node inbox slices in node order.
    pub fn iter(&self) -> InboxIter<'_, M> {
        InboxIter {
            inboxes: self,
            node: 0,
        }
    }
}

impl<M: Send + 'static> ops::Index<usize> for Inboxes<M> {
    type Output = [(NodeId, M)];

    fn index(&self, node: usize) -> &[(NodeId, M)] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.data[lo..hi]
    }
}

impl<'a, M: Send + 'static> IntoIterator for &'a Inboxes<M> {
    type Item = &'a [(NodeId, M)];
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over the per-node inbox slices of an [`Inboxes`].
pub struct InboxIter<'a, M: Send + 'static> {
    inboxes: &'a Inboxes<M>,
    node: usize,
}

impl<'a, M: Send + 'static> Iterator for InboxIter<'a, M> {
    type Item = &'a [(NodeId, M)];

    fn next(&mut self) -> Option<Self::Item> {
        if self.node >= self.inboxes.len() {
            return None;
        }
        let slice = &self.inboxes[self.node];
        self.node += 1;
        Some(slice)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inboxes.len() - self.node;
        (left, Some(left))
    }
}

impl<M: Send + PartialEq + 'static> PartialEq for Inboxes<M> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<M: Send + Eq + 'static> Eq for Inboxes<M> {}

impl<M: Send + fmt::Debug + 'static> fmt::Debug for Inboxes<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<M: Send + 'static> Drop for Inboxes<M> {
    fn drop(&mut self) {
        let data = mem::take(&mut self.data);
        let offsets = mem::take(&mut self.offsets);
        if let Ok(mut pool) = self.pool.lock() {
            pool.retire(data, offsets);
        }
    }
}

/// Executes one beeping round on the shared core: `beeps[v]` says whether
/// node `v` beeps; the result says, per node, whether it heard at least one
/// *neighbor* beep (full duplex: independent of its own beep).
///
/// A beep is accounted as one 1-bit message per incident link — `degree`
/// messages of 1 bit each, the information an adversary could extract per
/// link (the model itself is weaker).
///
/// # Panics
///
/// Panics if `beeps.len()` differs from the node count.
pub(crate) fn beep_round(core: &mut RoundCore, graph: &Graph, beeps: &[bool]) -> Vec<bool> {
    assert_eq!(
        beeps.len(),
        graph.node_count(),
        "beep vector length must equal the node count"
    );
    let start_messages = core.ledger.messages;
    let start_bits = core.ledger.bits;
    let mut heard = vec![false; beeps.len()];
    for v in graph.nodes() {
        if beeps[v.index()] {
            let degree = graph.degree(v) as u64;
            core.ledger.charge_fragments(degree, degree);
            for &u in graph.neighbors(v) {
                heard[u.index()] = true;
            }
        }
    }
    core.finish_round("beep", 0, Vec::new(), start_messages, start_bits);
    heard
}

/// `(inbox size, node count)` pairs, ascending by size. Counting-bucket
/// pass (no sort): inbox sizes are bounded by the node count, so the
/// bucket array stays small and the observed path costs `O(n + max)`.
fn inbox_histogram(counts: &[u32]) -> Vec<(usize, usize)> {
    let Some(&max) = counts.iter().max() else {
        return Vec::new();
    };
    let mut buckets = vec![0usize; max as usize + 1];
    for &size in counts {
        buckets[size as usize] += 1;
    }
    buckets
        .iter()
        .enumerate()
        .filter(|&(_, &nodes)| nodes > 0)
        .map(|(size, &nodes)| (size, nodes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_nodes::set_thread_override;

    #[derive(Default)]
    struct Recorder {
        events: Vec<RoundEvent>,
    }

    impl RoundObserver for Recorder {
        fn on_event(&mut self, event: &RoundEvent) {
            self.events.push(event.clone());
        }
    }

    fn shared_recorder() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder::default()))
    }

    #[test]
    fn observer_sees_per_round_deltas() {
        let recorder = shared_recorder();
        let mut core = RoundCore::new(32, Enforcement::Strict);
        core.ledger_mut().begin_phase("demo");
        core.attach_observer(recorder.clone());
        let mut round: Round<'_, CliqueTransport, u8> =
            Round::begin(&mut core, CliqueTransport { n: 3 });
        round
            .send(NodeId::new(0), NodeId::new(1), 8, 1)
            .expect("link admissible and within budget");
        round
            .send(NodeId::new(2), NodeId::new(1), 16, 2)
            .expect("link admissible and within budget");
        round.deliver();
        core.idle_round();
        let events = recorder.borrow().events.clone();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "deliver");
        assert_eq!(events[0].phase.as_deref(), Some("demo"));
        assert_eq!(events[0].round, 1);
        assert_eq!(events[0].messages, 2);
        assert_eq!(events[0].bits, 24);
        assert_eq!(events[0].max_pair_load, 16);
        assert_eq!(events[0].inbox_histogram, vec![(0, 2), (2, 1)]);
        assert_eq!(events[1].kind, "idle");
        assert_eq!(events[1].round, 2);
        assert_eq!(events[1].messages, 0);
    }

    #[test]
    fn observer_absence_skips_diagnostics_but_not_accounting() {
        let mut core = RoundCore::new(32, Enforcement::Strict);
        let mut round: Round<'_, CliqueTransport, ()> =
            Round::begin(&mut core, CliqueTransport { n: 2 });
        round
            .send(NodeId::new(0), NodeId::new(1), 8, ())
            .expect("link admissible and within budget");
        round.deliver();
        assert_eq!(core.ledger().rounds, 1);
        assert_eq!(core.ledger().messages, 1);
        assert_eq!(core.ledger().bits, 8);
    }

    /// Satellite pin: at the dense cutoff boundary the dense `n * n` array
    /// and the sparse `PairBits` log charge identical ledgers, emit
    /// identical observer events (including `max_pair_load`), and reject
    /// the same over-budget send — the cutoff is a space/time trade only.
    #[test]
    fn dense_and_sparse_pair_accounting_agree_at_the_boundary() {
        let n = 6usize;
        let run = |cutoff: usize| {
            crate::pool::set_dense_pair_max_override(Some(cutoff));
            let recorder = shared_recorder();
            let mut core = RoundCore::new(32, Enforcement::Strict);
            core.ledger_mut().begin_phase("boundary");
            core.attach_observer(recorder.clone());
            let mut round: Round<'_, CliqueTransport, u8> =
                Round::begin(&mut core, CliqueTransport { n });
            round
                .send(NodeId::new(0), NodeId::new(1), 24, 1)
                .expect("first send fits the 32-bit pair budget");
            round
                .send(NodeId::new(0), NodeId::new(1), 8, 2)
                .expect("second send exactly fills the pair budget");
            let over = round
                .send(NodeId::new(0), NodeId::new(1), 1, 3)
                .expect_err("third send exceeds the pair budget")
                .to_string();
            round
                .send(NodeId::new(3), NodeId::new(2), 16, 4)
                .expect("fresh pair has a full budget");
            round.deliver();
            crate::pool::set_dense_pair_max_override(None);
            let events = recorder.borrow().events.clone();
            (events, core.ledger().clone(), over)
        };
        // cutoff = n keeps the dense array; cutoff = n - 1 forces sparse.
        let dense = run(n);
        let sparse = run(n - 1);
        assert_eq!(dense, sparse);
        assert_eq!(dense.0[0].max_pair_load, 32);
        assert_eq!(dense.1.messages, 3);
        assert_eq!(dense.1.bits, 48);
    }

    #[test]
    fn record_schedule_emits_bulk_event() {
        let recorder = shared_recorder();
        let mut core = RoundCore::new(32, Enforcement::Strict);
        core.attach_observer(recorder.clone());
        core.record_schedule(3, 10, 320);
        assert_eq!(core.ledger().rounds, 3);
        assert_eq!(core.ledger().messages, 10);
        assert_eq!(core.ledger().bits, 320);
        let events = recorder.borrow().events.clone();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "bulk");
        assert_eq!(events[0].round, 3);
        assert_eq!(events[0].messages, 10);
        assert_eq!(events[0].bits, 320);
    }

    #[test]
    fn transports_enforce_admissibility() {
        let clique = CliqueTransport { n: 3 };
        assert!(clique.check_link(NodeId::new(0), NodeId::new(2)).is_ok());
        assert!(clique.check_link(NodeId::new(1), NodeId::new(1)).is_err());
        assert!(clique.check_link(NodeId::new(0), NodeId::new(7)).is_err());
        assert_eq!(clique.dense_pair_domain(), Some(3));

        let g = cc_mis_graph::generators::path(3);
        let congest = CongestTransport { graph: &g };
        assert!(congest.check_link(NodeId::new(0), NodeId::new(1)).is_ok());
        assert!(congest.check_link(NodeId::new(0), NodeId::new(2)).is_err());
        assert_eq!(congest.dense_pair_domain(), None);
    }

    #[test]
    fn inbox_histogram_groups_sizes() {
        assert_eq!(
            inbox_histogram(&[0, 2, 0, 1, 2]),
            vec![(0, 2), (1, 1), (2, 2)]
        );
        assert_eq!(inbox_histogram(&[]), Vec::<(usize, usize)>::new());
    }

    /// Satellite pin: the counting scatter delivers each inbox sorted by
    /// sender, on a hand-built asymmetric outbox, both for the monotone
    /// fast path and for the out-of-order fallback, at several thread
    /// counts.
    #[test]
    fn counting_scatter_pins_src_major_delivery_order() {
        for &threads in &[1usize, 2, 7] {
            set_thread_override(Some(threads));
            // Out-of-order sends (src not monotone): node 0's inbox is
            // asymmetric (4 messages), node 2's has 2, the rest none.
            let mut core = RoundCore::new(64, Enforcement::Strict);
            let mut round: Round<'_, CliqueTransport, u32> =
                Round::begin(&mut core, CliqueTransport { n: 5 });
            for &(s, d, v) in &[
                (4u32, 0u32, 40u32),
                (1, 0, 10),
                (1, 2, 12),
                (3, 0, 30),
                (0, 2, 2),
                (2, 0, 20),
            ] {
                round
                    .send(NodeId::new(s), NodeId::new(d), 1, v)
                    .expect("hand-built sends fit the budget");
            }
            let inboxes = round.deliver();
            assert_eq!(
                &inboxes[0],
                &[
                    (NodeId::new(1), 10),
                    (NodeId::new(2), 20),
                    (NodeId::new(3), 30),
                    (NodeId::new(4), 40),
                ][..]
            );
            assert_eq!(
                &inboxes[2],
                &[(NodeId::new(0), 2), (NodeId::new(1), 12)][..]
            );
            assert!(inboxes[1].is_empty());
            assert!(inboxes[3].is_empty());
            assert!(inboxes[4].is_empty());

            // Monotone sends with a repeated pair: ties stay in send order.
            let mut round: Round<'_, CliqueTransport, u32> =
                Round::begin(&mut core, CliqueTransport { n: 5 });
            for &(s, d, v) in &[(0u32, 4u32, 1u32), (0, 4, 2), (2, 4, 3), (3, 1, 4)] {
                round
                    .send(NodeId::new(s), NodeId::new(d), 1, v)
                    .expect("hand-built sends fit the budget");
            }
            let inboxes = round.deliver();
            assert_eq!(
                &inboxes[4],
                &[
                    (NodeId::new(0), 1),
                    (NodeId::new(0), 2),
                    (NodeId::new(2), 3),
                ][..]
            );
            assert_eq!(&inboxes[1], &[(NodeId::new(3), 4)][..]);
        }
        set_thread_override(None);
    }

    /// A round big enough to take the sharded path must deliver the exact
    /// bytes the sequential path delivers, for every thread count, and
    /// leave the ledger identical.
    #[test]
    fn sharded_delivery_bit_identical_across_thread_counts() {
        fn run(threads: usize) -> (Vec<Vec<(u32, u64)>>, RoundLedger) {
            set_thread_override(Some(threads));
            let n = 128usize;
            let mut core = RoundCore::new(64, Enforcement::Strict);
            let mut round: Round<'_, CliqueTransport, u64> =
                Round::begin(&mut core, CliqueTransport { n });
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i != j {
                        let payload = (u64::from(i) << 32) | u64::from(j);
                        round
                            .send(NodeId::new(i), NodeId::new(j), 16, payload)
                            .expect("one message per pair fits the budget");
                    }
                }
            }
            // A few trailing out-of-order sends exercise the sort
            // fallback under sharding too.
            for &(s, d) in &[(5u32, 9u32), (3, 9), (7, 9)] {
                round
                    .send(NodeId::new(s), NodeId::new(d), 16, 999)
                    .expect("second message per pair fits the budget");
            }
            let inboxes = round.deliver();
            let flat: Vec<Vec<(u32, u64)>> = inboxes
                .iter()
                .map(|inbox| inbox.iter().map(|&(s, p)| (s.raw(), p)).collect())
                .collect();
            set_thread_override(None);
            (flat, core.into_ledger())
        }
        let (base_inboxes, base_ledger) = run(1);
        for &threads in &[2usize, 7] {
            let (inboxes, ledger) = run(threads);
            assert_eq!(inboxes, base_inboxes, "threads={threads}");
            assert_eq!(ledger, base_ledger, "threads={threads}");
        }
    }

    /// Tentpole pin: routing delivery through the frame-based sharded
    /// transport must reproduce the direct scatter byte for byte — same
    /// inboxes, same ledger — at every shard count, over multiple rounds
    /// (including an empty one) so worker state persists across rounds.
    #[test]
    fn framed_delivery_matches_direct_at_every_shard_count() {
        let _guard = crate::shard::TEST_CONFIG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Per round, per inbox: (src, payload) in delivery order.
        type RoundInboxes = Vec<Vec<Vec<(u32, u64)>>>;
        fn run(shards: Option<usize>) -> (RoundInboxes, RoundLedger) {
            crate::shard::set_shards_override(shards);
            let n = 24usize;
            let mut core = RoundCore::new(512, Enforcement::Strict);
            let mut all = Vec::new();
            for round_idx in 0..4u64 {
                let mut round: Round<'_, CliqueTransport, u64> =
                    Round::begin(&mut core, CliqueTransport { n });
                if round_idx != 2 {
                    // Round 2 stays empty: the framed path must still
                    // advance worker round counters in lockstep.
                    for i in 0..n as u32 {
                        for j in 0..n as u32 {
                            if i != j && (u64::from(i * 31 + j * 7) + round_idx) % 3 == 0 {
                                let payload =
                                    (u64::from(i) << 32) | (u64::from(j) << 8) | round_idx;
                                round
                                    .send(NodeId::new(i), NodeId::new(j), 16, payload)
                                    .expect("one message per pair fits the budget");
                            }
                        }
                    }
                }
                let inboxes = round.deliver();
                all.push(
                    inboxes
                        .iter()
                        .map(|inbox| inbox.iter().map(|&(s, p)| (s.raw(), p)).collect())
                        .collect(),
                );
            }
            crate::shard::set_shards_override(None);
            (all, core.into_ledger())
        }
        let (base_inboxes, base_ledger) = run(None);
        for &shards in &[1usize, 2, 4] {
            let (inboxes, ledger) = run(Some(shards));
            assert_eq!(inboxes, base_inboxes, "shards={shards}");
            assert_eq!(ledger, base_ledger, "shards={shards}");
        }
    }

    /// Pooled buffers must never leak stale contents between rounds: a big
    /// round followed by a smaller one (arena truncation) followed by a
    /// bigger one (arena growth) all deliver exactly their own messages.
    #[test]
    fn pooled_buffers_reused_across_rounds_stay_correct() {
        let mut core = RoundCore::new(32, Enforcement::Strict);
        let n = 4usize;
        let sizes = [3usize, 1, 5, 0, 2];
        for (round_idx, &k) in sizes.iter().enumerate() {
            let mut round: Round<'_, CliqueTransport, u32> =
                Round::begin(&mut core, CliqueTransport { n });
            for s in 0..k as u32 {
                let src = NodeId::new(s % n as u32);
                let dst = NodeId::new((s + 1) % n as u32);
                round
                    .send(src, dst, 1, 1000 * round_idx as u32 + s)
                    .expect("small sends fit the budget");
            }
            let inboxes = round.deliver();
            assert_eq!(inboxes.message_count(), k, "round {round_idx}");
            let mut received: Vec<u32> = inboxes
                .iter()
                .flat_map(|inbox| inbox.iter().map(|&(_, v)| v))
                .collect();
            received.sort_unstable();
            let expected: Vec<u32> = (0..k as u32).map(|s| 1000 * round_idx as u32 + s).collect();
            assert_eq!(received, expected, "round {round_idx}");
        }
        assert_eq!(core.ledger().rounds, sizes.len() as u64);
    }

    /// The sparse (CONGEST) path still enforces shared per-pair budgets
    /// across out-of-order sends via the probe-table fallback.
    #[test]
    fn sparse_path_budget_and_order() {
        let g = cc_mis_graph::generators::cycle(4);
        let mut core = RoundCore::new(16, Enforcement::Strict);
        let mut round: Round<'_, CongestTransport, u8> =
            Round::begin(&mut core, CongestTransport { graph: &g });
        round
            .send(NodeId::new(0), NodeId::new(1), 8, 1)
            .expect("first half of the pair budget");
        round
            .send(NodeId::new(2), NodeId::new(3), 8, 2)
            .expect("unrelated pair has its own budget");
        round
            .send(NodeId::new(0), NodeId::new(1), 8, 3)
            .expect("second half of the pair budget");
        let err = round
            .send(NodeId::new(0), NodeId::new(1), 1, 4)
            .unwrap_err();
        assert!(matches!(
            err,
            BandwidthError::Exceeded { attempted: 17, .. }
        ));
        let inboxes = round.deliver();
        assert_eq!(&inboxes[1], &[(NodeId::new(0), 1), (NodeId::new(0), 3)][..]);
        assert_eq!(&inboxes[3], &[(NodeId::new(2), 2)][..]);
    }

    /// Audit-mode violations batched per round must reach the ledger (and
    /// the observer's cumulative count) exactly as per-send charging did.
    #[test]
    fn audit_violations_flush_at_round_close() {
        let recorder = shared_recorder();
        let mut core = RoundCore::new(8, Enforcement::Audit);
        core.attach_observer(recorder.clone());
        let mut round: Round<'_, CliqueTransport, ()> =
            Round::begin(&mut core, CliqueTransport { n: 2 });
        round
            .send(NodeId::new(0), NodeId::new(1), 100, ())
            .expect("audit mode tallies instead of refusing");
        round
            .send(NodeId::new(0), NodeId::new(1), 100, ())
            .expect("audit mode tallies instead of refusing");
        round.deliver();
        assert_eq!(core.ledger().violations, 2);
        assert_eq!(recorder.borrow().events[0].violations, 2);
    }
}
