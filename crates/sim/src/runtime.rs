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
//!   `RoundLedger` charge in `crates/sim` happens here: the `charge_*`
//!   primitives are private methods defined in this module, so the
//!   compiler rejects a charge anywhere else and the accounting semantics
//!   cannot drift between engines.
//! * [`Round`] — one open synchronous round, generic over the transport
//!   and the message type. A warmed round makes no heap allocation
//!   (measured by `tests/steady_state_alloc.rs`): per-pair budget loads
//!   live in the pooled `PairBits` tracker, which holds one word per pair
//!   the round actually uses (never `n²`), ledger charges are batched
//!   locally and flushed once per round, and delivery fills a pooled
//!   arena — no per-inbox sort, no per-inbox allocation. [`Round::deliver`]
//!   fills it with a stable src-major counting scatter of the outbox.
//!   [`Round::exchange_with_neighbors`], the "send to every receiving
//!   neighbour" round every algorithm here runs, takes its senders as an
//!   ascending id list and its receivers as a [`Frontier`], hands each
//!   message to a caller's visitor instead, and usually skips the outbox
//!   and the arena altogether: each receiver pulls its neighbours'
//!   messages along its sorted adjacency and the visitor folds them as
//!   they are pulled. Such a round costs the frontiers and their volume,
//!   not `n`.
//! * [`Inboxes`] — the flat delivered-messages arena `deliver` returns,
//!   indexable per node as a slice; its storage flows back to the engine's
//!   pool on drop.
//! * [`RoundObserver`] / [`RoundEvent`] — a structured per-round trace
//!   hook, no-op by default. The inbox-size histogram is computed **only
//!   when an observer is attached**; the max per-pair load is a running
//!   maximum the budget tracker keeps anyway, read in O(1).
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
//! The neighbour exchange visits messages in that order too: its pull
//! path gets it from each receiver's ascending adjacency, on one thread.
//! When `par_nodes::thread_count() > 1` and the round is large, the
//! counting pass and the scatter run sharded on the deterministic pool:
//! per-shard count rows merge in fixed order and each worker writes a
//! disjoint arena range whose contents depend only on the outbox, so the
//! delivered bytes are identical for every thread count.

// Accounting is integer-exact (DESIGN.md §8): float arithmetic is
// rounding-order dependent, and a cast between integers and floats can
// lose exactness. `cast_possible_truncation` is denied crate-wide.
#![cfg_attr(
    not(test),
    deny(
        clippy::float_arithmetic,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

use std::cell::RefCell;
use std::fmt;
use std::mem;
use std::ops;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use cc_mis_graph::{Graph, NodeId};

use crate::bits::{idx_u32, pair_key};
use crate::frontier::Frontier;
use crate::metrics::{bump, BandwidthError, RoundLedger};
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

    /// Whether both directions of every edge of `g` pass
    /// [`Transport::check_link`], so a [`Round::exchange_with_neighbors`]
    /// over `g` may skip the per-message check.
    fn carries_edges_of(&self, g: &Graph) -> bool;
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

    /// Graphs are simple (no self-loops), so every edge of a graph on at
    /// most `n` nodes joins two distinct in-range nodes.
    fn carries_edges_of(&self, g: &Graph) -> bool {
        g.node_count() <= self.n
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

    /// Only the engine's own graph vouches for itself: an equal but
    /// distinct `Graph` value takes the checked send loop.
    fn carries_edges_of(&self, g: &Graph) -> bool {
        std::ptr::eq(self.graph, g)
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

/// The ledger's charge primitives. They are private to the round core, so
/// no other module (and no other crate) can bill a ledger except through
/// [`RoundLedger::charge_replay`].
impl RoundLedger {
    /// Records one elapsed synchronous round.
    fn charge_round(&mut self) {
        self.charge_rounds(1);
    }

    /// Records `n` elapsed synchronous rounds.
    fn charge_rounds(&mut self, n: u64) {
        bump(&mut self.rounds, n);
        if let Some(p) = self.phases.last_mut() {
            bump(&mut p.rounds, n);
        }
    }

    /// Records `messages` messages totalling `bits` bits in one call,
    /// attributed to the current phase (the round core flushes a round's
    /// sends, and the Lenzen scheduler whole fragment batches, this way).
    fn charge_fragments(&mut self, messages: u64, bits: u64) {
        bump(&mut self.messages, messages);
        bump(&mut self.bits, bits);
        if let Some(p) = self.phases.last_mut() {
            bump(&mut p.messages, messages);
            bump(&mut p.bits, bits);
        }
    }

    /// Records `n` bandwidth violations (audit mode) in one call.
    fn charge_violations(&mut self, n: u64) {
        bump(&mut self.violations, n);
    }
}

/// The transport-independent heart of an engine: bandwidth budget,
/// enforcement mode, ledger, recycled round buffers, and the optional
/// observer.
///
/// All `RoundLedger` charging in `crates/sim` funnels through this type
/// (the charge primitives below are private to this module), which is what
/// makes the "ledger accounting is identical across engines" guarantee
/// checkable.
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

/// `sender_at` entry of a node that sends nothing in a neighbour exchange.
const NOT_SENT: u32 = u32::MAX;

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
    /// Per-pair cumulative bits this round. Invariant: a send is committed
    /// here if and only if it is pushed to `outbox`.
    loads: PairBits,
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
        let loads = core.buffers.take_pair_bits();
        let outbox = core.buffers.take_outbox::<M>();
        // Every count is 0 between rounds (each close clears the entries
        // it wrote), so opening a round costs `O(n)` only when the size
        // changes.
        let mut counts = mem::take(&mut core.buffers.counts);
        if counts.len() != transport.node_count() {
            pool::reset_zeroed(&mut counts, transport.node_count());
        }
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
        let key = pair_key(src.raw(), dst.raw());
        let attempted = self.loads.used(key, &self.outbox) + bits;
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
        self.loads.commit(key, attempted);
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

    /// Observer-only diagnostics: peak per-pair load (the tracker's
    /// running maximum) and the inbox-size histogram. Allocation happens
    /// only here, only when observing — `deliver` itself stays
    /// allocation-free.
    fn observer_stats(&self, counts: &[u32]) -> (u64, Vec<(usize, usize)>) {
        if !self.core.observing() {
            return (0, Vec::new());
        }
        (self.loads.peak(), inbox_histogram(counts))
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
        let mut counts = mem::take(&mut self.counts);
        let threads = par_nodes::thread_count();
        let sharded = threads > 1 && m >= PAR_DELIVER_MIN_MESSAGES && n > 0;
        let shards = if sharded { threads.min(m) } else { 1 };

        // Observer-only diagnostics, read before the loads are retired.
        let (max_pair_load, histogram) = self.observer_stats(&counts);
        let loads = mem::take(&mut self.loads);
        self.core.buffers.retire_pair_bits(loads);

        // Pass 2 — prefix offsets (clearing the counts for the next
        // round), then the stable src-major counting scatter into the
        // pooled arena.
        let (mut data, mut offsets) = pool::take_arena_parts::<M>(&self.core.buffers.arena_pool);
        pool::reset_zeroed(&mut offsets, n + 1);
        let mut acc = 0u32;
        for d in 0..n {
            offsets[d] = acc;
            acc += mem::take(&mut counts[d]);
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
        if sharded {
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
        // Framed delivery: when a sharded transport is configured, the
        // scattered arena crosses the serialization boundary, and what the
        // shards return is written back over it, so everything below (sort
        // fallback, ledger close, observer event) is shared unchanged.
        let core = &mut *self.core;
        let framed = shard::probe(&mut core.shards, n, &mut core.buffers)
            .unwrap_or_else(|e| panic!("sharded transport setup failed: {e}"));
        if let Some(transport) = framed {
            transport
                .deliver(&mut data, &mut cursors, &offsets, &mut core.buffers)
                .unwrap_or_else(|e| panic!("sharded delivery failed: {e}"));
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

    /// Sends each sender's message to its neighbours in `graph` that are
    /// `receivers`, closes the round, and hands every delivered message to
    /// `receive(receiver, sender, &message)`.
    ///
    /// `senders` lists, strictly ascending, the nodes that send. For each
    /// of them `message_of(v)` (called exactly once per sender, in order,
    /// and never for any other node) gives the declared bit size and the
    /// message, which goes to every neighbour `u` in `receivers`. The ledger charges,
    /// [`RoundEvent`] and errors are exactly those of that loop of
    /// [`Round::send`] calls followed by [`Round::deliver`], which stays
    /// the reference semantics, and `receive` sees each message that
    /// `deliver` would have delivered exactly once, in the order of its
    /// inboxes: receivers ascending, each receiver's senders ascending.
    /// Callers fold the messages into state of their own (a sum, an OR, a
    /// minimum) instead of reading back an inbox arena.
    ///
    /// The round costs `O(|senders| + |receivers|)` plus the volume it
    /// walks, never `O(n)`, unless it pushes (below) or is observed: the
    /// inbox histogram of an observed round covers every node.
    ///
    /// In such a round every ordered pair carries at most one message, so
    /// unless a sender exceeds the bandwidth no budget needs tracking. The
    /// messages are then delivered *pull-style*: each receiver, in id
    /// order, is handed its sending neighbours' messages along its own
    /// ascending adjacency, so they arrive already sorted by sender — no
    /// outbox, no pair tracker, no scatter, no arena. Under framed delivery
    /// ([`shard::probe`]) each shard's `ROUND` frame carries every sender's
    /// message once, in a table, and the same walk appends each pulled
    /// message to its receiver's run as the sender's `u32` table index;
    /// `receive` is handed the messages as the returned `INBOX` runs are
    /// read. The send loop runs instead, and `receive` visits the inboxes
    /// `deliver` returns, when
    /// * a sender declares more bits than the bandwidth: strict errors and
    ///   audit violations come from the one checked path;
    /// * the transport cannot vouch for the graph's links
    ///   ([`Transport::carries_edges_of`]);
    /// * the receivers' adjacency volume exceeds three times the senders'
    ///   plus the transport's node count: pushing a few senders' messages
    ///   and paying `deliver`'s `O(n)` count and prefix sum touches less
    ///   than walking every receiver's adjacency.
    ///
    /// # Errors
    ///
    /// As for [`Round::send`]; the first refused send ends the loop, the
    /// round is dropped without advancing the clock, and `receive` is never
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if `receivers` is not drawn from `graph`'s nodes, or if a
    /// sender is not a node of `graph`.
    pub fn exchange_with_neighbors(
        mut self,
        graph: &Graph,
        senders: &[NodeId],
        receivers: &Frontier,
        mut message_of: impl FnMut(NodeId) -> (u64, M),
        mut receive: impl FnMut(NodeId, NodeId, &M),
    ) -> Result<(), BandwidthError>
    where
        M: Clone + Sync + Wire,
    {
        assert_eq!(
            receivers.universe(),
            graph.node_count(),
            "receivers are drawn from the graph's nodes"
        );
        debug_assert!(
            senders.windows(2).all(|w| w[0] < w[1]),
            "senders must be strictly ascending"
        );
        let mut sent = self.core.buffers.take_sent::<M>();
        let mut max_bits = 0;
        let mut send_volume = 0;
        for &v in senders {
            let (bits, msg) = message_of(v);
            max_bits = max_bits.max(bits);
            send_volume += graph.degree(v);
            sent.push((v, bits, msg));
        }
        let pull = max_bits <= self.core.bandwidth
            && self.transport.carries_edges_of(graph)
            && 3 * send_volume + self.transport.node_count() >= receivers.volume(graph);
        if pull {
            self.pull_from_neighbors(graph, receivers, &sent, receive);
            self.core.buffers.retire_sent(sent);
            return Ok(());
        }
        let pushed = self.send_to_neighbors(graph, receivers, &sent);
        self.core.buffers.retire_sent(sent);
        pushed?;
        let inboxes = self.deliver();
        for (u, inbox) in inboxes.iter().enumerate() {
            for (v, msg) in inbox {
                receive(NodeId::new(idx_u32(u)), *v, msg);
            }
        }
        Ok(())
    }

    /// The reference path of [`Round::exchange_with_neighbors`]: one
    /// checked [`Round::send`] per (sender, receiving neighbour) pair,
    /// senders in id order, each sender's neighbours ascending. `sent`
    /// lists the senders' `(id, bits, message)` in id order.
    fn send_to_neighbors(
        &mut self,
        graph: &Graph,
        receivers: &Frontier,
        sent: &[(NodeId, u64, M)],
    ) -> Result<(), BandwidthError>
    where
        M: Clone,
    {
        for (v, bits, msg) in sent {
            for &u in graph.neighbors(*v) {
                if receivers.contains(u) {
                    self.send(*v, u, *bits, msg.clone())?;
                }
            }
        }
        Ok(())
    }

    /// The pull path of [`Round::exchange_with_neighbors`]: hands each
    /// receiver its sending neighbours' messages, receiver by receiver —
    /// directly, or through the frames of the receivers' shards — and
    /// closes the round with the charges and event the send loop would
    /// have produced (one message per ordered pair, so the peak pair load
    /// is the largest delivered message).
    fn pull_from_neighbors(
        &mut self,
        graph: &Graph,
        receivers: &Frontier,
        sent: &[(NodeId, u64, M)],
        mut receive: impl FnMut(NodeId, NodeId, &M),
    ) where
        M: Wire,
    {
        // Per node, its position in `sent`, or `NOT_SENT`: every entry is
        // `NOT_SENT` between rounds, so only the senders' are set and reset.
        let mut sender_at = mem::take(&mut self.core.buffers.sender_at);
        if sender_at.len() < graph.node_count() {
            sender_at.resize(graph.node_count(), NOT_SENT);
        }
        for (at, (v, _, _)) in sent.iter().enumerate() {
            sender_at[v.index()] = idx_u32(at);
        }
        let walk = PullWalk {
            graph,
            receivers: receivers.ids(),
            sent,
            sender_at: &sender_at,
        };
        let mut tally = PullTally::default();
        let core = &mut *self.core;
        let framed = shard::probe(
            &mut core.shards,
            self.transport.node_count(),
            &mut core.buffers,
        )
        .unwrap_or_else(|e| panic!("sharded transport setup failed: {e}"));
        match framed {
            Some(transport) => pull_framed(
                transport,
                &walk,
                &mut self.counts,
                &mut tally,
                receive,
                &mut core.buffers,
            ),
            None => {
                walk.run(
                    0..graph.node_count(),
                    &mut self.counts,
                    &mut tally,
                    |u, v, _, msg| receive(u, v, msg),
                );
            }
        }
        for (v, _, _) in sent {
            sender_at[v.index()] = NOT_SENT;
        }
        self.core.buffers.sender_at = sender_at;
        self.pending_messages = tally.messages;
        self.pending_bits = tally.bits;
        self.flush_charges();
        let histogram = if self.core.observing() {
            inbox_histogram(&self.counts)
        } else {
            Vec::new()
        };
        for &u in receivers.ids() {
            self.counts[u.index()] = 0;
        }
        self.retire_buffers();
        self.finished = true;
        self.core.finish_round(
            "deliver",
            tally.peak,
            histogram,
            self.start_messages,
            self.start_bits,
        );
    }
}

/// The framed half of [`Round::pull_from_neighbors`]: the transport
/// encodes the senders' table once, the walk pushes each pulled message's
/// sender index into its receiver's shard's `ROUND` frame, and the
/// returned runs are folded into `receive`.
///
/// Kept out of line: inlined into its caller, it left the direct walk's
/// loop about 7% slower on a `kronecker(16, 8)` exchange with every node
/// sending.
#[inline(never)]
fn pull_framed<M: Wire + Send + 'static>(
    transport: &mut shard::ShardedTransport,
    walk: &PullWalk<'_, M>,
    counts: &mut [u32],
    tally: &mut PullTally,
    receive: impl FnMut(NodeId, NodeId, &M),
    buffers: &mut RoundBuffers,
) {
    transport
        .exchange(
            walk.sent,
            |dsts, runs| walk.run(dsts, counts, tally, |u, _, at, _| runs.push(u, at)),
            receive,
            buffers,
        )
        .unwrap_or_else(|e| panic!("sharded exchange failed: {e}"));
}

/// Charges of a pulled neighbour exchange, summed as it is walked.
#[derive(Debug, Default)]
struct PullTally {
    messages: u64,
    bits: u64,
    /// Largest single message: the round's peak per-pair load.
    peak: u64,
}

/// The receiver-order walk of a pulled neighbour exchange, shared by direct
/// and framed delivery.
struct PullWalk<'w, M> {
    graph: &'w Graph,
    /// The receivers, ascending.
    receivers: &'w [NodeId],
    /// The senders' `(id, bits, message)`, in id order.
    sent: &'w [(NodeId, u64, M)],
    /// Per node, its position in `sent`, or `NOT_SENT`.
    sender_at: &'w [u32],
}

impl<M> PullWalk<'_, M> {
    /// Walks the receivers whose ids fall in `nodes`, in id order, each
    /// along its ascending adjacency, calling `take(receiver, sender,
    /// position in sent, &message)` for every message it pulls. Records
    /// each such receiver's message count in `counts` and adds the charges
    /// to `tally`.
    fn run(
        &self,
        nodes: ops::Range<usize>,
        counts: &mut [u32],
        tally: &mut PullTally,
        mut take: impl FnMut(NodeId, NodeId, usize, &M),
    ) {
        // A clique engine may be larger than the graph (Theorem 1.1 runs a
        // 1-node graph on 2 nodes): the receivers are the graph's nodes,
        // and the extra nodes' counts stay 0.
        let lo = self.receivers.partition_point(|u| u.index() < nodes.start);
        let hi = self.receivers.partition_point(|u| u.index() < nodes.end);
        let (mut pulled, mut bits, mut peak) = (0, 0, 0);
        for &u in &self.receivers[lo..hi] {
            let mut received = 0;
            for &v in self.graph.neighbors(u) {
                let at = self.sender_at[v.index()];
                if at != NOT_SENT {
                    let (_, b, msg) = &self.sent[at as usize];
                    bits += b;
                    peak = peak.max(*b);
                    received += 1;
                    take(u, v, at as usize, msg);
                }
            }
            counts[u.index()] = received;
            pulled += received;
        }
        tally.messages += u64::from(pulled);
        tally.bits += bits;
        tally.peak = tally.peak.max(peak);
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

    /// Returns the count table, pair tracker and outbox to the pool. The
    /// caller has cleared every count it wrote.
    fn retire_buffers(&mut self) {
        self.core.buffers.counts = mem::take(&mut self.counts);
        let loads = mem::take(&mut self.loads);
        self.core.buffers.retire_pair_bits(loads);
        let outbox = mem::take(&mut self.outbox);
        self.core.buffers.retire_outbox(outbox);
    }
}

impl<T, M: Send + 'static> Drop for Round<'_, T, M> {
    /// Drop glue for a round discarded without [`Round::deliver`]: flush
    /// the batched charges (sent messages tally as attempts, exactly as
    /// per-send charging did) and retire every pooled buffer. After
    /// `deliver` this is a no-op.
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.flush_charges();
        for (_, dst, _) in &self.outbox {
            self.counts[dst.index()] = 0;
        }
        self.retire_buffers();
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

/// Executes one beeping round on the shared core: the nodes `beepers`
/// yields beep (each must be yielded at most once), and `heard` is
/// overwritten with, per node, whether it heard at least one *neighbor*
/// beep (full duplex: independent of its own beep). `heard` is resized to the node count and
/// keeps its capacity, so a caller that passes the same buffer every round
/// allocates nothing once it is warm.
///
/// A beep is accounted as one 1-bit message per incident link — `degree`
/// messages of 1 bit each, the information an adversary could extract per
/// link (the model itself is weaker).
pub(crate) fn beep_round(
    core: &mut RoundCore,
    graph: &Graph,
    beepers: impl IntoIterator<Item = NodeId>,
    heard: &mut Vec<bool>,
) {
    let start_messages = core.ledger.messages;
    let start_bits = core.ledger.bits;
    heard.clear();
    heard.resize(graph.node_count(), false);
    for v in beepers {
        let degree = graph.degree(v) as u64;
        core.ledger.charge_fragments(degree, degree);
        for &u in graph.neighbors(v) {
            heard[u.index()] = true;
        }
    }
    core.finish_round("beep", 0, Vec::new(), start_messages, start_bits);
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
    use cc_mis_graph::rng::mix3;

    use crate::bits::standard_bandwidth;
    use crate::congest::CongestEngine;
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
    fn charge_primitives_slice_the_ledger_by_phase() {
        let mut l = RoundLedger::new();
        l.charge_round();
        l.begin_phase("a");
        l.charge_round();
        l.charge_fragments(1, 8);
        l.begin_phase("b");
        l.charge_rounds(3);
        l.charge_fragments(2, 20);
        l.charge_violations(1);
        assert_eq!((l.rounds, l.messages, l.bits, l.violations), (5, 3, 28, 1));
        let a = &l.phases[0];
        assert_eq!((a.rounds, a.messages, a.bits), (1, 1, 8));
        let b = &l.phases[1];
        assert_eq!((b.rounds, b.messages, b.bits), (3, 2, 20));
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

    /// A strict rejection consumes none of the pair's budget, is not
    /// delivered and is not charged, and the observer's `max_pair_load` is
    /// the fullest pair's total.
    #[test]
    fn strict_rejection_leaves_pair_budget_and_ledger_untouched() {
        let recorder = shared_recorder();
        let mut core = RoundCore::new(32, Enforcement::Strict);
        core.ledger_mut().begin_phase("boundary");
        core.attach_observer(recorder.clone());
        let mut round: Round<'_, CliqueTransport, u8> =
            Round::begin(&mut core, CliqueTransport { n: 6 });
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
        let inboxes = round.deliver();
        assert_eq!(&inboxes[1], &[(NodeId::new(0), 1), (NodeId::new(0), 2)][..]);
        assert_eq!(&inboxes[2], &[(NodeId::new(3), 4)][..]);
        assert_eq!(
            over,
            "bandwidth exceeded on link v0->v1: 33 bits attempted, budget 32"
        );
        let events = recorder.borrow().events.clone();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].max_pair_load, 32);
        assert_eq!(events[0].messages, 3);
        assert_eq!(core.ledger().messages, 3);
        assert_eq!(core.ledger().bits, 48);
        assert_eq!(core.ledger().violations, 0);
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

        let g = cc_mis_graph::generators::path(3);
        let congest = CongestTransport { graph: &g };
        assert!(congest.check_link(NodeId::new(0), NodeId::new(1)).is_ok());
        assert!(congest.check_link(NodeId::new(0), NodeId::new(2)).is_err());
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

    /// The frontier exchange gives what the old mask semantics gave — a
    /// send loop over every node, each sender to its receiving neighbours,
    /// then `deliver` — on a direct core and through the frame codec at 1,
    /// 2 and 4 shards: the same `receive` calls in the same order, the same
    /// ledger and the same events, over three rounds of one engine. It runs
    /// for every message shape the algorithms exchange: `u64`, `u32`, the
    /// sparsified `(Option<u64>, bool)`, an announcement-shaped `(u64,
    /// Option<u8>)` and the zero-length `()`. The cases pull and push, and
    /// cover a shard with no receivers (the lower half of the nodes only
    /// send), a silent receiver (no neighbour of node 17 sends), senders
    /// heard in one shard only (the ends of a path), a shard that receives
    /// nothing (one sender near the start of a path), an empty sender
    /// frontier, and clique engines larger than the graph (Theorem 1.1 runs
    /// its 1-node graph on 2 nodes).
    #[test]
    fn framed_exchange_matches_direct_pull() {
        let _guard = crate::shard::TEST_CONFIG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        check_framed_exchange(|v, round| u64::from(v.raw()) * 10 + round);
        check_framed_exchange(|v, round| v.raw() ^ u32::try_from(round).expect("< 3"));
        check_framed_exchange(|v, round| {
            let h = mix3(round, u64::from(v.raw()), 1);
            ((!h.is_multiple_of(3)).then_some(h), h.is_multiple_of(2))
        });
        check_framed_exchange(|v, round| {
            let h = mix3(round, u64::from(v.raw()), 2);
            (h, (!h.is_multiple_of(4)).then(|| h.to_le_bytes()[0]))
        });
        check_framed_exchange(|_, _| ());
    }

    /// [`framed_exchange_matches_direct_pull`] for messages built by
    /// `make(sender, round)`.
    fn check_framed_exchange<M>(make: impl Fn(NodeId, u64) -> M)
    where
        M: Wire + Clone + Sync + Send + PartialEq + fmt::Debug + 'static,
    {
        /// Per round, the `(receiver, sender, message)` calls in order.
        type Visits<M> = Vec<Vec<(u32, u32, M)>>;
        /// Runs three rounds through the exchange at `shards`, or (for
        /// `None`) through the mask-semantics send loop on a direct core.
        fn run<M>(
            shards: Option<Option<usize>>,
            (g, engine_n, receivers, sends): Case<'_>,
            make: &dyn Fn(NodeId, u64) -> M,
        ) -> (Visits<M>, RoundLedger, Vec<RoundEvent>)
        where
            M: Wire + Clone + Sync + Send + 'static,
        {
            crate::shard::set_shards_override(shards.flatten());
            let recorder = shared_recorder();
            let mut core = RoundCore::new(64, Enforcement::Strict);
            core.ledger_mut().begin_phase("exchange");
            core.attach_observer(recorder.clone());
            let frontier = Frontier::from_mask(receivers);
            let senders: Vec<NodeId> = g.nodes().filter(|&v| sends(v)).collect();
            let mut all = Vec::new();
            for round in 0..3u64 {
                let mut visits = Vec::new();
                let message_of = |v: NodeId| sends(v).then(|| (8 + round, make(v, round)));
                let receive =
                    |u: NodeId, v: NodeId, m: &M| visits.push((u.raw(), v.raw(), m.clone()));
                let exchange = shards.is_some();
                let (s, f) = (&senders[..], &frontier);
                let result = match engine_n {
                    Some(n) => play(
                        Round::begin(&mut core, CliqueTransport { n }),
                        exchange,
                        g,
                        (s, f, receivers),
                        message_of,
                        receive,
                    ),
                    None => play(
                        Round::begin(&mut core, CongestTransport { graph: g }),
                        exchange,
                        g,
                        (s, f, receivers),
                        message_of,
                        receive,
                    ),
                };
                result.expect("one message per pair fits the budget");
                all.push(visits);
            }
            if let Some(Some(_)) = shards {
                match &core.shards {
                    shard::ShardSlot::Framed(transport) => assert_eq!(transport.rounds(), 3),
                    _ => panic!("the core latched framed delivery"),
                }
            }
            crate::shard::set_shards_override(None);
            let events = recorder.borrow().events.clone();
            (all, core.into_ledger(), events)
        }
        /// Closes `round` through the exchange, or (if `!exchange`) through
        /// the old semantics: `message_of` at every node, each message to
        /// every neighbour whose receiver flag is set, then `deliver`.
        fn play<T: Transport, M: Wire + Clone + Sync + Send + 'static>(
            mut round: Round<'_, T, M>,
            exchange: bool,
            g: &Graph,
            (senders, frontier, receivers): (&[NodeId], &Frontier, &[bool]),
            message_of: impl Fn(NodeId) -> Option<(u64, M)>,
            mut receive: impl FnMut(NodeId, NodeId, &M),
        ) -> Result<(), BandwidthError> {
            if exchange {
                let message_of = |v| message_of(v).expect("every listed sender sends");
                return round.exchange_with_neighbors(g, senders, frontier, message_of, receive);
            }
            for v in g.nodes() {
                if let Some((bits, m)) = message_of(v) {
                    for &u in g.neighbors(v) {
                        if receivers[u.index()] {
                            round.send(v, u, bits, m.clone())?;
                        }
                    }
                }
            }
            for (u, inbox) in round.deliver().iter().enumerate() {
                for (v, m) in inbox {
                    receive(NodeId::new(idx_u32(u)), *v, m);
                }
            }
            Ok(())
        }
        type Case<'c> = (
            &'c Graph,
            Option<usize>,
            &'c [bool],
            &'c dyn Fn(NodeId) -> bool,
        );
        let g = cc_mis_graph::generators::erdos_renyi_gnp(24, 0.3, 5);
        let silent = NodeId::new(17);
        let upper: Vec<bool> = (0..24).map(|i| i >= 12).collect();
        let few: Vec<bool> = (0..24).map(|i| i % 8 == 1).collect();
        let all = vec![true; 24];
        let not_near_silent = |v: NodeId| !g.neighbors(silent).contains(&v);
        let lightest = g
            .nodes()
            .filter(|&v| g.degree(v) > 0)
            .min_by_key(|&v| g.degree(v))
            .expect("the graph has edges");
        let only_lightest = |v: NodeId| v == lightest;
        let path = cc_mis_graph::generators::path(3);
        let path8 = cc_mis_graph::generators::path(8);
        let single = Graph::empty(1);
        let cases: [(&str, Case<'_>); 11] = [
            ("CONGEST, all", (&g, None, &all, &|_| true)),
            (
                "CONGEST, upper half receives",
                (&g, None, &upper, &|_| true),
            ),
            (
                "clique, silent receiver",
                (&g, Some(24), &all, &not_near_silent),
            ),
            (
                "clique, one light sender",
                (&g, Some(24), &all, &only_lightest),
            ),
            (
                "CONGEST, one light sender",
                (&g, None, &all, &only_lightest),
            ),
            (
                "clique, one sender, few receivers",
                (&g, Some(24), &few, &only_lightest),
            ),
            ("CONGEST, no senders", (&g, None, &all, &|_| false)),
            (
                "path(3) on 5 nodes",
                (&path, Some(5), &[true; 3], &|_| true),
            ),
            ("1 node on 2", (&single, Some(2), &[true], &|_| true)),
            (
                "path(8), ends heard in one shard each",
                (&path8, None, &[true; 8], &|v| v.raw() % 7 == 0),
            ),
            (
                "path(8), upper shards hear nothing",
                (&path8, None, &[true; 8], &|v| v.raw() == 1),
            ),
        ];
        let mut pushed = 0;
        for (name, case) in cases {
            let (want, ledger, events) = run(None, case, &make);
            for shards in [None, Some(1usize), Some(2), Some(4)] {
                let got = run(Some(shards), case, &make);
                assert_eq!(got.0, want, "{name}: visits at {shards:?} shards");
                assert_eq!(got.1, ledger, "{name}: ledger at {shards:?} shards");
                assert_eq!(got.2, events, "{name}: events at {shards:?} shards");
            }
            let (graph, engine_n, receivers, sends) = case;
            let send_volume: usize = graph
                .nodes()
                .filter(|&v| sends(v))
                .map(|v| graph.degree(v))
                .sum();
            let nodes = engine_n.unwrap_or(graph.node_count());
            if 3 * send_volume + nodes < Frontier::from_mask(receivers).volume(graph) {
                pushed += 1;
            }
            if name == "clique, silent receiver" {
                assert!(want[0].iter().all(|&(u, _, _)| u != silent.raw()));
                assert!(want[0].len() > 24, "{name}: the round carries messages");
            }
        }
        assert!(
            pushed >= 3,
            "the push direction is covered ({pushed} cases)"
        );
    }

    /// `message_of` runs exactly once per sender, in order, and for no
    /// other node; `receive` runs only at receivers — on the pull path and
    /// on the push path alike.
    #[test]
    fn exchange_calls_only_the_frontiers() {
        let g = cc_mis_graph::generators::erdos_renyi_gnp(40, 0.25, 9);
        let receivers = Frontier::from_mask(&(0..40).map(|i| i % 3 != 0).collect::<Vec<_>>());
        let everyone: Vec<NodeId> = g.nodes().collect();
        let light: Vec<NodeId> = g.nodes().filter(|&v| v.raw() % 13 == 5).collect();
        for senders in [everyone, light, Vec::new()] {
            let mut core = RoundCore::new(64, Enforcement::Strict);
            let mut asked = Vec::new();
            let mut received = Vec::new();
            Round::begin(&mut core, CliqueTransport { n: 40 })
                .exchange_with_neighbors(
                    &g,
                    &senders,
                    &receivers,
                    |v| {
                        asked.push(v);
                        (8, v.raw())
                    },
                    |u, v, _| received.push((u, v)),
                )
                .expect("fits the budget");
            assert_eq!(asked, senders, "message_of once per sender, in order");
            assert!(received.iter().all(|&(u, _)| receivers.contains(u)));
            assert!(received.iter().all(|&(_, v)| senders.contains(&v)));
            let expected: usize = receivers
                .ids()
                .iter()
                .map(|&u| {
                    g.neighbors(u)
                        .iter()
                        .filter(|&&v| senders.contains(&v))
                        .count()
                })
                .sum();
            assert_eq!(received.len(), expected);
            assert_eq!(core.ledger().messages, expected as u64);
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

    /// The CONGEST transport enforces shared per-pair budgets across
    /// out-of-order sends through the probe table.
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

    /// The neighbour exchange visits exactly what the manual loop of sends
    /// to alive neighbours delivers, in inbox order, with the same charges.
    #[test]
    fn helper_matches_manual_loop_exactly() {
        let g = cc_mis_graph::generators::erdos_renyi_gnp(30, 0.2, 3);
        let n = g.node_count();
        let alive: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();

        let mut manual = CongestEngine::strict(&g, standard_bandwidth(n));
        let mut round = manual.begin_round::<u32>();
        for v in g.nodes() {
            if !alive[v.index()] {
                continue;
            }
            for &u in g.neighbors(v) {
                if alive[u.index()] {
                    round
                        .send(v, u, 7, v.raw())
                        .expect("message fits the bandwidth");
                }
            }
        }
        let manual_inboxes = round.deliver();
        let manual_visits: Vec<(usize, NodeId, u32)> = manual_inboxes
            .iter()
            .enumerate()
            .flat_map(|(u, inbox)| inbox.iter().map(move |&(v, msg)| (u, v, msg)))
            .collect();

        let mut helped = CongestEngine::strict(&g, standard_bandwidth(n));
        let mut helped_visits = Vec::new();
        let frontier = Frontier::from_mask(&alive);
        helped
            .begin_round::<u32>()
            .exchange_with_neighbors(
                &g,
                frontier.ids(),
                &frontier,
                |v| (7, v.raw()),
                |u, v, &msg| helped_visits.push((u.index(), v, msg)),
            )
            .expect("message fits the bandwidth");

        assert_eq!(manual_visits, helped_visits);
        assert_eq!(manual.ledger().messages, helped.ledger().messages);
        assert_eq!(manual.ledger().bits, helped.ledger().bits);
    }

    #[test]
    fn non_senders_and_dead_receivers_are_skipped() {
        let g = cc_mis_graph::generators::star(4); // center 0, leaves 1..3
        let alive = vec![true, true, false, true];
        let mut engine = CongestEngine::strict(&g, standard_bandwidth(4));
        // Only the center sends.
        let mut received = [0; 4];
        engine
            .begin_round::<()>()
            .exchange_with_neighbors(
                &g,
                &[NodeId::new(0)],
                &Frontier::from_mask(&alive),
                |_| (1, ()),
                |u, _, ()| received[u.index()] += 1,
            )
            .expect("message fits the bandwidth");
        assert_eq!(received[1], 1);
        assert_eq!(received[2], 0, "dead receiver must get nothing");
        assert_eq!(received[3], 1);
        assert_eq!(engine.ledger().messages, 2);
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
