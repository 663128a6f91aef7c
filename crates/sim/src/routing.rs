//! Lenzen-style all-to-all routing.
//!
//! The paper uses the routing theorem of [Lenzen, PODC'13] as a black box
//! (Lemma 2.14 and the clean-up step of §2.4): *if every node is the source
//! of at most `n` messages of `O(log n)` bits and the destination of at most
//! `n` messages, all messages can be delivered in `O(1)` rounds of the
//! congested clique.*
//!
//! This module provides a **constructive scheduler** with the same
//! interface. It computes an explicit round-by-round feasible schedule and
//! charges the engine's ledger for exactly the rounds, messages, and bits
//! the schedule uses — so experiment output reflects a real schedule, not an
//! asymptotic promise. Two schedules are considered and the cheaper one is
//! used:
//!
//! 1. **Direct**: every packet travels `src → dst`; the round count is the
//!    maximum, over ordered pairs, of the number of `B`-bit fragments that
//!    pair must carry.
//! 2. **Rotor relay**: packet `i` of source `s` first hops to relay
//!    `(s + i) mod n`, spreading each source's load evenly (one fragment per
//!    link), then relays forward to destinations. This is the textbook
//!    2-phase balanced-relay realization of Lenzen routing; the rotor offset
//!    makes the spread deterministic.
//!
//! Packets larger than the bandwidth `B` are fragmented and charged
//! `⌈bits/B⌉` round-slots per hop. When a node is the source (or
//! destination) of more than `n` packets, the batch is split so each batch
//! obeys Lenzen's capacity precondition; the split count multiplies the
//! round bill honestly.
//!
//! An invocation pays for its packets, not for `n`: the node-indexed
//! counters live in the engine, are sized once, and are zeroed again
//! through the packets that touched them; grouping sorts only the distinct
//! keys that occur; and the result is one flat [`Delivery`] rather than an
//! inbox per node.
//!
//! Scheduling and delivery are separate steps. [`charge_route`] computes
//! the schedule and charges it; [`route`] is that call followed by the
//! `(dst, src)` sort that builds the [`Delivery`]. A caller that never
//! reads the delivered payloads calls [`charge_route`] and skips the sort;
//! the ledger is the same either way.
//!
//! A request where each sender sends one packet size to distinct other
//! nodes (a *fan-out*) needs no packets at all: [`charge_fanout`] charges
//! it in closed form from one `(targets, bits)` pair per sender, because
//! such a request is always one batch and always takes the direct
//! schedule. Graph exponentiation's gathers are fan-outs: a sender ships
//! its ball to every other node of its span, and a receiver already knows
//! its senders (its own span) and reads their balls by reference.

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

use std::collections::VecDeque;
use std::ops;

use cc_mis_graph::NodeId;

use crate::bits::idx_u32;
use crate::clique::CliqueEngine;
use crate::runtime::RoundCore;

/// One routed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<M> {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Encoded size in bits.
    pub bits: u64,
    /// The payload delivered to `dst`.
    pub payload: M,
}

/// Error for malformed routing requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// A packet endpoint is out of range for the engine.
    EndpointOutOfRange {
        /// The offending node index.
        node: u32,
        /// The network size.
        n: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::EndpointOutOfRange { node, n } => {
                write!(f, "packet endpoint v{node} out of range for {n} nodes")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// What a routing invocation delivered: every packet, grouped by
/// destination in ascending order and sorted by source within a
/// destination. Packets of one ordered pair keep their request order.
/// Sized by the packets, never by `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    packets: Vec<Packet<M>>,
}

impl<M> Delivery<M> {
    /// Every delivered packet, in `(dst, src)` order.
    pub fn packets(&self) -> &[Packet<M>] {
        &self.packets
    }

    /// The inboxes that received something, in destination order; each is
    /// sorted by source.
    pub fn nonempty(&self) -> impl Iterator<Item = &[Packet<M>]> + '_ {
        self.packets.chunk_by(|a, b| a.dst == b.dst)
    }
}

/// The inbox of node `d`, sorted by source (a binary search, `O(log P)`).
impl<M> ops::Index<usize> for Delivery<M> {
    type Output = [Packet<M>];

    fn index(&self, d: usize) -> &[Packet<M>] {
        let lo = self.packets.partition_point(|p| p.dst.index() < d);
        let len = self.packets[lo..].partition_point(|p| p.dst.index() == d);
        &self.packets[lo..lo + len]
    }
}

/// Result of a routing invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Rounds the schedule consumed (also charged to the engine ledger).
    pub rounds: u64,
    /// Number of capacity batches the request was split into (1 whenever
    /// Lenzen's `≤ n` per-source/per-destination precondition held).
    pub batches: u64,
    /// Whether the relay schedule (vs. direct) was used in any batch.
    pub used_relay: bool,
}

/// Routes `packets` through the clique, delivering each payload to its
/// destination. Returns the [`Delivery`] (per-destination inboxes sorted
/// by source) plus the schedule's cost.
///
/// This is [`charge_route`] followed by the delivery sort; a caller that
/// does not read the [`Delivery`] should call [`charge_route`] instead.
/// Self-addressed packets (`src == dst`) are delivered locally for free.
///
/// # Errors
///
/// Returns [`RoutingError`] if any endpoint is out of range.
///
/// # Example
///
/// ```
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_sim::routing::{route, Packet};
/// use cc_mis_graph::NodeId;
///
/// let mut engine = CliqueEngine::strict(4, 32);
/// let packets = vec![
///     Packet { src: NodeId::new(0), dst: NodeId::new(3), bits: 20, payload: "a" },
///     Packet { src: NodeId::new(1), dst: NodeId::new(3), bits: 20, payload: "b" },
/// ];
/// let (delivery, outcome) = route(&mut engine, packets)?;
/// assert_eq!(delivery[3].len(), 2);
/// assert!(outcome.rounds >= 1);
/// # Ok::<(), cc_mis_sim::routing::RoutingError>(())
/// ```
pub fn route<M>(
    engine: &mut CliqueEngine,
    packets: Vec<Packet<M>>,
) -> Result<(Delivery<M>, RoutingOutcome), RoutingError> {
    let outcome = charge_route(engine, &packets)?;
    Ok((deliver(packets), outcome))
}

/// Schedules `packets` and charges the engine's ledger exactly as
/// [`route`] does, without delivering them: no payload is moved and no
/// packet is sorted. For callers that know each receiver's senders
/// without a [`Delivery`].
///
/// # Errors
///
/// Returns [`RoutingError`] if any endpoint is out of range; nothing is
/// charged then.
///
/// # Example
///
/// ```
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_sim::routing::{charge_route, Packet};
/// use cc_mis_graph::NodeId;
///
/// let mut engine = CliqueEngine::strict(4, 32);
/// let packets = [
///     Packet { src: NodeId::new(0), dst: NodeId::new(3), bits: 20, payload: () },
///     Packet { src: NodeId::new(1), dst: NodeId::new(3), bits: 20, payload: () },
/// ];
/// let outcome = charge_route(&mut engine, &packets)?;
/// assert_eq!(engine.ledger().rounds, outcome.rounds);
/// assert_eq!(engine.ledger().messages, 2);
/// # Ok::<(), cc_mis_sim::routing::RoutingError>(())
/// ```
pub fn charge_route<M>(
    engine: &mut CliqueEngine,
    packets: &[Packet<M>],
) -> Result<RoutingOutcome, RoutingError> {
    charge_with(engine, packets, ScheduleChoice::Cheaper)
}

/// Which schedule [`charge_with`] uses for every batch. `Cheaper` is the
/// production behavior; the forced variants exist so tests can compare the
/// two schedules on identical workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(
    not(test),
    allow(dead_code, reason = "the forced variants are test-only")
)]
pub(crate) enum ScheduleChoice {
    /// Pick the cheaper schedule per batch (ties go to direct).
    Cheaper,
    /// Always the direct schedule.
    Direct,
    /// Always the rotor-relay schedule.
    Relay,
}

pub(crate) fn charge_with<M>(
    engine: &mut CliqueEngine,
    packets: &[Packet<M>],
    choice: ScheduleChoice,
) -> Result<RoutingOutcome, RoutingError> {
    let n = engine.node_count();
    let bandwidth = engine.bandwidth().max(1);
    check_endpoints(n, packets)?;
    let (core, scratch) = engine.routing_parts();
    scratch.fit(n);
    let batches = split_batches(n, packets, scratch);
    let mut total_rounds = 0u64;
    let mut used_relay = false;
    for batch in &batches {
        let (rounds, relay) = schedule_batch(n, bandwidth, packets, batch, core, choice, scratch);
        total_rounds += rounds;
        used_relay |= relay;
    }
    Ok(RoutingOutcome {
        rounds: total_rounds,
        batches: batches.len() as u64,
        used_relay,
    })
}

/// Charges a *fan-out* in closed form: each item is one distinct sender,
/// given as `(targets, bits)`, that sends one `bits`-bit packet to each of
/// `targets` distinct nodes other than itself. The ledger and the outcome
/// are exactly what [`charge_route`] gives for those packets, and no
/// packet is built.
///
/// A fan-out always fits one Lenzen batch (a node sends at most `n − 1`
/// packets and receives at most one per sender), and the direct schedule
/// always wins it: every ordered pair carries one packet, so direct rounds
/// are the largest per-packet fragment count `⌈bits/B⌉`, while the rotor
/// relay charges each packet's fragments to relay hop 1 (rank ≥ 1) or to
/// a hop-2 relay load (rank 0, relay = source ≠ destination), so relay
/// rounds are at least that, and ties go to direct. Nothing is charged
/// when no sender has a target.
///
/// # Panics
///
/// Panics if a sender has `n` or more targets, or there are more than `n`
/// senders.
///
/// # Example
///
/// ```
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_sim::routing::charge_fanout;
///
/// let mut engine = CliqueEngine::strict(4, 32);
/// // One sender with 3 targets of 40 bits (2 fragments each), one idle.
/// let outcome = charge_fanout(&mut engine, [(3, 40), (0, 8)]);
/// assert_eq!(outcome.rounds, 2);
/// assert_eq!(engine.ledger().messages, 6);
/// assert_eq!(engine.ledger().bits, 120);
/// ```
pub fn charge_fanout(
    engine: &mut CliqueEngine,
    senders: impl IntoIterator<Item = (usize, u64)>,
) -> RoutingOutcome {
    let n = engine.node_count();
    let bandwidth = engine.bandwidth().max(1);
    let (mut rounds, mut msgs, mut bits, mut count) = (0u64, 0u64, 0u64, 0usize);
    for (targets, sender_bits) in senders {
        assert!(
            targets < n,
            "a sender has {targets} targets among {n} nodes"
        );
        count += 1;
        if targets > 0 {
            let k = sender_bits.div_ceil(bandwidth).max(1);
            rounds = rounds.max(k);
            msgs += targets as u64 * k;
            bits += targets as u64 * sender_bits;
        }
    }
    assert!(count <= n, "{count} senders among {n} nodes");
    if rounds > 0 {
        engine.routing_parts().0.record_schedule(rounds, msgs, bits);
    }
    RoutingOutcome {
        rounds,
        batches: 1,
        used_relay: false,
    }
}

fn check_endpoints<M>(n: usize, packets: &[Packet<M>]) -> Result<(), RoutingError> {
    for p in packets {
        for node in [p.src, p.dst] {
            if node.index() >= n {
                return Err(RoutingError::EndpointOutOfRange {
                    node: node.raw(),
                    n,
                });
            }
        }
    }
    Ok(())
}

/// Splits the packets that cross a link into capacity-respecting batches
/// of packet indices (always at least one batch, usually exactly one):
/// each packet joins the first batch in which its source has sent, and its
/// destination received, fewer than `n` packets.
fn split_batches<M>(n: usize, packets: &[Packet<M>], scratch: &mut RouteScratch) -> Vec<Vec<u32>> {
    let mut batches: Vec<Vec<u32>> = vec![Vec::new()];
    // Batch 0 counts in the engine's scratch. A later batch exists only
    // once some node has sent or received `n` packets, so its own n-entry
    // counters are paid for by packets.
    let mut later: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let fits = |sent: u32, received: u32| (sent as usize) < n && (received as usize) < n;
    for (i, p) in packets.iter().enumerate() {
        if p.src == p.dst {
            continue;
        }
        let (s, d) = (p.src.index(), p.dst.index());
        let b = if fits(scratch.count[s], scratch.received[d]) {
            scratch.count[s] += 1;
            scratch.received[d] += 1;
            0
        } else {
            let slot = later.iter().position(|(sc, dc)| fits(sc[s], dc[d]));
            let b = slot.unwrap_or_else(|| {
                later.push((vec![0; n], vec![0; n]));
                batches.push(Vec::new());
                later.len() - 1
            });
            later[b].0[s] += 1;
            later[b].1[d] += 1;
            b + 1
        };
        batches[b].push(idx_u32(i));
    }
    for &i in &batches[0] {
        let p = &packets[i as usize];
        scratch.count[p.src.index()] = 0;
        scratch.received[p.dst.index()] = 0;
    }
    batches
}

/// Orders `packets` as a [`Delivery`]. The sort is stable, so packets of
/// one ordered pair keep their request order.
fn deliver<M>(mut packets: Vec<Packet<M>>) -> Delivery<M> {
    packets.sort_by_key(|p| (p.dst, p.src));
    Delivery { packets }
}

/// Routes `packets` by **executing** the direct schedule fragment by
/// fragment through real engine rounds — the validation counterpart of
/// [`route`]'s analytic accounting. Every fragment is a genuine
/// [`crate::clique::CliqueRound`] send subject to strict bandwidth
/// enforcement, so the returned round count is achievable by construction.
///
/// Returns the [`Delivery`] and the executed round count, which for each
/// batch equals the direct schedule's analytic bound
/// `max_{(s,d)} Σ ⌈bits/B⌉` (tested to agree).
///
/// Use [`route`] in algorithms (it is much faster and may pick the cheaper
/// relay schedule); use this in tests and validation harnesses.
///
/// # Errors
///
/// Returns [`RoutingError`] if any endpoint is out of range.
pub fn route_executed<M>(
    engine: &mut CliqueEngine,
    packets: Vec<Packet<M>>,
) -> Result<(Delivery<M>, u64), RoutingError> {
    let n = engine.node_count();
    let bandwidth = engine.bandwidth().max(1);
    check_endpoints(n, &packets)?;
    let batches = {
        let (_, scratch) = engine.routing_parts();
        scratch.fit(n);
        split_batches(n, &packets, scratch)
    };
    let mut total_rounds = 0u64;
    for batch in batches {
        // Per-ordered-pair FIFO of (packet index, bits still to transmit),
        // grouped by packed (src, dst) key via a stable sort — the batch
        // order within a pair is the FIFO order, and the round loop visits
        // pairs in a fixed deterministic order (no hash map).
        let key = |i: u32| {
            let p = &packets[i as usize];
            (u64::from(p.src.raw()) << 32) | u64::from(p.dst.raw())
        };
        let mut keyed = batch;
        keyed.sort_by_key(|&i| key(i));
        let mut queues: Vec<VecDeque<(u32, u64)>> = Vec::new();
        let mut last_key = None;
        for i in keyed {
            if last_key != Some(key(i)) {
                queues.push(VecDeque::new());
                last_key = Some(key(i));
            }
            let bits_left = packets[i as usize].bits.max(1);
            queues
                .last_mut()
                .expect("just pushed")
                .push_back((i, bits_left));
        }
        while !queues.is_empty() {
            let mut round = engine.begin_round::<bool>();
            for q in queues.iter_mut() {
                if let Some((i, bits_left)) = q.front_mut() {
                    let p = &packets[*i as usize];
                    let bits_now = (*bits_left).min(bandwidth);
                    *bits_left -= bits_now;
                    let done = *bits_left == 0;
                    round
                        .send(p.src, p.dst, bits_now, done)
                        .expect("fragment fits the bandwidth");
                    if done {
                        q.pop_front();
                    }
                }
            }
            round.deliver();
            total_rounds += 1;
            queues.retain(|q| !q.is_empty());
        }
    }
    Ok((deliver(packets), total_rounds))
}

/// Node-indexed buffers every routing invocation on one engine reuses.
/// They are sized to `n` on first use, and every counter is back at zero
/// when an invocation returns (reset through the keys that touched it), so
/// no invocation pays for `n`. No hash map appears in the per-fragment
/// loops.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// Per-node counter: group sizes in `group_by`, packets sent in
    /// `split_batches`, rotor ranks in `schedule_batch`.
    count: Vec<u32>,
    /// Per-node packets received in `split_batches`.
    received: Vec<u32>,
    /// Per-node slot accumulators for the current destination's ordered
    /// pairs: `loads` by source, `relay_loads` by relay. Zero means
    /// "untouched" — valid because every packet contributes at least one
    /// slot.
    loads: Vec<u64>,
    relay_loads: Vec<u64>,
    /// Indices of `count`/`loads` and of `relay_loads` dirtied so far.
    touched: Vec<usize>,
    relay_touched: Vec<usize>,
    /// The distinct keys of the last `group_by`, ascending; group `g` is
    /// `order[starts[g]..starts[g + 1]]`.
    keys: Vec<u32>,
    starts: Vec<u32>,
    /// Indices grouped by key, input order preserved within a group.
    order: Vec<u32>,
    /// Each batch packet's rotor relay.
    relay_of: Vec<u32>,
}

impl RouteScratch {
    /// Sizes the node-indexed counters for an `n`-node engine.
    fn fit(&mut self, n: usize) {
        if self.loads.len() < n {
            self.count.resize(n, 0);
            self.received.resize(n, 0);
            self.loads.resize(n, 0);
            self.relay_loads.resize(n, 0);
        }
    }

    /// Stable counting sort of `0..len` by `key(i)` into `self.order`,
    /// over the distinct keys only: `O(len + k log k)` for `k` distinct
    /// keys, whatever the key range.
    fn group_by(&mut self, len: usize, key: impl Fn(usize) -> usize) {
        self.keys.clear();
        for i in 0..len {
            let k = key(i);
            if self.count[k] == 0 {
                self.keys.push(idx_u32(k));
            }
            self.count[k] += 1;
        }
        self.keys.sort_unstable();
        // `count[k]` becomes key k's next free slot in `order`.
        self.starts.clear();
        self.starts.push(0);
        let mut acc = 0u32;
        for &k in &self.keys {
            let size = self.count[k as usize];
            self.count[k as usize] = acc;
            acc += size;
            self.starts.push(acc);
        }
        self.order.clear();
        self.order.resize(len, 0);
        for i in 0..len {
            let slot = &mut self.count[key(i)];
            self.order[*slot as usize] = idx_u32(i);
            *slot += 1;
        }
        for &k in &self.keys {
            self.count[k as usize] = 0;
        }
    }
}

/// Computes the direct and rotor-relay schedules for one capacity-feasible
/// batch (indices into `packets`), charges the ledger for the selected one,
/// and returns `(rounds, used_relay)`. With [`ScheduleChoice::Cheaper`] the
/// cheaper schedule wins (ties to direct) — the production behavior.
fn schedule_batch<M>(
    n: usize,
    bandwidth: u64,
    packets: &[Packet<M>],
    batch: &[u32],
    core: &mut RoundCore,
    choice: ScheduleChoice,
    scratch: &mut RouteScratch,
) -> (u64, bool) {
    if batch.is_empty() {
        return (0, false);
    }
    let slots = |bits: u64| bits.div_ceil(bandwidth).max(1);

    // One pass in batch order: fragment totals, and each packet's rotor
    // relay `(s + i) mod n`, where `i` is its rank among its source's
    // packets. A batch holds at most `n` packets per source, so one
    // source's relays are distinct: hop 1 carries one packet per link, and
    // its rounds are the largest such packet's slots.
    let mut direct_msgs = 0u64;
    let mut direct_bits = 0u64;
    let mut hop1_rounds = 0u64;
    let mut relay_msgs = 0u64;
    let mut relay_bits = 0u64;
    scratch.relay_of.clear();
    for &i in batch {
        let p = &packets[i as usize];
        let s = p.src.index();
        if scratch.count[s] == 0 {
            scratch.touched.push(s);
        }
        let rank = scratch.count[s] as usize;
        scratch.count[s] += 1;
        let relay = if s + rank >= n {
            s + rank - n
        } else {
            s + rank
        };
        scratch.relay_of.push(idx_u32(relay));
        let k = slots(p.bits);
        direct_msgs += k;
        direct_bits += p.bits;
        if relay != s {
            hop1_rounds = hop1_rounds.max(k);
            relay_msgs += k;
            relay_bits += p.bits;
        }
        if p.dst.index() != relay {
            relay_msgs += k;
            relay_bits += p.bits;
        }
    }
    for s in scratch.touched.drain(..) {
        scratch.count[s] = 0;
    }

    // Per destination, the pair loads of the direct hop (src → dst) and of
    // relay hop 2 (relay → dst), in node-indexed accumulators reset per
    // destination group.
    let relay_of = std::mem::take(&mut scratch.relay_of);
    scratch.group_by(batch.len(), |j| packets[batch[j] as usize].dst.index());
    let mut direct_rounds = 0u64;
    let mut hop2_rounds = 0u64;
    for g in 0..scratch.keys.len() {
        let d = scratch.keys[g] as usize;
        for &j in &scratch.order[scratch.starts[g] as usize..scratch.starts[g + 1] as usize] {
            let p = &packets[batch[j as usize] as usize];
            let k = slots(p.bits);
            let s = p.src.index();
            if scratch.loads[s] == 0 {
                scratch.touched.push(s);
            }
            scratch.loads[s] += k;
            direct_rounds = direct_rounds.max(scratch.loads[s]);
            let r = relay_of[j as usize] as usize;
            if r != d {
                if scratch.relay_loads[r] == 0 {
                    scratch.relay_touched.push(r);
                }
                scratch.relay_loads[r] += k;
                hop2_rounds = hop2_rounds.max(scratch.relay_loads[r]);
            }
        }
        for s in scratch.touched.drain(..) {
            scratch.loads[s] = 0;
        }
        for r in scratch.relay_touched.drain(..) {
            scratch.relay_loads[r] = 0;
        }
    }
    scratch.relay_of = relay_of;
    let relay_rounds = hop1_rounds + hop2_rounds;

    let use_relay = match choice {
        ScheduleChoice::Cheaper => relay_rounds < direct_rounds,
        ScheduleChoice::Direct => false,
        ScheduleChoice::Relay => true,
    };
    let (rounds, msgs, bits) = if use_relay {
        (relay_rounds, relay_msgs, relay_bits)
    } else {
        (direct_rounds, direct_msgs, direct_bits)
    };
    // One ledger message per fragment keeps message counts honest.
    core.record_schedule(rounds, msgs, bits);
    (rounds, use_relay)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: u32, dst: u32, bits: u64, tag: u32) -> Packet<u32> {
        Packet {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            bits,
            payload: tag,
        }
    }

    #[test]
    fn empty_request_is_free() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) =
            route::<u32>(&mut e, vec![]).expect("routing succeeds: endpoints are in range");
        assert!(inboxes.packets().is_empty());
        assert_eq!(out.rounds, 0);
        assert_eq!(e.ledger().rounds, 0);
    }

    #[test]
    fn single_packet_one_round() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) = route(&mut e, vec![pkt(0, 2, 16, 7)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[2], vec![pkt(0, 2, 16, 7)]);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.batches, 1);
    }

    #[test]
    fn self_delivery_is_free() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) = route(&mut e, vec![pkt(1, 1, 1000, 9)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(e.ledger().bits, 0);
    }

    #[test]
    fn fragmentation_charges_multiple_slots() {
        let mut e = CliqueEngine::strict(4, 32);
        // 100 bits over a 32-bit link = 4 fragments.
        let (_, out) = route(&mut e, vec![pkt(0, 1, 100, 0)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(out.rounds, 4);
        assert_eq!(e.ledger().rounds, 4);
    }

    #[test]
    fn hotspot_pair_uses_relay() {
        let n = 16;
        let mut e = CliqueEngine::strict(n, 32);
        // Node 0 sends 16 packets, all to node 1: direct would need 16
        // rounds; the rotor spreads them across relays.
        let packets: Vec<Packet<u32>> = (0..16).map(|i| pkt(0, 1, 32, i)).collect();
        let (inboxes, out) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 16);
        assert!(out.used_relay);
        assert!(
            out.rounds <= 3,
            "relay schedule should be O(1) rounds, got {}",
            out.rounds
        );
    }

    #[test]
    fn lenzen_precondition_load_is_constant_rounds() {
        // Every node sends n packets to uniformly-spread destinations:
        // the canonical Lenzen workload.
        let n = 32;
        let mut e = CliqueEngine::strict(n, 32);
        let mut packets = Vec::new();
        for s in 0..n as u32 {
            for k in 0..n as u32 {
                let d = (s + k) % n as u32;
                if d != s {
                    packets.push(pkt(s, d, 32, k));
                }
            }
        }
        let (_, out) = route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(out.batches, 1);
        assert!(out.rounds <= 4, "got {} rounds", out.rounds);
    }

    #[test]
    fn over_capacity_splits_into_batches() {
        let n = 4;
        let mut e = CliqueEngine::strict(n, 32);
        // Node 0 is the destination of 3n packets from node 1 alone is
        // impossible (per-source also binds); use 3 sources × n packets.
        let mut packets = Vec::new();
        for s in 1..4u32 {
            for k in 0..8u32 {
                packets.push(pkt(s, 0, 32, k));
            }
        }
        // dst 0 receives 24 > n = 4 packets ⇒ at least 6 batches by dst cap.
        let (inboxes, out) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[0].len(), 24);
        assert!(out.batches >= 6, "got {} batches", out.batches);
    }

    #[test]
    fn endpoints_validated() {
        let mut e = CliqueEngine::strict(4, 32);
        let err = route(&mut e, vec![pkt(0, 9, 8, 0)]).unwrap_err();
        assert!(matches!(
            err,
            RoutingError::EndpointOutOfRange { node: 9, .. }
        ));
        assert!(err.to_string().contains("v9"));
        let err = charge_route(&mut e, &[pkt(0, 1, 8, 0), pkt(9, 0, 8, 0)]).unwrap_err();
        assert!(matches!(
            err,
            RoutingError::EndpointOutOfRange { node: 9, .. }
        ));
        assert_eq!(e.ledger().messages, 0, "a refused request charges nothing");
    }

    #[test]
    fn inboxes_sorted_by_source() {
        let mut e = CliqueEngine::strict(8, 32);
        let packets = vec![pkt(5, 0, 8, 0), pkt(2, 0, 8, 0), pkt(7, 0, 8, 0)];
        let (inboxes, _) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        let srcs: Vec<u32> = inboxes[0].iter().map(|p| p.src.raw()).collect();
        assert_eq!(srcs, vec![2, 5, 7]);
    }

    #[test]
    fn executed_schedule_delivers_everything_and_matches_direct_bound() {
        // route_executed realizes the direct schedule through real rounds:
        // executed rounds == max over ordered pairs of Σ⌈bits/B⌉ per batch.
        let n = 8;
        let b = 32u64;
        let packets = vec![
            pkt(0, 1, 100, 1), // 4 fragments
            pkt(0, 1, 10, 2),  // +1 ⇒ pair (0,1) carries 5
            pkt(2, 3, 32, 3),
            pkt(4, 4, 5, 4), // self: free
        ];
        let expected_rounds = 5;
        let mut e = CliqueEngine::strict(n, b);
        let (inboxes, rounds) =
            route_executed(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(rounds, expected_rounds);
        assert_eq!(e.ledger().rounds, expected_rounds);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[3].len(), 1);
        assert_eq!(inboxes[4].len(), 1);
        assert_eq!(e.ledger().violations, 0);
    }

    /// Deterministic skewed workload for agreement tests; regenerated per
    /// call so no caller ever needs to clone a packet vector.
    fn spread_workload(n: usize) -> Vec<Packet<u32>> {
        let mut packets = Vec::new();
        for s in 0..n as u32 {
            for k in 1..4u32 {
                packets.push(pkt(s, (s + k) % n as u32, 17 * (k as u64 + 1), s * 10 + k));
            }
        }
        packets
    }

    #[test]
    fn executed_and_analytic_agree_on_delivery() {
        // Same packet multiset in, same inboxes out (payload-for-payload).
        let n = 10;
        let mut e1 = CliqueEngine::strict(n, 32);
        let (a, _) =
            route(&mut e1, spread_workload(n)).expect("routing succeeds: endpoints are in range");
        let mut e2 = CliqueEngine::strict(n, 32);
        let (b, _) = route_executed(&mut e2, spread_workload(n))
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(a, b);
    }

    #[test]
    fn direct_and_relay_charges_are_exact_and_deterministic() {
        // Property test (seeded cases): forcing the direct schedule and
        // forcing the rotor-relay schedule must each charge the ledger
        // exactly what its schedule says (rounds charged == outcome
        // rounds), deterministically across repetition. Delivery does not
        // depend on the schedule, so it is not compared here.
        use cc_mis_graph::rng::SplitMix64;
        for case in 0u64..32 {
            let mut rng = SplitMix64::new(0xD1CE_0000 + case);
            let n = 4 + rng.next_below(12) as usize;
            let m = 1 + rng.next_below(4 * n as u64) as usize;
            let mut packets = Vec::with_capacity(m);
            for tag in 0..m as u32 {
                let src = rng.next_below(n as u64) as u32;
                let dst = rng.next_below(n as u64) as u32;
                let bits = 1 + rng.next_below(80);
                packets.push(pkt(src, dst, bits, tag));
            }
            let run = |choice: ScheduleChoice| {
                let mut e = CliqueEngine::strict(n, 32);
                let out = charge_with(&mut e, &packets, choice)
                    .expect("routing succeeds: endpoints are in range");
                assert_eq!(
                    e.ledger().rounds,
                    out.rounds,
                    "case {case}: ledger rounds must equal schedule rounds"
                );
                (out.rounds, e.ledger().messages, e.ledger().bits)
            };
            // Determinism of the charges: re-running either schedule on the
            // same workload reproduces rounds, messages, and bits exactly.
            let direct = run(ScheduleChoice::Direct);
            assert_eq!(direct, run(ScheduleChoice::Direct), "case {case}");
            let relay = run(ScheduleChoice::Relay);
            assert_eq!(relay, run(ScheduleChoice::Relay), "case {case}");
            // And the production chooser is never worse than either forced
            // schedule (it picks per batch, so it can beat both totals).
            let (cheaper, _, _) = run(ScheduleChoice::Cheaper);
            assert!(cheaper <= direct.0.min(relay.0), "case {case}");
        }
    }

    #[test]
    fn executed_preserves_strictness() {
        // The executed path goes through strict CliqueRound sends; a giant
        // packet must still be fragmented, never over-budget.
        let mut e = CliqueEngine::strict(4, 16);
        let (inboxes, rounds) = route_executed(&mut e, vec![pkt(0, 1, 1000, 0)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(rounds, 63); // ceil(1000/16)
        assert_eq!(e.ledger().violations, 0);
    }

    #[test]
    fn ledger_reflects_schedule() {
        let mut e = CliqueEngine::strict(4, 32);
        route(&mut e, vec![pkt(0, 1, 32, 0), pkt(2, 3, 32, 0)])
            .expect("routing succeeds: endpoints are in range");
        // Both packets fit in parallel: 1 round, 2 messages, 64 bits.
        assert_eq!(e.ledger().rounds, 1);
        assert_eq!(e.ledger().messages, 2);
        assert_eq!(e.ledger().bits, 64);
    }
}
