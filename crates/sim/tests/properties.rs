//! Property-style tests of the simulators: routing delivery semantics,
//! engine bookkeeping, and randomness-stream invariants.
//!
//! Cases are generated by a deterministic seeded sweep (no registry
//! dependencies — the workspace must build fully offline). Assertions
//! carry the case index so any failure replays exactly.

use cc_mis_graph::rng::SplitMix64;
use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::rng::{SharedRandomness, Stream};
use cc_mis_sim::routing::{charge_fanout, charge_route, route, route_executed, Packet};
use cc_mis_sim::runtime::{Enforcement, Inboxes, Round, RoundEvent, RoundObserver, Transport};
use cc_mis_sim::{BandwidthError, Frontier, RoundLedger};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const CASES: u64 = 48;

/// Deterministic packet workload over `n ∈ [2, 24]` nodes for a case index.
fn packets_case(case: u64) -> (usize, Vec<Packet<u32>>) {
    let mut r = SplitMix64::new(0xC0FFEEu64.wrapping_mul(case + 1));
    let n = 2 + r.next_below(22) as usize;
    let count = r.next_below(60) as usize;
    let packets = (0..count)
        .map(|_| Packet {
            src: NodeId::new(r.next_below(n as u64) as u32),
            dst: NodeId::new(r.next_below(n as u64) as u32),
            bits: 1 + r.next_below(199),
            payload: r.next_u64() as u32,
        })
        .collect();
    (n, packets)
}

/// Multiset fingerprint of packets: (src, dst, bits, payload) counts.
fn fingerprint(packets: &[Packet<u32>]) -> BTreeMap<(u32, u32, u64, u32), usize> {
    let mut m = BTreeMap::new();
    for p in packets {
        *m.entry((p.src.raw(), p.dst.raw(), p.bits, p.payload))
            .or_insert(0) += 1;
    }
    m
}

#[test]
fn routing_delivers_every_packet_exactly_once() {
    for case in 0..CASES {
        let (n, packets) = packets_case(case);
        let sent = fingerprint(&packets);
        let count = packets.len();
        let mut engine = CliqueEngine::strict(n, 32);
        let (inboxes, outcome) = route(&mut engine, packets).unwrap();
        let received: Vec<Packet<u32>> = inboxes.packets().to_vec();
        assert_eq!(fingerprint(&received), sent, "case {case}");
        // Inbox lookup and `nonempty` rely on `(dst, src)` order; with it,
        // the inboxes hold every packet.
        assert!(received.is_sorted_by_key(|p| (p.dst, p.src)), "case {case}");
        let total: usize = (0..n).map(|d| inboxes[d].len()).sum();
        assert_eq!(total, count, "case {case}");
        let mut chunks = 0;
        for inbox in inboxes.nonempty() {
            assert!(inbox.iter().all(|p| p.dst == inbox[0].dst), "case {case}");
            assert_eq!(inbox, &inboxes[inbox[0].dst.index()], "case {case}");
            chunks += 1;
        }
        assert_eq!(chunks, (0..n).filter(|&d| !inboxes[d].is_empty()).count());
        // Every packet sits in its destination's inbox.
        for (d, inbox) in (0..n).map(|d| (d, &inboxes[d])) {
            for p in inbox {
                assert_eq!(p.dst.index(), d, "case {case}");
            }
            // Sorted by source.
            assert!(
                inbox.windows(2).all(|w| w[0].src <= w[1].src),
                "case {case}"
            );
        }
        assert_eq!(engine.ledger().rounds, outcome.rounds, "case {case}");
        assert_eq!(engine.ledger().violations, 0, "case {case}");
    }
}

/// Hotspot workload for a case: every source sends `n / 2 + case % 5`
/// packets to node 0 (so node 0 receives more than `n` and the request
/// splits into batches), plus one over-full ordered pair that only the
/// relay schedule spreads, plus a self-addressed packet per source.
fn hotspot_case(case: u64) -> (usize, Vec<Packet<u32>>) {
    let n = 3 + (case % 13) as usize;
    let per_source = n / 2 + (case % 5) as usize;
    let mut packets = Vec::new();
    for s in 0..n as u32 {
        for k in 0..per_source as u32 {
            packets.push(Packet {
                src: NodeId::new(s),
                dst: NodeId::new(0),
                bits: 8 + u64::from(k) * 13,
                payload: k,
            });
        }
        packets.push(Packet {
            src: NodeId::new(s),
            dst: NodeId::new(s),
            bits: 64,
            payload: s,
        });
    }
    for k in 0..n as u32 {
        packets.push(Packet {
            src: NodeId::new(1),
            dst: NodeId::new(2),
            bits: 32,
            payload: k,
        });
    }
    (n, packets)
}

#[test]
fn charging_without_delivery_matches_route() {
    let workloads = (0..CASES).flat_map(|case| [packets_case(case), hotspot_case(case)]);
    for (case, (n, packets)) in workloads.enumerate() {
        // Two invocations in two phases, so the phase records are compared
        // as well as the totals.
        let mut routed = CliqueEngine::strict(n, 32);
        let mut charged = CliqueEngine::strict(n, 32);
        for engine in [&mut routed, &mut charged] {
            engine.ledger_mut().begin_phase("first");
        }
        let (_, outcome) = route(&mut routed, packets.clone()).unwrap();
        assert_eq!(
            charge_route(&mut charged, &packets).unwrap(),
            outcome,
            "case {case}"
        );
        for engine in [&mut routed, &mut charged] {
            engine.ledger_mut().begin_phase("second");
        }
        let tail = &packets[packets.len() / 2..];
        let (_, outcome) = route(&mut routed, tail.to_vec()).unwrap();
        assert_eq!(
            charge_route(&mut charged, tail).unwrap(),
            outcome,
            "case {case}"
        );
        assert_eq!(charged.ledger(), routed.ledger(), "case {case}");
        assert_eq!(routed.ledger().phases.len(), 2, "case {case}");
    }
    // Hotspots split into batches, and some schedule takes the relay.
    let (n, packets) = hotspot_case(4);
    let outcome = charge_route(&mut CliqueEngine::strict(n, 32), &packets).unwrap();
    assert!(outcome.batches >= 2 && outcome.used_relay, "{outcome:?}");
}

/// Random fan-out for a case over `n ∈ [2, 33]` nodes: per sender, a
/// target count in `0..n` (every sender a full `n − 1` in every seventh
/// case, none in every eleventh) and a packet size in `0..200` bits,
/// around a 32-bit bandwidth. Returns the `(targets, bits)` pairs and the
/// packets they stand for, each sender's distinct targets in random order.
fn fanout_case(r: &mut SplitMix64, case: u64, n: usize) -> (Vec<(usize, u64)>, Vec<Packet<()>>) {
    let mut senders = Vec::with_capacity(n);
    let mut packets = Vec::new();
    let mut others: Vec<u32> = Vec::with_capacity(n);
    for s in 0..n as u32 {
        let targets = match (case % 7, case % 11) {
            (0, _) => n - 1,
            (_, 0) => 0,
            _ => r.next_below(n as u64) as usize,
        };
        let bits = r.next_below(200);
        others.clear();
        others.extend((0..n as u32).filter(|&d| d != s));
        for i in 0..targets {
            let j = i + r.next_below((others.len() - i) as u64) as usize;
            others.swap(i, j);
            packets.push(Packet {
                src: NodeId::new(s),
                dst: NodeId::new(others[i]),
                bits,
                payload: (),
            });
        }
        senders.push((targets, bits));
    }
    (senders, packets)
}

#[test]
fn charge_fanout_matches_charge_route() {
    for case in 0..CASES * 2 {
        let mut r = SplitMix64::new(0xFA11_0000 + case);
        let n = 2 + r.next_below(32) as usize;
        // Two fan-outs in two phases, so the phase records are compared as
        // well as the totals.
        let mut routed = CliqueEngine::strict(n, 32);
        let mut charged = CliqueEngine::strict(n, 32);
        for phase in ["first", "second"] {
            let (senders, packets) = fanout_case(&mut r, case, n);
            for engine in [&mut routed, &mut charged] {
                engine.ledger_mut().begin_phase(phase);
            }
            let want = charge_route(&mut routed, &packets).unwrap();
            assert_eq!(charge_fanout(&mut charged, senders), want, "case {case}");
            assert!(want.batches == 1 && !want.used_relay, "case {case}");
        }
        assert_eq!(charged.ledger(), routed.ledger(), "case {case}");
        assert_eq!(charged.ledger().phases.len(), 2, "case {case}");
    }
}

#[test]
fn routing_keeps_request_order_within_a_pair() {
    // Several packets per ordered pair, interleaved with other pairs and
    // with self-addressed packets; pair (2, 0) sends more than `n` packets,
    // which spills into a second batch.
    let n = 4;
    let pairs = [(2u32, 0u32), (1, 0), (3, 3), (2, 0), (0, 1), (1, 0)];
    let packets: Vec<Packet<u32>> = (0..24u32)
        .map(|tag| {
            let (src, dst) = pairs[tag as usize % pairs.len()];
            Packet {
                src: NodeId::new(src),
                dst: NodeId::new(dst),
                bits: 8,
                payload: tag,
            }
        })
        .collect();
    let expected: BTreeMap<(u32, u32), Vec<u32>> =
        packets.iter().fold(BTreeMap::new(), |mut m, p| {
            m.entry((p.src.raw(), p.dst.raw()))
                .or_insert_with(Vec::new)
                .push(p.payload);
            m
        });
    let again = packets.clone();
    let mut e1 = CliqueEngine::strict(n, 32);
    let (analytic, outcome) = route(&mut e1, packets).unwrap();
    assert!(outcome.batches >= 2, "pair (2, 0) overflows one batch");
    let mut e2 = CliqueEngine::strict(n, 32);
    let (executed, _) = route_executed(&mut e2, again).unwrap();
    for delivery in [&analytic, &executed] {
        for (&(src, dst), tags) in &expected {
            let got: Vec<u32> = delivery[dst as usize]
                .iter()
                .filter(|p| p.src.raw() == src)
                .map(|p| p.payload)
                .collect();
            assert_eq!(&got, tags, "pair ({src}, {dst})");
        }
    }
}

#[test]
fn executed_routing_agrees_with_analytic_delivery() {
    for case in 0..CASES {
        // Generate the workload twice from the same case seed instead of
        // cloning: the two engines consume identical but independently
        // owned packet vectors.
        let (n, packets_a) = packets_case(case);
        let (_, packets_b) = packets_case(case);
        let mut e1 = CliqueEngine::strict(n, 32);
        let (a, _) = route(&mut e1, packets_a).unwrap();
        let mut e2 = CliqueEngine::strict(n, 32);
        let (b, executed_rounds) = route_executed(&mut e2, packets_b).unwrap();
        assert_eq!(a, b, "case {case}");
        // The executed direct schedule meets its analytic bound exactly:
        // per batch, rounds = max over pairs of total fragment slots. With
        // a single batch this equals the global max; with multiple batches
        // it is the sum of per-batch maxima — in all cases ≥ the global
        // pairwise lower bound.
        let (_, packets) = packets_case(case);
        let mut pair_slots: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for p in &packets {
            if p.src != p.dst {
                *pair_slots.entry((p.src.raw(), p.dst.raw())).or_insert(0) +=
                    p.bits.div_ceil(32).max(1);
            }
        }
        let lower = pair_slots.values().copied().max().unwrap_or(0);
        assert!(executed_rounds >= lower, "case {case}");
    }
}

#[test]
fn routing_rounds_meet_congestion_lower_bound() {
    for case in 0..CASES {
        let (n, packets) = packets_case(case);
        // Information-theoretic: a pair carrying k fragment-slots of load
        // needs ≥ ... the *relay* schedule can beat the per-pair direct
        // bound, but never the per-source egress bound ⌈out_slots / n⌉.
        let bw = 32u64;
        let mut src_slots = vec![0u64; n];
        for p in &packets {
            if p.src != p.dst {
                src_slots[p.src.index()] += p.bits.div_ceil(bw).max(1);
            }
        }
        let egress_lower = src_slots
            .iter()
            .map(|&s| s.div_ceil(n as u64))
            .max()
            .unwrap_or(0);
        let mut engine = CliqueEngine::strict(n, bw);
        let (_, outcome) = route(&mut engine, packets).unwrap();
        assert!(
            outcome.rounds >= egress_lower,
            "case {case}: rounds {} below egress bound {}",
            outcome.rounds,
            egress_lower
        );
    }
}

#[test]
fn clique_engine_counts_match_sends() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(0xBEEFu64.wrapping_mul(case + 1));
        let n = 2 + r.next_below(14) as usize;
        let count = r.next_below(40) as usize;
        let seed = r.next_below(50);
        let rng = SharedRandomness::new(seed);
        let mut engine = CliqueEngine::audit(n, 16);
        let mut round = engine.begin_round::<u64>();
        let mut expected_bits = 0u64;
        for i in 0..count {
            let s = (rng.bits(Stream::Aux, NodeId::new(0), i as u64) % n as u64) as u32;
            let d = (rng.bits(Stream::Aux, NodeId::new(1), i as u64) % n as u64) as u32;
            if s != d {
                round
                    .send(NodeId::new(s), NodeId::new(d), 8, i as u64)
                    .unwrap();
                expected_bits += 8;
            }
        }
        let sent = round.pending();
        let inboxes = round.deliver();
        assert_eq!(inboxes.message_count(), sent, "case {case}");
        assert_eq!(engine.ledger().bits, expected_bits, "case {case}");
        assert_eq!(engine.ledger().messages, sent as u64, "case {case}");
        assert_eq!(engine.ledger().rounds, 1, "case {case}");
    }
}

/// Per-pair budget of the pair-accounting reference test.
const PAIR_BUDGET: u64 = 32;

/// One round's `(src, dst, bits)` sends over the admissible `pairs` (sorted
/// by `(src, dst)`, at least two):
/// 1. a monotone prefix of ascending pairs, each sent up to three times
///    and sometimes led by an over-budget send, so a pair can be refused
///    before or instead of being used;
/// 2. an over-budget send on a pair at or past the prefix's last;
/// 3. out-of-order sends, the first to the prefix's smallest used pair,
///    mixed with self-addressed ones.
fn pair_budget_sends(
    rng: &SharedRandomness,
    tag: u32,
    pairs: &[(u32, u32)],
) -> Vec<(u32, u32, u64)> {
    let mut counter = 0u64;
    let mut draw = |bound: u64| {
        counter += 1;
        rng.bits(Stream::Aux, NodeId::new(tag), counter) % bound
    };
    let mut sends = Vec::new();
    // Prefix pairs come from the first `len - 1`, leaving one for step 2;
    // at least two distinct pairs carry an in-budget send.
    let mut first_used = None;
    let mut used = 0;
    let mut at = draw(2) as usize;
    while at + 1 < pairs.len() && (used < 2 || draw(4) != 0) {
        let (src, dst) = pairs[at];
        let repeats = draw(4);
        if repeats == 0 || draw(4) == 0 {
            sends.push((src, dst, PAIR_BUDGET + 1 + draw(8)));
        }
        for _ in 0..repeats {
            sends.push((src, dst, 1 + draw(16)));
        }
        if repeats > 0 {
            first_used.get_or_insert((src, dst));
            used += 1;
        }
        at += 1 + draw(3) as usize;
    }
    let (src, dst) = pairs[at.min(pairs.len() - 1)];
    sends.push((src, dst, PAIR_BUDGET + 1 + draw(8)));
    if let Some((src, dst)) = first_used {
        sends.push((src, dst, 1 + draw(16)));
    }
    for _ in 0..draw(100) {
        if draw(10) == 0 {
            let v = pairs[draw(pairs.len() as u64) as usize].0;
            sends.push((v, v, 1));
        } else {
            let (src, dst) = pairs[draw(pairs.len() as u64) as usize];
            sends.push((src, dst, 1 + draw(16)));
        }
    }
    sends
}

/// What a round of `sends` must produce under `enforcement`, from a
/// `BTreeMap` of per-pair totals: each send's result, then the committed
/// messages, bits and violations and the largest pair total.
type PairModel = (Vec<Result<(), BandwidthError>>, u64, u64, u64, u64);

fn pair_budget_model(sends: &[(u32, u32, u64)], enforcement: Enforcement) -> PairModel {
    let mut loads: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let (mut results, mut messages, mut bits, mut violations) = (Vec::new(), 0, 0, 0);
    for &(src, dst, b) in sends {
        if src == dst {
            results.push(Err(BandwidthError::InvalidLink { src, dst }));
            continue;
        }
        let load = loads.entry((src, dst)).or_insert(0);
        let attempted = *load + b;
        if attempted > PAIR_BUDGET {
            if enforcement == Enforcement::Strict {
                results.push(Err(BandwidthError::Exceeded {
                    src,
                    dst,
                    attempted,
                    budget: PAIR_BUDGET,
                }));
                continue;
            }
            violations += 1;
        }
        *load = attempted;
        results.push(Ok(()));
        messages += 1;
        bits += b;
    }
    let peak = loads.values().copied().max().unwrap_or(0);
    (results, messages, bits, violations, peak)
}

#[derive(Default)]
struct Recorder(Vec<RoundEvent>);

impl RoundObserver for Recorder {
    fn on_event(&mut self, event: &RoundEvent) {
        self.0.push(event.clone());
    }
}

/// Plays `sends` on an open round and delivers it: each send's result and
/// the number of messages delivered.
fn play<T: Transport>(
    mut round: Round<'_, T, u64>,
    sends: &[(u32, u32, u64)],
) -> (Vec<Result<(), BandwidthError>>, usize) {
    let results = sends
        .iter()
        .map(|&(src, dst, bits)| round.send(NodeId::new(src), NodeId::new(dst), bits, 0))
        .collect();
    (results, round.deliver().message_count())
}

/// Checks two rounds of one engine against the model: every send's
/// result, the delivered count, the ledger (cumulative) and each round's
/// observed `max_pair_load` and violations.
fn check_pair_budget_rounds(
    label: &str,
    enforcement: Enforcement,
    rounds: &[Vec<(u32, u32, u64)>],
    recorder: &RefCell<Recorder>,
    mut run_round: impl FnMut(
        &[(u32, u32, u64)],
    ) -> (Vec<Result<(), BandwidthError>>, usize, RoundLedger),
) {
    let mut expected = RoundLedger::default();
    for (r, sends) in rounds.iter().enumerate() {
        let (results, messages, bits, violations, peak) = pair_budget_model(sends, enforcement);
        let (got, delivered, ledger) = run_round(sends);
        assert_eq!(got, results, "{label} round {r}");
        assert_eq!(delivered as u64, messages, "{label} round {r}");
        expected.messages += messages;
        expected.bits += bits;
        expected.violations += violations;
        assert_eq!(
            (
                ledger.rounds,
                ledger.messages,
                ledger.bits,
                ledger.violations
            ),
            (
                r as u64 + 1,
                expected.messages,
                expected.bits,
                expected.violations
            ),
            "{label} round {r}"
        );
        let event = &recorder.borrow().0[r];
        assert_eq!(event.max_pair_load, peak, "{label} round {r}");
        assert_eq!(event.violations, expected.violations, "{label} round {r}");
    }
}

/// Reference model for per-pair budgets: on the clique and CONGEST
/// transports, in strict and audit mode, every send's outcome, the ledger,
/// the violations and `max_pair_load` match a `BTreeMap` of pair totals —
/// across the switch from in-order to out-of-order sends, with a rejected
/// send right before it.
#[test]
fn pair_budgets_match_a_reference_model() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(0x9A1Bu64.wrapping_mul(case + 1));
        let n = 4 + r.next_below(12) as usize;
        let rng = SharedRandomness::new(r.next_u64());
        let graph = generators::erdos_renyi_gnp(n, 0.5, r.next_u64());
        let clique_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|s| (0..n as u32).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let congest_pairs: Vec<(u32, u32)> = graph
            .nodes()
            .flat_map(|v| graph.neighbors(v).iter().map(move |u| (v.raw(), u.raw())))
            .collect();
        assert!(congest_pairs.is_sorted(), "case {case}");
        for enforcement in [Enforcement::Strict, Enforcement::Audit] {
            let label = format!("case {case} {enforcement:?}");
            let rounds: Vec<_> = (0..2)
                .map(|t| pair_budget_sends(&rng, t, &clique_pairs))
                .collect();
            let recorder = Rc::new(RefCell::new(Recorder::default()));
            let mut clique = CliqueEngine::new(n, PAIR_BUDGET, enforcement);
            clique.attach_observer(recorder.clone());
            check_pair_budget_rounds(
                &format!("{label} clique"),
                enforcement,
                &rounds,
                &recorder,
                |sends| {
                    let (results, delivered) = play(clique.begin_round(), sends);
                    (results, delivered, clique.ledger().clone())
                },
            );

            if congest_pairs.len() < 2 {
                continue;
            }
            let rounds: Vec<_> = (2..4)
                .map(|t| pair_budget_sends(&rng, t, &congest_pairs))
                .collect();
            let recorder = Rc::new(RefCell::new(Recorder::default()));
            let mut congest = CongestEngine::new(&graph, PAIR_BUDGET, enforcement);
            congest.attach_observer(recorder.clone());
            check_pair_budget_rounds(
                &format!("{label} CONGEST"),
                enforcement,
                &rounds,
                &recorder,
                |sends| {
                    let (results, delivered) = play(congest.begin_round(), sends);
                    (results, delivered, congest.ledger().clone())
                },
            );
        }
    }
}

/// Per-pair budget of the neighbour-exchange tests.
const EXCHANGE_BUDGET: u64 = 32;

/// Per node: `Some((declared bits, payload))` if it sends this round.
type Messages = Vec<Option<(u64, u64)>>;

/// One exchange round: the receiver mask and the senders' messages.
type ExchangeRound = (Vec<bool>, Messages);

/// Each round's delivered messages in visit order, as (receiver, sender,
/// payload), or its error; the final ledger; and every observed event.
type ExchangeTrace = (
    Vec<Result<Vec<(u32, u32, u64)>, BandwidthError>>,
    RoundLedger,
    Vec<RoundEvent>,
);

/// The reference semantics of `Round::exchange_with_neighbors`: senders in
/// id order, each to its receiving neighbours ascending, then `deliver`.
/// The first refused send drops the round.
fn send_loop<T: Transport>(
    mut round: Round<'_, T, u64>,
    graph: &Graph,
    receivers: &[bool],
    messages: &[Option<(u64, u64)>],
) -> Result<Inboxes<u64>, BandwidthError> {
    for v in graph.nodes() {
        if let Some((bits, payload)) = messages[v.index()] {
            for &u in graph.neighbors(v) {
                if receivers[u.index()] {
                    round.send(v, u, bits, payload)?;
                }
            }
        }
    }
    Ok(round.deliver())
}

/// Closes `round` through the exchange, recording what its visitor sees,
/// or (if `!exchange`) through the reference send loop, iterating the
/// delivered inboxes in node order.
fn play_exchange<T: Transport>(
    round: Round<'_, T, u64>,
    graph: &Graph,
    (receivers, messages): &ExchangeRound,
    exchange: bool,
) -> Result<Vec<(u32, u32, u64)>, BandwidthError> {
    if exchange {
        let senders: Vec<NodeId> = graph
            .nodes()
            .filter(|v| messages[v.index()].is_some())
            .collect();
        let mut visited = Vec::new();
        round.exchange_with_neighbors(
            graph,
            &senders,
            &Frontier::from_mask(receivers),
            |v| messages[v.index()].expect("senders have a message"),
            |u, v, &p| visited.push((u.raw(), v.raw(), p)),
        )?;
        return Ok(visited);
    }
    let inboxes = send_loop(round, graph, receivers, messages)?;
    Ok((0u32..)
        .zip(&inboxes)
        .flat_map(|(u, inbox)| inbox.iter().map(move |&(v, p)| (u, v.raw(), p)))
        .collect())
}

/// Runs `rounds` over `graph` on a fresh observed `n`-node clique engine.
fn clique_exchange(
    n: usize,
    enforcement: Enforcement,
    graph: &Graph,
    rounds: &[ExchangeRound],
    exchange: bool,
) -> ExchangeTrace {
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let mut engine = CliqueEngine::new(n, EXCHANGE_BUDGET, enforcement);
    engine.attach_observer(recorder.clone());
    engine.ledger_mut().begin_phase("exchange");
    let results = rounds
        .iter()
        .map(|round| play_exchange(engine.begin_round(), graph, round, exchange))
        .collect();
    let events = recorder.borrow().0.clone();
    (results, engine.into_ledger(), events)
}

/// Runs `rounds` over `graph` on a fresh observed CONGEST engine whose
/// communication graph is `links`.
fn congest_exchange(
    links: &Graph,
    enforcement: Enforcement,
    graph: &Graph,
    rounds: &[ExchangeRound],
    exchange: bool,
) -> ExchangeTrace {
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let mut engine = CongestEngine::new(links, EXCHANGE_BUDGET, enforcement);
    engine.attach_observer(recorder.clone());
    engine.ledger_mut().begin_phase("exchange");
    let results = rounds
        .iter()
        .map(|round| play_exchange(engine.begin_round(), graph, round, exchange))
        .collect();
    let events = recorder.borrow().0.clone();
    (results, engine.into_ledger(), events)
}

/// Asserts the exchange and the reference send loop agree on both
/// transports: inboxes and errors, ledger totals and phase records, and
/// every observed event (`max_pair_load`, inbox histogram, violations).
fn assert_exchange_matches(
    label: &str,
    graph: &Graph,
    rounds: &[ExchangeRound],
    enforcement: Enforcement,
) {
    let n = graph.node_count();
    assert_eq!(
        clique_exchange(n, enforcement, graph, rounds, true),
        clique_exchange(n, enforcement, graph, rounds, false),
        "{label} clique"
    );
    assert_eq!(
        congest_exchange(graph, enforcement, graph, rounds, true),
        congest_exchange(graph, enforcement, graph, rounds, false),
        "{label} CONGEST"
    );
}

/// Messages from the nodes `sends` picks, with in-budget random sizes.
fn exchange_messages(
    r: &mut SplitMix64,
    n: usize,
    mut sends: impl FnMut(usize) -> bool,
) -> Messages {
    (0..n)
        .map(|v| sends(v).then(|| (1 + r.next_below(EXCHANGE_BUDGET), r.next_u64())))
        .collect()
}

/// Whether the exchange pushes (three times the senders' adjacency volume
/// plus the node count under the receivers' volume); mirrors the rule the
/// runtime applies on an engine of `graph`'s size.
fn exchange_pushes(graph: &Graph, (receivers, messages): &ExchangeRound) -> bool {
    let send_volume: usize = graph
        .nodes()
        .filter(|v| messages[v.index()].is_some())
        .map(|v| graph.degree(v))
        .sum();
    let receive_volume: usize = graph
        .nodes()
        .filter(|v| receivers[v.index()])
        .map(|v| graph.degree(v))
        .sum();
    3 * send_volume + graph.node_count() < receive_volume
}

/// `Round::exchange_with_neighbors` is the send loop plus `deliver`, over
/// random graphs and receiver masks with dense senders (the pull fill),
/// one low-degree sender (the push direction) and no senders at all.
#[test]
fn neighbor_exchange_matches_the_send_loop() {
    let (mut pulls, mut pushes) = (0, 0);
    for case in 0..CASES {
        let mut r = SplitMix64::new(0xE8C4u64.wrapping_mul(case + 1));
        let n = 2 + r.next_below(40) as usize;
        let graph = generators::erdos_renyi_gnp(n, 0.05 + 0.4 * r.next_f64(), r.next_u64());
        let lightest = graph
            .nodes()
            .filter(|&v| graph.degree(v) > 0)
            .min_by_key(|&v| graph.degree(v))
            .map_or(0, NodeId::index);
        let mut rounds = Vec::new();
        for kind in 0..3 {
            let receivers: Vec<bool> = (0..n).map(|_| r.next_below(4) != 0).collect();
            let messages = match (kind + case) % 3 {
                0 => exchange_messages(&mut r, n, |_| true),
                1 => exchange_messages(&mut r, n, |v| v == lightest),
                _ => vec![None; n],
            };
            let round = (receivers, messages);
            if exchange_pushes(&graph, &round) {
                pushes += 1;
            } else {
                pulls += 1;
            }
            rounds.push(round);
        }
        assert_exchange_matches(
            &format!("case {case}"),
            &graph,
            &rounds,
            Enforcement::Strict,
        );
    }
    assert!(
        pulls >= CASES && pushes >= CASES / 4,
        "both directions covered: {pulls} pull rounds, {pushes} push rounds"
    );
}

/// Over-budget senders, in strict mode (the same `Exceeded` error and
/// ledger afterwards) and audit mode (the same violation count); a 1-node
/// graph on a 2-node clique (Theorem 1.1's `n.max(2)`); and CONGEST
/// engines whose graph is not the exchanged one.
#[test]
fn neighbor_exchange_edge_cases_match_the_send_loop() {
    let mut refused = 0;
    for case in 0..CASES {
        let mut r = SplitMix64::new(0x0B1Du64.wrapping_mul(case + 1));
        let n = 3 + r.next_below(30) as usize;
        let graph = generators::erdos_renyi_gnp(n, 0.3, r.next_u64());
        let heavy = r.next_below(n as u64) as usize;
        let mut rounds = Vec::new();
        for _ in 0..2 {
            let receivers: Vec<bool> = (0..n).map(|_| r.next_below(4) != 0).collect();
            let mut messages = exchange_messages(&mut r, n, |_| true);
            messages[heavy] = Some((EXCHANGE_BUDGET + 1 + r.next_below(8), 0));
            rounds.push((receivers, messages));
        }
        for enforcement in [Enforcement::Strict, Enforcement::Audit] {
            let label = format!("case {case} {enforcement:?}");
            assert_exchange_matches(&label, &graph, &rounds, enforcement);
        }
        let (results, _, _) = clique_exchange(n, Enforcement::Strict, &graph, &rounds, true);
        if results
            .iter()
            .any(|r| matches!(r, Err(BandwidthError::Exceeded { .. })))
        {
            refused += 1;
        }
        let (results, ledger, _) = clique_exchange(n, Enforcement::Audit, &graph, &rounds, true);
        assert!(results.iter().all(Result::is_ok), "case {case}");
        let heavy_links: u64 = rounds
            .iter()
            .map(|(receivers, _)| {
                let to = graph.neighbors(NodeId::new(heavy as u32));
                to.iter().filter(|u| receivers[u.index()]).count() as u64
            })
            .sum();
        assert_eq!(ledger.violations, heavy_links, "case {case}");

        // An equal but distinct graph value: the engine cannot vouch for
        // its links, so the exchange takes the checked send loop.
        let copy = graph.clone();
        let (receivers, mut messages) = rounds[0].clone();
        messages[heavy] = None;
        let dense = [(receivers, messages)];
        assert_eq!(
            congest_exchange(&copy, Enforcement::Strict, &graph, &dense, true),
            congest_exchange(&copy, Enforcement::Strict, &graph, &dense, false),
            "case {case} equal graph"
        );
        // A different graph on the same nodes: its non-edges are refused.
        let other = generators::erdos_renyi_gnp(n, 0.3, r.next_u64());
        assert_eq!(
            congest_exchange(&other, Enforcement::Strict, &graph, &dense, true),
            congest_exchange(&other, Enforcement::Strict, &graph, &dense, false),
            "case {case} other graph"
        );
    }
    assert!(refused >= CASES / 2, "{refused} cases refused a send");

    // Theorem 1.1 runs a 1-node graph on a 2-node clique engine.
    let single = Graph::empty(1);
    let rounds = vec![(vec![true], vec![Some((8, 7))]), (vec![true], vec![None])];
    let exchanged = clique_exchange(2, Enforcement::Strict, &single, &rounds, true);
    assert_eq!(
        exchanged,
        clique_exchange(2, Enforcement::Strict, &single, &rounds, false)
    );
    assert_eq!(exchanged.0, [Ok(vec![]), Ok(vec![])]);
    assert_eq!(exchanged.1.rounds, 2);
}

#[test]
fn congest_engine_only_accepts_graph_edges() {
    for case in 0..CASES {
        let mut r = SplitMix64::new(0xDADAu64.wrapping_mul(case + 1));
        let n = 3 + r.next_below(27) as usize;
        let p = 0.5 * r.next_f64();
        let seed = r.next_below(50);
        let g = generators::erdos_renyi_gnp(n, p, seed);
        let mut engine = CongestEngine::strict(&g, 64);
        let mut round = engine.begin_round::<()>();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let ok = round.send(NodeId::new(u), NodeId::new(v), 1, ()).is_ok();
                assert_eq!(
                    ok,
                    g.has_edge(NodeId::new(u), NodeId::new(v)),
                    "case {case}: u={u} v={v}"
                );
            }
        }
    }
}

#[test]
fn coins_are_pure_functions_of_their_address() {
    for case in 0..256u64 {
        let mut r = SplitMix64::new(0xFACEu64.wrapping_mul(case + 1));
        let seed = r.next_u64();
        let node = r.next_below(1000) as u32;
        let round = r.next_below(1000);
        let a = SharedRandomness::new(seed);
        let b = SharedRandomness::new(seed);
        let v = NodeId::new(node);
        assert_eq!(
            a.coin(Stream::Beep, v, round),
            b.coin(Stream::Beep, v, round),
            "case {case}"
        );
        assert_eq!(
            a.bits(Stream::Priority, v, round),
            b.bits(Stream::Priority, v, round),
            "case {case}"
        );
        let c = a.coin(Stream::Beep, v, round);
        assert!((0.0..1.0).contains(&c), "case {case}");
    }
}

#[test]
fn neighboring_addresses_give_distinct_coins() {
    for case in 0..256u64 {
        let mut g = SplitMix64::new(0xABBAu64.wrapping_mul(case + 1));
        let seed = g.next_u64();
        let node = g.next_below(100) as u32;
        let round = g.next_below(100);
        let r = SharedRandomness::new(seed);
        let v = NodeId::new(node);
        let w = NodeId::new(node + 1);
        // 64-bit outputs collide with probability ~2^-64; a collision here
        // indicates an addressing bug, not bad luck.
        assert_ne!(
            r.bits(Stream::Beep, v, round),
            r.bits(Stream::Beep, w, round),
            "case {case}"
        );
        assert_ne!(
            r.bits(Stream::Beep, v, round),
            r.bits(Stream::Beep, v, round + 1),
            "case {case}"
        );
    }
}
