//! Microbenchmarks of the simulator engines: per-round overhead of the
//! clique, CONGEST, and beeping engines.

use cc_mis_bench::harness::Harness;
use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::Frontier;

fn main() {
    // Engines persist across the bench iterations (as they do across the
    // rounds of a real run), so these cases measure the steady-state round
    // hot path with warm pooled buffers; the harness's untimed warmup call
    // primes the pool.
    let mut h = Harness::new("clique_all_to_all_round");
    for n in [64usize, 256, 1024] {
        let mut e = CliqueEngine::strict(n, 64);
        h.bench(&format!("n{n}"), move || {
            let mut r = e.begin_round::<u32>();
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i != j {
                        r.send(NodeId::new(i), NodeId::new(j), 16, i ^ j).unwrap();
                    }
                }
            }
            r.deliver()
        });
    }
    h.finish();

    // Frame-based sharded delivery vs the direct scatter, same all-to-all
    // round. The shard mode latches at an engine's first deliver (the
    // harness warmup), so the override is set before each engine is built
    // and the engines then coexist safely.
    let mut h = Harness::new("sharded_round_frames");
    let n = 1024usize;
    for (name, shards) in [
        ("n1024_direct", None),
        ("n1024_s1", Some(1)),
        ("n1024_s4", Some(4)),
    ] {
        cc_mis_sim::shard::set_shards_override(shards);
        let mut e = CliqueEngine::strict(n, 64);
        h.bench(name, move || {
            let mut r = e.begin_round::<u32>();
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i != j {
                        r.send(NodeId::new(i), NodeId::new(j), 16, i ^ j).unwrap();
                    }
                }
            }
            r.deliver()
        });
    }
    cc_mis_sim::shard::set_shards_override(None);
    h.finish();

    // A pulled neighbour exchange through the frames, against the direct
    // pull: every node of `kronecker(12, 8)` sends and receives, each
    // receiver folding what it gets into a per-node sum, as in a Theorem
    // 1.1 phase's exchange rounds. The shard mode latches as above.
    let mut h = Harness::new("sharded_exchange_frames");
    let g = generators::kronecker(12, 8, 1);
    let n = g.node_count();
    let senders: Vec<NodeId> = g.nodes().collect();
    let everyone = Frontier::full(n);
    let mut sums = vec![0u64; n];
    for (name, shards) in [("direct", None), ("s1", Some(1)), ("s2", Some(2))] {
        cc_mis_sim::shard::set_shards_override(shards);
        let mut e = CliqueEngine::strict(n, standard_bandwidth(n));
        h.bench(name, || {
            e.begin_round::<u32>()
                .exchange_with_neighbors(
                    &g,
                    &senders,
                    &everyone,
                    |v| (7, v.raw()),
                    |u, _, &msg| {
                        sums[u.index()] += u64::from(msg);
                    },
                )
                .unwrap();
            sums[0]
        });
    }
    cc_mis_sim::shard::set_shards_override(None);
    h.finish();

    // One message from each sender to each receiving neighbour, as in the
    // exchange rounds of every MIS algorithm here, on a Kronecker graph,
    // each receiver folding what it gets into a per-node sum: the
    // hand-written send loop over every node plus `deliver` with the fold
    // over the returned inboxes, against `exchange_with_neighbors` over the
    // sender list and receiver frontier, folding in its visitor. Shapes:
    // * every node sending, all receiving (the exchange pulls);
    // * `_2pct`: 2% of nodes sending, all receiving (it pushes, i.e. runs
    //   the send loop);
    // * `_announce`: ~5% of nodes sending, all of them low-degree, all
    //   receiving (it pushes);
    // * `_late`: a late-phase Theorem 1.1 announcement round, where 5% of
    //   the nodes are undecided and receive and 90% of those send. The
    //   senders' volume is most of the receivers', so the exchange pulls,
    //   walking only the receivers' adjacency for a few hundred messages;
    // * `_tail`: a Theorem 1.1 tail round on `kronecker(16, 8)`, where the
    //   hubs have long decided: 3 senders and about a dozen receivers (up
    //   to 3 neighbours of degree at most 16 per sender, and a few other
    //   nodes). The send loop still visits all 65,536 nodes; the exchange
    //   visits only the frontiers.
    let mut h = Harness::new("neighbor_exchange");
    let small = generators::kronecker(12, 8, 1);
    let large = generators::kronecker(16, 8, 1);
    let mask = |g: &Graph, f: &dyn Fn(u32) -> bool| -> Vec<bool> {
        g.nodes().map(|v| f(v.raw())).collect()
    };
    let everyone = mask(&small, &|_| true);
    let two_pct = mask(&small, &|v| v.is_multiple_of(50));
    let low_degree = mask(&small, &|v| {
        v.is_multiple_of(10) && small.degree(NodeId::new(v)) <= 4
    });
    let undecided = mask(&small, &|v| v.is_multiple_of(20));
    let late_senders = mask(&small, &|v| v.is_multiple_of(20) && !v.is_multiple_of(200));
    let light = |v: NodeId| large.degree(v) <= 16;
    let mut tail_senders = mask(&large, &|_| false);
    for start in [10_000, 30_000, 50_000] {
        let v = (start..)
            .map(NodeId::new)
            .find(|&v| light(v) && large.degree(v) >= 3)
            .expect("R-MAT graphs have light nodes");
        tail_senders[v.index()] = true;
    }
    let mut tail_receivers = mask(&large, &|v| v % 7_919 == 11 && light(NodeId::new(v)));
    for v in large.nodes().filter(|v| tail_senders[v.index()]) {
        for &u in large.neighbors(v).iter().filter(|&&u| light(u)).take(3) {
            tail_receivers[u.index()] = true;
        }
    }
    for (suffix, g, senders, receivers) in [
        ("", &small, &everyone, &everyone),
        ("_2pct", &small, &two_pct, &everyone),
        ("_announce", &small, &low_degree, &everyone),
        ("_late", &small, &late_senders, &undecided),
        ("_tail", &large, &tail_senders, &tail_receivers),
    ] {
        let n = g.node_count();
        let message_of = |v: NodeId| senders[v.index()].then_some((7, v.raw()));
        let mut sums = vec![0u64; n];
        let mut e = CliqueEngine::strict(n, standard_bandwidth(n));
        h.bench(&format!("send_loop{suffix}"), || {
            let mut r = e.begin_round::<u32>();
            for v in g.nodes() {
                if let Some((bits, msg)) = message_of(v) {
                    for &u in g.neighbors(v) {
                        if receivers[u.index()] {
                            r.send(v, u, bits, msg).unwrap();
                        }
                    }
                }
            }
            let inboxes = r.deliver();
            for (sum, inbox) in sums.iter_mut().zip(&inboxes) {
                *sum += inbox.iter().map(|&(_, msg)| u64::from(msg)).sum::<u64>();
            }
            sums[0]
        });
        let sender_ids: Vec<NodeId> = g.nodes().filter(|v| senders[v.index()]).collect();
        let frontier = Frontier::from_mask(receivers);
        let mut e = CliqueEngine::strict(n, standard_bandwidth(n));
        h.bench(&format!("exchange{suffix}"), || {
            e.begin_round::<u32>()
                .exchange_with_neighbors(
                    g,
                    &sender_ids,
                    &frontier,
                    |v| (7, v.raw()),
                    |u, _, &msg| {
                        sums[u.index()] += u64::from(msg);
                    },
                )
                .unwrap();
            sums[0]
        });
    }
    h.finish();

    let mut h = Harness::new("congest_broadcast_round");
    for n in [256usize, 1024, 4096] {
        let g = generators::erdos_renyi_gnp(n, 16.0 / n as f64, 3);
        let mut e = CongestEngine::strict(&g, 64);
        h.bench(&format!("n{n}"), move || {
            let mut r = e.begin_round::<u32>();
            for v in 0..n as u32 {
                r.broadcast(NodeId::new(v), 16, v).unwrap();
            }
            r.deliver()
        });
    }
    h.finish();

    let mut h = Harness::new("beeping_round");
    for n in [1024usize, 8192] {
        let g = generators::erdos_renyi_gnp(n, 16.0 / n as f64, 4);
        let beeps: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut heard = Vec::new();
        h.bench(&format!("n{n}"), || {
            BeepingEngine::new(&g).round(&beeps, &mut heard);
            heard.len()
        });
    }
    h.finish();
}
