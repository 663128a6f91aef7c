//! Microbenchmarks of the simulator engines: per-round overhead of the
//! clique, CONGEST, and beeping engines.

use cc_mis_bench::harness::Harness;
use cc_mis_graph::{generators, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;

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

    // One message from each sender to each alive neighbour, as in the
    // exchange rounds of every MIS algorithm here, on a Kronecker graph
    // with every node alive: the hand-written send loop plus `deliver`
    // against `exchange_with_neighbors`, with every node sending (the
    // pull fill) and with 2% of nodes sending (the push direction, which
    // is the send loop).
    let mut h = Harness::new("neighbor_exchange");
    let g = generators::kronecker(12, 8, 1);
    let n = g.node_count();
    let alive = vec![true; n];
    for (suffix, stride) in [("", 1u32), ("_2pct", 50)] {
        let message_of = |v: NodeId| v.raw().is_multiple_of(stride).then_some((7, v.raw()));
        let mut e = CliqueEngine::strict(n, standard_bandwidth(n));
        h.bench(&format!("send_loop{suffix}"), || {
            let mut r = e.begin_round::<u32>();
            for v in g.nodes() {
                if let Some((bits, msg)) = message_of(v) {
                    for &u in g.neighbors(v) {
                        if alive[u.index()] {
                            r.send(v, u, bits, msg).unwrap();
                        }
                    }
                }
            }
            r.deliver()
        });
        let mut e = CliqueEngine::strict(n, standard_bandwidth(n));
        h.bench(&format!("exchange{suffix}"), || {
            e.begin_round::<u32>()
                .exchange_with_neighbors(&g, &alive, message_of)
                .unwrap()
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
        h.bench(&format!("n{n}"), || BeepingEngine::new(&g).round(&beeps));
    }
    h.finish();
}
