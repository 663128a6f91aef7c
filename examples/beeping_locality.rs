//! Theorem 2.1 live: the beeping MIS decides each node in
//! `O(log deg + log 1/ε)` iterations with an exponential tail, and the
//! golden-round machinery (Lemma 2.3) is visible in the per-node traces.
//!
//! ```sh
//! cargo run --release --example beeping_locality
//! ```

use clique_mis::algorithms::beeping_mis::{beeping_trace, run_beeping, BeepingParams};
use clique_mis::analysis::stats::Summary;
use clique_mis::graph::generators;

fn main() {
    println!("decision time vs degree on d-regular graphs (n = 1000, one seed):\n");
    println!("    d  mean-iters  p90  max   (Theorem 2.1: O(log d))");
    for d in [2usize, 4, 8, 16, 32, 64] {
        let g = generators::random_regular(1000, d, 7);
        let run = run_beeping(&g, &BeepingParams::for_graph(&g), 1);
        assert!(run.residual.is_empty());
        let times: Vec<f64> = run
            .removed_at
            .iter()
            .map(|r| r.expect("all decided") as f64 + 1.0)
            .collect();
        let s = Summary::of(&times);
        println!(
            "  {:>3}  {:>10.2}  {:>3.0}  {:>3.0}",
            d, s.mean, s.p90, s.max
        );
    }

    // Golden rounds on one run.
    let g = generators::erdos_renyi_gnp(1000, 0.016, 5);
    let trace = beeping_trace(&g, 2, BeepingParams::for_graph(&g).max_iterations);
    let fracs: Vec<f64> = (0..g.node_count())
        .filter(|&i| trace.undecided_iterations[i] > 0)
        .map(|i| {
            (trace.golden1[i] + trace.golden2[i]) as f64 / trace.undecided_iterations[i] as f64
        })
        .collect();
    let s = Summary::of(&fracs);
    let wrong: u64 = trace.wrong_moves.iter().sum();
    let life: u64 = trace.undecided_iterations.iter().sum();
    println!("\ngolden-round fraction across nodes (Lemma 2.3 promises ≥ 0.05):");
    println!(
        "  mean {:.3}, min {:.3}, median {:.3}",
        s.mean, s.min, s.median
    );
    println!(
        "wrong-move rate (Lemmas 2.4/2.5 bound 0.02): {:.4}",
        wrong as f64 / life.max(1) as f64
    );
}
