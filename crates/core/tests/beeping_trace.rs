//! `beeping_trace` against a reference model of the Theorem 2.1 counters:
//! the beeping execution itself, stepped on its engine, with the golden
//! rounds and wrong moves counted inside every iteration (`d_t` evaluated
//! before the beep round, `d'_t` over `p_t` before `p` updates, as in the
//! paper).
//! The replay pass must give the same four vectors, field for field, on
//! every graph, seed and budget, and at any thread count.
//!
//! The thread-count override is process-global, so the test that sets it
//! takes [`OVERRIDE_LOCK`] (the other test runs at whatever count is set).

use std::sync::Mutex;

use cc_mis_core::beeping_mis::{
    beeping_trace, run_beeping, BeepingParams, BeepingTrace, GOLDEN1_D_MAX, GOLDEN2_D_MIN,
    HEAVY_THRESHOLD, WRONG_MOVE_SHRINK,
};
use cc_mis_core::common::{double_capped, halve, p_of, INITIAL_PEXP};
use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::par_nodes::set_thread_override;
use cc_mis_sim::rng::{SharedRandomness, Stream, StreamCursor};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// `d_t(v)`: the sum of `p_t(u)` over undecided neighbors, ascending.
fn d_of(g: &Graph, pexp: &[u32], removed_at: &[Option<u64>]) -> Vec<f64> {
    g.nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|u| removed_at[u.index()].is_none())
                .map(|u| p_of(pexp[u.index()]))
                .sum()
        })
        .collect()
}

/// `d'_t(v)`: the part of `d_t(v)` from non-heavy undecided neighbors.
fn d_prime_of(g: &Graph, pexp: &[u32], d: &[f64], removed_at: &[Option<u64>], i: usize) -> f64 {
    g.neighbors(NodeId::new(i as u32))
        .iter()
        .filter(|u| removed_at[u.index()].is_none() && d[u.index()] <= HEAVY_THRESHOLD)
        .map(|u| p_of(pexp[u.index()]))
        .sum()
}

/// The reference model: the beeping iteration on a [`BeepingEngine`],
/// counting as it goes.
fn counted_in_step(g: &Graph, seed: u64, max_iterations: u64) -> BeepingTrace {
    let n = g.node_count();
    let mut engine = BeepingEngine::new(g);
    let mut cursor = StreamCursor::new(SharedRandomness::new(seed), Stream::Beep);
    let mut pexp = vec![INITIAL_PEXP; n];
    let mut removed_at: Vec<Option<u64>> = vec![None; n];
    let mut undecided = n;
    let mut trace = BeepingTrace {
        golden1: vec![0; n],
        golden2: vec![0; n],
        wrong_moves: vec![0; n],
        undecided_iterations: vec![0; n],
    };
    let mut pending_shrink: Vec<Option<f64>> = vec![None; n];
    let mut heard = Vec::new();
    while undecided > 0 && cursor.position() < max_iterations {
        let t = cursor.position();
        let d = d_of(g, &pexp, &removed_at);
        for i in 0..n {
            if removed_at[i].is_some() {
                pending_shrink[i] = None;
            } else if let Some(d_prev) = pending_shrink[i].take() {
                if d[i] > WRONG_MOVE_SHRINK * d_prev {
                    trace.wrong_moves[i] += 1;
                }
            }
        }

        let beeps: Vec<bool> = (0..n)
            .map(|i| removed_at[i].is_none() && cursor.coin(NodeId::new(i as u32)) <= p_of(pexp[i]))
            .collect();
        engine.round(&beeps, &mut heard);

        for i in 0..n {
            if removed_at[i].is_some() {
                continue;
            }
            if pexp[i] == INITIAL_PEXP && d[i] <= GOLDEN1_D_MAX {
                trace.golden1[i] += 1;
            }
            let dp = d_prime_of(g, &pexp, &d, &removed_at, i);
            if d[i] > GOLDEN2_D_MIN && dp >= GOLDEN2_D_MIN * d[i] {
                trace.golden2[i] += 1;
            }
            if d[i] > GOLDEN2_D_MIN && dp < GOLDEN2_D_MIN * d[i] {
                pending_shrink[i] = Some(d[i]);
            }
        }

        let mut joins = Vec::new();
        for i in 0..n {
            if removed_at[i].is_some() {
                continue;
            }
            trace.undecided_iterations[i] += 1;
            if beeps[i] && !heard[i] {
                joins.push(NodeId::new(i as u32));
            }
            if d[i] <= GOLDEN1_D_MAX && heard[i] {
                trace.wrong_moves[i] += 1;
            }
            pexp[i] = if heard[i] {
                halve(pexp[i])
            } else {
                double_capped(pexp[i])
            };
        }

        engine.round_sparse(&joins, &mut heard);
        for &v in &joins {
            for u in std::iter::once(v).chain(g.neighbors(v).iter().copied()) {
                if removed_at[u.index()].is_none() {
                    removed_at[u.index()] = Some(t);
                    undecided -= 1;
                }
            }
        }
        cursor.advance();
    }
    trace
}

/// 30 seeded graphs: G(n,p) at three densities, random-regular, star,
/// complete and empty.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for s in 0..8u64 {
        let n = 30 + 15 * s as usize;
        let p = [0.03, 0.1, 0.3][s as usize % 3];
        out.push((
            format!("gnp({n}, {p}, {s})"),
            generators::erdos_renyi_gnp(n, p, 40 + s),
        ));
    }
    for s in 0..8u64 {
        let d = 2 + s as usize % 5;
        out.push((
            format!("regular(64, {d}, {s})"),
            generators::random_regular(64, d, 70 + s),
        ));
    }
    for k in [1, 2, 9, 40] {
        out.push((format!("star({k})"), generators::star(k)));
    }
    for k in [1, 2, 8, 33] {
        out.push((format!("complete({k})"), generators::complete(k)));
    }
    for k in [0, 1, 5, 17] {
        out.push((format!("empty({k})"), Graph::empty(k)));
    }
    out.push((
        "gnp(200, 0.08, 3)".to_string(),
        generators::erdos_renyi_gnp(200, 0.08, 3),
    ));
    out.push((
        "regular(200, 12, 4)".to_string(),
        generators::random_regular(200, 12, 4),
    ));
    out
}

#[test]
fn replay_pass_equals_the_in_step_counters() {
    let mut truncated = 0;
    for (name, g) in graphs() {
        let full = BeepingParams::for_graph(&g).max_iterations;
        for seed in [1u64, 17] {
            let run = run_beeping(&g, &BeepingParams::for_graph(&g), seed);
            // The full budget, then budgets that stop the run mid-way.
            for budget in [full, 0, 1, 3, run.iterations / 2] {
                let want = counted_in_step(&g, seed, budget);
                let got = beeping_trace(&g, seed, budget);
                assert_eq!(got.golden1, want.golden1, "{name} seed {seed} T {budget}");
                assert_eq!(got.golden2, want.golden2, "{name} seed {seed} T {budget}");
                assert_eq!(
                    got.wrong_moves, want.wrong_moves,
                    "{name} seed {seed} T {budget}"
                );
                assert_eq!(
                    got.undecided_iterations, want.undecided_iterations,
                    "{name} seed {seed} T {budget}"
                );
                if budget < run.iterations {
                    truncated += 1;
                }
            }
        }
    }
    assert!(truncated > 100, "only {truncated} budget-truncated runs");
}

#[test]
fn replay_pass_is_independent_of_the_thread_count() {
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for (name, g) in graphs() {
        let budget = BeepingParams::for_graph(&g).max_iterations;
        set_thread_override(Some(1));
        let one = beeping_trace(&g, 5, budget);
        set_thread_override(Some(2));
        let two = beeping_trace(&g, 5, budget);
        set_thread_override(None);
        assert_eq!(one, two, "{name}");
        assert_eq!(one, counted_in_step(&g, 5, budget), "{name}");
    }
}
