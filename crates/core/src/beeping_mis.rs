//! The beeping MIS algorithm (§2.2, "Intermediate Algorithm (1)").
//!
//! Iterations of two rounds on the full-duplex beeping model:
//!
//! * **R1** — node `v` beeps with probability `p_t(v)` (initially `1/2`).
//!   If `v` beeps and hears no neighbor, it joins the MIS. Then
//!   `p_{t+1}(v) = p_t(v)/2` if some neighbor beeped, else
//!   `min{2 p_t(v), 1/2}`.
//! * **R2** — MIS nodes beep; hearers learn they are dominated. MIS nodes
//!   and their neighbors leave the problem.
//!
//! The paper's contribution for this algorithm is the **analysis**
//! (Theorem 2.1): each node `v` decides within
//! `T = C(log deg(v) + log 1/ε)` iterations w.p. `≥ 1-ε`, depending only on
//! randomness within `v`'s 2-hop neighborhood. The proof counts *golden
//! rounds* (Lemma 2.3) and bounds *wrong moves* (Lemmas 2.4, 2.5); this
//! module instruments all three quantities per node, so experiments E3/E4
//! can chart them against the paper's constants (≥ `0.05 T` golden rounds,
//! wrong-move probability ≤ `0.02` per round).

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::driver::{drive_observed, Execution, Status};
use cc_mis_sim::par_nodes::par_map_nodes;
use cc_mis_sim::rng::{SharedRandomness, Stream, StreamCursor};
use cc_mis_sim::snapshot::graph_fingerprint;
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::{RoundLedger, SharedObserver};

use crate::common::{check_node_vec_len, double_capped, halve, p_of, MisOutcome, INITIAL_PEXP};

/// Heaviness threshold from §2.2: a node is *heavy* in round `t` when
/// `d_t(v) > 10`.
pub const HEAVY_THRESHOLD: f64 = 10.0;
/// Golden type-1 requires `d_t(v) ≤ 0.02`.
pub const GOLDEN1_D_MAX: f64 = 0.02;
/// Golden type-2 requires `d_t(v) > 0.01` and `d'_t(v) ≥ 0.01 d_t(v)`.
pub const GOLDEN2_D_MIN: f64 = 0.01;
/// Wrong-move clause (2) triggers when `d_{t+1}(v) > 0.6 d_t(v)`.
pub const WRONG_MOVE_SHRINK: f64 = 0.6;

/// Parameters for [`run_beeping`].
#[derive(Debug, Clone, Copy)]
pub struct BeepingParams {
    /// Iteration budget. [`run_beeping`] returns the partial result when the
    /// budget ends; [`run_beeping_to_completion`] demands every node decide.
    pub max_iterations: u64,
    /// Whether to record the per-node golden/wrong-move trace (small cost;
    /// on by default).
    pub record_trace: bool,
}

impl BeepingParams {
    /// Defaults: budget `16 (log₂ n + 2)` with tracing on.
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.node_count().max(2) as f64;
        BeepingParams {
            max_iterations: (16.0 * (n.log2() + 2.0)).ceil() as u64,
            record_trace: true,
        }
    }
}

/// Per-node analysis counters accumulated while the node was undecided
/// (empty when tracing was off).
#[derive(Debug, Clone, Default)]
pub struct BeepingTrace {
    /// Golden type-1 rounds per node (`p_t(v) = 1/2` and `d_t(v) ≤ 0.02`).
    pub golden1: Vec<u64>,
    /// Golden type-2 rounds per node (`d_t(v) > 0.01`, `d'_t ≥ 0.01 d_t`).
    pub golden2: Vec<u64>,
    /// Wrong moves per node (Lemmas 2.4/2.5 events).
    pub wrong_moves: Vec<u64>,
    /// Iterations each node spent undecided (its `T` in Theorem 2.1 terms).
    pub undecided_iterations: Vec<u64>,
}

/// Result of a (possibly partial) beeping MIS run.
#[derive(Debug, Clone)]
pub struct BeepingRun {
    /// Nodes that joined the MIS within the budget, sorted by id.
    pub mis: Vec<NodeId>,
    /// Undecided nodes at the end of the budget, sorted by id.
    pub residual: Vec<NodeId>,
    /// Iteration at which each node joined the MIS, if it did.
    pub joined_at: Vec<Option<u64>>,
    /// Iteration at which each node left the problem, if it did.
    pub removed_at: Vec<Option<u64>>,
    /// Beeping-model round/bit tally (2 rounds per iteration).
    pub ledger: RoundLedger,
    /// Iterations executed.
    pub iterations: u64,
    /// Analysis counters (Theorem 2.1 bookkeeping).
    pub trace: BeepingTrace,
}

/// Runs the beeping MIS for at most `params.max_iterations` iterations.
///
/// # Example
///
/// ```
/// use cc_mis_core::beeping_mis::{run_beeping, BeepingParams};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::cycle(20);
/// let run = run_beeping(&g, &BeepingParams::for_graph(&g), 3);
/// assert!(run.residual.is_empty());
/// assert!(checks::is_maximal_independent_set(&g, &run.mis));
/// ```
pub fn run_beeping(g: &Graph, params: &BeepingParams, seed: u64) -> BeepingRun {
    run_beeping_observed(g, params, seed, None)
}

/// [`run_beeping`] with an optional per-round trace observer attached to
/// the engine. `None` is exactly the unobserved run.
pub fn run_beeping_observed(
    g: &Graph,
    params: &BeepingParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> BeepingRun {
    drive_observed(BeepingExecution::new(g, params, seed), observer)
}

/// The §2.2 beeping MIS as a step-driven state machine: one
/// [`Execution::step`] is one iteration (beep round + MIS-announcement
/// round), including the Theorem 2.1 trace bookkeeping.
#[derive(Debug)]
pub struct BeepingExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    params: BeepingParams,
    seed: u64,
    engine: BeepingEngine<'a>,
    /// Beep-coin cursor; its position doubles as the iteration count `t`.
    cursor: StreamCursor,
    pexp: Vec<u32>,
    joined_at: Vec<Option<u64>>,
    removed_at: Vec<Option<u64>>,
    undecided: usize,
    trace: BeepingTrace,
    /// Wrong-move clause (2) compares d_{t+1} against d_t; remembers the d
    /// of nodes whose clause-(2) precondition held.
    pending_shrink: Vec<Option<f64>>,
}

impl<'a> BeepingExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    pub fn new(g: &'a Graph, params: &BeepingParams, seed: u64) -> Self {
        let n = g.node_count();
        let mut trace = BeepingTrace::default();
        if params.record_trace {
            trace.golden1 = vec![0; n];
            trace.golden2 = vec![0; n];
            trace.wrong_moves = vec![0; n];
            trace.undecided_iterations = vec![0; n];
        }
        BeepingExecution {
            g,
            graph_fp: graph_fingerprint(g),
            params: *params,
            seed,
            engine: BeepingEngine::new(g),
            cursor: StreamCursor::new(SharedRandomness::new(seed), Stream::Beep),
            pexp: vec![INITIAL_PEXP; n],
            joined_at: vec![None; n],
            removed_at: vec![None; n],
            undecided: n,
            trace,
            pending_shrink: vec![None; n],
        }
    }
}

impl Execution for BeepingExecution<'_> {
    type Outcome = BeepingRun;

    fn algorithm_id(&self) -> &'static str {
        "beeping"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.engine.attach_observer(observer);
    }

    fn step(&mut self) -> Status<BeepingRun> {
        let g = self.g;
        let n = g.node_count();
        let t = self.cursor.position();
        if self.undecided == 0 || t >= self.params.max_iterations {
            let mis: Vec<NodeId> = (0..n)
                .filter(|&i| self.joined_at[i].is_some())
                .map(|i| NodeId::new(i as u32))
                .collect();
            let residual: Vec<NodeId> = (0..n)
                .filter(|&i| self.removed_at[i].is_none())
                .map(|i| NodeId::new(i as u32))
                .collect();
            return Status::Done(BeepingRun {
                mis,
                residual,
                joined_at: self.joined_at.clone(),
                removed_at: self.removed_at.clone(),
                ledger: self.engine.ledger().clone(),
                iterations: t,
                trace: self.trace.clone(),
            });
        }
        let alive = |r: &[Option<u64>], i: usize| r[i].is_none();

        // d_t and d'_t over undecided neighbors (analysis bookkeeping and
        // wrong-move detection; the algorithm itself never computes these).
        let d: Vec<f64> = compute_d(g, &self.pexp, &self.removed_at);
        if self.params.record_trace || self.pending_shrink.iter().any(Option::is_some) {
            for (i, &di) in d.iter().enumerate() {
                if !alive(&self.removed_at, i) {
                    self.pending_shrink[i] = None;
                    continue;
                }
                if let Some(d_prev) = self.pending_shrink[i].take() {
                    if di > WRONG_MOVE_SHRINK * d_prev && self.params.record_trace {
                        self.trace.wrong_moves[i] += 1;
                    }
                }
            }
        }

        // R1: beeps.
        let cursor = self.cursor;
        let removed_at = &self.removed_at;
        let pexp = &self.pexp;
        let beeps: Vec<bool> = par_map_nodes(n, |i| {
            alive(removed_at, i) && cursor.coin(NodeId::new(i as u32)) <= p_of(pexp[i])
        });
        let heard = self.engine.round(&beeps);

        if self.params.record_trace {
            record_goldens(g, &self.pexp, &d, &self.removed_at, &mut self.trace);
        }

        // Joins and p updates.
        let mut joins: Vec<usize> = Vec::new();
        for i in 0..n {
            if !alive(&self.removed_at, i) {
                continue;
            }
            if self.params.record_trace {
                self.trace.undecided_iterations[i] += 1;
            }
            if beeps[i] && !heard[i] {
                joins.push(i);
            }
            // Wrong-move clause (1): d small but a neighbor beeped anyway.
            if d[i] <= GOLDEN1_D_MAX && heard[i] && self.params.record_trace {
                self.trace.wrong_moves[i] += 1;
            }
            // Arm clause (2) for evaluation against d_{t+1}.
            let dprime = d_prime(g, &self.pexp, &d, &self.removed_at, i);
            if d[i] > GOLDEN2_D_MIN && dprime < GOLDEN2_D_MIN * d[i] {
                self.pending_shrink[i] = Some(d[i]);
            }
            self.pexp[i] = if heard[i] {
                halve(self.pexp[i])
            } else {
                double_capped(self.pexp[i])
            };
        }

        // R2: new MIS members beep; they and their hearers leave.
        let mut mis_beeps = vec![false; n];
        for &i in &joins {
            mis_beeps[i] = true;
        }
        self.engine.round(&mis_beeps);
        for &i in &joins {
            self.joined_at[i] = Some(t);
            if self.removed_at[i].is_none() {
                self.removed_at[i] = Some(t);
                self.undecided -= 1;
            }
            for &u in g.neighbors(NodeId::new(i as u32)) {
                if self.removed_at[u.index()].is_none() {
                    self.removed_at[u.index()] = Some(t);
                    self.undecided -= 1;
                }
            }
        }
        self.cursor.advance();
        Status::Running
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.graph_fp,
            "seed" => self.seed,
            "max_iterations" => self.params.max_iterations,
            "record_trace" => self.params.record_trace,
        }
        state {
            self.engine,
            self.cursor,
            self.pexp,
            self.joined_at,
            self.removed_at,
            self.undecided,
            self.trace.golden1,
            self.trace.golden2,
            self.trace.wrong_moves,
            self.trace.undecided_iterations,
            self.pending_shrink,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("pexp vector length", self.pexp.len(), n)?;
            check_node_vec_len("joined_at vector length", self.joined_at.len(), n)?;
            check_node_vec_len("removed_at vector length", self.removed_at.len(), n)?;
            check_node_vec_len("pending_shrink vector length", self.pending_shrink.len(), n)?;
        }
    }
}

/// Runs the beeping MIS until every node decides, returning a plain
/// [`MisOutcome`].
///
/// # Panics
///
/// Panics if some node is still undecided after `params.max_iterations`
/// (a `≪ 1/poly(n)` event with the default budget).
pub fn run_beeping_to_completion(g: &Graph, params: &BeepingParams, seed: u64) -> MisOutcome {
    run_beeping_to_completion_observed(g, params, seed, None)
}

/// [`run_beeping_to_completion`] with an optional per-round trace observer.
///
/// # Panics
///
/// As for [`run_beeping_to_completion`].
pub fn run_beeping_to_completion_observed(
    g: &Graph,
    params: &BeepingParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> MisOutcome {
    let run = run_beeping_observed(g, params, seed, observer);
    assert!(
        run.residual.is_empty(),
        "beeping MIS left {} undecided nodes after {} iterations",
        run.residual.len(),
        run.iterations
    );
    MisOutcome {
        mis: run.mis,
        ledger: run.ledger,
        iterations: run.iterations,
    }
}

/// The per-node record of an [`evolve_beeping`] execution.
#[derive(Debug, Clone, Default)]
pub struct BeepingEvolution {
    /// Iteration at which each node joined the MIS, if it did.
    pub joined_at: Vec<Option<u64>>,
    /// Iteration at which each node left the problem, if it did.
    pub removed_at: Vec<Option<u64>>,
    /// Final probability exponents.
    pub pexp: Vec<u32>,
    /// Number of undecided nodes at the end.
    pub undecided: usize,
}

/// Runs the §2.2 beeping dynamic as a pure function of the shared
/// randomness — the replayable form used by the local-computation oracle
/// ([`crate::lca`]) and tested to agree with [`run_beeping`] exactly.
///
/// `coin_ids[i]` is the global identity whose coins local node `i` draws
/// (pass the ball's id mapping when replaying a gathered neighborhood).
/// Stops early once every node has decided.
///
/// # Panics
///
/// Panics if `coin_ids.len() != g.node_count()`.
pub fn evolve_beeping(
    g: &Graph,
    coin_ids: &[NodeId],
    rng: SharedRandomness,
    iterations: u64,
) -> BeepingEvolution {
    assert_eq!(
        coin_ids.len(),
        g.node_count(),
        "coin id mapping must cover the graph"
    );
    let n = g.node_count();
    let mut pexp = vec![INITIAL_PEXP; n];
    let mut joined_at: Vec<Option<u64>> = vec![None; n];
    let mut removed_at: Vec<Option<u64>> = vec![None; n];
    let mut undecided = n;
    for t in 0..iterations {
        if undecided == 0 {
            break;
        }
        let beeps: Vec<bool> = par_map_nodes(n, |i| {
            removed_at[i].is_none() && rng.coin(Stream::Beep, coin_ids[i], t) <= p_of(pexp[i])
        });
        let heard: Vec<bool> = par_map_nodes(n, |i| {
            g.neighbors(NodeId::new(i as u32))
                .iter()
                .any(|u| beeps[u.index()])
        });
        let joins: Vec<usize> = (0..n)
            .filter(|&i| removed_at[i].is_none() && beeps[i] && !heard[i])
            .collect();
        for i in 0..n {
            if removed_at[i].is_none() {
                pexp[i] = if heard[i] {
                    halve(pexp[i])
                } else {
                    double_capped(pexp[i])
                };
            }
        }
        for &i in &joins {
            joined_at[i] = Some(t);
            if removed_at[i].is_none() {
                removed_at[i] = Some(t);
                undecided -= 1;
            }
            for &u in g.neighbors(NodeId::new(i as u32)) {
                if removed_at[u.index()].is_none() {
                    removed_at[u.index()] = Some(t);
                    undecided -= 1;
                }
            }
        }
    }
    BeepingEvolution {
        joined_at,
        removed_at,
        pexp,
        undecided,
    }
}

/// `d_t(v) = Σ_{undecided u ∈ N(v)} p_t(u)` for every node.
///
/// Gathers per node over its (sorted) neighbor list — the same ascending
/// accumulation order a sequential scatter would produce, so the f64 sums
/// are bit-identical to it and independent of the worker-thread count.
fn compute_d(g: &Graph, pexp: &[u32], removed_at: &[Option<u64>]) -> Vec<f64> {
    par_map_nodes(g.node_count(), |i| {
        g.neighbors(NodeId::new(i as u32))
            .iter()
            .filter(|u| removed_at[u.index()].is_none())
            .map(|u| p_of(pexp[u.index()]))
            .sum()
    })
}

/// `d'_t(v)`: the part of `d_t(v)` contributed by non-heavy undecided
/// neighbors (`d_t(u) ≤ 10`).
fn d_prime(g: &Graph, pexp: &[u32], d: &[f64], removed_at: &[Option<u64>], i: usize) -> f64 {
    g.neighbors(NodeId::new(i as u32))
        .iter()
        .filter(|u| removed_at[u.index()].is_none() && d[u.index()] <= HEAVY_THRESHOLD)
        .map(|u| p_of(pexp[u.index()]))
        .sum()
}

fn record_goldens(
    g: &Graph,
    pexp: &[u32],
    d: &[f64],
    removed_at: &[Option<u64>],
    trace: &mut BeepingTrace,
) {
    for i in 0..g.node_count() {
        if removed_at[i].is_some() {
            continue;
        }
        if pexp[i] == INITIAL_PEXP && d[i] <= GOLDEN1_D_MAX {
            trace.golden1[i] += 1;
        }
        let dp = d_prime(g, pexp, d, removed_at, i);
        if d[i] > GOLDEN2_D_MIN && dp >= GOLDEN2_D_MIN * d[i] {
            trace.golden2[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn beeping_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(14),
            generators::complete(9),
            generators::star(16),
            generators::grid(4, 6),
            generators::erdos_renyi_gnp(100, 0.07, 3),
            generators::disjoint_cliques(3, 6),
            Graph::empty(5),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_beeping_to_completion(g, &BeepingParams::for_graph(g), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn two_beeping_rounds_per_iteration() {
        let g = generators::erdos_renyi_gnp(50, 0.1, 2);
        let run = run_beeping(&g, &BeepingParams::for_graph(&g), 1);
        assert_eq!(run.ledger.rounds, 2 * run.iterations);
    }

    #[test]
    fn budget_truncates_with_partial_result() {
        let g = generators::complete(40);
        let params = BeepingParams {
            max_iterations: 1,
            record_trace: false,
        };
        let run = run_beeping(&g, &params, 0);
        assert_eq!(run.iterations, 1);
        // Whatever joined is independent (≤ 1 node in a clique), and every
        // node is either decided or residual.
        assert!(checks::is_independent_set(&g, &run.mis));
        assert!(run.mis.len() <= 1);
        let decided = run.removed_at.iter().filter(|r| r.is_some()).count();
        assert_eq!(decided + run.residual.len(), 40);
    }

    #[test]
    fn removal_times_are_consistent() {
        let g = generators::erdos_renyi_gnp(60, 0.1, 5);
        let run = run_beeping(&g, &BeepingParams::for_graph(&g), 7);
        for i in 0..60 {
            if let Some(j) = run.joined_at[i] {
                assert_eq!(run.removed_at[i], Some(j));
            }
        }
        // A removed non-joiner has an MIS neighbor removed no later.
        for i in 0..60 {
            if run.joined_at[i].is_none() {
                if let Some(r) = run.removed_at[i] {
                    let v = NodeId::new(i as u32);
                    assert!(
                        g.neighbors(v)
                            .iter()
                            .any(|u| run.joined_at[u.index()] == Some(r)),
                        "node {i} removed at {r} without an MIS neighbor joining then"
                    );
                }
            }
        }
    }

    #[test]
    fn golden_rounds_accumulate_for_isolated_nodes() {
        // An isolated node has d = 0 forever: every round is golden type-1
        // until it joins (which happens as soon as it beeps).
        let g = Graph::empty(1);
        let run = run_beeping(&g, &BeepingParams::for_graph(&g), 9);
        assert_eq!(run.mis.len(), 1);
        assert!(run.trace.golden1[0] >= 1);
        assert_eq!(run.trace.wrong_moves[0], 0);
    }

    #[test]
    fn trace_vectors_sized_when_enabled() {
        let g = generators::cycle(10);
        let run = run_beeping(&g, &BeepingParams::for_graph(&g), 0);
        assert_eq!(run.trace.golden1.len(), 10);
        assert_eq!(run.trace.golden2.len(), 10);
        assert_eq!(run.trace.wrong_moves.len(), 10);
        let run2 = run_beeping(
            &g,
            &BeepingParams {
                max_iterations: 10,
                record_trace: false,
            },
            0,
        );
        assert!(run2.trace.golden1.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi_gnp(80, 0.06, 11);
        let a = run_beeping(&g, &BeepingParams::for_graph(&g), 5);
        let b = run_beeping(&g, &BeepingParams::for_graph(&g), 5);
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn pure_evolution_matches_engine_run() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnp(70, 0.1, 500 + seed);
            let run = run_beeping(&g, &BeepingParams::for_graph(&g), seed);
            let ids: Vec<NodeId> = g.nodes().collect();
            let evo = evolve_beeping(&g, &ids, SharedRandomness::new(seed), u64::MAX);
            assert_eq!(run.joined_at, evo.joined_at, "seed {seed}");
            assert_eq!(run.removed_at, evo.removed_at, "seed {seed}");
        }
    }

    use cc_mis_sim::SharedRandomness;

    #[test]
    fn different_seeds_differ() {
        let g = generators::erdos_renyi_gnp(80, 0.06, 11);
        let a = run_beeping(&g, &BeepingParams::for_graph(&g), 1);
        let b = run_beeping(&g, &BeepingParams::for_graph(&g), 2);
        assert_ne!(a.mis, b.mis);
    }
}
