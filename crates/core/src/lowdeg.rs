//! The low-degree fast path (§2.5, Lemma 2.15) and the Theorem 1.1
//! dispatcher.
//!
//! When `Δ ≤ 2^{c√(δ log n)}`, the `O(log Δ)`-hop neighborhood of every
//! node has at most `Δ^{O(log Δ)} = 2^{O(log² Δ)} ≤ n^δ` edges, so each node
//! can learn it directly via graph exponentiation (Lemma 2.14) in
//! `O(log log Δ)` clique rounds and replay the [Ghaffari, SODA'16] dynamic
//! locally — no sparsification needed. The remainder is solved by the
//! leader clean-up as usual.
//!
//! [`run_theorem_1_1`] implements the paper's overall case split: the fast
//! path when the degree bound holds, the §2.4 simulation otherwise.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::{node_id_bits, standard_bandwidth, COIN_BITS};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::driver::{drive_observed, Execution, Status};
use cc_mis_sim::rng::SharedRandomness;
use cc_mis_sim::snapshot::{
    graph_fingerprint, Field, SnapshotError, SnapshotReader, SnapshotWriter,
};
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::SharedObserver;

use crate::cleanup::leader_cleanup;
use crate::clique_mis::{CliqueMisExecution, CliqueMisParams};
use crate::common::{check_node_vec_len, iterations_for_max_degree, MisOutcome};
use crate::exponentiation::{gather_balls, GatherResult};
use crate::ghaffari16::evolve_on;
use crate::replay::for_each_distinct_ball;

/// Parameters for [`run_lowdeg`].
#[derive(Debug, Clone, Copy)]
pub struct LowDegParams {
    /// Iterations of the Ghaffari'16 dynamic to replay (and therefore the
    /// gather radius): `⌈factor · log₂(Δ+2)⌉`.
    pub iteration_factor: f64,
}

impl Default for LowDegParams {
    fn default() -> Self {
        // 3.0 suffices: by Theorem 2.1 nodes decide in ~C log Δ iterations
        // with small C, and whatever survives goes to the clean-up anyway;
        // a larger factor doubles the gather radius for no benefit.
        LowDegParams {
            iteration_factor: 3.0,
        }
    }
}

/// Result of the fast path.
#[derive(Debug, Clone)]
pub struct LowDegResult {
    /// The maximal independent set, sorted by id.
    pub mis: Vec<NodeId>,
    /// Total clique rounds (Lemma 2.15 bounds this by `O(log log Δ)`).
    pub rounds: u64,
    /// Full communication ledger.
    pub ledger: cc_mis_sim::RoundLedger,
    /// Replayed iterations of the inner dynamic.
    pub iterations: u64,
    /// Exponentiation rounds (the dominant term).
    pub gather_rounds: u64,
    /// Doubling steps the gather used (`O(log log Δ)` — the Lemma 2.15
    /// round-complexity *shape*, each step one routing invocation).
    pub gather_steps: u64,
    /// Largest gathered ball in edges.
    pub max_ball_edges: usize,
    /// Undecided nodes handed to the clean-up.
    pub residual_nodes: usize,
}

/// Runs the Lemma 2.15 algorithm: gather `O(log Δ)`-hop balls of `G`,
/// replay Ghaffari'16 locally, clean up at the leader.
///
/// Intended for graphs with small `Δ`; on dense graphs it still returns a
/// correct MIS but the gather honestly costs many rounds (the measured
/// count appears in the ledger). [`run_theorem_1_1`] performs the paper's
/// case split so this path is only taken when it is fast.
///
/// # Example
///
/// ```
/// use cc_mis_core::lowdeg::{run_lowdeg, LowDegParams};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::random_regular(200, 4, 1);
/// let out = run_lowdeg(&g, &LowDegParams::default(), 5);
/// assert!(checks::is_maximal_independent_set(&g, &out.mis));
/// ```
pub fn run_lowdeg(g: &Graph, params: &LowDegParams, seed: u64) -> LowDegResult {
    run_lowdeg_observed(g, params, seed, None)
}

/// [`run_lowdeg`] with an optional per-round trace observer attached to the
/// engine. `None` is exactly the unobserved run.
pub fn run_lowdeg_observed(
    g: &Graph,
    params: &LowDegParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> LowDegResult {
    drive_observed(LowDegExecution::new(g, params, seed), observer)
}

/// Which coarse stage a [`LowDegExecution`] performs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LowDegStage {
    /// Gather `O(log Δ)`-hop balls by exponentiation.
    Gather,
    /// Replay the Ghaffari'16 dynamic on every ball.
    Replay,
    /// Leader clean-up of the residual.
    Cleanup,
    /// Nothing left; the next step reports the outcome.
    Finished,
}

/// The stage index as a `u32`; an unknown index is a typed error.
impl Field for LowDegStage {
    fn put(&self, w: &mut SnapshotWriter) {
        let raw: u32 = match self {
            LowDegStage::Gather => 0,
            LowDegStage::Replay => 1,
            LowDegStage::Cleanup => 2,
            LowDegStage::Finished => 3,
        };
        raw.put(w);
    }

    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let mut raw = 0u32;
        raw.take(r)?;
        *self = match raw {
            0 => LowDegStage::Gather,
            1 => LowDegStage::Replay,
            2 => LowDegStage::Cleanup,
            3 => LowDegStage::Finished,
            other => {
                return Err(SnapshotError::Mismatch {
                    field: "lowdeg stage",
                    expected: "0..=3".to_string(),
                    found: other.to_string(),
                })
            }
        };
        Ok(())
    }
}

/// Lemma 2.15 as a step-driven state machine with coarse steps:
/// gather → replay → clean-up → done.
///
/// The gathered balls are a pure function of the graph (the gather uses no
/// randomness), so snapshots store only the per-node fates and the ledger;
/// [`Execution::restore`] regenerates the balls against a scratch engine
/// and then overwrites the ledger with the saved one.
#[derive(Debug)]
pub struct LowDegExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    params: LowDegParams,
    seed: u64,
    rng: SharedRandomness,
    engine: CliqueEngine,
    radius: usize,
    stage: LowDegStage,
    gather: Option<GatherResult>,
    in_mis: Vec<bool>,
    alive: Vec<bool>,
    mis: Vec<NodeId>,
    residual_nodes: usize,
}

impl<'a> LowDegExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    pub fn new(g: &'a Graph, params: &LowDegParams, seed: u64) -> Self {
        let n = g.node_count();
        LowDegExecution {
            g,
            graph_fp: graph_fingerprint(g),
            params: *params,
            seed,
            rng: SharedRandomness::new(seed),
            engine: CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2))),
            radius: iterations_for_max_degree(g.max_degree(), params.iteration_factor) as usize,
            stage: LowDegStage::Gather,
            gather: None,
            in_mis: vec![false; n],
            alive: vec![true; n],
            mis: Vec::new(),
            residual_nodes: 0,
        }
    }

    /// Runs the exponentiation gather on `engine`, charging it for the
    /// routing. Factored out so [`Execution::restore`] can regenerate the
    /// balls against a scratch engine.
    fn run_gather(g: &Graph, engine: &mut CliqueEngine, radius: usize) -> GatherResult {
        let n = g.node_count();
        // Records carry the edge plus both endpoints' coins for the
        // replayed window.
        let id_bits = node_id_bits(n.max(2)).max(1);
        let record_bits = 2 * id_bits + 2 * radius as u64 * COIN_BITS;
        let participant = vec![true; n];
        // Radius 2·radius: removal information travels 2 hops per iteration
        // (a neighbor's join depends on *its* neighbors' marks) — see the
        // matching comment in `clique_mis`.
        gather_balls(engine, g, &participant, (2 * radius).max(1), record_bits)
    }
}

impl Execution for LowDegExecution<'_> {
    type Outcome = LowDegResult;

    fn algorithm_id(&self) -> &'static str {
        "lowdeg"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.engine.attach_observer(observer);
    }

    fn step(&mut self) -> Status<LowDegResult> {
        let g = self.g;
        let n = g.node_count();
        match self.stage {
            LowDegStage::Gather => {
                // Gather O(log Δ)-hop balls of G itself.
                self.engine.ledger_mut().begin_phase("gather");
                self.gather = Some(Self::run_gather(g, &mut self.engine, self.radius));
                self.stage = LowDegStage::Replay;
                Status::Running
            }
            LowDegStage::Replay => {
                // Local replay: every node simulates the dynamic on its
                // ball and reads off its own fate — once per distinct ball
                // (`crate::replay`). Accurate for `radius` iterations
                // because the ball covers `2·radius` hops (Lemma 2.13-style
                // induction, with global coin ids).
                self.engine.ledger_mut().begin_phase("replay");
                let gather = self
                    .gather
                    .as_ref()
                    .expect("gather stage precedes the replay stage");
                for_each_distinct_ball(gather, |ball, members| {
                    let evo = evolve_on(ball, self.rng, self.radius as u64);
                    for &v in members {
                        let i = ball.local(v);
                        let v = v as usize;
                        self.in_mis[v] = evo.joined_at[i].is_some();
                        self.alive[v] = evo.removed_at[i].is_none();
                    }
                });
                self.stage = LowDegStage::Cleanup;
                Status::Running
            }
            LowDegStage::Cleanup => {
                // Clean-up at the leader.
                self.engine.ledger_mut().begin_phase("cleanup");
                let additions = leader_cleanup(&mut self.engine, g, &self.alive);
                self.residual_nodes = self.alive.iter().filter(|&&a| a).count();
                let mut mis: Vec<NodeId> = (0..n)
                    .filter(|&i| self.in_mis[i])
                    .map(|i| NodeId::new(i as u32))
                    .collect();
                mis.extend(additions);
                mis.sort_unstable();
                self.mis = mis;
                self.stage = LowDegStage::Finished;
                Status::Running
            }
            LowDegStage::Finished => {
                let gather = self
                    .gather
                    .as_ref()
                    .expect("gather stage precedes completion");
                let ledger = self.engine.ledger().clone();
                Status::Done(LowDegResult {
                    mis: self.mis.clone(),
                    rounds: ledger.rounds,
                    ledger,
                    iterations: self.radius as u64,
                    gather_rounds: gather.rounds,
                    gather_steps: gather.steps,
                    max_ball_edges: gather.max_ball_edges,
                    residual_nodes: self.residual_nodes,
                })
            }
        }
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.graph_fp,
            "seed" => self.seed,
            "iteration_factor" => self.params.iteration_factor,
        }
        state {
            self.engine,
            self.stage,
            self.in_mis,
            self.alive,
            self.mis,
            self.residual_nodes,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("in_mis vector length", self.in_mis.len(), n)?;
            check_node_vec_len("alive vector length", self.alive.len(), n)?;
            // The balls are deterministic in the graph; regenerate them on a
            // scratch engine so its charges don't disturb the restored ledger.
            if self.stage != LowDegStage::Gather {
                let mut scratch = CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)));
                self.gather = Some(Self::run_gather(self.g, &mut scratch, self.radius));
            }
        }
    }
}

/// Which branch [`run_theorem_1_1`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Lemma 2.15: `Δ ≤ 2^{c√(log₂ n)}` — gather-and-replay.
    LowDegree,
    /// §2.4: sparsified simulation plus clean-up.
    Sparsified,
}

/// The complete Theorem 1.1 algorithm: picks the Lemma 2.15 fast path when
/// `Δ ≤ 2^{c √(log₂ n)}` (with `c = 1`), and the §2.4 simulation otherwise.
///
/// # Example
///
/// ```
/// use cc_mis_core::lowdeg::{run_theorem_1_1, Strategy};
/// use cc_mis_graph::{checks, generators};
///
/// let sparse = generators::cycle(100);
/// let (out, strat) = run_theorem_1_1(&sparse, 3);
/// assert_eq!(strat, Strategy::LowDegree);
/// assert!(checks::is_maximal_independent_set(&sparse, &out.mis));
/// ```
pub fn run_theorem_1_1(g: &Graph, seed: u64) -> (MisOutcome, Strategy) {
    run_theorem_1_1_observed(g, seed, None)
}

/// [`run_theorem_1_1`] with an optional per-round trace observer threaded
/// into whichever branch runs. `None` is exactly the unobserved run.
pub fn run_theorem_1_1_observed(
    g: &Graph,
    seed: u64,
    observer: Option<SharedObserver>,
) -> (MisOutcome, Strategy) {
    drive_observed(AutoExecution::new(g, seed), observer)
}

/// The Theorem 1.1 dispatcher as a step-driven state machine: the case
/// split is decided deterministically at construction, and every call
/// delegates to the chosen branch's execution.
#[derive(Debug)]
pub struct AutoExecution<'a> {
    inner: AutoInner<'a>,
}

#[derive(Debug)]
enum AutoInner<'a> {
    LowDegree(LowDegExecution<'a>),
    Sparsified(CliqueMisExecution<'a>),
}

impl<'a> AutoExecution<'a> {
    /// Picks the branch for `g` (the paper's `Δ + 1 ≤ 2^{√(log₂ n)}` test)
    /// and prepares it; no rounds execute until the first step.
    pub fn new(g: &'a Graph, seed: u64) -> Self {
        let n = g.node_count().max(2) as f64;
        let delta = g.max_degree() as f64;
        let threshold = (n.log2().sqrt()).exp2();
        let inner = if delta + 1.0 <= threshold {
            AutoInner::LowDegree(LowDegExecution::new(g, &LowDegParams::default(), seed))
        } else {
            AutoInner::Sparsified(CliqueMisExecution::new(
                g,
                &CliqueMisParams::default(),
                seed,
            ))
        };
        AutoExecution { inner }
    }

    /// The snapshot tag of the branch: 0 low-degree, 1 sparsified.
    fn branch(&self) -> u32 {
        match self.inner {
            AutoInner::LowDegree(_) => 0,
            AutoInner::Sparsified(_) => 1,
        }
    }

    /// The branch this execution runs.
    pub fn strategy(&self) -> Strategy {
        match &self.inner {
            AutoInner::LowDegree(_) => Strategy::LowDegree,
            AutoInner::Sparsified(_) => Strategy::Sparsified,
        }
    }
}

impl Execution for AutoExecution<'_> {
    type Outcome = (MisOutcome, Strategy);

    fn algorithm_id(&self) -> &'static str {
        "auto"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        match &mut self.inner {
            AutoInner::LowDegree(e) => e.attach_observer(observer),
            AutoInner::Sparsified(e) => e.attach_observer(observer),
        }
    }

    fn step(&mut self) -> Status<(MisOutcome, Strategy)> {
        match &mut self.inner {
            AutoInner::LowDegree(e) => match e.step() {
                Status::Running => Status::Running,
                Status::Done(res) => Status::Done((
                    MisOutcome {
                        mis: res.mis,
                        ledger: res.ledger,
                        iterations: res.iterations,
                    },
                    Strategy::LowDegree,
                )),
            },
            AutoInner::Sparsified(e) => match e.step() {
                Status::Running => Status::Running,
                Status::Done(res) => Status::Done((
                    MisOutcome {
                        mis: res.mis,
                        ledger: res.ledger,
                        iterations: res.iterations,
                    },
                    Strategy::Sparsified,
                )),
            },
        }
    }

    fn save(&self, w: &mut SnapshotWriter) {
        self.branch().put(w);
        match &self.inner {
            AutoInner::LowDegree(e) => e.save(w),
            AutoInner::Sparsified(e) => e.save(w),
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect("dispatcher branch", &self.branch())?;
        match &mut self.inner {
            AutoInner::LowDegree(e) => e.restore(r),
            AutoInner::Sparsified(e) => e.restore(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghaffari16::evolve as global_evolve;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn lowdeg_is_mis_on_sparse_families() {
        let graphs = vec![
            generators::cycle(40),
            generators::grid(6, 6),
            generators::random_regular(60, 3, 2),
            generators::balanced_tree(3, 3),
            Graph::empty(9),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_lowdeg(g, &LowDegParams::default(), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn local_replay_matches_global_evolution() {
        // After the Replay stage, every node's locally replayed fate must
        // equal the global run's, node for node — the Lemma 2.13 induction
        // for the Ghaffari'16 dynamic. Saturated balls (one shared replay)
        // and all-distinct balls (one replay per node) both count.
        let params = LowDegParams::default();
        for g in [
            generators::random_regular(512, 4, 7),
            generators::random_regular(80, 4, 7),
            generators::cycle(200),
            generators::grid(20, 20),
        ] {
            for seed in [3, 11] {
                let mut exec = LowDegExecution::new(&g, &params, seed);
                assert!(matches!(exec.step(), Status::Running)); // gather
                assert!(matches!(exec.step(), Status::Running)); // replay
                assert_eq!(exec.stage, LowDegStage::Cleanup);
                let rng = SharedRandomness::new(seed);
                let nodes: Vec<NodeId> = g.nodes().collect();
                let global = global_evolve(&g, &nodes, rng, exec.radius as u64);
                for v in 0..g.node_count() {
                    assert_eq!(
                        exec.in_mis[v],
                        global.joined_at[v].is_some(),
                        "{g:?} seed {seed}: v{v} joined differently"
                    );
                    assert_eq!(
                        exec.alive[v],
                        global.removed_at[v].is_none(),
                        "{g:?} seed {seed}: v{v} removed differently"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_dominates_rounds_on_bounded_degree() {
        // Lemma 2.15's round bill is O(log log Δ) *routing invocations*;
        // each invocation's measured rounds depend on how far below n^δ the
        // balls sit (at n = 200 the ratio ball_bits/(n·B) is what it is).
        // The structural claims we can check at this scale: gathering is
        // the dominant cost, the doubling step count is logarithmic, and
        // the total stays within the measured envelope.
        let g = generators::cycle(200);
        let res = run_lowdeg(&g, &LowDegParams::default(), 0);
        assert!(
            res.gather_rounds * 2 >= res.rounds,
            "gather ({}) should dominate total ({})",
            res.gather_rounds,
            res.rounds
        );
        assert!(res.rounds <= 2500, "round envelope blew up: {}", res.rounds);
    }

    #[test]
    fn dispatcher_picks_branches_correctly() {
        let sparse = generators::random_regular(300, 3, 1);
        let (_, s1) = run_theorem_1_1(&sparse, 0);
        assert_eq!(s1, Strategy::LowDegree);

        let dense = generators::erdos_renyi_gnp(300, 0.3, 1);
        let (_, s2) = run_theorem_1_1(&dense, 0);
        assert_eq!(s2, Strategy::Sparsified);
    }

    #[test]
    fn dispatcher_output_is_mis_both_ways() {
        for (g, seed) in [
            (generators::grid(7, 7), 0u64),
            (generators::erdos_renyi_gnp(150, 0.2, 2), 1),
        ] {
            let (out, _) = run_theorem_1_1(&g, seed);
            assert!(checks::is_maximal_independent_set(&g, &out.mis));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::random_regular(70, 4, 5);
        let a = run_lowdeg(&g, &LowDegParams::default(), 9);
        let b = run_lowdeg(&g, &LowDegParams::default(), 9);
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.rounds, b.rounds);
    }
}
