//! The MIS algorithm of [Ghaffari, SODA'16] (§2.1 of the paper).
//!
//! Per iteration, each undecided node `v` gets *marked* with probability
//! `p_t(v)`; a marked node with no marked neighbor joins the MIS, and MIS
//! nodes and their neighbors leave the problem. The marking probability
//! follows the dynamic
//!
//! ```text
//! p_{t+1}(v) = p_t(v)/2          if d_t(v) = Σ_{u ∈ N(v)} p_t(u) ≥ 2
//! p_{t+1}(v) = min{2 p_t(v), 1/2} otherwise.
//! ```
//!
//! Each node decides within `O(log deg + log 1/ε)` rounds w.p. `≥ 1-ε`.
//! The paper's §2.1 explains why this dynamic is "too active" to simulate
//! fast in the congested clique — computing `d_t(v)` requires knowing every
//! neighbor's state every round — which motivates the beeping variants of
//! §2.2–2.3. We implement it both as
//!
//! * [`run_ghaffari16`] — a real message-passing CONGEST execution
//!   (2 rounds and one `(p, mark)` exchange per iteration), and
//! * [`run_ghaffari16_clique`] — the `O(log Δ)`-round congested-clique
//!   version of `[13]` cited by §1.1 (run `Θ(log Δ)` iterations, then solve
//!   the shattered remainder at a leader in `O(1)` rounds). This is the
//!   upper bound Theorem 1.1 improves on, and the head-to-head baseline of
//!   experiment E1.
//!
//! [`evolve`] exposes the iteration semantics as a pure function of the
//! shared randomness so the low-degree fast path (§2.5) can replay it
//! locally on gathered balls (`evolve_on` runs it on any `CoinGraph`);
//! `run_ghaffari16` is tested to agree with it bit-for-bit.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::{standard_bandwidth, PROBABILITY_EXPONENT_BITS};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::driver::{drive_observed, Execution, Status};
use cc_mis_sim::par_nodes::par_map_nodes;
use cc_mis_sim::rng::{SharedRandomness, Stream, StreamCursor};
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::{Frontier, SharedObserver};

use crate::cleanup;
use crate::common::{
    check_node_vec_len, double_capped, halve, iterations_for_max_degree, mis_from_flags, p_of,
    MisOutcome, INITIAL_PEXP,
};

/// Parameters for the Ghaffari'16 runners.
#[derive(Debug, Clone, Copy)]
pub struct Ghaffari16Params {
    /// Iteration cap for the standalone CONGEST run (which must finish every
    /// node). Default via [`Ghaffari16Params::for_graph`]: `16 (log₂ n + 2)`.
    pub max_iterations: u64,
    /// Iteration budget of the congested-clique version before the clean-up
    /// step takes over: `⌈clique_factor · log₂(Δ+2)⌉` iterations.
    pub clique_factor: f64,
}

impl Ghaffari16Params {
    /// Sensible defaults for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.node_count().max(2) as f64;
        Ghaffari16Params {
            max_iterations: (16.0 * (n.log2() + 2.0)).ceil() as u64,
            clique_factor: 6.0,
        }
    }
}

/// The per-node record of one [`evolve`] execution.
#[derive(Debug, Clone, Default)]
pub struct Evolution {
    /// Iteration at which the node joined the MIS, if it did.
    pub joined_at: Vec<Option<u64>>,
    /// Iteration at which the node left the problem (by joining or by a
    /// neighbor joining), if it did.
    pub removed_at: Vec<Option<u64>>,
    /// Final probability exponents.
    pub pexp: Vec<u32>,
    /// Number of undecided nodes after the last iteration.
    pub undecided: usize,
}

impl Evolution {
    /// The set of nodes that joined the MIS, sorted by id.
    pub fn mis(&self) -> Vec<NodeId> {
        self.joined_at
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.map(|_| NodeId::new(i as u32)))
            .collect()
    }

    /// The undecided (alive, non-MIS) nodes, sorted by id.
    pub fn residual(&self) -> Vec<NodeId> {
        self.removed_at
            .iter()
            .enumerate()
            .filter(|&(_i, r)| r.is_none())
            .map(|(i, _r)| NodeId::new(i as u32))
            .collect()
    }
}

/// Runs `iterations` iterations of the Ghaffari'16 dynamic as a pure
/// function of the shared randomness. Stops early when every node has
/// decided.
///
/// `coin_ids[i]` is the global identity whose coins local node `i` uses —
/// pass `g.nodes().collect()` for a global run. The mark coin of node `v`
/// at iteration `t` is `rng.coin(Stream::Beep, coin_ids[v], t)`.
///
/// # Panics
///
/// Panics if `coin_ids.len() != g.node_count()`.
pub fn evolve(g: &Graph, coin_ids: &[NodeId], rng: SharedRandomness, iterations: u64) -> Evolution {
    assert_eq!(
        coin_ids.len(),
        g.node_count(),
        "coin id mapping must cover the graph"
    );
    evolve_on(&Labelled { g, coin_ids }, rng, iterations)
}

/// What [`evolve_on`] reads of a graph: nodes `0..node_count()`, each
/// with its neighbors in ascending order (which fixes the f64 summation
/// order) and the global id whose coins it draws. A global graph and a
/// gathered ball (`crate::replay::LocalBall`, §2.5) are both one, so the
/// low-degree fast path replays exactly this dynamic.
pub(crate) trait CoinGraph: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Neighbors of node `i`, ascending.
    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_;
    /// The global id whose coins node `i` draws.
    fn coin_id(&self, i: usize) -> NodeId;
}

/// A graph whose node `i` draws the coins of `coin_ids[i]`.
struct Labelled<'a> {
    g: &'a Graph,
    coin_ids: &'a [NodeId],
}

impl CoinGraph for Labelled<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.g
            .neighbors(NodeId::new(i as u32))
            .iter()
            .map(|u| u.index())
    }

    fn coin_id(&self, i: usize) -> NodeId {
        self.coin_ids[i]
    }
}

/// [`evolve`] on any [`CoinGraph`].
pub(crate) fn evolve_on(g: &impl CoinGraph, rng: SharedRandomness, iterations: u64) -> Evolution {
    let n = g.node_count();
    let mut pexp = vec![INITIAL_PEXP; n];
    let mut joined_at: Vec<Option<u64>> = vec![None; n];
    let mut removed_at: Vec<Option<u64>> = vec![None; n];
    let mut undecided = n;

    for t in 0..iterations {
        if undecided == 0 {
            break;
        }
        let alive = |i: usize| removed_at[i].is_none();
        // Marks, from addressable coins.
        let marked: Vec<bool> = par_map_nodes(n, |i| {
            alive(i) && rng.coin(Stream::Beep, g.coin_id(i), t) <= p_of(pexp[i])
        });
        // d_t over alive neighbors, and the join rule — per node a pure
        // function of the iteration's snapshots (neighbor order fixes the
        // f64 summation order, so results are thread-count independent).
        let updates = par_map_nodes(n, |i| {
            if !alive(i) {
                return None;
            }
            let mut d = 0.0f64;
            let mut neighbor_marked = false;
            for u in g.neighbors(i) {
                if alive(u) {
                    d += p_of(pexp[u]);
                    neighbor_marked |= marked[u];
                }
            }
            let next = if d >= 2.0 {
                halve(pexp[i])
            } else {
                double_capped(pexp[i])
            };
            Some((marked[i] && !neighbor_marked, next))
        });
        let mut joins: Vec<usize> = Vec::new();
        for (i, update) in updates.into_iter().enumerate() {
            if let Some((join, next)) = update {
                if join {
                    joins.push(i);
                }
                pexp[i] = next;
            }
        }
        // Removals.
        for &i in &joins {
            joined_at[i] = Some(t);
            if removed_at[i].is_none() {
                removed_at[i] = Some(t);
                undecided -= 1;
            }
            for u in g.neighbors(i) {
                if removed_at[u].is_none() {
                    removed_at[u] = Some(t);
                    undecided -= 1;
                }
            }
        }
    }
    Evolution {
        joined_at,
        removed_at,
        pexp,
        undecided,
    }
}

/// Runs Ghaffari'16 to completion in the CONGEST model with real message
/// passing: per iteration, one round exchanging `(p_t, mark)` with each
/// undecided neighbor and one round announcing joins. Two rounds and at most
/// `PROBABILITY_EXPONENT_BITS + 2` bits per edge per iteration.
///
/// # Panics
///
/// Panics if the iteration cap is reached with undecided nodes remaining
/// (a `≪ 1/poly(n)` event under the default cap).
///
/// # Example
///
/// ```
/// use cc_mis_core::ghaffari16::{run_ghaffari16, Ghaffari16Params};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::erdos_renyi_gnp(100, 0.1, 2);
/// let out = run_ghaffari16(&g, &Ghaffari16Params::for_graph(&g), 3);
/// assert!(checks::is_maximal_independent_set(&g, &out.mis));
/// ```
pub fn run_ghaffari16(g: &Graph, params: &Ghaffari16Params, seed: u64) -> MisOutcome {
    run_ghaffari16_observed(g, params, seed, None)
}

/// [`run_ghaffari16`] with an optional per-round trace observer attached to
/// the engine. `None` is exactly the unobserved run.
pub fn run_ghaffari16_observed(
    g: &Graph,
    params: &Ghaffari16Params,
    seed: u64,
    observer: Option<SharedObserver>,
) -> MisOutcome {
    drive_observed(Ghaffari16Execution::new(g, params, seed), observer)
}

/// The CONGEST Ghaffari'16 run as a step-driven state machine: one
/// [`Execution::step`] is one iteration ((p, mark) exchange + join round).
#[derive(Debug)]
pub struct Ghaffari16Execution<'a> {
    g: &'a Graph,
    params: Ghaffari16Params,
    seed: u64,
    engine: CongestEngine<'a>,
    /// Mark-coin cursor; its position doubles as the iteration count `t`.
    cursor: StreamCursor,
    pexp: Vec<u32>,
    alive: Vec<bool>,
    in_mis: Vec<bool>,
    undecided: usize,
    /// The undecided nodes: derived from `alive` (rebuilt on restore,
    /// never serialised) and shrunk at the end of every iteration.
    frontier: Frontier,
}

impl<'a> Ghaffari16Execution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    pub fn new(g: &'a Graph, params: &Ghaffari16Params, seed: u64) -> Self {
        let n = g.node_count();
        Ghaffari16Execution {
            g,
            params: *params,
            seed,
            engine: CongestEngine::strict(g, standard_bandwidth(n)),
            cursor: StreamCursor::new(SharedRandomness::new(seed), Stream::Beep),
            pexp: vec![INITIAL_PEXP; n],
            alive: vec![true; n],
            in_mis: vec![false; n],
            undecided: n,
            frontier: Frontier::full(n),
        }
    }

    /// The undecided nodes.
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }
}

impl Execution for Ghaffari16Execution<'_> {
    type Outcome = MisOutcome;

    fn algorithm_id(&self) -> &'static str {
        "ghaffari16"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.engine.attach_observer(observer);
    }

    fn step(&mut self) -> Status<MisOutcome> {
        if self.undecided == 0 {
            return Status::Done(MisOutcome {
                mis: mis_from_flags(self.g, &self.in_mis),
                ledger: self.engine.ledger().clone(),
                iterations: self.cursor.position(),
            });
        }
        assert!(
            self.cursor.position() < self.params.max_iterations,
            "Ghaffari'16 failed to terminate within {} iterations",
            self.params.max_iterations
        );
        let g = self.g;
        let cursor = self.cursor;
        let frontier = &self.frontier;
        let live = frontier.ids();
        let at = |v: NodeId| frontier.position(v);
        let pexp = &self.pexp;
        // Per-iteration vectors are indexed by frontier position: a decided
        // node draws no coin and holds no slot.
        let marked: Vec<bool> = par_map_nodes(live.len(), |k| {
            cursor.coin(live[k]) <= p_of(pexp[live[k].index()])
        });

        // Round 1: exchange (p-exponent, mark bit) with undecided neighbors.
        // Each receiver sums its neighbours' probabilities in sender order,
        // so the f64 sums are fixed.
        let mut d = vec![0.0f64; live.len()];
        let mut neighbor_marked = vec![false; live.len()];
        self.engine
            .begin_round::<(u32, bool)>()
            .exchange_with_neighbors(
                g,
                live,
                frontier,
                |v| {
                    (
                        PROBABILITY_EXPONENT_BITS + 1,
                        (pexp[v.index()], marked[at(v)]),
                    )
                },
                |v, _, &(pe, m)| {
                    let k = at(v);
                    d[k] += p_of(pe);
                    neighbor_marked[k] |= m;
                },
            )
            .expect("(p, mark) fits the bandwidth");

        let mut joins: Vec<NodeId> = Vec::new();
        for (k, &v) in live.iter().enumerate() {
            let i = v.index();
            if marked[k] && !neighbor_marked[k] {
                joins.push(v);
            }
            self.pexp[i] = if d[k] >= 2.0 {
                halve(self.pexp[i])
            } else {
                double_capped(self.pexp[i])
            };
        }

        // Round 2: joiners (ascending, as the frontier is) announce;
        // joiners and neighbors leave.
        let mut hears_joiner = vec![false; live.len()];
        self.engine
            .begin_round::<()>()
            .exchange_with_neighbors(
                g,
                &joins,
                frontier,
                |_| (1, ()),
                |v, _, ()| hears_joiner[at(v)] = true,
            )
            .expect("join bit fits");
        for &v in &joins {
            self.in_mis[v.index()] = true;
            self.alive[v.index()] = false;
            self.undecided -= 1;
        }
        for (&v, &hears) in live.iter().zip(&hears_joiner) {
            if hears && self.alive[v.index()] {
                self.alive[v.index()] = false;
                self.undecided -= 1;
            }
        }
        let alive = &self.alive;
        self.frontier.retain(|v| alive[v.index()]);
        self.cursor.advance();
        Status::Running
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.g.fingerprint(),
            "seed" => self.seed,
            "max_iterations" => self.params.max_iterations,
            "clique_factor" => self.params.clique_factor,
        }
        state {
            self.engine,
            self.cursor,
            self.pexp,
            self.alive,
            self.in_mis,
            self.undecided,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("pexp vector length", self.pexp.len(), n)?;
            check_node_vec_len("alive vector length", self.alive.len(), n)?;
            check_node_vec_len("in_mis vector length", self.in_mis.len(), n)?;
            self.frontier = Frontier::from_mask(&self.alive);
        }
    }
}

/// The `O(log Δ)`-round congested-clique MIS of `[13]` as described in §1.1:
/// run `Θ(log Δ)` iterations of the dynamic (2 clique rounds each), then
/// hand the shattered remainder to a leader (clean-up, `O(1)` rounds).
///
/// This is the algorithm Theorem 1.1 improves on quadratically.
pub fn run_ghaffari16_clique(g: &Graph, params: &Ghaffari16Params, seed: u64) -> MisOutcome {
    run_ghaffari16_clique_observed(g, params, seed, None)
}

/// [`run_ghaffari16_clique`] with an optional per-round trace observer
/// attached to the engine. `None` is exactly the unobserved run.
pub fn run_ghaffari16_clique_observed(
    g: &Graph,
    params: &Ghaffari16Params,
    seed: u64,
    observer: Option<SharedObserver>,
) -> MisOutcome {
    drive_observed(Ghaffari16CliqueExecution::new(g, params, seed), observer)
}

/// The congested-clique Ghaffari'16 baseline as a step-driven state
/// machine. The evolution is a pure function of `(g, seed, budget)` and is
/// recomputed at construction (snapshots never store it), together with
/// the number of directed alive edges of every iteration. One
/// [`Execution::step`] bills one replayed iteration (2 clique rounds plus
/// the per-edge exchange of that iteration) from that table in O(1), and a
/// final step runs the leader clean-up.
#[derive(Debug)]
pub struct Ghaffari16CliqueExecution<'a> {
    g: &'a Graph,
    params: Ghaffari16Params,
    seed: u64,
    engine: CliqueEngine,
    evo: Evolution,
    executed: u64,
    /// `directed_at[t]`: directed edges with both ends undecided at the
    /// start of iteration `t`, for `t < executed`.
    directed_at: Vec<u64>,
    /// Next iteration to bill; `executed` means the clean-up step is next.
    next_t: u64,
    cleanup_done: bool,
    mis: Vec<NodeId>,
}

impl<'a> Ghaffari16CliqueExecution<'a> {
    /// Prepares a run on `g`: replays the evolution analytically and opens
    /// the iterations phase. No rounds are billed until the first step.
    pub fn new(g: &'a Graph, params: &Ghaffari16Params, seed: u64) -> Self {
        let n = g.node_count();
        let rng = SharedRandomness::new(seed);
        let budget = iterations_for_max_degree(g.max_degree(), params.clique_factor);
        let evo = evolve(g, &g.nodes().collect::<Vec<_>>(), rng, budget);
        let executed = executed_iterations(&evo, budget);
        let directed_at = directed_alive_edges(g, &evo, executed);
        let mut engine = CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)));
        engine.ledger_mut().begin_phase("ghaffari16 iterations");
        Ghaffari16CliqueExecution {
            g,
            params: *params,
            seed,
            engine,
            evo,
            executed,
            directed_at,
            next_t: 0,
            cleanup_done: false,
            mis: Vec::new(),
        }
    }
}

impl Execution for Ghaffari16CliqueExecution<'_> {
    type Outcome = MisOutcome;

    fn algorithm_id(&self) -> &'static str {
        "g16-clique"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.engine.attach_observer(observer);
    }

    fn step(&mut self) -> Status<MisOutcome> {
        if self.next_t < self.executed {
            // Bill one replayed iteration: 2 clique rounds and one (p, mark)
            // exchange over each directed alive edge — what the CONGEST
            // execution sends at iteration `t`.
            let directed = self.directed_at[self.next_t as usize];
            let ledger = self.engine.ledger_mut();
            ledger.charge_replay(2, directed, directed * (PROBABILITY_EXPONENT_BITS + 1));
            self.next_t += 1;
            return Status::Running;
        }
        if !self.cleanup_done {
            let residual = Frontier::from_ids(self.g.node_count(), self.evo.residual());
            self.engine.ledger_mut().begin_phase("cleanup");
            let extra = cleanup::leader_cleanup(&mut self.engine, self.g, &residual);
            let mut mis = self.evo.mis();
            mis.extend(extra);
            mis.sort_unstable();
            self.mis = mis;
            self.cleanup_done = true;
            return Status::Running;
        }
        Status::Done(MisOutcome {
            mis: self.mis.clone(),
            ledger: self.engine.ledger().clone(),
            iterations: self.executed,
        })
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.g.fingerprint(),
            "seed" => self.seed,
            "max_iterations" => self.params.max_iterations,
            "clique_factor" => self.params.clique_factor,
        }
        state { self.engine, self.next_t, self.cleanup_done, self.mis }
    }
}

/// Iterations actually executed by an [`evolve`] run with the given budget
/// (it stops early once everyone has decided; the per-node removal records
/// bound when that happened).
fn executed_iterations(evo: &Evolution, budget: u64) -> u64 {
    if evo.undecided > 0 {
        budget
    } else {
        evo.removed_at
            .iter()
            .filter_map(|r| r.map(|t| t + 1))
            .max()
            .unwrap_or(0)
    }
}

/// Directed edges alive at the start of each of the first `executed`
/// iterations of `evo`. A node removed at `r` is still undecided at the
/// start of iteration `r`, so an edge counts twice at every `t` up to the
/// earlier of its ends' removals: add 2 there, then take suffix sums.
fn directed_alive_edges(g: &Graph, evo: &Evolution, executed: u64) -> Vec<u64> {
    let last = |v: NodeId| evo.removed_at[v.index()].map_or(executed, |r| r.min(executed));
    let mut directed_at = vec![0u64; executed as usize + 1];
    for (u, v) in g.edges() {
        directed_at[last(u).min(last(v)) as usize] += 2;
    }
    for t in (0..executed as usize).rev() {
        directed_at[t] += directed_at[t + 1];
    }
    directed_at.truncate(executed as usize);
    directed_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn congest_run_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(12),
            generators::complete(7),
            generators::star(15),
            generators::erdos_renyi_gnp(90, 0.08, 1),
            generators::disjoint_cliques(4, 5),
            Graph::empty(4),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_ghaffari16(g, &Ghaffari16Params::for_graph(g), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn message_run_matches_pure_evolution() {
        // The CONGEST execution and the pure function must agree exactly —
        // this is the property the local replay of §2.5 relies on.
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnp(60, 0.12, seed + 100);
            let out = run_ghaffari16(&g, &Ghaffari16Params::for_graph(&g), seed);
            let evo = evolve(
                &g,
                &g.nodes().collect::<Vec<_>>(),
                SharedRandomness::new(seed),
                u64::MAX,
            );
            assert_eq!(out.mis, evo.mis(), "seed {seed}");
        }
    }

    #[test]
    fn clique_variant_is_mis() {
        for seed in 0..4 {
            let g = generators::erdos_renyi_gnp(120, 0.1, seed);
            let out = run_ghaffari16_clique(&g, &Ghaffari16Params::for_graph(&g), seed);
            assert!(
                checks::is_maximal_independent_set(&g, &out.mis),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn clique_variant_rounds_scale_with_log_delta_not_n() {
        let g = generators::random_regular(500, 8, 3);
        let out = run_ghaffari16_clique(&g, &Ghaffari16Params::for_graph(&g), 0);
        // budget = 6 * log2(10) ≈ 20 iterations → ≈ 40 rounds + cleanup.
        assert!(out.ledger.rounds < 80, "rounds = {}", out.ledger.rounds);
    }

    /// The edge walk the billing table replaced: directed edges with both
    /// ends undecided at the start of iteration `t`.
    fn walked_directed(g: &Graph, evo: &Evolution, t: u64) -> u64 {
        let alive_at = |v: NodeId| evo.removed_at[v.index()].is_none_or(|r| r >= t);
        2 * g
            .edges()
            .filter(|&(u, v)| alive_at(u) && alive_at(v))
            .count() as u64
    }

    /// Steps `exec` to the end. After every billed iteration its ledger must
    /// equal the ledger before the step plus the edge walk's bill.
    fn step_against_the_walk(exec: &mut Ghaffari16CliqueExecution<'_>, name: &str) -> MisOutcome {
        loop {
            let t = exec.next_t;
            let mut want = exec.engine.ledger().clone();
            let billed = t < exec.executed;
            if billed {
                let directed = walked_directed(exec.g, &exec.evo, t);
                want.charge_replay(2, directed, directed * (PROBABILITY_EXPONENT_BITS + 1));
            }
            let status = exec.step();
            if billed {
                assert_eq!(exec.engine.ledger(), &want, "{name}: iteration {t}");
            }
            if let Status::Done(out) = status {
                return out;
            }
        }
    }

    #[test]
    fn clique_billing_table_equals_the_edge_walk() {
        let sparse = generators::erdos_renyi_gnp(60, 0.02, 4);
        assert!(
            sparse.nodes().any(|v| sparse.degree(v) == 0),
            "no isolated node"
        );
        let mut graphs = vec![
            ("empty(0)", Graph::empty(0)),
            ("empty(6)", Graph::empty(6)),
            ("star(12)", generators::star(12)),
            ("complete(10)", generators::complete(10)),
            ("gnp(60, 0.02)", sparse),
        ];
        for s in 0..6 {
            graphs.push((
                "gnp",
                generators::erdos_renyi_gnp(50 + 20 * s, 0.1, s as u64),
            ));
        }
        for (name, g) in &graphs {
            for seed in 0..3 {
                let params = Ghaffari16Params::for_graph(g);
                let mut exec = Ghaffari16CliqueExecution::new(g, &params, seed);
                let out = step_against_the_walk(&mut exec, name);
                assert!(checks::is_maximal_independent_set(g, &out.mis), "{name}");
            }
        }
    }

    #[test]
    fn clique_billing_table_covers_a_truncated_run() {
        // One iteration cannot decide a dense graph: the run stops at the
        // budget with nodes undecided, and the clean-up takes the rest.
        let g = generators::erdos_renyi_gnp(150, 0.3, 8);
        let params = Ghaffari16Params {
            clique_factor: 0.1,
            ..Ghaffari16Params::for_graph(&g)
        };
        let mut exec = Ghaffari16CliqueExecution::new(&g, &params, 2);
        assert!(exec.evo.undecided > 0);
        assert_eq!(exec.executed, 1);
        assert_eq!(
            exec.executed,
            iterations_for_max_degree(g.max_degree(), 0.1)
        );
        let out = step_against_the_walk(&mut exec, "truncated");
        assert!(checks::is_maximal_independent_set(&g, &out.mis));
    }

    #[test]
    fn clique_billing_table_survives_snapshot_and_resume() {
        use cc_mis_sim::driver::{resume, snapshot};
        let g = generators::erdos_renyi_gnp(120, 0.1, 6);
        let params = Ghaffari16Params::for_graph(&g);
        let straight = run_ghaffari16_clique(&g, &params, 3);
        let mut exec = Ghaffari16CliqueExecution::new(&g, &params, 3);
        let mid = exec.executed / 2;
        assert!(mid >= 1, "run too short to snapshot mid-run");
        for _ in 0..mid {
            assert!(matches!(exec.step(), Status::Running));
        }
        let bytes = snapshot(&exec);
        let mut resumed = Ghaffari16CliqueExecution::new(&g, &params, 3);
        resume(&mut resumed, &bytes).expect("own snapshot resumes");
        assert_eq!(resumed.next_t, mid);
        let out = step_against_the_walk(&mut resumed, "resumed");
        assert_eq!(out.mis, straight.mis);
        assert_eq!(out.ledger, straight.ledger);
    }

    #[test]
    fn evolve_respects_iteration_budget() {
        let g = generators::complete(30);
        let evo = evolve(
            &g,
            &g.nodes().collect::<Vec<_>>(),
            SharedRandomness::new(1),
            0,
        );
        assert_eq!(evo.undecided, 30);
        assert!(evo.mis().is_empty());
    }

    #[test]
    fn evolve_probabilities_drop_in_dense_graphs() {
        let g = generators::complete(64);
        let evo = evolve(
            &g,
            &g.nodes().collect::<Vec<_>>(),
            SharedRandomness::new(5),
            3,
        );
        // d ≈ 31.5 ≥ 2 initially, so every undecided node halves thrice.
        for v in evo.residual() {
            assert_eq!(evo.pexp[v.index()], 4, "node {v}");
        }
    }

    #[test]
    fn coin_id_mapping_changes_outcome() {
        let g = generators::cycle(9);
        let ids_a: Vec<NodeId> = g.nodes().collect();
        let ids_b: Vec<NodeId> = (100..109).map(NodeId::new).collect();
        let ea = evolve(&g, &ids_a, SharedRandomness::new(7), 50);
        let eb = evolve(&g, &ids_b, SharedRandomness::new(7), 50);
        // Different coin addresses make different executions (almost surely
        // different MIS on a cycle of 9 — checked for this seed).
        assert_ne!(ea.mis(), eb.mis());
    }
}
