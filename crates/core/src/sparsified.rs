//! The sparsified beeping MIS (§2.3, "Intermediate Algorithm (2)").
//!
//! The beeping MIS of §2.2, restructured into **phases** of
//! `P = √(δ log n)/10` iterations so that it can be simulated fast in the
//! congested clique (§2.4). At the start of each phase every node sends its
//! `p_t(v)` to its neighbors; a node with `d_t(v) ≥ 2^{√(δ log n)/5}` is
//! **super-heavy** for the whole phase. Super-heavy nodes never join the
//! MIS and halve `p` deterministically every iteration (they "hedge" —
//! §2.3's *Stabilizing Super-Heavy Neighborhoods*), which makes their beep
//! pattern predictable for the entire phase. Everyone else behaves exactly
//! as in §2.2.
//!
//! [`SparsifiedExecution`] runs the algorithm on real engines: a CONGEST
//! round for each phase-start exchange and two beeping rounds per
//! iteration (Lemma 2.13's accounting). It is the reference that the
//! congested-clique simulation in [`crate::clique_mis`] is required — and
//! tested — to reproduce bit for bit, state trajectory and all, under a
//! shared seed. [`sparsified_trace`] replays the same dynamic on the side
//! and counts the golden rounds that experiment E4 charts.
//!
//! ## Canonical resolution of a paper ambiguity
//!
//! A super-heavy node whose neighbor joins the MIS mid-phase is removed
//! from the problem, yet §2.4 hands its full-phase beep vector to its
//! neighbors up front. We therefore define (see DESIGN.md §2): a super-heavy
//! node honors its beep vector **through the end of its phase**, even if
//! removed mid-phase. It can never join the MIS, so independence and
//! maximality are unaffected; only neighbors' probability updates see the
//! stale beeps, costing at most constants in the round bound.
//!
//! ## Scaling the paper's constants
//!
//! With the paper's literal `P = √(δ log n)/10`, any laptop-scale `n` gives
//! `P < 1`. The *relationships* between the parameters are what the proofs
//! use — the super-heavy threshold is `2^{2P}` and the sampling multiplier
//! is `2^P` — so we keep those exact and expose `P` itself as a parameter
//! (default `max(2, ⌈√(log₂ n)/2⌉)`). Experiment A1 sweeps `P`.

use std::mem;

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::bits::{standard_bandwidth, PROBABILITY_EXPONENT_BITS};
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::driver::{drive, Execution, Status};
use cc_mis_sim::par_nodes::par_map_nodes;
use cc_mis_sim::rng::{SharedRandomness, Stream};
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::{Frontier, RoundLedger, SharedObserver};

use crate::beeping_mis::{GOLDEN1_D_MAX, GOLDEN2_D_MIN, HEAVY_THRESHOLD};
use crate::common::{
    check_node_vec_len, double_capped, halve, iterations_for_max_degree, p_of, MisOutcome,
    INITIAL_PEXP,
};
use crate::greedy::greedy_mis_on_residual;

/// Parameters of the sparsified algorithm (shared verbatim with the clique
/// simulation, which must match it bit-for-bit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsifiedParams {
    /// Phase length `P` (the paper's `√(δ log n)/10`).
    pub phase_len: usize,
    /// `log₂` of the super-heavy threshold `L` (the paper's `√(δ log n)/5`,
    /// i.e. exactly `2 P` — kept as a separate knob for the ablation).
    pub super_heavy_log2: u32,
    /// Total iteration budget (the paper's `Θ(log Δ)`).
    pub max_iterations: u64,
}

impl SparsifiedParams {
    /// Paper-faithful defaults for `g`: `P = max(1, ⌊√(log₂ n)/10⌉)` (the
    /// paper's formula with `δ = 1`; note that for any feasible `n` this is
    /// 1 — the asymptotic phase length only exceeds 1 beyond `n ≈ 2^{400}`),
    /// threshold `2^{2P}`, budget `⌈6 log₂(Δ+2)⌉`.
    ///
    /// Larger `P` exercises the multi-iteration simulation machinery and is
    /// explored by the ablation experiment; it trades rounds for fewer
    /// phases and is only profitable once gathered balls stay far below
    /// `n^δ` (see EXPERIMENTS.md).
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.node_count().max(2) as f64;
        let p = ((n.log2().sqrt() / 10.0).round() as usize).max(1);
        SparsifiedParams {
            phase_len: p,
            super_heavy_log2: (2 * p) as u32,
            max_iterations: iterations_for_max_degree(g.max_degree(), 6.0),
        }
    }

    /// The super-heavy threshold `L = 2^{super_heavy_log2}`.
    pub fn super_heavy_threshold(&self) -> f64 {
        (self.super_heavy_log2 as f64).exp2()
    }
}

/// Per-phase record: who was super-heavy, who was sampled into `S`, and how
/// locally sparse `G[S]` was (the Lemma 2.12 quantity).
#[derive(Debug, Clone, Default)]
pub struct PhaseInfo {
    /// Global iteration index at which the phase began.
    pub start_iteration: u64,
    /// Number of iterations in the phase (the last phase may be short).
    pub len: usize,
    /// Undecided nodes at phase start.
    pub alive_at_start: usize,
    /// Super-heavy nodes of the phase.
    pub super_heavy: usize,
    /// Size of the sampled superset `S`.
    pub sampled: usize,
    /// `max_{s ∈ S} |N(s) ∩ S|` among undecided nodes — Lemma 2.12 bounds
    /// this by `2^{1 + √(δ log n)/2}` w.h.p.
    pub max_s_degree: usize,
}

snapshot_fields! {
    impl Field for PhaseInfo {
        start_iteration,
        len,
        alive_at_start,
        super_heavy,
        sampled,
        max_s_degree,
    }
}

/// State trajectory of a sparsified run (also the reference the clique
/// simulation is compared against).
#[derive(Debug, Clone)]
pub struct SparsifiedRun {
    /// Nodes that joined the MIS within the budget, sorted by id.
    pub mis: Vec<NodeId>,
    /// Undecided nodes at the end, sorted by id.
    pub residual: Vec<NodeId>,
    /// Iteration at which each node joined, if it did.
    pub joined_at: Vec<Option<u64>>,
    /// Iteration at which each node left the problem, if it did.
    pub removed_at: Vec<Option<u64>>,
    /// Final probability exponents (meaningful for residual nodes).
    pub pexp: Vec<u32>,
    /// Iterations executed.
    pub iterations: u64,
    /// Round/bit tally: 1 exchange round per phase plus 2 beeping rounds per
    /// iteration.
    pub ledger: RoundLedger,
    /// Per-phase sampling statistics.
    pub phases: Vec<PhaseInfo>,
    /// Number of edges between residual nodes (the Lemma 2.11 quantity).
    pub residual_edge_count: usize,
}

/// Golden-round bookkeeping with the §2.3 redefinitions (super-heavy counts
/// as heavy; golden type-1 additionally requires `v ∉ SH_t`), as computed
/// by [`sparsified_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparsifiedTrace {
    /// Golden type-1 rounds per node.
    pub golden1: Vec<u64>,
    /// Golden type-2 rounds per node.
    pub golden2: Vec<u64>,
    /// Iterations each node spent undecided.
    pub undecided_iterations: Vec<u64>,
}

/// Runs the sparsified algorithm ([`SparsifiedExecution`]) to the end of
/// its budget.
///
/// # Example
///
/// ```
/// use cc_mis_core::sparsified::{run_sparsified, SparsifiedParams};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::erdos_renyi_gnp(150, 0.08, 4);
/// let run = run_sparsified(&g, &SparsifiedParams::for_graph(&g), 9);
/// assert!(checks::is_independent_set(&g, &run.mis));
/// // After Θ(log Δ) iterations the residual is tiny (Lemma 2.11).
/// assert!(run.residual_edge_count <= 2 * g.node_count());
/// ```
pub fn run_sparsified(g: &Graph, params: &SparsifiedParams, seed: u64) -> SparsifiedRun {
    drive(SparsifiedExecution::new(g, params, seed))
}

/// Runs the sparsified algorithm and finishes the residual graph with a
/// centralized greedy pass (the reference counterpart of the clique
/// algorithm's leader clean-up), yielding a complete MIS.
pub fn run_sparsified_with_cleanup(g: &Graph, params: &SparsifiedParams, seed: u64) -> MisOutcome {
    finish_with_cleanup(g, run_sparsified(g, params, seed))
}

/// Finishes a completed sparsified run with the centralized greedy pass
/// over the residual (no ledger charges — the reference counterpart of the
/// clique algorithm's leader clean-up).
pub fn finish_with_cleanup(g: &Graph, run: SparsifiedRun) -> MisOutcome {
    let residual = Frontier::from_ids(g.node_count(), run.residual.iter().copied());
    let residual_edges: Vec<(NodeId, NodeId)> = residual.induced_edges(g).collect();
    let mut mis = run.mis;
    mis.extend(greedy_mis_on_residual(&run.residual, &residual_edges));
    mis.sort_unstable();
    MisOutcome {
        mis,
        ledger: run.ledger,
        iterations: run.iterations,
    }
}

/// The per-node state of the sparsified dynamic and the iterations that
/// advance it. [`SparsifiedExecution`] delivers its beeps through the
/// beeping engine; [`sparsified_trace`] delivers them directly and watches
/// every iteration, so both follow one trajectory.
#[derive(Debug)]
struct Dynamic {
    pexp: Vec<u32>,
    joined_at: Vec<Option<u64>>,
    removed_at: Vec<Option<u64>>,
    undecided: usize,
    /// Iterations executed.
    t: u64,
    /// The nodes undecided at the start of the current phase: derived from
    /// `removed_at` (rebuilt on restore, never serialised) and shrunk at
    /// the end of every phase.
    frontier: Frontier,
    /// Per-round scratch that beep delivery writes its `heard` vector into;
    /// every round overwrites it.
    heard: Vec<bool>,
}

impl Dynamic {
    fn new(n: usize) -> Self {
        Dynamic {
            pexp: vec![INITIAL_PEXP; n],
            joined_at: vec![None; n],
            removed_at: vec![None; n],
            undecided: n,
            t: 0,
            frontier: Frontier::full(n),
            heard: Vec::new(),
        }
    }

    /// Length of the next phase (the last one may be cut short by the
    /// budget), or `None` once the budget is spent or every node decided.
    fn next_phase_len(&self, params: &SparsifiedParams) -> Option<usize> {
        (self.t < params.max_iterations && self.undecided > 0)
            .then(|| (params.max_iterations - self.t).min(params.phase_len as u64) as usize)
    }

    /// `d_t(v) = Σ_{undecided u ∈ N(v)} p_t(u)` for every frontier node, by
    /// frontier position. Each sum runs over the ascending neighbor list,
    /// the order in which the phase-start exchange delivers, so the f64
    /// sums equal the exchange's and do not depend on the thread count.
    fn degrees(&self, g: &Graph) -> Vec<f64> {
        let live = self.frontier.ids();
        par_map_nodes(live.len(), |k| {
            g.neighbors(live[k])
                .iter()
                .filter(|u| self.removed_at[u.index()].is_none())
                .map(|u| p_of(self.pexp[u.index()]))
                .sum()
        })
    }

    /// Runs the `len` iterations of the phase that starts now. Every loop
    /// walks the phase's frontier, or the beepers and joiners drawn from it.
    ///
    /// `beep(beepers, heard)` delivers one beep round from the ascending
    /// `beepers`, overwriting `heard` with whether each node heard a
    /// neighbor; it serves R1 and R2 alike. `visit(self)` sees the state at
    /// the start of every iteration.
    fn phase(
        &mut self,
        g: &Graph,
        rng: SharedRandomness,
        len: usize,
        super_heavy: &Frontier,
        mut beep: impl FnMut(&[NodeId], &mut Vec<bool>),
        mut visit: impl FnMut(&Self),
    ) {
        for _ in 0..len {
            visit(self);
            let t = self.t;
            let live = self.frontier.ids();
            // R1: super-heavy nodes follow their committed schedule for the
            // whole phase (even if removed mid-phase); others beep only
            // while undecided.
            let (removed_at, pexp) = (&self.removed_at, &self.pexp);
            let beeps = par_map_nodes(live.len(), |k| {
                let v = live[k];
                (super_heavy.contains(v) || removed_at[v.index()].is_none())
                    && rng.coin(Stream::Beep, v, t) <= p_of(pexp[v.index()])
            });
            let beepers: Vec<NodeId> = live
                .iter()
                .zip(&beeps)
                .filter_map(|(&v, &b)| b.then_some(v))
                .collect();
            beep(&beepers, &mut self.heard);
            let heard = &self.heard;
            // Joins: not super-heavy, undecided, beeping, hearing silence.
            let joins: Vec<NodeId> = beepers
                .iter()
                .copied()
                .filter(|&v| {
                    removed_at[v.index()].is_none() && !super_heavy.contains(v) && !heard[v.index()]
                })
                .collect();
            for &v in live {
                let i = v.index();
                if super_heavy.contains(v) {
                    self.pexp[i] = halve(self.pexp[i]);
                } else if self.removed_at[i].is_none() {
                    self.pexp[i] = if heard[i] {
                        halve(self.pexp[i])
                    } else {
                        double_capped(self.pexp[i])
                    };
                }
            }
            // R2: new MIS members beep; they and their hearers leave.
            beep(&joins, &mut self.heard);
            for &v in &joins {
                self.joined_at[v.index()] = Some(t);
                for u in std::iter::once(v).chain(g.neighbors(v).iter().copied()) {
                    if self.removed_at[u.index()].is_none() {
                        self.removed_at[u.index()] = Some(t);
                        self.undecided -= 1;
                    }
                }
            }
            self.t += 1;
        }
        let removed_at = &self.removed_at;
        self.frontier.retain(|v| removed_at[v.index()].is_none());
    }
}

/// The sparsified algorithm as a step-driven state machine over real
/// engines: one [`Execution::step`] is one full phase, a CONGEST
/// `p`-exchange round plus `2 · P` beeping rounds. One attached observer
/// watches both engines, in execution order.
#[derive(Debug)]
pub struct SparsifiedExecution<'a> {
    g: &'a Graph,
    params: SparsifiedParams,
    seed: u64,
    rng: SharedRandomness,
    congest: CongestEngine<'a>,
    beeping: BeepingEngine<'a>,
    dynamic: Dynamic,
    phases: Vec<PhaseInfo>,
    /// The current phase's super-heavy nodes and sampled set `S`,
    /// reassigned every phase (their slot tables are allocated once).
    super_heavy: Frontier,
    sampled: Frontier,
}

impl<'a> SparsifiedExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    ///
    /// # Panics
    ///
    /// Panics if `params.phase_len` is zero.
    pub fn new(g: &'a Graph, params: &SparsifiedParams, seed: u64) -> Self {
        assert!(params.phase_len >= 1, "phase length must be at least 1");
        let n = g.node_count();
        SparsifiedExecution {
            g,
            params: *params,
            seed,
            rng: SharedRandomness::new(seed),
            congest: CongestEngine::strict(g, standard_bandwidth(n.max(2))),
            beeping: BeepingEngine::new(g),
            dynamic: Dynamic::new(n),
            phases: Vec::new(),
            super_heavy: Frontier::empty(n),
            sampled: Frontier::empty(n),
        }
    }

    /// The undecided nodes.
    pub fn frontier(&self) -> &Frontier {
        &self.dynamic.frontier
    }

    /// The outcome. The per-node vectors and phases move out rather than
    /// being cloned: stepping after `Done` is a contract violation, so the
    /// execution never reads them again. The phases, grown by pushes, are
    /// trimmed as a clone would be: a caller may keep many outcomes.
    fn finish(&mut self) -> SparsifiedRun {
        let g = self.g;
        let dynamic = &mut self.dynamic;
        let mut ledger = self.congest.ledger().clone();
        ledger.merge(self.beeping.ledger());
        let mut phases = mem::take(&mut self.phases);
        phases.shrink_to_fit();
        SparsifiedRun {
            mis: g
                .nodes()
                .filter(|v| dynamic.joined_at[v.index()].is_some())
                .collect(),
            residual: dynamic.frontier.ids().to_vec(),
            residual_edge_count: dynamic.frontier.induced_edges(g).count(),
            joined_at: mem::take(&mut dynamic.joined_at),
            removed_at: mem::take(&mut dynamic.removed_at),
            pexp: mem::take(&mut dynamic.pexp),
            iterations: dynamic.t,
            ledger,
            phases,
        }
    }
}

impl Execution for SparsifiedExecution<'_> {
    type Outcome = SparsifiedRun;

    fn algorithm_id(&self) -> &'static str {
        "sparsified"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.congest.attach_observer(observer.clone());
        self.beeping.attach_observer(observer);
    }

    fn step(&mut self) -> Status<SparsifiedRun> {
        let g = self.g;
        let Some(len) = self.dynamic.next_phase_len(&self.params) else {
            return Status::Done(self.finish());
        };
        let t0 = self.dynamic.t;
        let frontier = &self.dynamic.frontier;
        let live = frontier.ids();

        // Phase-start exchange over the CONGEST engine. Each receiver sums
        // its neighbours' probabilities in sender order.
        let pexp = &self.dynamic.pexp;
        let mut d = vec![0.0f64; live.len()];
        self.congest
            .begin_round::<u32>()
            .exchange_with_neighbors(
                g,
                live,
                frontier,
                |v| (PROBABILITY_EXPONENT_BITS, pexp[v.index()]),
                |u, _, &pe| d[frontier.position(u)] += p_of(pe),
            )
            .expect("p exponent fits");
        let threshold = self.params.super_heavy_threshold();
        self.super_heavy.assign(
            live.iter()
                .zip(&d)
                .filter_map(|(&v, &d)| (d >= threshold).then_some(v)),
        );
        let candidates: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|&v| !self.super_heavy.contains(v))
            .collect();
        self.sampled
            .assign(sample_set(&self.rng, pexp, &candidates, t0, len));
        self.phases.push(PhaseInfo {
            start_iteration: t0,
            len,
            alive_at_start: live.len(),
            super_heavy: self.super_heavy.len(),
            sampled: self.sampled.len(),
            max_s_degree: max_degree_within(g, &self.sampled),
        });

        // The beeping rounds. Every beeper that is not super-heavy is in
        // `S`: the superset property §2.4's local replay relies on.
        let (super_heavy, sampled, beeping) = (&self.super_heavy, &self.sampled, &mut self.beeping);
        self.dynamic.phase(
            g,
            self.rng,
            len,
            super_heavy,
            |beepers, heard| {
                debug_assert!(
                    beepers
                        .iter()
                        .all(|&v| super_heavy.contains(v) || sampled.contains(v)),
                    "a beeper that is not super-heavy is missing from S"
                );
                beeping.round_sparse(beepers, heard);
            },
            |_| {},
        );
        Status::Running
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.g.fingerprint(),
            "seed" => self.seed,
            "phase_len" => self.params.phase_len,
            "super_heavy_log2" => self.params.super_heavy_log2,
            "max_iterations" => self.params.max_iterations,
        }
        state {
            self.congest,
            self.beeping,
            self.dynamic.t,
            self.dynamic.pexp,
            self.dynamic.joined_at,
            self.dynamic.removed_at,
            self.dynamic.undecided,
            self.phases,
        }
        then {
            let n = self.g.node_count();
            let dynamic = &mut self.dynamic;
            check_node_vec_len("pexp vector length", dynamic.pexp.len(), n)?;
            check_node_vec_len("joined_at vector length", dynamic.joined_at.len(), n)?;
            check_node_vec_len("removed_at vector length", dynamic.removed_at.len(), n)?;
            let removed_at = &dynamic.removed_at;
            dynamic.frontier = Frontier::full(n);
            dynamic.frontier.retain(|v| removed_at[v.index()].is_none());
        }
    }
}

/// The golden-round counters of the run [`run_sparsified`] makes on `g`
/// with `params` and `seed`.
///
/// Replays that run — the same phases, super-heavy sets and beeps, with
/// each beep delivered directly instead of through an engine — and
/// evaluates `d_t(v)` and `d'_t(v)` at the start of every iteration on the
/// side; the algorithm itself never computes them. Every sum adds up in
/// ascending neighbor order, so the counters do not depend on the thread
/// count.
///
/// # Example
///
/// ```
/// use cc_mis_core::sparsified::{sparsified_trace, SparsifiedParams};
/// use cc_mis_graph::generators;
///
/// let g = generators::erdos_renyi_gnp(60, 0.1, 1);
/// let trace = sparsified_trace(&g, &SparsifiedParams::for_graph(&g), 3);
/// let golden: u64 = trace.golden1.iter().chain(&trace.golden2).sum();
/// assert!(golden > 0 && golden <= trace.undecided_iterations.iter().sum());
/// ```
pub fn sparsified_trace(g: &Graph, params: &SparsifiedParams, seed: u64) -> SparsifiedTrace {
    let n = g.node_count();
    let mut trace = SparsifiedTrace {
        golden1: vec![0; n],
        golden2: vec![0; n],
        undecided_iterations: vec![0; n],
    };
    let rng = SharedRandomness::new(seed);
    let threshold = params.super_heavy_threshold();
    let mut dynamic = Dynamic::new(n);
    let mut super_heavy = Frontier::empty(n);
    while let Some(len) = dynamic.next_phase_len(params) {
        let d0 = dynamic.degrees(g);
        super_heavy.assign(
            dynamic
                .frontier
                .ids()
                .iter()
                .zip(&d0)
                .filter_map(|(&v, &d)| (d >= threshold).then_some(v)),
        );
        let sh = &super_heavy;
        let deliver = |beepers: &[NodeId], heard: &mut Vec<bool>| {
            heard.clear();
            heard.resize(n, false);
            for &v in beepers {
                for &u in g.neighbors(v) {
                    heard[u.index()] = true;
                }
            }
        };
        dynamic.phase(g, rng, len, sh, deliver, |state| {
            count_golden_rounds(g, state, sh, &mut trace);
        });
    }
    trace
}

/// One iteration of [`sparsified_trace`]'s counters, on the state at its
/// start.
fn count_golden_rounds(
    g: &Graph,
    state: &Dynamic,
    super_heavy: &Frontier,
    trace: &mut SparsifiedTrace,
) {
    let d = state.degrees(g);
    let frontier = &state.frontier;
    let alive = |u: NodeId| state.removed_at[u.index()].is_none();
    for (&v, &dv) in frontier.ids().iter().zip(&d) {
        if !alive(v) {
            continue;
        }
        let i = v.index();
        trace.undecided_iterations[i] += 1;
        // Golden type-1: p = 1/2, not super-heavy, d ≤ 0.02.
        if state.pexp[i] == INITIAL_PEXP && !super_heavy.contains(v) && dv <= GOLDEN1_D_MAX {
            trace.golden1[i] += 1;
        }
        // Golden type-2: d > 0.01 and non-heavy contribution ≥ 0.01 d,
        // where heavy now means super-heavy or d > 10. An undecided
        // neighbor is in the phase's frontier.
        if dv > GOLDEN2_D_MIN {
            let dp: f64 = g
                .neighbors(v)
                .iter()
                .filter(|&&u| {
                    alive(u)
                        && !super_heavy.contains(u)
                        && d[frontier.position(u)] <= HEAVY_THRESHOLD
                })
                .map(|u| p_of(state.pexp[u.index()]))
                .sum();
            if dp >= GOLDEN2_D_MIN * dv {
                trace.golden2[i] += 1;
            }
        }
    }
}

/// The sampled superset `S` for a phase, ascending: the `candidates`
/// (the undecided nodes that are not super-heavy, ascending) some coin of
/// whose phase falls below `2^len · p_{t0}(v)` (the paper's membership
/// test, with the multiplier matching the possibly-truncated phase
/// length).
pub(crate) fn sample_set(
    rng: &SharedRandomness,
    pexp: &[u32],
    candidates: &[NodeId],
    t0: u64,
    len: usize,
) -> Vec<NodeId> {
    let picked = par_map_nodes(candidates.len(), |k| {
        let v = candidates[k];
        let bound = (len as f64).exp2() * p_of(pexp[v.index()]);
        (0..len as u64).any(|j| rng.coin(Stream::Beep, v, t0 + j) <= bound)
    });
    candidates
        .iter()
        .zip(picked)
        .filter_map(|(&v, picked)| picked.then_some(v))
        .collect()
}

/// Maximum degree of the subgraph induced by `member` (Lemma 2.12 metric).
fn max_degree_within(g: &Graph, member: &Frontier) -> usize {
    member
        .ids()
        .iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| member.contains(u))
                .count()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn sparsified_with_cleanup_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(18),
            generators::complete(10),
            generators::star(20),
            generators::grid(5, 6),
            generators::erdos_renyi_gnp(120, 0.07, 2),
            generators::disjoint_cliques(4, 6),
            generators::barabasi_albert(100, 4, 8),
            Graph::empty(7),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_sparsified_with_cleanup(g, &SparsifiedParams::for_graph(g), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn partial_output_is_independent_and_dominates_decided() {
        let g = generators::erdos_renyi_gnp(100, 0.1, 6);
        let run = run_sparsified(&g, &SparsifiedParams::for_graph(&g), 1);
        assert!(checks::is_independent_set(&g, &run.mis));
        // Everyone removed-but-not-joined has an MIS neighbor.
        for i in 0..100 {
            if run.removed_at[i].is_some() && run.joined_at[i].is_none() {
                let v = NodeId::new(i as u32);
                assert!(
                    g.neighbors(v)
                        .iter()
                        .any(|u| run.joined_at[u.index()].is_some()),
                    "node {i}"
                );
            }
        }
    }

    #[test]
    fn shattering_leaves_few_edges() {
        // Lemma 2.11: after Θ(log Δ) iterations, O(n) edges remain. Run on
        // a moderately dense random graph and check the residual is small.
        let n = 300;
        let g = generators::erdos_renyi_gnp(n, 0.1, 3);
        let run = run_sparsified(&g, &SparsifiedParams::for_graph(&g), 5);
        assert!(
            run.residual_edge_count <= n,
            "residual {} edges on {} nodes",
            run.residual_edge_count,
            n
        );
    }

    #[test]
    fn super_heavy_nodes_never_join_while_super_heavy() {
        // A star center with many leaves is super-heavy in phase 1
        // (d = leaves/2 ≥ 2^{2P}); it must not join during that phase.
        let g = generators::star(600);
        let params = SparsifiedParams::for_graph(&g);
        let run = run_sparsified(&g, &params, 2);
        if let Some(j) = run.joined_at[0] {
            assert!(
                j >= params.phase_len as u64,
                "center joined at {j} inside the first phase"
            );
        }
        assert_eq!(run.phases[0].super_heavy, 1);
    }

    #[test]
    fn sampled_set_is_superset_of_beepers() {
        // `step` asserts in debug builds that every beeper that is not
        // super-heavy is in its phase's sampled set S. These runs cover a
        // super-heavy hub, dense components, and phases of 1 and 3
        // iterations.
        for g in [
            generators::erdos_renyi_gnp(100, 0.08, 70),
            generators::star(120),
            generators::disjoint_cliques(6, 8),
        ] {
            for phase_len in [1usize, 3] {
                let params = SparsifiedParams {
                    phase_len,
                    super_heavy_log2: (2 * phase_len) as u32,
                    max_iterations: 12,
                };
                for seed in 0..2 {
                    let run = run_sparsified(&g, &params, seed);
                    assert!(run.phases.iter().any(|p| p.sampled > 0), "{g:?}");
                }
            }
        }
    }

    #[test]
    fn phase_rounds_accounting() {
        let g = generators::erdos_renyi_gnp(80, 0.05, 0);
        let params = SparsifiedParams {
            phase_len: 3,
            super_heavy_log2: 6,
            max_iterations: 7,
        };
        let run = run_sparsified(&g, &params, 0);
        if run.iterations == 7 {
            // Phases of 3, 3, 1 → 3 exchange rounds + 2·7 beeping rounds.
            assert_eq!(run.ledger.rounds, 3 + 14);
            assert_eq!(run.phases.len(), 3);
            assert_eq!(run.phases[2].len, 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi_gnp(90, 0.08, 12);
        let p = SparsifiedParams::for_graph(&g);
        let a = run_sparsified(&g, &p, 17);
        let b = run_sparsified(&g, &p, 17);
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.pexp, b.pexp);
        assert_eq!(a.removed_at, b.removed_at);
    }

    #[test]
    fn default_params_relationships() {
        let g = generators::erdos_renyi_gnp(1000, 0.01, 0);
        let p = SparsifiedParams::for_graph(&g);
        assert!(p.phase_len >= 1);
        assert_eq!(p.super_heavy_log2 as usize, 2 * p.phase_len);
        assert!(p.max_iterations >= 1);
    }
}
