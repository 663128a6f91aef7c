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
//! This module is the **canonical semantics**: [`run_sparsified`] executes
//! the algorithm directly (globally), and the congested-clique simulation
//! in [`crate::clique_mis`] is required — and tested — to reproduce its
//! entire state trajectory bit-for-bit under a shared seed.
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

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::beeping::BeepingEngine;
use cc_mis_sim::bits::{standard_bandwidth, PROBABILITY_EXPONENT_BITS};
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::driver::{drive, drive_observed, Execution, Status};
use cc_mis_sim::par_nodes::par_map_nodes;
use cc_mis_sim::rng::{SharedRandomness, Stream};
use cc_mis_sim::snapshot::graph_fingerprint;
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::{RoundLedger, SharedObserver};

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
    /// Whether to record the golden-round trace.
    pub record_trace: bool,
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
            record_trace: false,
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
    /// Golden-round / wrong-move counters (empty unless requested).
    pub trace: SparsifiedTrace,
}

/// Golden-round bookkeeping with the §2.3 redefinitions (super-heavy counts
/// as heavy; golden type-1 additionally requires `v ∉ SH_t`).
#[derive(Debug, Clone, Default)]
pub struct SparsifiedTrace {
    /// Golden type-1 rounds per node.
    pub golden1: Vec<u64>,
    /// Golden type-2 rounds per node.
    pub golden2: Vec<u64>,
    /// Iterations each node spent undecided.
    pub undecided_iterations: Vec<u64>,
    /// Iterations each node spent super-heavy.
    pub super_heavy_iterations: Vec<u64>,
}

/// Executes the sparsified algorithm directly (the global reference
/// execution).
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

/// The sparsified algorithm as a step-driven state machine over the
/// **global** (analytically-charged) execution: one [`Execution::step`] is
/// one full phase of `P` iterations, including the phase-start exchange.
///
/// This execution has no engines; the ledger is charged analytically with
/// the same totals a message-level run produces (validated by the
/// `messaged_execution_matches_global_computation` test). Observers are
/// therefore handled by [`SparsifiedMessagedExecution`] instead —
/// [`run_sparsified_with_cleanup_observed`] dispatches on the observer.
#[derive(Debug)]
pub struct SparsifiedExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    params: SparsifiedParams,
    seed: u64,
    rng: SharedRandomness,
    ledger: RoundLedger,
    pexp: Vec<u32>,
    joined_at: Vec<Option<u64>>,
    removed_at: Vec<Option<u64>>,
    undecided: usize,
    phases: Vec<PhaseInfo>,
    trace: SparsifiedTrace,
    t0: u64,
}

impl<'a> SparsifiedExecution<'a> {
    /// Prepares a run on `g`; no phases execute until the first step.
    ///
    /// # Panics
    ///
    /// Panics if `params.phase_len` is zero.
    pub fn new(g: &'a Graph, params: &SparsifiedParams, seed: u64) -> Self {
        assert!(params.phase_len >= 1, "phase length must be at least 1");
        let n = g.node_count();
        let mut trace = SparsifiedTrace::default();
        if params.record_trace {
            trace.golden1 = vec![0; n];
            trace.golden2 = vec![0; n];
            trace.undecided_iterations = vec![0; n];
            trace.super_heavy_iterations = vec![0; n];
        }
        SparsifiedExecution {
            g,
            graph_fp: graph_fingerprint(g),
            params: *params,
            seed,
            rng: SharedRandomness::new(seed),
            ledger: RoundLedger::new(),
            pexp: vec![INITIAL_PEXP; n],
            joined_at: vec![None; n],
            removed_at: vec![None; n],
            undecided: n,
            phases: Vec::new(),
            trace,
            t0: 0,
        }
    }

    fn finish(&self) -> SparsifiedRun {
        let g = self.g;
        let n = g.node_count();
        let mis: Vec<NodeId> = (0..n)
            .filter(|&i| self.joined_at[i].is_some())
            .map(|i| NodeId::new(i as u32))
            .collect();
        let residual: Vec<NodeId> = (0..n)
            .filter(|&i| self.removed_at[i].is_none())
            .map(|i| NodeId::new(i as u32))
            .collect();
        let residual_edge_count = g
            .edges()
            .filter(|&(u, v)| {
                self.removed_at[u.index()].is_none() && self.removed_at[v.index()].is_none()
            })
            .count();
        SparsifiedRun {
            mis,
            residual,
            joined_at: self.joined_at.clone(),
            removed_at: self.removed_at.clone(),
            pexp: self.pexp.clone(),
            iterations: self.t0,
            ledger: self.ledger.clone(),
            phases: self.phases.clone(),
            residual_edge_count,
            trace: self.trace.clone(),
        }
    }
}

impl Execution for SparsifiedExecution<'_> {
    type Outcome = SparsifiedRun;

    fn algorithm_id(&self) -> &'static str {
        "sparsified"
    }

    fn attach_observer(&mut self, _observer: SharedObserver) {
        // The global execution runs no engine rounds; per-round tracing goes
        // through the messaged execution (see the dispatch in
        // `run_sparsified_with_cleanup_observed`).
    }

    fn step(&mut self) -> Status<SparsifiedRun> {
        let g = self.g;
        let n = g.node_count();
        if self.t0 >= self.params.max_iterations || self.undecided == 0 {
            return Status::Done(self.finish());
        }
        let t0 = self.t0;
        let len = (self.params.max_iterations - t0).min(self.params.phase_len as u64) as usize;

        // Phase-start exchange round: every undecided node learns its
        // undecided neighbors' p. One round, PROBABILITY_EXPONENT_BITS per
        // directed alive edge.
        // conform: allow(R10) -- analytic replay accounting per Lemma 2.12: charges computed from the direct execution, no live transport
        self.ledger.charge_round();
        let alive0: Vec<bool> = self.removed_at.iter().map(Option::is_none).collect();
        {
            let alive_directed_edges: u64 = (0..n)
                .filter(|&i| alive0[i])
                .map(|i| {
                    g.neighbors(NodeId::new(i as u32))
                        .iter()
                        .filter(|u| alive0[u.index()])
                        .count() as u64
                })
                .sum();
            // conform: allow(R10) -- analytic replay accounting per Lemma 2.12: charges computed from the direct execution, no live transport
            self.ledger.charge_aggregate(
                alive_directed_edges,
                alive_directed_edges * PROBABILITY_EXPONENT_BITS,
            );
        }
        let d0 = weighted_alive_degree(g, &self.pexp, &alive0);
        let threshold = self.params.super_heavy_threshold();
        let super_heavy: Vec<bool> = (0..n).map(|i| alive0[i] && d0[i] >= threshold).collect();

        // The sampled superset S (the clique algorithm materializes it; the
        // direct run computes it for the phase record and Lemma 2.12 stats).
        let sampled = sample_set(g, &self.rng, &self.pexp, &alive0, &super_heavy, t0, len);
        let max_s_degree = max_degree_within(g, &sampled);
        self.phases.push(PhaseInfo {
            start_iteration: t0,
            len,
            alive_at_start: alive0.iter().filter(|&&a| a).count(),
            super_heavy: super_heavy.iter().filter(|&&s| s).count(),
            sampled: sampled.iter().filter(|&&s| s).count(),
            max_s_degree,
        });

        for k in 0..len {
            let t = t0 + k as u64;
            // Beeps: super-heavy nodes follow their committed schedule for
            // the whole phase (even if removed mid-phase); others beep only
            // while undecided.
            let rng = self.rng;
            let removed_at = &self.removed_at;
            let pexp = &self.pexp;
            let sh = &super_heavy;
            let a0 = &alive0;
            let beeps: Vec<bool> = par_map_nodes(n, |i| {
                let schedule_active = sh[i] || removed_at[i].is_none();
                schedule_active
                    && a0[i]
                    && rng.coin(Stream::Beep, NodeId::new(i as u32), t) <= p_of(pexp[i])
            });
            let heard: Vec<bool> = par_map_nodes(n, |i| {
                g.neighbors(NodeId::new(i as u32))
                    .iter()
                    .any(|u| beeps[u.index()])
            });

            if self.params.record_trace {
                record_trace(
                    g,
                    &self.pexp,
                    &self.removed_at,
                    &super_heavy,
                    &heard,
                    &mut self.trace,
                );
            }

            // Joins: not super-heavy, beeping, hearing silence.
            let joins: Vec<usize> = (0..n)
                .filter(|&i| {
                    self.removed_at[i].is_none() && !super_heavy[i] && beeps[i] && !heard[i]
                })
                .collect();

            // Probability updates for nodes still on their schedule.
            for i in 0..n {
                if super_heavy[i] {
                    self.pexp[i] = halve(self.pexp[i]);
                } else if self.removed_at[i].is_none() {
                    self.pexp[i] = if heard[i] {
                        halve(self.pexp[i])
                    } else {
                        double_capped(self.pexp[i])
                    };
                }
            }

            // Beep accounting: a beep is `degree` 1-bit messages, one per
            // incident link (matching BeepingEngine's convention); R2 beeps
            // come from the joiners.
            for (i, _) in beeps.iter().enumerate().filter(|(_, &b)| b) {
                let deg = g.degree(NodeId::new(i as u32)) as u64;
                // conform: allow(R10) -- analytic replay of beep costs (Lemma 2.13), no live transport behind this charge
                self.ledger.charge_aggregate(deg, deg);
            }
            for &i in &joins {
                let deg = g.degree(NodeId::new(i as u32)) as u64;
                // conform: allow(R10) -- analytic replay of join-beep costs (Lemma 2.13), no live transport behind this charge
                self.ledger.charge_aggregate(deg, deg);
            }

            // Removals (R2).
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
            // conform: allow(R10) -- analytic replay accounting: two beeping rounds per iteration (Lemma 2.13)
            self.ledger.charge_rounds(2);
        }
        self.t0 += len as u64;
        Status::Running
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.graph_fp,
            "seed" => self.seed,
            "phase_len" => self.params.phase_len,
            "super_heavy_log2" => self.params.super_heavy_log2,
            "max_iterations" => self.params.max_iterations,
            "record_trace" => self.params.record_trace,
        }
        state {
            self.ledger,
            self.t0,
            self.pexp,
            self.joined_at,
            self.removed_at,
            self.undecided,
            self.phases,
            self.trace.golden1,
            self.trace.golden2,
            self.trace.undecided_iterations,
            self.trace.super_heavy_iterations,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("pexp vector length", self.pexp.len(), n)?;
            check_node_vec_len("joined_at vector length", self.joined_at.len(), n)?;
            check_node_vec_len("removed_at vector length", self.removed_at.len(), n)?;
        }
    }
}

/// Runs the sparsified algorithm and finishes the residual graph with a
/// centralized greedy pass (the reference counterpart of the clique
/// algorithm's leader clean-up), yielding a complete MIS.
pub fn run_sparsified_with_cleanup(g: &Graph, params: &SparsifiedParams, seed: u64) -> MisOutcome {
    run_sparsified_with_cleanup_observed(g, params, seed, None)
}

/// [`run_sparsified_with_cleanup`] with an optional per-round trace
/// observer. With an observer attached the beeping phase runs through the
/// real engines ([`run_sparsified_messaged_observed`]) so every round is
/// traced; without one it runs the global computation, exactly as before.
/// The two are tested to produce identical trajectories and ledgers, so
/// tracing changes no reported numbers.
pub fn run_sparsified_with_cleanup_observed(
    g: &Graph,
    params: &SparsifiedParams,
    seed: u64,
    observer: Option<cc_mis_sim::SharedObserver>,
) -> MisOutcome {
    let run = match observer {
        None => run_sparsified(g, params, seed),
        Some(obs) => run_sparsified_messaged_observed(g, params, seed, Some(obs)),
    };
    finish_with_cleanup(g, run)
}

/// Finishes a completed sparsified run with the centralized greedy pass
/// over the residual (no ledger charges — the reference counterpart of the
/// clique algorithm's leader clean-up).
pub fn finish_with_cleanup(g: &Graph, run: SparsifiedRun) -> MisOutcome {
    let mut alive = vec![false; g.node_count()];
    for &v in &run.residual {
        alive[v.index()] = true;
    }
    let residual_edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter(|&(u, v)| alive[u.index()] && alive[v.index()])
        .collect();
    let mut mis = run.mis;
    mis.extend(greedy_mis_on_residual(
        g.node_count(),
        &alive,
        &residual_edges,
    ));
    mis.sort_unstable();
    MisOutcome {
        mis,
        ledger: run.ledger,
        iterations: run.iterations,
    }
}

/// Executes the sparsified algorithm through **real engines** — a
/// [`cc_mis_sim::congest::CongestEngine`] round for each phase-start
/// `p`-exchange and a [`cc_mis_sim::beeping::BeepingEngine`] round for each
/// beep — and returns the resulting MIS trajectory.
///
/// This is the validation counterpart of [`run_sparsified`] (which computes
/// the same dynamics globally and charges a hand-written ledger): the two
/// are tested to produce identical trajectories, so the manual accounting
/// provably matches what a message-level execution does.
pub fn run_sparsified_messaged(g: &Graph, params: &SparsifiedParams, seed: u64) -> SparsifiedRun {
    run_sparsified_messaged_observed(g, params, seed, None)
}

/// [`run_sparsified_messaged`] with an optional per-round trace observer.
/// The one observer watches both engines (the CONGEST exchanges and the
/// beeping rounds), in execution order. `None` is exactly the unobserved
/// run.
pub fn run_sparsified_messaged_observed(
    g: &Graph,
    params: &SparsifiedParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> SparsifiedRun {
    drive_observed(SparsifiedMessagedExecution::new(g, params, seed), observer)
}

/// The sparsified algorithm as a step-driven state machine over **real
/// engines**: one [`Execution::step`] is one full phase (a CONGEST
/// `p`-exchange round plus `2 · P` beeping rounds).
///
/// This is the validation counterpart of [`SparsifiedExecution`]; one
/// attached observer watches both engines, in execution order.
#[derive(Debug)]
pub struct SparsifiedMessagedExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    params: SparsifiedParams,
    seed: u64,
    rng: SharedRandomness,
    congest: CongestEngine<'a>,
    beeping: BeepingEngine<'a>,
    pexp: Vec<u32>,
    joined_at: Vec<Option<u64>>,
    removed_at: Vec<Option<u64>>,
    undecided: usize,
    phases: Vec<PhaseInfo>,
    t0: u64,
}

impl<'a> SparsifiedMessagedExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    ///
    /// # Panics
    ///
    /// Panics if `params.phase_len` is zero.
    pub fn new(g: &'a Graph, params: &SparsifiedParams, seed: u64) -> Self {
        assert!(params.phase_len >= 1, "phase length must be at least 1");
        let n = g.node_count();
        SparsifiedMessagedExecution {
            g,
            graph_fp: graph_fingerprint(g),
            params: *params,
            seed,
            rng: SharedRandomness::new(seed),
            congest: CongestEngine::strict(g, standard_bandwidth(n.max(2))),
            beeping: BeepingEngine::new(g),
            pexp: vec![INITIAL_PEXP; n],
            joined_at: vec![None; n],
            removed_at: vec![None; n],
            undecided: n,
            phases: Vec::new(),
            t0: 0,
        }
    }
}

impl Execution for SparsifiedMessagedExecution<'_> {
    type Outcome = SparsifiedRun;

    fn algorithm_id(&self) -> &'static str {
        "sparsified-messaged"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.congest.attach_observer(observer.clone());
        self.beeping.attach_observer(observer);
    }

    fn step(&mut self) -> Status<SparsifiedRun> {
        let g = self.g;
        let n = g.node_count();
        if self.t0 >= self.params.max_iterations || self.undecided == 0 {
            let mis: Vec<NodeId> = (0..n)
                .filter(|&i| self.joined_at[i].is_some())
                .map(|i| NodeId::new(i as u32))
                .collect();
            let residual: Vec<NodeId> = (0..n)
                .filter(|&i| self.removed_at[i].is_none())
                .map(|i| NodeId::new(i as u32))
                .collect();
            let residual_edge_count = g
                .edges()
                .filter(|&(u, v)| {
                    self.removed_at[u.index()].is_none() && self.removed_at[v.index()].is_none()
                })
                .count();
            let mut ledger = self.congest.ledger().clone();
            ledger.merge(self.beeping.ledger());
            return Status::Done(SparsifiedRun {
                mis,
                residual,
                joined_at: self.joined_at.clone(),
                removed_at: self.removed_at.clone(),
                pexp: self.pexp.clone(),
                iterations: self.t0,
                ledger,
                phases: self.phases.clone(),
                residual_edge_count,
                trace: SparsifiedTrace::default(),
            });
        }
        let t0 = self.t0;
        let len = (self.params.max_iterations - t0).min(self.params.phase_len as u64) as usize;
        let alive0: Vec<bool> = self.removed_at.iter().map(Option::is_none).collect();

        // Phase-start exchange over the real CONGEST engine.
        let pexp_now = &self.pexp;
        let mut round = self.congest.begin_round::<u32>();
        crate::rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            &alive0,
            |v| alive0[v.index()].then(|| (PROBABILITY_EXPONENT_BITS, pexp_now[v.index()])),
            "p exponent fits",
        );
        let inboxes = round.deliver();
        let threshold = self.params.super_heavy_threshold();
        let super_heavy: Vec<bool> = (0..n)
            .map(|i| {
                alive0[i] && inboxes[i].iter().map(|&(_, pe)| p_of(pe)).sum::<f64>() >= threshold
            })
            .collect();
        let sampled = sample_set(g, &self.rng, &self.pexp, &alive0, &super_heavy, t0, len);
        self.phases.push(PhaseInfo {
            start_iteration: t0,
            len,
            alive_at_start: alive0.iter().filter(|&&a| a).count(),
            super_heavy: super_heavy.iter().filter(|&&s| s).count(),
            sampled: sampled.iter().filter(|&&s| s).count(),
            max_s_degree: max_degree_within(g, &sampled),
        });

        for k in 0..len {
            let t = t0 + k as u64;
            let rng = self.rng;
            let removed_at = &self.removed_at;
            let pexp = &self.pexp;
            let sh = &super_heavy;
            let a0 = &alive0;
            let beeps: Vec<bool> = par_map_nodes(n, |i| {
                let schedule_active = sh[i] || removed_at[i].is_none();
                schedule_active
                    && a0[i]
                    && rng.coin(Stream::Beep, NodeId::new(i as u32), t) <= p_of(pexp[i])
            });
            // R1 over the real beeping engine.
            let heard = self.beeping.round(&beeps);
            let joins: Vec<usize> = (0..n)
                .filter(|&i| {
                    self.removed_at[i].is_none() && !super_heavy[i] && beeps[i] && !heard[i]
                })
                .collect();
            for i in 0..n {
                if super_heavy[i] {
                    self.pexp[i] = halve(self.pexp[i]);
                } else if self.removed_at[i].is_none() {
                    self.pexp[i] = if heard[i] {
                        halve(self.pexp[i])
                    } else {
                        double_capped(self.pexp[i])
                    };
                }
            }
            // R2: new MIS members beep.
            let mut mis_beeps = vec![false; n];
            for &i in &joins {
                mis_beeps[i] = true;
            }
            self.beeping.round(&mis_beeps);
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
        }
        self.t0 += len as u64;
        Status::Running
    }

    snapshot_fields! {
        self;
        identity {
            "graph fingerprint" => self.graph_fp,
            "seed" => self.seed,
            "phase_len" => self.params.phase_len,
            "super_heavy_log2" => self.params.super_heavy_log2,
            "max_iterations" => self.params.max_iterations,
            "record_trace" => self.params.record_trace,
        }
        state {
            self.congest,
            self.beeping,
            self.t0,
            self.pexp,
            self.joined_at,
            self.removed_at,
            self.undecided,
            self.phases,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("pexp vector length", self.pexp.len(), n)?;
            check_node_vec_len("joined_at vector length", self.joined_at.len(), n)?;
            check_node_vec_len("removed_at vector length", self.removed_at.len(), n)?;
        }
    }
}

/// The sampled superset `S` for a phase: undecided, not super-heavy, and
/// some coin of the phase falls below `2^len · p_{t0}(v)` (the paper's
/// membership test, with the multiplier matching the possibly-truncated
/// phase length).
pub(crate) fn sample_set(
    g: &Graph,
    rng: &SharedRandomness,
    pexp: &[u32],
    alive0: &[bool],
    super_heavy: &[bool],
    t0: u64,
    len: usize,
) -> Vec<bool> {
    let n = g.node_count();
    par_map_nodes(n, |i| {
        if !alive0[i] || super_heavy[i] {
            return false;
        }
        let bound = (len as f64).exp2() * p_of(pexp[i]);
        (0..len as u64).any(|k| rng.coin(Stream::Beep, NodeId::new(i as u32), t0 + k) <= bound)
    })
}

/// `Σ_{alive u ∈ N(v)} p(u)` for every node.
///
/// Gathers per node over its (sorted) neighbor list — the same ascending
/// accumulation order a sequential scatter would produce, so the f64 sums
/// are bit-identical to it and independent of the worker-thread count.
fn weighted_alive_degree(g: &Graph, pexp: &[u32], alive: &[bool]) -> Vec<f64> {
    par_map_nodes(g.node_count(), |i| {
        g.neighbors(NodeId::new(i as u32))
            .iter()
            .filter(|u| alive[u.index()])
            .map(|u| p_of(pexp[u.index()]))
            .sum()
    })
}

/// Maximum degree of the subgraph induced by `member` (Lemma 2.12 metric).
fn max_degree_within(g: &Graph, member: &[bool]) -> usize {
    let mut best = 0;
    for i in 0..g.node_count() {
        if member[i] {
            let deg = g
                .neighbors(NodeId::new(i as u32))
                .iter()
                .filter(|u| member[u.index()])
                .count();
            best = best.max(deg);
        }
    }
    best
}

fn record_trace(
    g: &Graph,
    pexp: &[u32],
    removed_at: &[Option<u64>],
    super_heavy: &[bool],
    _heard: &[bool],
    trace: &mut SparsifiedTrace,
) {
    let n = g.node_count();
    let alive: Vec<bool> = removed_at.iter().map(Option::is_none).collect();
    let d = weighted_alive_degree(g, pexp, &alive);
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        trace.undecided_iterations[i] += 1;
        if super_heavy[i] {
            trace.super_heavy_iterations[i] += 1;
        }
        // Golden type-1: p = 1/2, not super-heavy, d ≤ 0.02.
        if pexp[i] == INITIAL_PEXP && !super_heavy[i] && d[i] <= GOLDEN1_D_MAX {
            trace.golden1[i] += 1;
        }
        // Golden type-2: d > 0.01 and non-heavy contribution ≥ 0.01 d,
        // where heavy now means super-heavy or d > 10.
        if d[i] > GOLDEN2_D_MIN {
            let dp: f64 = g
                .neighbors(NodeId::new(i as u32))
                .iter()
                .filter(|u| {
                    alive[u.index()] && !super_heavy[u.index()] && d[u.index()] <= HEAVY_THRESHOLD
                })
                .map(|u| p_of(pexp[u.index()]))
                .sum();
            if dp >= GOLDEN2_D_MIN * d[i] {
                trace.golden2[i] += 1;
            }
        }
    }
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
        // Every node that joined in a phase must have been in that phase's
        // sampled set S (joining requires beeping, beeping implies sampled).
        let g = generators::erdos_renyi_gnp(150, 0.08, 9);
        let params = SparsifiedParams::for_graph(&g);
        let run = run_sparsified(&g, &params, 4);
        // Recompute phase data to check: phases record sizes only, so check
        // the invariant that joiners are not super-heavy — the stronger
        // sampling invariant is tested in the clique simulation tests.
        for (i, j) in run.joined_at.iter().enumerate() {
            if j.is_some() {
                assert!(run.removed_at[i] == *j, "joiner {i} removal mismatch");
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
            record_trace: false,
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
    fn trace_records_when_enabled() {
        let g = generators::erdos_renyi_gnp(60, 0.1, 1);
        let mut params = SparsifiedParams::for_graph(&g);
        params.record_trace = true;
        let run = run_sparsified(&g, &params, 3);
        assert_eq!(run.trace.golden1.len(), 60);
        let total_golden: u64 = run.trace.golden1.iter().chain(&run.trace.golden2).sum();
        assert!(total_golden > 0, "some golden rounds should occur");
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
    fn messaged_execution_matches_global_computation() {
        // The real-engine execution and the global computation must agree
        // on the full trajectory — this validates both the `heard` logic
        // (via BeepingEngine's OR semantics) and the hand-written ledger's
        // subject matter.
        for (name, g) in [
            ("gnp", generators::erdos_renyi_gnp(100, 0.08, 70)),
            ("star", generators::star(120)),
            ("cliques", generators::disjoint_cliques(6, 8)),
        ] {
            for phase_len in [1usize, 3] {
                let params = SparsifiedParams {
                    phase_len,
                    super_heavy_log2: (2 * phase_len) as u32,
                    max_iterations: 12,
                    record_trace: false,
                };
                for seed in 0..2 {
                    let global = run_sparsified(&g, &params, seed);
                    let messaged = run_sparsified_messaged(&g, &params, seed);
                    assert_eq!(global.joined_at, messaged.joined_at, "{name} P={phase_len}");
                    assert_eq!(
                        global.removed_at, messaged.removed_at,
                        "{name} P={phase_len}"
                    );
                    assert_eq!(global.pexp, messaged.pexp, "{name} P={phase_len}");
                    // The hand-written ledger must match the real-engine
                    // execution on every counter: same rounds (1 exchange +
                    // 2 per iteration), same messages, same bits.
                    assert_eq!(
                        global.ledger.rounds, messaged.ledger.rounds,
                        "{name} P={phase_len}: round accounting diverges"
                    );
                    assert_eq!(
                        global.ledger.messages, messaged.ledger.messages,
                        "{name} P={phase_len}: message accounting diverges"
                    );
                    assert_eq!(
                        global.ledger.bits, messaged.ledger.bits,
                        "{name} P={phase_len}: bit accounting diverges"
                    );
                }
            }
        }
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
