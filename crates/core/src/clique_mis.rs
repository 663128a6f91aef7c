//! The congested-clique MIS algorithm of §2.4 — **Theorem 1.1**.
//!
//! Computes an MIS in `Õ(√(log Δ))` rounds of the congested clique by
//! simulating each phase of the sparsified beeping algorithm (§2.3,
//! [`crate::sparsified`]) in `O(log log n)` clique rounds, then solving the
//! shattered `O(n)`-edge remainder at a leader in `O(1)` rounds
//! (Lemma 2.11 + the clean-up step).
//!
//! ## Per-phase message flow
//!
//! 1. **p-exchange round** — undecided nodes send their probability
//!    exponent to undecided neighbors; everyone computes `d_{t0}(v)` and
//!    learns whether it is super-heavy (`d ≥ 2^{2P}`).
//! 2. **Commitment round** — super-heavy nodes broadcast their
//!    deterministic **beep vector** for the phase (their `p` halves every
//!    iteration, so the whole schedule is a `P`-bit string); every node
//!    announces whether it is in the sampled set `S` (some coin of the
//!    phase falls below `2^P · p_{t0}(v)` — a superset of all possible
//!    beepers).
//! 3. **Gather** — nodes of `S` learn their `P`-hop neighborhood in the
//!    decorated graph `G*[S]` by graph exponentiation
//!    ([`crate::exponentiation`], Lemma 2.14) over Lenzen routing; the
//!    declared record size includes both endpoints' decorations
//!    (probability exponent, super-heavy-beep OR, and the phase's coins).
//! 4. **Local replay** — each `s ∈ S` simulates the phase on its ball
//!    (Lemma 2.13): beeps, joins, removals, probability updates. Nodes
//!    with equal balls share one simulation (`crate::replay`).
//! 5. **Announcement round** — each `s ∈ S` sends its *realized* beep
//!    vector and join time to its neighbors. Every other node (watchers —
//!    undecided, neither super-heavy nor sampled — and super-heavy nodes)
//!    reconstructs its own hearing history from these vectors plus the
//!    super-heavy schedules, updates its probability, and learns whether a
//!    neighbor joined.
//!
//! Watchers never beep (their coins all exceeded `2^P p_{t0}` — otherwise
//! they would be in `S`), so no gathering is needed for them; the realized
//! vectors of their `S`-neighbors are exactly the information the beeping
//! model would have delivered. This makes the whole simulation **exactly**
//! equivalent to the direct execution: [`run_clique_mis`] reproduces
//! [`crate::sparsified::run_sparsified`]'s full state trajectory
//! bit-for-bit under a shared seed (enforced by tests).

use cc_mis_graph::{Graph, GraphBuilder, NodeId};
use cc_mis_sim::bits::{node_id_bits, standard_bandwidth, COIN_BITS, PROBABILITY_EXPONENT_BITS};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::driver::{drive_observed, Execution, Status};
use cc_mis_sim::rng::{SharedRandomness, Stream};
use cc_mis_sim::shard::{Wire, WireCursor};
use cc_mis_sim::snapshot::graph_fingerprint;
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::{RoundLedger, SharedObserver};

use crate::cleanup::leader_cleanup;
use crate::common::{check_node_vec_len, double_capped, halve, p_of, MisOutcome, INITIAL_PEXP};
use crate::exponentiation::gather_balls;
use crate::replay::{for_each_distinct_ball, LocalBall};
use crate::rounds;
use crate::sparsified::{sample_set, SparsifiedParams};

/// Configuration of [`run_clique_mis`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueMisParams {
    /// Sparsified-algorithm parameters (`None` derives
    /// [`SparsifiedParams::for_graph`] defaults).
    pub sparsified: Option<SparsifiedParams>,
    /// Skip the leader clean-up (used by the equivalence tests to compare
    /// the main part in isolation).
    pub skip_cleanup: bool,
}

/// Per-phase statistics of the simulation (experiment E6/E7 inputs).
#[derive(Debug, Clone, Default)]
pub struct CliquePhaseStats {
    /// Global iteration at which the phase began.
    pub start_iteration: u64,
    /// Iterations simulated in this phase.
    pub len: usize,
    /// Undecided nodes at phase start.
    pub alive_at_start: usize,
    /// Super-heavy nodes.
    pub super_heavy: usize,
    /// `|S|`.
    pub sampled: usize,
    /// Max degree within `G[S]` (Lemma 2.12 metric).
    pub max_s_degree: usize,
    /// Largest gathered ball in edges.
    pub max_ball_edges: usize,
    /// Clique rounds spent gathering (Lemma 2.14 metric).
    pub gather_rounds: u64,
    /// Total clique rounds of the phase.
    pub phase_rounds: u64,
}

snapshot_fields! {
    impl Field for CliquePhaseStats {
        start_iteration,
        len,
        alive_at_start,
        super_heavy,
        sampled,
        max_s_degree,
        max_ball_edges,
        gather_rounds,
        phase_rounds,
    }
}

/// Result of [`run_clique_mis`].
#[derive(Debug, Clone)]
pub struct CliqueMisResult {
    /// The maximal independent set (or the partial independent set when
    /// `skip_cleanup` is set), sorted by id.
    pub mis: Vec<NodeId>,
    /// Total congested-clique rounds (the Theorem 1.1 metric).
    pub rounds: u64,
    /// Full communication ledger.
    pub ledger: RoundLedger,
    /// Iterations of the sparsified algorithm that were simulated.
    pub iterations: u64,
    /// Per-phase simulation statistics.
    pub phases: Vec<CliquePhaseStats>,
    /// Undecided nodes before clean-up.
    pub residual_nodes: usize,
    /// Edges among undecided nodes before clean-up (Lemma 2.11 metric).
    pub residual_edges: usize,
    /// Iteration at which each node joined during the main part (clean-up
    /// joiners show `None` here but appear in `mis`).
    pub joined_at: Vec<Option<u64>>,
    /// Iteration at which each node was removed during the main part.
    pub removed_at: Vec<Option<u64>>,
    /// Probability exponents at the end of the main part.
    pub pexp: Vec<u32>,
}

/// What an `S`-node announces after replaying its phase: its realized beep
/// schedule and when (if ever) it joined the MIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Announcement {
    /// Bit `k` set ⇔ the node actually beeped in iteration `t0 + k`.
    beeps: u64,
    /// Iteration offset within the phase at which the node joined.
    joined_k: Option<u8>,
}

impl Wire for Announcement {
    fn encode(&self, out: &mut Vec<u8>) {
        self.beeps.encode(out);
        self.joined_k.encode(out);
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        Some(Announcement {
            beeps: u64::decode(r)?,
            joined_k: Option::<u8>::decode(r)?,
        })
    }
}

/// Runs the Theorem 1.1 algorithm.
///
/// # Example
///
/// ```
/// use cc_mis_core::clique_mis::{run_clique_mis, CliqueMisParams};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::erdos_renyi_gnp(250, 0.06, 3);
/// let out = run_clique_mis(&g, &CliqueMisParams::default(), 11);
/// assert!(checks::is_maximal_independent_set(&g, &out.mis));
/// println!("{} clique rounds", out.rounds);
/// ```
pub fn run_clique_mis(g: &Graph, cfg: &CliqueMisParams, seed: u64) -> CliqueMisResult {
    run_clique_mis_observed(g, cfg, seed, None)
}

/// [`run_clique_mis`] with an optional per-round trace observer attached to
/// the engine. `None` is exactly the unobserved run.
pub fn run_clique_mis_observed(
    g: &Graph,
    cfg: &CliqueMisParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> CliqueMisResult {
    drive_observed(CliqueMisExecution::new(g, cfg, seed), observer)
}

/// Theorem 1.1 as a step-driven state machine: one [`Execution::step`] is
/// one simulated phase (the five-round message flow above), followed by a
/// final clean-up step.
#[derive(Debug)]
pub struct CliqueMisExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    cfg: CliqueMisParams,
    /// Resolved sparsified parameters (defaults applied).
    params: SparsifiedParams,
    seed: u64,
    rng: SharedRandomness,
    engine: CliqueEngine,
    id_bits: u64,
    pexp: Vec<u32>,
    joined_at: Vec<Option<u64>>,
    removed_at: Vec<Option<u64>>,
    undecided: usize,
    phases: Vec<CliquePhaseStats>,
    t0: u64,
    cleanup_done: bool,
    mis: Vec<NodeId>,
    residual_nodes: usize,
    residual_edges: usize,
}

impl<'a> CliqueMisExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    ///
    /// # Panics
    ///
    /// Panics if the resolved phase length is zero or exceeds 64 (beep
    /// vectors are stored in `u64` bitmasks).
    pub fn new(g: &'a Graph, cfg: &CliqueMisParams, seed: u64) -> Self {
        let n = g.node_count();
        let params = cfg
            .sparsified
            .unwrap_or_else(|| SparsifiedParams::for_graph(g));
        assert!(params.phase_len >= 1, "phase length must be at least 1");
        assert!(
            params.phase_len <= 64,
            "beep vectors are stored in u64 bitmasks; phase length {} > 64",
            params.phase_len
        );
        CliqueMisExecution {
            g,
            graph_fp: graph_fingerprint(g),
            cfg: *cfg,
            params,
            seed,
            rng: SharedRandomness::new(seed),
            engine: CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2))),
            id_bits: node_id_bits(n.max(2)).max(1),
            pexp: vec![INITIAL_PEXP; n],
            joined_at: vec![None; n],
            removed_at: vec![None; n],
            undecided: n,
            phases: Vec::new(),
            t0: 0,
            cleanup_done: false,
            mis: Vec::new(),
            residual_nodes: 0,
            residual_edges: 0,
        }
    }

    /// Runs one full phase of the simulation (steps 1–5 of the module doc).
    fn step_phase(&mut self) {
        let g = self.g;
        let n = g.node_count();
        let t0 = self.t0;
        let params = self.params;
        let len = (params.max_iterations - t0).min(params.phase_len as u64) as usize;
        self.engine
            .ledger_mut()
            .begin_phase(format!("phase t0={t0}"));
        let rounds_before = self.engine.ledger().rounds;
        let alive0: Vec<bool> = self.removed_at.iter().map(Option::is_none).collect();
        let rng = self.rng;

        // ===== 1. p-exchange round =====
        let pexp0 = &self.pexp;
        let mut round = self.engine.begin_round::<u32>();
        rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            &alive0,
            |v| alive0[v.index()].then(|| (PROBABILITY_EXPONENT_BITS, pexp0[v.index()])),
            "p exponent fits the bandwidth",
        );
        let inboxes = round.deliver();
        let threshold = params.super_heavy_threshold();
        let mut super_heavy = vec![false; n];
        for i in 0..n {
            if alive0[i] {
                let d: f64 = inboxes[i].iter().map(|&(_, pe)| p_of(pe)).sum();
                super_heavy[i] = d >= threshold;
            }
        }

        // Super-heavy beep vectors: p halves deterministically, so the
        // schedule is a pure function of (pexp0, coins).
        let sh_vector = |i: usize| -> u64 {
            let mut vec = 0u64;
            let mut pe = pexp0[i];
            for k in 0..len {
                if rng.coin(Stream::Beep, NodeId::new(i as u32), t0 + k as u64) <= p_of(pe) {
                    vec |= 1 << k;
                }
                pe = halve(pe);
            }
            vec
        };

        // Sampled superset S (each node evaluates its own coins).
        let in_s = sample_set(g, &rng, pexp0, &alive0, &super_heavy, t0, len);

        // ===== 2. Commitment round: (super-heavy?, beep vector, in S?) =====
        let mut round = self.engine.begin_round::<(bool, u64, bool)>();
        rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            &alive0,
            |v| {
                let i = v.index();
                if !alive0[i] {
                    return None;
                }
                let vec = if super_heavy[i] { sh_vector(i) } else { 0 };
                let bits = 2 + if super_heavy[i] { len as u64 } else { 0 };
                Some((bits, (super_heavy[i], vec, in_s[i])))
            },
            "commitment fits the bandwidth",
        );
        let inboxes = round.deliver();
        // Per node: OR of super-heavy neighbors' schedules, and S-neighbor
        // lists (the node's incident edges of G[S], plus a watcher's view).
        let mut sh_or = vec![0u64; n];
        let mut s_neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for &(u, (is_sh, vec, u_in_s)) in &inboxes[i] {
                if is_sh {
                    sh_or[i] |= vec;
                }
                if u_in_s {
                    s_neighbors[i].push(u.raw());
                }
            }
        }

        // ===== 3. Gather P-hop balls in G[S] =====
        // The gather graph mirrors exactly what nodes know: their own
        // incident S–S edges.
        let mut builder = GraphBuilder::new(n);
        for i in 0..n {
            if in_s[i] {
                for &u in &s_neighbors[i] {
                    if in_s[u as usize] && i < u as usize {
                        builder
                            .add_edge(NodeId::new(i as u32), NodeId::new(u))
                            .expect("S-S edge is valid");
                    }
                }
            }
        }
        let g_s = builder.build();
        let max_s_degree = (0..n)
            .filter(|&i| in_s[i])
            .map(|i| g_s.degree(NodeId::new(i as u32)))
            .max()
            .unwrap_or(0);
        // Record size: edge (2 ids) + both endpoints' decorations
        // (p exponent, super-heavy OR schedule, and the phase's coins).
        let decoration_bits = PROBABILITY_EXPONENT_BITS + len as u64 + len as u64 * COIN_BITS;
        let record_bits = 2 * self.id_bits + 2 * decoration_bits;
        // Radius 2·len, not len: a node's aliveness after k iterations
        // depends on joins of neighbors, whose decisions depend on *their*
        // neighbors' beeps — information travels 2 hops per iteration (the
        // paper's Lemma 2.13 absorbs this factor into its constants). With
        // radius 2·len the replay below is exact for the center through the
        // whole phase.
        let gather = gather_balls(&mut self.engine, &g_s, &in_s, (2 * len).max(1), record_bits);

        // ===== 4. Local replay per S-node (Lemma 2.13) =====
        // Each replay is a pure function of the gathered ball and the
        // addressable randomness, so S-nodes with equal balls share one
        // replay (`crate::replay`), and each reads its own row.
        let pexp0 = &self.pexp;
        let mut announcements: Vec<Option<Announcement>> = vec![None; n];
        let mut replayed_pexp: Vec<Option<u32>> = vec![None; n];
        let mut replayed_removed: Vec<Option<Option<u8>>> = vec![None; n];
        let mut replay = PhaseReplay::default();
        for_each_distinct_ball(&gather, |ball, members| {
            replay.run(ball, pexp0, &sh_or, &rng, t0, len);
            for &s in members {
                let i = ball.local(s);
                let s = s as usize;
                announcements[s] = Some(Announcement {
                    beeps: replay.beeps[i],
                    joined_k: replay.joined[i],
                });
                replayed_pexp[s] = Some(replay.pexp[i]);
                replayed_removed[s] = Some(replay.removed[i]);
            }
        });

        // ===== 5. Announcement round =====
        let ann_bits =
            len as u64 + (len as u64 + 1).next_power_of_two().trailing_zeros() as u64 + 1;
        let mut round = self.engine.begin_round::<Announcement>();
        rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            &alive0,
            |v| announcements[v.index()].map(|ann| (ann_bits, ann)),
            "announcement fits the bandwidth",
        );
        let inboxes = round.deliver();

        // Apply the phase outcome to the global state, exactly mirroring
        // the direct algorithm's update order.
        for i in 0..n {
            if !alive0[i] {
                continue;
            }
            if super_heavy[i] {
                // Deterministic halving for the whole phase.
                for _ in 0..len {
                    self.pexp[i] = halve(self.pexp[i]);
                }
                // Removed when the earliest neighbor join happens.
                if let Some(k) = earliest_neighbor_join(&inboxes[i]) {
                    self.removed_at[i] = Some(t0 + k as u64);
                    self.undecided -= 1;
                }
            } else if in_s[i] {
                self.pexp[i] = replayed_pexp[i].expect("replayed");
                let ann = announcements[i].expect("announced");
                if let Some(k) = ann.joined_k {
                    self.joined_at[i] = Some(t0 + k as u64);
                }
                if let Some(k) = replayed_removed[i].expect("replayed") {
                    self.removed_at[i] = Some(t0 + k as u64);
                    self.undecided -= 1;
                }
            } else {
                // Watcher: reconstruct hearing from super-heavy schedules
                // and S-neighbors' realized beeps.
                let mut removed_k: Option<u8> = None;
                for k in 0..len as u8 {
                    if removed_k.is_some() {
                        break;
                    }
                    let heard = (sh_or[i] >> k) & 1 == 1
                        || inboxes[i].iter().any(|&(_, ann)| (ann.beeps >> k) & 1 == 1);
                    self.pexp[i] = if heard {
                        halve(self.pexp[i])
                    } else {
                        double_capped(self.pexp[i])
                    };
                    if inboxes[i].iter().any(|&(_, ann)| ann.joined_k == Some(k)) {
                        removed_k = Some(k);
                    }
                }
                if let Some(k) = removed_k {
                    self.removed_at[i] = Some(t0 + k as u64);
                    self.undecided -= 1;
                }
            }
        }

        let phase_rounds = self.engine.ledger().rounds - rounds_before;
        self.phases.push(CliquePhaseStats {
            start_iteration: t0,
            len,
            alive_at_start: alive0.iter().filter(|&&a| a).count(),
            super_heavy: super_heavy.iter().filter(|&&s| s).count(),
            sampled: in_s.iter().filter(|&&s| s).count(),
            max_s_degree,
            max_ball_edges: gather.max_ball_edges,
            gather_rounds: gather.rounds,
            phase_rounds,
        });
        self.t0 += len as u64;
    }

    /// The final step: record the residual statistics and (unless skipped)
    /// run the leader clean-up.
    fn step_cleanup(&mut self) {
        let g = self.g;
        let n = g.node_count();
        let residual: Vec<NodeId> = (0..n)
            .filter(|&i| self.removed_at[i].is_none())
            .map(|i| NodeId::new(i as u32))
            .collect();
        self.residual_edges = g
            .edges()
            .filter(|&(u, v)| {
                self.removed_at[u.index()].is_none() && self.removed_at[v.index()].is_none()
            })
            .count();
        self.residual_nodes = residual.len();

        let mut mis: Vec<NodeId> = (0..n)
            .filter(|&i| self.joined_at[i].is_some())
            .map(|i| NodeId::new(i as u32))
            .collect();
        if !self.cfg.skip_cleanup && n > 0 {
            self.engine.ledger_mut().begin_phase("cleanup");
            let mut alive = vec![false; n];
            for &v in &residual {
                alive[v.index()] = true;
            }
            let additions = leader_cleanup(&mut self.engine, g, &alive);
            mis.extend(additions);
            mis.sort_unstable();
        }
        self.mis = mis;
        self.cleanup_done = true;
    }
}

impl Execution for CliqueMisExecution<'_> {
    type Outcome = CliqueMisResult;

    fn algorithm_id(&self) -> &'static str {
        "thm11"
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.engine.attach_observer(observer);
    }

    fn step(&mut self) -> Status<CliqueMisResult> {
        if self.t0 < self.params.max_iterations && self.undecided > 0 {
            self.step_phase();
            return Status::Running;
        }
        if !self.cleanup_done {
            self.step_cleanup();
            return Status::Running;
        }
        let ledger = self.engine.ledger().clone();
        Status::Done(CliqueMisResult {
            mis: self.mis.clone(),
            rounds: ledger.rounds,
            ledger,
            iterations: self.t0,
            phases: self.phases.clone(),
            residual_nodes: self.residual_nodes,
            residual_edges: self.residual_edges,
            joined_at: self.joined_at.clone(),
            removed_at: self.removed_at.clone(),
            pexp: self.pexp.clone(),
        })
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
            "skip_cleanup" => self.cfg.skip_cleanup,
        }
        state {
            self.engine,
            self.t0,
            self.pexp,
            self.joined_at,
            self.removed_at,
            self.undecided,
            self.phases,
            self.cleanup_done,
            self.mis,
            self.residual_nodes,
            self.residual_edges,
        }
        then {
            let n = self.g.node_count();
            check_node_vec_len("pexp vector length", self.pexp.len(), n)?;
            check_node_vec_len("joined_at vector length", self.joined_at.len(), n)?;
            check_node_vec_len("removed_at vector length", self.removed_at.len(), n)?;
        }
    }
}

/// Convenience wrapper returning a plain [`MisOutcome`].
pub fn run_clique_mis_outcome(g: &Graph, cfg: &CliqueMisParams, seed: u64) -> MisOutcome {
    run_clique_mis_outcome_observed(g, cfg, seed, None)
}

/// [`run_clique_mis_outcome`] with an optional per-round trace observer.
pub fn run_clique_mis_outcome_observed(
    g: &Graph,
    cfg: &CliqueMisParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> MisOutcome {
    let res = run_clique_mis_observed(g, cfg, seed, observer);
    MisOutcome {
        mis: res.mis,
        ledger: res.ledger,
        iterations: res.iterations,
    }
}

/// The earliest join offset among a node's announced neighbors.
fn earliest_neighbor_join(inbox: &[(NodeId, Announcement)]) -> Option<u8> {
    inbox.iter().filter_map(|&(_, ann)| ann.joined_k).min()
}

/// Buffers for the Lemma 2.13 local replay of one phase on one ball,
/// reused from ball to ball. After [`PhaseReplay::run`], row `i` holds
/// local node `i`'s realized beep vector, join and removal offsets, and
/// final probability exponent.
#[derive(Debug, Default)]
struct PhaseReplay {
    pexp: Vec<u32>,
    beeps: Vec<u64>,
    joined: Vec<Option<u8>>,
    removed: Vec<Option<u8>>,
    /// Who beeps in the current iteration.
    beeping: Vec<bool>,
    joins: Vec<usize>,
}

impl PhaseReplay {
    /// Simulates the phase on `ball`: beeps, joins, removals, probability
    /// updates. The rows are exact for every participant holding this
    /// ball, because the ball covers its `2·len`-hop neighborhood in
    /// `G*[S]` (information travels two hops per iteration).
    fn run(
        &mut self,
        ball: &LocalBall,
        pexp0: &[u32],
        sh_or: &[u64],
        rng: &SharedRandomness,
        t0: u64,
        len: usize,
    ) {
        let m = ball.len();
        let PhaseReplay {
            pexp,
            beeps,
            joined,
            removed,
            beeping,
            joins,
        } = self;
        pexp.clear();
        pexp.extend((0..m).map(|i| pexp0[ball.id(i).index()]));
        beeps.clear();
        beeps.resize(m, 0);
        joined.clear();
        joined.resize(m, None);
        removed.clear();
        removed.resize(m, None);
        beeping.resize(m, false);
        for k in 0..len as u8 {
            // Beeps of alive ball nodes (all are S-members: non-super-heavy,
            // undecided at phase start).
            for i in 0..m {
                beeping[i] = removed[i].is_none()
                    && rng.coin(Stream::Beep, ball.id(i), t0 + k as u64) <= p_of(pexp[i]);
                beeps[i] |= u64::from(beeping[i]) << k;
            }
            joins.clear();
            for i in 0..m {
                if removed[i].is_some() {
                    continue;
                }
                let heard = (sh_or[ball.id(i).index()] >> k) & 1 == 1
                    || ball.neighbors(i).iter().any(|&u| beeping[u as usize]);
                if beeping[i] && !heard {
                    joins.push(i);
                }
                pexp[i] = if heard {
                    halve(pexp[i])
                } else {
                    double_capped(pexp[i])
                };
            }
            for &i in joins.iter() {
                joined[i] = Some(k);
                for u in std::iter::once(i).chain(ball.neighbors(i).iter().map(|&u| u as usize)) {
                    if removed[u].is_none() {
                        removed[u] = Some(k);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsified::run_sparsified;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn clique_mis_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(20),
            generators::complete(12),
            generators::star(25),
            generators::grid(5, 7),
            generators::erdos_renyi_gnp(150, 0.06, 2),
            generators::disjoint_cliques(5, 6),
            generators::barabasi_albert(120, 4, 6),
            Graph::empty(8),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_clique_mis(g, &CliqueMisParams::default(), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn simulation_matches_direct_execution_exactly() {
        // The load-bearing test of §2.4: the clique simulation reproduces
        // the direct sparsified run bit-for-bit under a shared seed.
        for seed in 0..8 {
            let g = generators::erdos_renyi_gnp(120, 0.08, 1000 + seed);
            // Explicit P > 1 to exercise the multi-iteration replay depth.
            let params = SparsifiedParams {
                phase_len: 2,
                super_heavy_log2: 4,
                max_iterations: 20,
                record_trace: false,
            };
            let direct = run_sparsified(&g, &params, seed);
            let simulated = run_clique_mis(
                &g,
                &CliqueMisParams {
                    sparsified: Some(params),
                    skip_cleanup: true,
                },
                seed,
            );
            assert_eq!(direct.joined_at, simulated.joined_at, "seed {seed}: joins");
            assert_eq!(
                direct.removed_at, simulated.removed_at,
                "seed {seed}: removals"
            );
            assert_eq!(direct.mis, simulated.mis, "seed {seed}: MIS");
            // Probability exponents must agree wherever they still matter
            // (undecided nodes) — and in fact everywhere, by construction.
            for i in 0..g.node_count() {
                if direct.removed_at[i].is_none() {
                    assert_eq!(
                        direct.pexp[i], simulated.pexp[i],
                        "seed {seed}: pexp of undecided node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_matches_direct_on_hard_families() {
        for (name, g) in [
            ("star", generators::star(300)),
            ("cliques", generators::disjoint_cliques(10, 12)),
            (
                "power-law",
                generators::chung_lu_power_law(150, 2.3, 8.0, 4),
            ),
            ("bipartite", generators::complete_bipartite(8, 120)),
        ] {
            // Explicit P = 3 on small hard instances: deepest replay depth.
            let params = SparsifiedParams {
                phase_len: 3,
                super_heavy_log2: 6,
                max_iterations: 15,
                record_trace: false,
            };
            for seed in 0..3 {
                let direct = run_sparsified(&g, &params, seed);
                let simulated = run_clique_mis(
                    &g,
                    &CliqueMisParams {
                        sparsified: Some(params),
                        skip_cleanup: true,
                    },
                    seed,
                );
                assert_eq!(direct.mis, simulated.mis, "{name} seed {seed}");
                assert_eq!(
                    direct.removed_at, simulated.removed_at,
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn phase_stats_are_recorded() {
        let g = generators::erdos_renyi_gnp(100, 0.1, 5);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), 1);
        assert!(!out.phases.is_empty());
        let p0 = &out.phases[0];
        assert_eq!(p0.start_iteration, 0);
        assert_eq!(p0.alive_at_start, 100);
        assert!(p0.phase_rounds >= 3, "at least 3 fixed rounds per phase");
    }

    #[test]
    fn sampled_degree_obeys_lemma_2_12_bound() {
        // Lemma 2.12: max S-degree ≤ 2^{1 + √(δ log n)/2} = 2^{1 + 5P/2}
        // w.h.p. (with our P-parameterization). Check a comfortable bound.
        let g = generators::erdos_renyi_gnp(400, 0.05, 7);
        let params = SparsifiedParams::for_graph(&g);
        let out = run_clique_mis(
            &g,
            &CliqueMisParams {
                sparsified: Some(params),
                skip_cleanup: false,
            },
            3,
        );
        // The lemma is asymptotic ("w.h.p."); at n = 400 we allow one
        // extra factor of 2 over the literal constant. E6 reports the
        // actual measured maxima across seeds.
        let bound = (2.0 + 2.5 * params.phase_len as f64).exp2() as usize;
        for (i, ph) in out.phases.iter().enumerate() {
            assert!(
                ph.max_s_degree <= bound,
                "phase {i}: S-degree {} exceeds 2^(2+5P/2) = {bound}",
                ph.max_s_degree
            );
        }
    }

    #[test]
    fn phase_round_costs_stay_bounded_with_default_params() {
        // With the paper's own constants (P = 1, L = 4 at this scale), the
        // gathered balls stay small and each phase costs a bounded number
        // of clique rounds. (Stretched P ≥ 2 leaves the n^δ capacity
        // regime at laptop scale — quantified by the ablation experiment.)
        let g = generators::erdos_renyi_gnp(500, 0.03, 9);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), 2);
        for ph in &out.phases {
            assert!(
                ph.phase_rounds <= 60,
                "phase at t0={} took {} rounds",
                ph.start_iteration,
                ph.phase_rounds
            );
        }
    }

    #[test]
    fn residual_before_cleanup_is_small() {
        let g = generators::erdos_renyi_gnp(300, 0.08, 4);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), 6);
        assert!(
            out.residual_edges <= g.node_count(),
            "Lemma 2.11 violated: {} residual edges",
            out.residual_edges
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi_gnp(100, 0.07, 8);
        let a = run_clique_mis(&g, &CliqueMisParams::default(), 21);
        let b = run_clique_mis(&g, &CliqueMisParams::default(), 21);
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let out = run_clique_mis(&g, &CliqueMisParams::default(), 0);
        assert_eq!(out.mis, vec![NodeId::new(0)]);
    }
}
