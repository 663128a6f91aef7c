//! Luby's randomized MIS (the classic `O(log n)` baseline).
//!
//! The random-priority variant of [Luby, STOC'85] / [Alon–Babai–Itai, 1986]:
//! per iteration every undecided node draws a fresh uniform priority and
//! sends it to its neighbors; a node whose priority is a strict local
//! minimum joins the MIS; MIS nodes and their neighbors leave the problem.
//! Terminates in `O(log n)` iterations w.h.p.
//!
//! This is the `O(log n)`-round CONGEST algorithm the paper's §1.1 cites as
//! the pre-existing upper bound in all three models — the baseline every
//! improvement is measured against in our experiments.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::congest::CongestEngine;
use cc_mis_sim::driver::{drive_observed, Execution, Status};
use cc_mis_sim::rng::{SharedRandomness, Stream, StreamCursor};
use cc_mis_sim::snapshot::graph_fingerprint;
use cc_mis_sim::snapshot_fields;
use cc_mis_sim::SharedObserver;

use crate::common::{check_node_vec_len, mis_from_flags, MisOutcome};
use crate::rounds;

/// Parameters for [`run_luby`].
#[derive(Debug, Clone, Copy)]
pub struct LubyParams {
    /// Hard iteration cap. Luby terminates in `O(log n)` iterations w.h.p.;
    /// the cap only guards against pathological seeds. The default (via
    /// [`LubyParams::for_graph`]) is `8 (log₂ n + 2)`.
    pub max_iterations: u64,
    /// Encoded bits of a priority message (the priority plus a joined bit).
    pub priority_bits: u64,
}

impl LubyParams {
    /// Sensible defaults for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.node_count().max(2) as f64;
        LubyParams {
            max_iterations: (8.0 * (n.log2() + 2.0)).ceil() as u64,
            priority_bits: 32,
        }
    }
}

/// Runs Luby's algorithm in the CONGEST model.
///
/// The returned ledger counts 2 rounds per iteration (priority exchange,
/// join announcement), with per-edge messages of `priority_bits` and 1 bit
/// respectively.
///
/// # Panics
///
/// Panics if the iteration cap is hit before every node decides — with the
/// default cap this is a probability `≪ 1/n^c` event and indicates a bug
/// rather than bad luck.
///
/// # Example
///
/// ```
/// use cc_mis_core::luby::{run_luby, LubyParams};
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::erdos_renyi_gnp(120, 0.08, 5);
/// let out = run_luby(&g, &LubyParams::for_graph(&g), 11);
/// assert!(checks::is_maximal_independent_set(&g, &out.mis));
/// ```
pub fn run_luby(g: &Graph, params: &LubyParams, seed: u64) -> MisOutcome {
    run_luby_observed(g, params, seed, None)
}

/// [`run_luby`] with an optional per-round trace observer attached to the
/// engine. `None` is exactly the unobserved run.
pub fn run_luby_observed(
    g: &Graph,
    params: &LubyParams,
    seed: u64,
    observer: Option<SharedObserver>,
) -> MisOutcome {
    drive_observed(LubyExecution::new(g, params, seed), observer)
}

/// Luby's algorithm as a step-driven state machine: one [`Execution::step`]
/// is one iteration (priority round + join round).
#[derive(Debug)]
pub struct LubyExecution<'a> {
    g: &'a Graph,
    /// Graph fingerprint, computed once at construction so per-checkpoint
    /// `save` calls skip the O(m) edge walk.
    graph_fp: u64,
    params: LubyParams,
    seed: u64,
    engine: CongestEngine<'a>,
    /// Priority stream cursor; its position doubles as the iteration count.
    cursor: StreamCursor,
    alive: Vec<bool>,
    in_mis: Vec<bool>,
    undecided: usize,
}

impl<'a> LubyExecution<'a> {
    /// Prepares a run on `g`; no rounds execute until the first step.
    pub fn new(g: &'a Graph, params: &LubyParams, seed: u64) -> Self {
        let n = g.node_count();
        LubyExecution {
            g,
            graph_fp: graph_fingerprint(g),
            params: *params,
            seed,
            engine: CongestEngine::strict(g, standard_bandwidth(n)),
            cursor: StreamCursor::new(SharedRandomness::new(seed), Stream::Priority),
            alive: vec![true; n],
            in_mis: vec![false; n],
            undecided: n,
        }
    }
}

impl Execution for LubyExecution<'_> {
    type Outcome = MisOutcome;

    fn algorithm_id(&self) -> &'static str {
        "luby"
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
            "Luby failed to terminate within {} iterations",
            self.params.max_iterations
        );
        let g = self.g;
        let n = g.node_count();

        // Round 1: undecided nodes exchange priorities with undecided
        // neighbors.
        let priorities: Vec<u64> = (0..n)
            .map(|v| self.cursor.bits(NodeId::new(v as u32)))
            .collect();
        let alive = &self.alive;
        let priority_bits = self.params.priority_bits;
        let mut round = self.engine.begin_round::<u64>();
        rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            alive,
            |v| {
                let i = v.index();
                alive[i].then(|| (priority_bits, priorities[i]))
            },
            "priority message fits the bandwidth",
        );
        let inboxes = round.deliver();

        // Local rule: strict local minimum joins. Ties are broken by id
        // (priorities are 64-bit so ties are effectively impossible, but the
        // rule must still be total).
        let mut joined = vec![false; n];
        for v in g.nodes() {
            if !alive[v.index()] {
                continue;
            }
            let my = (priorities[v.index()], v.raw());
            let is_min = inboxes[v.index()].iter().all(|&(u, pr)| my < (pr, u.raw()));
            if is_min {
                joined[v.index()] = true;
            }
        }

        // Round 2: joiners announce; joiners and their neighbors leave.
        let mut round = self.engine.begin_round::<()>();
        rounds::broadcast_to_alive_neighbors(
            &mut round,
            g,
            alive,
            |v| joined[v.index()].then_some((1, ())),
            "join bit fits",
        );
        let inboxes = round.deliver();
        for v in g.nodes() {
            if !self.alive[v.index()] {
                continue;
            }
            if joined[v.index()] {
                self.in_mis[v.index()] = true;
                self.alive[v.index()] = false;
                self.undecided -= 1;
            } else if !inboxes[v.index()].is_empty() {
                self.alive[v.index()] = false;
                self.undecided -= 1;
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
            "priority_bits" => self.params.priority_bits,
        }
        state { self.engine, self.cursor, self.alive, self.in_mis, self.undecided }
        then {
            let n = self.g.node_count();
            check_node_vec_len("alive vector length", self.alive.len(), n)?;
            check_node_vec_len("in_mis vector length", self.in_mis.len(), n)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators, Graph};

    #[test]
    fn luby_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(15),
            generators::complete(8),
            generators::star(12),
            generators::grid(5, 5),
            generators::erdos_renyi_gnp(100, 0.08, 2),
            generators::disjoint_cliques(5, 4),
            generators::barabasi_albert(80, 3, 9),
            Graph::empty(6),
        ];
        for g in &graphs {
            for seed in 0..3 {
                let out = run_luby(g, &LubyParams::for_graph(g), seed);
                assert!(
                    checks::is_maximal_independent_set(g, &out.mis),
                    "{g:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn luby_rounds_are_twice_iterations() {
        let g = generators::erdos_renyi_gnp(60, 0.1, 4);
        let out = run_luby(&g, &LubyParams::for_graph(&g), 0);
        assert_eq!(out.ledger.rounds, 2 * out.iterations);
    }

    #[test]
    fn luby_iteration_count_is_logarithmic() {
        let g = generators::erdos_renyi_gnp(400, 0.05, 8);
        let out = run_luby(&g, &LubyParams::for_graph(&g), 1);
        // log2(400) ≈ 8.6; allow a generous constant.
        assert!(out.iterations <= 40, "took {} iterations", out.iterations);
    }

    #[test]
    fn luby_is_deterministic_per_seed() {
        let g = generators::erdos_renyi_gnp(70, 0.1, 6);
        let a = run_luby(&g, &LubyParams::for_graph(&g), 42);
        let b = run_luby(&g, &LubyParams::for_graph(&g), 42);
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.ledger.rounds, b.ledger.rounds);
    }

    #[test]
    fn empty_graph_takes_everything_in_one_iteration() {
        let g = Graph::empty(10);
        let out = run_luby(&g, &LubyParams::for_graph(&g), 3);
        assert_eq!(out.mis.len(), 10);
        assert_eq!(out.iterations, 1);
    }
}
