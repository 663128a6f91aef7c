//! Graph exponentiation (Lemma 2.14): learning `r`-hop neighborhoods in
//! `O(log r)` congested-clique rounds.
//!
//! The doubling scheme of the paper's proof (re-proving [Lenzen &
//! Wattenhofer, PODC'10]): initially every node knows its incident edges
//! (radius-1 ball). In step `i`, every node ships its currently-known ball
//! to every node *inside* that ball; since the ball holds all nodes within
//! distance `2^i`, the union of received balls covers radius `2^{i+1}`.
//! After `⌈log₂ r⌉` steps each node knows its `r`-hop neighborhood. Each
//! step's packet exchange is delivered with Lenzen routing
//! ([`cc_mis_sim::routing`]), whose measured rounds are charged to the
//! engine — `O(1)` per step whenever the Lemma 2.14 capacity precondition
//! (ball size `≪ n^{δ}`) holds.
//!
//! Knowledge travels as *edge records*. A record's declared size
//! (`record_bits`) includes whatever decorations ride along — the caller
//! using decorated graphs `G*[S]` (§2.4) passes the decorated size, so the
//! bit accounting covers decorations even though the payload carries only
//! the edge (decorations being reconstructible from the shared randomness;
//! see DESIGN.md §2).
//!
//! ## Representation
//!
//! A gather works in two dense spaces: participants (slot `i` is the
//! `i`-th participant by id) and participant edges (id `i` is the `i`-th
//! edge in ascending packed-key order, see [`pack_edge`]), so id-sorted
//! vectors are key-sorted and slot-sorted vectors are id-sorted. A ball is
//! its sorted edge ids plus the sorted slots of the nodes those edges
//! touch; the node list is the sender's target list, so no step sorts
//! endpoints. A packet's payload is the sender's previous-step ball, read
//! by reference from the sender's slot (the declared bits are charged as
//! if it were copied). Unions run against a membership bitmap (no hashing
//! anywhere), stop early once a ball holds every participant edge, and
//! emit the new ball in order by scanning the bitmap when it is no longer
//! than the ball, else by sorting only the newly learned ids. After the
//! `O(n + m)` set-up, every step pays for participants, packets and ball
//! sizes, never for `n`. The round/bit accounting is unchanged: payload
//! bits (`ball edges × record_bits`) and packet targets are computed
//! exactly as before.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::routing::{route, Packet};

/// Packs an edge `(a, b)` into a single `u64` key (`a` in the high bits).
/// Sorting keys sorts the edges lexicographically by `(a, b)`.
#[inline]
pub fn pack_edge(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Result of a [`gather_balls`] invocation: every participant's ball.
#[derive(Debug, Clone)]
pub struct GatherResult {
    /// Participant ids, ascending; a participant's index here is its slot.
    members: Vec<u32>,
    /// Per slot: the ball's edge ids, ascending.
    balls: Vec<Vec<u32>>,
    /// Per slot: the slots of the nodes the ball's edges touch, ascending
    /// (empty for an empty ball).
    spans: Vec<Vec<u32>>,
    /// Packed key of each participant edge, ascending by id.
    edge_keys: Vec<u64>,
    /// Doubling steps performed (`⌈log₂ radius⌉`).
    pub steps: u64,
    /// Clique rounds the routing consumed (also charged to the engine).
    pub rounds: u64,
    /// Largest ball, in edges, at the end.
    pub max_ball_edges: usize,
}

impl GatherResult {
    /// The participants, ascending by id.
    pub(crate) fn participants(&self) -> &[u32] {
        &self.members
    }

    /// The ball of node `v`: the known edges `(a, b)` with `a < b`. Empty
    /// for non-participants.
    pub fn ball(&self, v: NodeId) -> Ball<'_> {
        match self.members.binary_search(&v.raw()) {
            Ok(slot) => self.ball_at(slot),
            Err(_) => Ball {
                ids: &[],
                spans: &[],
                gather: self,
            },
        }
    }

    /// The ball of the participant in `slot`.
    pub(crate) fn ball_at(&self, slot: usize) -> Ball<'_> {
        Ball {
            ids: &self.balls[slot],
            spans: &self.spans[slot],
            gather: self,
        }
    }
}

/// A gathered ball, borrowed from its [`GatherResult`].
#[derive(Clone, Copy)]
pub struct Ball<'a> {
    ids: &'a [u32],
    spans: &'a [u32],
    gather: &'a GatherResult,
}

impl<'a> Ball<'a> {
    /// Number of known edges.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ball holds no edges.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the edge `(a, b)` (as ordered by the gather graph, `a < b`)
    /// is known.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        let keys = &self.gather.edge_keys;
        self.ids
            .binary_search_by_key(&pack_edge(a, b), |&id| keys[id as usize])
            .is_ok()
    }

    /// Iterates the known edges in `(a, b)` lexicographic order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + 'a {
        let keys = &self.gather.edge_keys;
        self.ids.iter().map(|&id| unpack_edge(keys[id as usize]))
    }

    /// Iterates the nodes the known edges touch, ascending by id.
    pub(crate) fn nodes(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        let members = &self.gather.members;
        self.spans.iter().map(|&slot| members[slot as usize])
    }

    /// The edge ids, ascending; equal id lists mean equal balls within one
    /// gather.
    pub(crate) fn ids(&self) -> &'a [u32] {
        self.ids
    }
}

impl std::fmt::Debug for Ball<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.edges()).finish()
    }
}

/// A membership bitmap over `0..universe` that collects a sorted union:
/// `start` marks a sorted base, `insert` adds members, `finish` emits the
/// union in ascending order and leaves the bitmap clear.
#[derive(Debug)]
struct SortedUnion {
    bits: Vec<u64>,
    /// Members added since `start`, in insertion order.
    fresh: Vec<u32>,
}

impl SortedUnion {
    fn new(universe: usize) -> Self {
        SortedUnion {
            bits: vec![0; universe.div_ceil(64)],
            fresh: Vec::new(),
        }
    }

    fn start(&mut self, base: &[u32]) {
        for &x in base {
            self.bits[(x >> 6) as usize] |= 1 << (x & 63);
        }
    }

    /// Adds `x`; returns whether it was new.
    fn insert(&mut self, x: u32) -> bool {
        let word = &mut self.bits[(x >> 6) as usize];
        let bit = 1u64 << (x & 63);
        let new = *word & bit == 0;
        if new {
            *word |= bit;
            self.fresh.push(x);
        }
        new
    }

    /// `base ∪ inserted` in ascending order, or `None` when nothing new
    /// was inserted. Scans the bitmap when it is no longer than the
    /// union, else sorts only the new members and merges.
    fn finish(&mut self, base: &[u32]) -> Option<Vec<u32>> {
        if self.fresh.is_empty() {
            for &x in base {
                self.bits[(x >> 6) as usize] = 0;
            }
            return None;
        }
        let total = base.len() + self.fresh.len();
        let mut out = Vec::with_capacity(total);
        if self.bits.len() <= total {
            for (wi, word) in self.bits.iter_mut().enumerate() {
                let mut w = std::mem::take(word);
                while w != 0 {
                    out.push((wi as u32) << 6 | w.trailing_zeros());
                    w &= w - 1;
                }
            }
        } else {
            self.fresh.sort_unstable();
            let (mut i, mut j) = (0, 0);
            while i < base.len() && j < self.fresh.len() {
                if base[i] < self.fresh[j] {
                    out.push(base[i]);
                    i += 1;
                } else {
                    out.push(self.fresh[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&base[i..]);
            out.extend_from_slice(&self.fresh[j..]);
            for &x in &out {
                self.bits[(x >> 6) as usize] = 0;
            }
        }
        self.fresh.clear();
        Some(out)
    }
}

/// Gathers, for every `participant` node, all edges of `gather` within
/// distance `radius` of it.
///
/// `gather` must have the same vertex numbering as the engine; its edges
/// are the knowledge being learned (for §2.4 this is `G[S]`; for §2.5 it is
/// `G` itself). Only participants hold and exchange knowledge; edges with a
/// non-participant endpoint are assumed absent from `gather` (and are
/// ignored if present).
///
/// # Panics
///
/// Panics if `radius == 0` or the mask length mismatches the graph.
///
/// # Example
///
/// ```
/// use cc_mis_core::exponentiation::gather_balls;
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_graph::{generators, NodeId};
///
/// let g = generators::path(6);
/// let mut engine = CliqueEngine::strict(6, 64);
/// let res = gather_balls(&mut engine, &g, &vec![true; 6], 2, 20);
/// // Node 0 sees edges (0,1) and (1,2) — its 2-hop ball on a path.
/// let ball = res.ball(NodeId::new(0));
/// assert!(ball.contains(0, 1));
/// assert!(ball.contains(1, 2));
/// assert!(!ball.contains(2, 3));
/// ```
pub fn gather_balls(
    engine: &mut CliqueEngine,
    gather: &Graph,
    participant: &[bool],
    radius: usize,
    record_bits: u64,
) -> GatherResult {
    assert!(radius >= 1, "radius must be at least 1");
    assert_eq!(
        participant.len(),
        gather.node_count(),
        "participant mask mismatch"
    );
    let n = gather.node_count();

    // Participant slots. `slot_of` is read only at participants, so the
    // zeroed allocation needs no fill.
    let mut members: Vec<u32> = Vec::new();
    let mut slot_of: Vec<u32> = vec![0; n];
    for (v, _) in participant.iter().enumerate().filter(|(_, &p)| p) {
        slot_of[v] = members.len() as u32;
        members.push(v as u32);
    }
    let k = members.len();

    // Dense edge ids over the participant-filtered edge set, in ascending
    // key order (`edges()` iterates in ascending `(u, v)` order).
    let mut edge_keys: Vec<u64> = Vec::new();
    let mut ends: Vec<(u32, u32)> = Vec::new();
    let mut balls: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (u, v) in gather.edges() {
        if participant[u.index()] && participant[v.index()] {
            let id = edge_keys.len() as u32;
            let (su, sv) = (slot_of[u.index()], slot_of[v.index()]);
            edge_keys.push(pack_edge(u.raw(), v.raw()));
            ends.push((su, sv));
            // Radius-1 initialization: incident edges. Ids are appended in
            // ascending order, so every ball starts sorted.
            balls[su as usize].push(id);
            balls[sv as usize].push(id);
        }
    }
    debug_assert!(edge_keys.is_sorted());
    let m_part = edge_keys.len();
    let steps = if radius <= 1 {
        0
    } else {
        (radius as f64).log2().ceil() as u64
    };
    let mut edges_union = SortedUnion::new(m_part);
    let mut nodes_union = SortedUnion::new(k);
    // Spans start as the endpoints of the incident edges.
    let mut spans: Vec<Vec<u32>> = balls
        .iter()
        .map(|ball| {
            for &id in ball {
                let (a, b) = ends[id as usize];
                nodes_union.insert(a);
                nodes_union.insert(b);
            }
            nodes_union.finish(&[]).unwrap_or_default()
        })
        .collect();
    let mut total_rounds = 0u64;
    let mut steps_run = 0u64;
    for _ in 0..steps {
        let mut packets: Vec<Packet<()>> = Vec::new();
        for x in 0..k {
            let bits = balls[x].len() as u64 * record_bits;
            for &t in &spans[x] {
                if t as usize != x {
                    packets.push(Packet {
                        src: NodeId::new(members[x]),
                        dst: NodeId::new(members[t as usize]),
                        bits,
                        payload: (),
                    });
                }
            }
        }
        let (delivery, outcome) = route(engine, packets).expect("gather packets are well-formed");
        total_rounds += outcome.rounds;
        steps_run += 1;
        // Unions read the previous step's balls; replacements land after.
        let mut grown: Vec<(usize, Vec<u32>, Vec<u32>)> = Vec::new();
        for inbox in delivery.nonempty() {
            let x = slot_of[inbox[0].dst.index()] as usize;
            edges_union.start(&balls[x]);
            nodes_union.start(&spans[x]);
            let mut count = balls[x].len();
            for packet in inbox {
                // Saturated at the participant edge set: nothing left to
                // learn, skip the remaining payloads.
                if count == m_part {
                    break;
                }
                for &id in &balls[slot_of[packet.src.index()] as usize] {
                    if edges_union.insert(id) {
                        count += 1;
                        let (a, b) = ends[id as usize];
                        nodes_union.insert(a);
                        nodes_union.insert(b);
                    }
                }
            }
            let ball = edges_union.finish(&balls[x]);
            let span = nodes_union.finish(&spans[x]);
            if let Some(ball) = ball {
                grown.push((x, ball, span.unwrap_or_else(|| spans[x].clone())));
            }
        }
        // Saturation: once no ball grew, further doubling steps are no-ops
        // (each node already knows its entire component) — skip them.
        if grown.is_empty() {
            break;
        }
        for (x, ball, span) in grown {
            balls[x] = ball;
            spans[x] = span;
        }
    }

    let max_ball_edges = balls.iter().map(Vec::len).max().unwrap_or(0);
    GatherResult {
        members,
        balls,
        spans,
        edge_keys,
        steps: steps_run,
        rounds: total_rounds,
        max_ball_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::generators;
    use cc_mis_sim::bits::standard_bandwidth;
    use std::collections::{BTreeSet, VecDeque};

    fn engine_for(n: usize) -> CliqueEngine {
        CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)))
    }

    fn as_set(ball: Ball<'_>) -> BTreeSet<(u32, u32)> {
        ball.edges().collect()
    }

    fn ball_of(res: &GatherResult, v: usize) -> Ball<'_> {
        res.ball(NodeId::new(v as u32))
    }

    /// Reference: edges within BFS distance `radius` of `s`.
    fn bfs_ball(g: &Graph, s: NodeId, radius: usize) -> BTreeSet<(u32, u32)> {
        let mut dist = vec![usize::MAX; g.node_count()];
        dist[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            if dist[v.index()] >= radius {
                continue;
            }
            for &u in g.neighbors(v) {
                if dist[u.index()] == usize::MAX {
                    dist[u.index()] = dist[v.index()] + 1;
                    q.push_back(u);
                }
            }
        }
        // An edge is in the ball when it lies on a path within the radius:
        // min(dist(u), dist(v)) + 1 ≤ radius.
        g.edges()
            .filter(|&(u, v)| {
                let du = dist[u.index()];
                let dv = dist[v.index()];
                du.min(dv) < radius
            })
            .map(|(u, v)| (u.raw(), v.raw()))
            .collect()
    }

    #[test]
    fn edge_keys_pack_and_sort_like_pairs() {
        let pairs = [
            (0u32, 1u32),
            (0, 7),
            (1, 2),
            (3, 4),
            (u32::MAX - 1, u32::MAX),
        ];
        let mut keys: Vec<u64> = pairs.iter().map(|&(a, b)| pack_edge(a, b)).collect();
        for (k, &(a, b)) in keys.iter().zip(&pairs) {
            assert_eq!(unpack_edge(*k), (a, b));
        }
        let sorted = keys.clone();
        keys.sort_unstable();
        assert_eq!(
            keys, sorted,
            "key order must match lexicographic pair order"
        );
    }

    #[test]
    fn balls_contain_bfs_balls() {
        // The gathered ball must contain every edge within the radius
        // (it may contain more — doubling overshoots to the next power of
        // two, exactly as in the paper).
        for (g, radius) in [
            (generators::cycle(16), 3),
            (generators::grid(4, 5), 2),
            (generators::erdos_renyi_gnp(40, 0.08, 1), 3),
            (generators::balanced_tree(2, 4), 4),
        ] {
            let n = g.node_count();
            let mut engine = engine_for(n);
            let res = gather_balls(&mut engine, &g, &vec![true; n], radius, 24);
            for v in g.nodes() {
                let expected = bfs_ball(&g, v, radius);
                assert!(
                    expected.is_subset(&as_set(res.ball(v))),
                    "node {v} radius {radius} missing edges"
                );
            }
        }
    }

    #[test]
    fn gathered_balls_are_exactly_power_of_two_bfs_balls() {
        // The doubling recursion gives exactly the radius-2^steps BFS ball
        // (edges whose closer endpoint is within 2^steps − 1). This pins
        // the epoch-marked union against the BFS reference set-for-set —
        // any over- or under-merge shows up here.
        for (g, radius) in [
            (generators::erdos_renyi_gnp(60, 0.06, 5), 4usize),
            (generators::grid(5, 6), 2),
            (generators::random_regular(48, 3, 9), 8),
        ] {
            let n = g.node_count();
            let mut engine = engine_for(n);
            let res = gather_balls(&mut engine, &g, &vec![true; n], radius, 24);
            let reach = 1usize << res.steps;
            for v in g.nodes() {
                assert_eq!(
                    as_set(res.ball(v)),
                    bfs_ball(&g, v, reach),
                    "node {v} radius {radius} (effective {reach})"
                );
            }
        }
    }

    #[test]
    fn balls_do_not_exceed_doubled_radius() {
        let g = generators::path(20);
        let n = g.node_count();
        let mut engine = engine_for(n);
        // radius 3 → 2 steps → effective radius 4.
        let res = gather_balls(&mut engine, &g, &vec![true; n], 3, 24);
        assert_eq!(res.steps, 2);
        let ball0 = as_set(ball_of(&res, 0));
        let reach = bfs_ball(&g, NodeId::new(0), 4);
        assert!(ball0.is_subset(&reach), "ball exceeded doubled radius");
    }

    #[test]
    fn steps_are_logarithmic_in_radius() {
        let g = generators::cycle(64);
        for (radius, expected_steps) in [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (9, 4)] {
            let mut engine = engine_for(64);
            let res = gather_balls(&mut engine, &g, &[true; 64], radius, 16);
            assert_eq!(res.steps, expected_steps, "radius {radius}");
        }
    }

    #[test]
    fn rounds_stay_constant_per_step_on_bounded_degree() {
        // Lemma 2.14's promise: O(1) rounds per doubling when balls are
        // small. A cycle has 2 edges per ball initially.
        let g = generators::cycle(128);
        let mut engine = engine_for(128);
        let res = gather_balls(&mut engine, &g, &[true; 128], 4, 16);
        assert!(
            res.rounds <= 8 * res.steps.max(1),
            "{} rounds over {} steps",
            res.rounds,
            res.steps
        );
    }

    #[test]
    fn non_participants_hold_nothing() {
        let g = generators::complete(6);
        let mut mask = vec![true; 6];
        mask[0] = false;
        // Edges incident to 0 are not in the gather graph from its side —
        // the caller promises this; emulate by filtering.
        let filtered = cc_mis_graph::ops::filter_vertices(&g, |v| v.raw() != 0);
        let mut engine = engine_for(6);
        let res = gather_balls(&mut engine, &filtered, &mask, 2, 16);
        assert!(ball_of(&res, 0).is_empty());
        assert!(ball_of(&res, 1).edges().all(|(a, b)| a != 0 && b != 0));
    }

    #[test]
    fn non_participant_endpoint_edges_are_dropped() {
        // Contract-violation tolerance: if the gather graph *does* contain
        // an edge with a non-participant endpoint, that edge must never
        // enter any ball (the initialization filters on both endpoints) and
        // the non-participant must hold nothing throughout.
        let g = generators::path(6); // 0-1-2-3-4-5
        let mut mask = vec![true; 6];
        mask[3] = false; // edges (2,3) and (3,4) have a non-participant end
        let mut engine = engine_for(6);
        let res = gather_balls(&mut engine, &g, &mask, 4, 16);
        assert!(
            ball_of(&res, 3).is_empty(),
            "non-participant gathered edges"
        );
        for v in 0..6 {
            assert!(
                ball_of(&res, v).edges().all(|(a, b)| a != 3 && b != 3),
                "node {v} learned an edge incident to the non-participant"
            );
        }
        // The participants on each side still learn their own side fully.
        assert!(ball_of(&res, 0).contains(0, 1));
        assert!(ball_of(&res, 0).contains(1, 2));
        assert!(ball_of(&res, 5).contains(4, 5));
    }

    #[test]
    fn saturation_stops_doubling_early() {
        // K4 has diameter 1: after one doubling step every ball holds all
        // 6 edges. The second step routes (and is charged) but grows
        // nothing, so the loop exits — steps 3 and 4 of the nominal
        // ⌈log₂ 16⌉ = 4 never run.
        let g = generators::complete(4);
        let mut engine = engine_for(4);
        let res = gather_balls(&mut engine, &g, &[true; 4], 16, 16);
        assert_eq!(res.steps, 2, "expected early exit after the no-growth step");
        let full = g.edge_count();
        assert!((0..4).all(|v| ball_of(&res, v).len() == full));
        assert_eq!(res.max_ball_edges, full);
        // The no-growth step's routing rounds are still charged.
        assert_eq!(engine.ledger().rounds, res.rounds);
        assert!(res.rounds > 0);
    }

    #[test]
    fn saturated_balls_equal_component_edge_sets() {
        // Two disjoint triangles: radius far beyond the diameter. Each
        // node's ball saturates at its own component's edge set — the
        // `len == full` skip only triggers when a ball holds *every* edge
        // of the gather graph, which never happens here, so the union path
        // still runs and must stabilize on the component.
        let g = generators::disjoint_cliques(2, 3);
        let n = g.node_count();
        let mut engine = engine_for(n);
        let res = gather_balls(&mut engine, &g, &vec![true; n], 8, 16);
        let (comp, _) = cc_mis_graph::ops::connected_components(&g);
        for v in 0..n {
            let expected: BTreeSet<(u32, u32)> = g
                .edges()
                .filter(|(u, _)| comp[u.index()] == comp[v])
                .map(|(u, w)| (u.raw(), w.raw()))
                .collect();
            assert_eq!(as_set(ball_of(&res, v)), expected, "node {v}");
        }
    }

    #[test]
    fn full_ball_skip_matches_plain_union() {
        // On a connected graph gathered past its diameter, every ball ends
        // at exactly the full edge set — the skip branch must not change
        // the result, only avoid redundant merging.
        let g = generators::grid(3, 3);
        let mut engine = engine_for(9);
        let res = gather_balls(&mut engine, &g, &[true; 9], 8, 16);
        let full: BTreeSet<(u32, u32)> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        for v in 0..9 {
            assert_eq!(as_set(ball_of(&res, v)), full, "node {v}");
        }
    }

    #[test]
    fn radius_one_costs_no_rounds() {
        let g = generators::grid(3, 3);
        let mut engine = engine_for(9);
        let res = gather_balls(&mut engine, &g, &[true; 9], 1, 16);
        assert_eq!(res.rounds, 0);
        assert_eq!(engine.ledger().rounds, 0);
        // Radius-1 knowledge is the incident edges.
        assert_eq!(ball_of(&res, 0).len(), g.degree(NodeId::new(0)));
    }

    #[test]
    fn empty_graph_gathers_nothing() {
        let g = cc_mis_graph::Graph::empty(5);
        let mut engine = engine_for(5);
        let res = gather_balls(&mut engine, &g, &[true; 5], 4, 16);
        assert!((0..5).all(|v| ball_of(&res, v).is_empty()));
        assert_eq!(res.rounds, 0);
        assert_eq!(res.max_ball_edges, 0);
    }
}
