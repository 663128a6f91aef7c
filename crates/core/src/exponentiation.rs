//! Graph exponentiation (Lemma 2.14): learning `r`-hop neighborhoods in
//! `O(log r)` congested-clique rounds.
//!
//! The doubling scheme of the paper's proof (re-proving [Lenzen &
//! Wattenhofer, PODC'10]): initially every node knows its incident edges
//! (radius-1 ball). In step `i`, every node ships its currently-known ball
//! to every node *inside* that ball; since the ball holds all nodes within
//! distance `2^i`, the union of received balls covers radius `2^{i+1}`.
//! After `⌈log₂ r⌉` steps each node knows its `r`-hop neighborhood. Each
//! step is a fan-out (one ball-sized packet from every node to each other
//! node of its span), charged in closed form by
//! [`cc_mis_sim::routing::charge_fanout`] exactly as Lenzen routing would
//! schedule it — `O(1)` rounds per step whenever the Lemma 2.14 capacity
//! precondition (ball size `≪ n^{δ}`) holds.
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
//! if it were copied). A receiver's inbox is its own span: spans are
//! symmetric (two participants are in each other's span exactly when they
//! are within the current radius of each other), so no packet is built:
//! a step charges one `(span size, ball bits)` pair per sender. Unions run
//! against a membership bitmap (no hashing anywhere), stop early once a
//! ball holds every participant edge, and emit the new ball in order by
//! scanning the bitmap when it is no longer than the ball, else by sorting
//! only the newly learned ids. The set-up walks the participants'
//! adjacency, and every step pays for participants and ball sizes, never
//! for `n` or `m`. The round/bit accounting is what Lenzen routing charges
//! for the materialised packets: payload bits `ball edges × record_bits`,
//! one packet to each other node of the sender's span.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::routing::charge_fanout;
use cc_mis_sim::Frontier;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Largest participant degree within the participant-induced subgraph
    /// (its radius-1 ball).
    pub max_degree: usize,
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

/// Gathers, for every participant, all edges of `g` among participants
/// within distance `radius` of it.
///
/// `g` must have the same vertex numbering as the engine. The knowledge
/// being learned is `g[participants]`: only participants hold and exchange
/// knowledge, and only edges with both ends in `participants` count (for
/// §2.4 this is `G[S]`; for §2.5 it is `G` itself). The set-up walks the
/// participants' adjacency only, in ascending `(u, v)` order, so a gather
/// costs nothing for the rest of the graph.
///
/// # Panics
///
/// Panics if `radius == 0`, `participants` is not drawn from `g`'s
/// nodes, or `g` has more nodes than the engine.
///
/// # Example
///
/// ```
/// use cc_mis_core::exponentiation::gather_balls;
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_sim::Frontier;
/// use cc_mis_graph::{generators, NodeId};
///
/// let g = generators::path(6);
/// let mut engine = CliqueEngine::strict(6, 64);
/// let res = gather_balls(&mut engine, &g, &Frontier::full(6), 2, 20);
/// // Node 0 sees edges (0,1) and (1,2) — its 2-hop ball on a path.
/// let ball = res.ball(NodeId::new(0));
/// assert!(ball.contains(0, 1));
/// assert!(ball.contains(1, 2));
/// assert!(!ball.contains(2, 3));
/// ```
pub fn gather_balls(
    engine: &mut CliqueEngine,
    g: &Graph,
    participants: &Frontier,
    radius: usize,
    record_bits: u64,
) -> GatherResult {
    assert!(radius >= 1, "radius must be at least 1");
    assert_eq!(
        participants.universe(),
        g.node_count(),
        "participant set mismatch"
    );
    assert!(
        g.node_count() <= engine.node_count(),
        "a graph on {} nodes does not fit a {}-node engine",
        g.node_count(),
        engine.node_count()
    );

    // Participant slots are the frontier's positions.
    let members: Vec<u32> = participants.ids().iter().map(|v| v.raw()).collect();
    let k = members.len();
    let slot_of = |v: NodeId| participants.position(v);

    // Dense edge ids over the participant-induced edge set, in ascending
    // key order (`induced_edges` walks the participants' adjacency in
    // ascending `(u, v)` order).
    let mut edge_keys: Vec<u64> = Vec::new();
    let mut ends: Vec<(u32, u32)> = Vec::new();
    let mut balls: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (u, v) in participants.induced_edges(g) {
        let id = edge_keys.len() as u32;
        let (su, sv) = (slot_of(u) as u32, slot_of(v) as u32);
        edge_keys.push(pack_edge(u.raw(), v.raw()));
        ends.push((su, sv));
        // Radius-1 initialization: incident edges. Ids are appended in
        // ascending order, so every ball starts sorted.
        balls[su as usize].push(id);
        balls[sv as usize].push(id);
    }
    let max_degree = balls.iter().map(Vec::len).max().unwrap_or(0);
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
        // Participant `x` sends its ball to every other node of its span:
        // a fan-out, charged from one (targets, bits) pair per sender.
        let outcome = charge_fanout(
            engine,
            (0..k).map(|x| {
                let own = spans[x].binary_search(&(x as u32)).is_ok();
                (
                    spans[x].len() - usize::from(own),
                    balls[x].len() as u64 * record_bits,
                )
            }),
        );
        total_rounds += outcome.rounds;
        steps_run += 1;
        // Spans are symmetric (`t ∈ spans[x]` iff `x ∈ spans[t]`: both say
        // the two are within the current radius in G[participants]), so
        // `x`'s inbox is its own span minus itself, in ascending source
        // order. The payloads are the senders' balls, read by reference.
        // Unions read the previous step's balls; replacements land after.
        let mut grown: Vec<(usize, Vec<u32>, Vec<u32>)> = Vec::new();
        for x in 0..k {
            edges_union.start(&balls[x]);
            nodes_union.start(&spans[x]);
            let mut count = balls[x].len();
            for &t in &spans[x] {
                // Saturated at the participant edge set: nothing left to
                // learn, skip the remaining payloads.
                if count == m_part {
                    break;
                }
                if t as usize == x {
                    continue;
                }
                for &id in &balls[t as usize] {
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
        max_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::generators;
    use cc_mis_sim::bits::standard_bandwidth;
    use cc_mis_sim::routing::Packet;
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
            let res = gather_balls(&mut engine, &g, &Frontier::full(n), radius, 24);
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
            let res = gather_balls(&mut engine, &g, &Frontier::full(n), radius, 24);
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
        let res = gather_balls(&mut engine, &g, &Frontier::full(n), 3, 24);
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
            let res = gather_balls(&mut engine, &g, &Frontier::full(64), radius, 16);
            assert_eq!(res.steps, expected_steps, "radius {radius}");
        }
    }

    #[test]
    fn rounds_stay_constant_per_step_on_bounded_degree() {
        // Lemma 2.14's promise: O(1) rounds per doubling when balls are
        // small. A cycle has 2 edges per ball initially.
        let g = generators::cycle(128);
        let mut engine = engine_for(128);
        let res = gather_balls(&mut engine, &g, &Frontier::full(128), 4, 16);
        assert!(
            res.rounds <= 8 * res.steps.max(1),
            "{} rounds over {} steps",
            res.rounds,
            res.steps
        );
    }

    /// Walking the participants' adjacency in `G` gathers exactly what the
    /// filtered graph `G[S]` gave: the same balls, the same routing and
    /// the same ledger, and the radius-1 balls give `G[S]`'s max degree.
    #[test]
    fn induced_walk_matches_the_filtered_graph() {
        for seed in 0..12u64 {
            let g = generators::erdos_renyi_gnp(40, 0.15, seed);
            let mask: Vec<bool> = (0..40u64).map(|v| (v * 7 + seed) % 3 != 0).collect();
            let filtered = cc_mis_graph::ops::filter_vertices(&g, |v| mask[v.index()]);
            let s = Frontier::from_mask(&mask);
            let (mut direct, mut reference) = (engine_for(40), engine_for(40));
            let got = gather_balls(&mut direct, &g, &s, 4, 24);
            let want = gather_balls(&mut reference, &filtered, &s, 4, 24);
            for v in 0..40 {
                assert_eq!(as_set(ball_of(&got, v)), as_set(ball_of(&want, v)));
            }
            assert_eq!((got.steps, got.rounds), (want.steps, want.rounds));
            assert_eq!(got.max_ball_edges, want.max_ball_edges);
            assert_eq!(direct.ledger(), reference.ledger(), "seed {seed}");
            let max_degree = s.ids().iter().map(|&v| filtered.degree(v)).max();
            assert_eq!(got.max_degree, max_degree.unwrap_or(0));
        }
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
        let res = gather_balls(&mut engine, &filtered, &Frontier::from_mask(&mask), 2, 16);
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
        let res = gather_balls(&mut engine, &g, &Frontier::from_mask(&mask), 4, 16);
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
        let res = gather_balls(&mut engine, &g, &Frontier::full(4), 16, 16);
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
        let res = gather_balls(&mut engine, &g, &Frontier::full(n), 8, 16);
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
        let res = gather_balls(&mut engine, &g, &Frontier::full(9), 8, 16);
        let full: BTreeSet<(u32, u32)> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        for v in 0..9 {
            assert_eq!(as_set(ball_of(&res, v)), full, "node {v}");
        }
    }

    #[test]
    fn radius_one_costs_no_rounds() {
        let g = generators::grid(3, 3);
        let mut engine = engine_for(9);
        let res = gather_balls(&mut engine, &g, &Frontier::full(9), 1, 16);
        assert_eq!(res.rounds, 0);
        assert_eq!(engine.ledger().rounds, 0);
        // Radius-1 knowledge is the incident edges.
        assert_eq!(ball_of(&res, 0).len(), g.degree(NodeId::new(0)));
    }

    /// The gather as it ran before it read inboxes from spans: route the
    /// packets into a [`cc_mis_sim::routing::Delivery`] and union each
    /// nonempty inbox's senders' balls. The set-up is a radius-1 gather,
    /// which charges nothing.
    fn gather_by_delivery(
        engine: &mut CliqueEngine,
        g: &Graph,
        participants: &Frontier,
        radius: usize,
        record_bits: u64,
    ) -> GatherResult {
        let mut res = gather_balls(engine, g, participants, 1, record_bits);
        let slot_of = |v: NodeId| participants.position(v);
        let ends: Vec<(u32, u32)> = res
            .edge_keys
            .iter()
            .map(|&key| {
                let (a, b) = unpack_edge(key);
                let slot = |x: u32| slot_of(NodeId::new(x)) as u32;
                (slot(a), slot(b))
            })
            .collect();
        let (k, m_part) = (res.members.len(), res.edge_keys.len());
        let mut edges_union = SortedUnion::new(m_part);
        let mut nodes_union = SortedUnion::new(k);
        let steps = if radius <= 1 {
            0
        } else {
            (radius as f64).log2().ceil() as u64
        };
        for _ in 0..steps {
            let mut packets: Vec<Packet<()>> = Vec::new();
            for x in 0..k {
                let bits = res.balls[x].len() as u64 * record_bits;
                for &t in res.spans[x].iter().filter(|&&t| t as usize != x) {
                    packets.push(Packet {
                        src: NodeId::new(res.members[x]),
                        dst: NodeId::new(res.members[t as usize]),
                        bits,
                        payload: (),
                    });
                }
            }
            let (delivery, outcome) = cc_mis_sim::routing::route(engine, packets)
                .expect("gather packets are well-formed");
            res.rounds += outcome.rounds;
            res.steps += 1;
            let mut grown = Vec::new();
            for inbox in delivery.nonempty() {
                let x = slot_of(inbox[0].dst);
                edges_union.start(&res.balls[x]);
                nodes_union.start(&res.spans[x]);
                for packet in inbox {
                    for &id in &res.balls[slot_of(packet.src)] {
                        if edges_union.insert(id) {
                            let (a, b) = ends[id as usize];
                            nodes_union.insert(a);
                            nodes_union.insert(b);
                        }
                    }
                }
                let ball = edges_union.finish(&res.balls[x]);
                let span = nodes_union.finish(&res.spans[x]);
                if let Some(ball) = ball {
                    grown.push((x, ball, span.unwrap_or_else(|| res.spans[x].clone())));
                }
            }
            if grown.is_empty() {
                break;
            }
            for (x, ball, span) in grown {
                res.balls[x] = ball;
                res.spans[x] = span;
            }
        }
        res.max_ball_edges = res.balls.iter().map(Vec::len).max().unwrap_or(0);
        res
    }

    /// Reading each inbox from the receiver's span gathers what the
    /// delivered inboxes gave, at the same cost: this pins the span
    /// symmetry `gather_balls` relies on.
    #[test]
    fn span_inboxes_match_delivered_inboxes() {
        use cc_mis_graph::rng::SplitMix64;
        for case in 0..40u64 {
            let mut rng = SplitMix64::new(0x5BA4_0000 + case);
            let n = 2 + rng.next_below(60) as usize;
            let p = (1 + rng.next_below(20)) as f64 / 100.0;
            let g = generators::erdos_renyi_gnp(n, p, case);
            let keep = 1 + rng.next_below(4);
            let mask: Vec<bool> = (0..n).map(|_| rng.next_below(4) < keep).collect();
            let s = Frontier::from_mask(&mask);
            let radius = 1 + rng.next_below(8) as usize;
            let (mut spans, mut delivered) = (engine_for(n), engine_for(n));
            let got = gather_balls(&mut spans, &g, &s, radius, 24);
            let want = gather_by_delivery(&mut delivered, &g, &s, radius, 24);
            assert_eq!(got, want, "case {case}: n {n}, p {p}, radius {radius}");
            assert_eq!(spans.ledger(), delivered.ledger(), "case {case}");
        }
    }

    #[test]
    fn empty_graph_gathers_nothing() {
        let g = cc_mis_graph::Graph::empty(5);
        let mut engine = engine_for(5);
        let res = gather_balls(&mut engine, &g, &Frontier::full(5), 4, 16);
        assert!((0..5).all(|v| ball_of(&res, v).is_empty()));
        assert_eq!(res.rounds, 0);
        assert_eq!(res.max_ball_edges, 0);
    }
}
