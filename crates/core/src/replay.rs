//! One local replay per distinct gathered ball (Lemmas 2.13–2.15).
//!
//! After a gather ([`crate::exponentiation`]), every participant simulates a
//! dynamic on its ball and reads off its own fate. That simulation is a pure
//! function of the ball — its edges and the nodes they touch — and of state
//! addressed by global id (coins, phase-start probabilities, super-heavy
//! schedules). The participant only picks which row of the result to read.
//! So participants whose non-empty balls are equal share one simulation:
//! [`for_each_distinct_ball`] groups them by a fingerprint of the ball,
//! confirms each group by comparing edge lists (no hash collections), and
//! runs one replay per group. An empty ball (an isolated participant) is
//! its own one-node graph, so that replay is a short loop over the node's
//! own coins.
//!
//! When the gather radius exceeds the diameter — the usual case at
//! simulator scale — every ball of a component is the whole component, and
//! a component costs one replay instead of one per node.

use crate::exponentiation::{Ball, GatherResult};
use crate::ghaffari16::CoinGraph;
use cc_mis_graph::NodeId;

/// A ball as a graph over local indices `0..len()`: local index `i` is the
/// `i`-th ball node by id, and each neighbor list is ascending — the order
/// a [`cc_mis_graph::Graph`] keeps, so floating-point sums over neighbors
/// add up in the same order as in a global run. The buffers are reused
/// from ball to ball, so loading allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(crate) struct LocalBall {
    /// Global ids, ascending.
    nodes: Vec<u32>,
    /// CSR offsets: node `i`'s neighbors are `adj[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl LocalBall {
    /// Loads `ball`, or the lone `center` when the ball is empty.
    fn load(&mut self, ball: Ball<'_>, center: u32) {
        self.nodes.clear();
        if ball.is_empty() {
            self.nodes.push(center);
        } else {
            self.nodes.extend(ball.nodes());
        }
        let m = self.nodes.len();
        self.offsets.clear();
        self.offsets.resize(m + 1, 0);
        for (a, b) in ball.edges() {
            let (la, lb) = (self.local(a), self.local(b));
            self.offsets[la + 1] += 1;
            self.offsets[lb + 1] += 1;
        }
        for i in 0..m {
            self.offsets[i + 1] += self.offsets[i];
        }
        // Edges arrive in ascending `(a, b)` order, so node `x` first gets
        // its lower neighbors (edges `(a, x)`, ascending in `a`) and then
        // its higher ones (edges `(x, b)`, ascending in `b`). Each `offsets`
        // entry serves as node's fill cursor and ends at the next node's
        // start; the shift below restores the starts.
        self.adj.clear();
        self.adj.resize(2 * ball.len(), 0);
        for (a, b) in ball.edges() {
            let (la, lb) = (self.local(a), self.local(b));
            self.adj[self.offsets[la] as usize] = lb as u32;
            self.offsets[la] += 1;
            self.adj[self.offsets[lb] as usize] = la as u32;
            self.offsets[lb] += 1;
        }
        self.offsets.copy_within(0..m, 1);
        self.offsets[0] = 0;
    }

    /// Number of ball nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Global id of local node `i`.
    pub(crate) fn id(&self, i: usize) -> NodeId {
        NodeId::new(self.nodes[i])
    }

    /// Local neighbors of local node `i`, ascending.
    pub(crate) fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Local index of the ball node with global id `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a ball node.
    pub(crate) fn local(&self, v: u32) -> usize {
        self.nodes.binary_search(&v).expect("node is in the ball")
    }
}

impl CoinGraph for LocalBall {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        LocalBall::neighbors(self, i).iter().map(|&u| u as usize)
    }

    fn coin_id(&self, i: usize) -> NodeId {
        self.id(i)
    }
}

/// FNV-1a over the edge ids, seeded with the length.
fn fingerprint(ids: &[u32]) -> u64 {
    ids.iter()
        .fold(0xcbf2_9ce4_8422_2325 ^ ids.len() as u64, |h, &id| {
            (h ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The participants of `gather` as `(representative, member)` slot pairs,
/// sorted: members of a group have equal non-empty balls and share the
/// group's smallest slot as representative; an empty-ball participant is a
/// group of its own.
fn group_by_ball(gather: &GatherResult) -> Vec<(u32, u32)> {
    let k = gather.participants().len();
    let ids = |slot: u32| gather.ball_at(slot as usize).ids();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(k);
    let mut by_print: Vec<(u64, u32)> = Vec::new();
    for slot in 0..k as u32 {
        if ids(slot).is_empty() {
            pairs.push((slot, slot));
        } else {
            by_print.push((fingerprint(ids(slot)), slot));
        }
    }
    by_print.sort_unstable();
    let mut reps: Vec<u32> = Vec::new();
    for run in by_print.chunk_by(|a, b| a.0 == b.0) {
        // Equal fingerprints are confirmed by comparing edge lists; a
        // collision only opens another group.
        reps.clear();
        for &(_, slot) in run {
            let rep = match reps.iter().find(|&&r| ids(r) == ids(slot)) {
                Some(&r) => r,
                None => {
                    reps.push(slot);
                    slot
                }
            };
            pairs.push((rep, slot));
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Calls `replay(ball, members)` once per distinct ball of `gather`, with
/// the ball loaded as a [`LocalBall`] and `members` the global ids
/// (ascending) of the participants that hold it. Every participant is in
/// exactly one call.
pub(crate) fn for_each_distinct_ball(
    gather: &GatherResult,
    mut replay: impl FnMut(&LocalBall, &[u32]),
) {
    let ids = gather.participants();
    let mut ball = LocalBall::default();
    let mut members: Vec<u32> = Vec::new();
    for group in group_by_ball(gather).chunk_by(|a, b| a.0 == b.0) {
        let rep = group[0].0 as usize;
        ball.load(gather.ball_at(rep), ids[rep]);
        members.clear();
        members.extend(group.iter().map(|&(_, slot)| ids[slot as usize]));
        replay(&ball, &members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponentiation::gather_balls;
    use cc_mis_graph::{generators, Graph, GraphBuilder};
    use cc_mis_sim::bits::standard_bandwidth;
    use cc_mis_sim::clique::CliqueEngine;

    fn gather(g: &Graph, participant: &[bool], radius: usize) -> GatherResult {
        let n = g.node_count();
        let mut engine = CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)));
        gather_balls(
            &mut engine,
            g,
            &cc_mis_sim::Frontier::from_mask(participant),
            radius,
            16,
        )
    }

    /// Every group, as `(loaded ball nodes, members)`.
    fn groups(res: &GatherResult) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut out = Vec::new();
        for_each_distinct_ball(res, |ball, members| {
            let nodes = (0..ball.len()).map(|i| ball.id(i).raw()).collect();
            out.push((nodes, members.to_vec()));
        });
        out
    }

    #[test]
    fn groups_partition_participants_into_equal_balls() {
        let g = generators::erdos_renyi_gnp(60, 0.05, 3);
        let mask: Vec<bool> = (0..60).map(|v| v % 5 != 0).collect();
        let res = gather(&g, &mask, 4);
        let mut seen: Vec<u32> = Vec::new();
        for (_, members) in groups(&res) {
            let first = res.ball(NodeId::new(members[0]));
            for &v in &members {
                let ball = res.ball(NodeId::new(v));
                assert_eq!(ball.ids(), first.ids(), "v{v} differs from its group");
                assert!(
                    !ball.is_empty() || members.len() == 1,
                    "empty balls stay alone"
                );
            }
            seen.extend(members);
        }
        seen.sort_unstable();
        assert_eq!(seen, res.participants());
    }

    #[test]
    fn a_component_gathered_past_its_diameter_is_one_group() {
        let g = generators::random_regular(64, 3, 2);
        let res = gather(&g, &[true; 64], 32);
        let all = groups(&res);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, (0..64).collect::<Vec<u32>>());
        assert_eq!(all[0].0.len(), 64);
    }

    #[test]
    fn a_cycle_at_the_default_radius_has_one_group_per_node() {
        let g = generators::cycle(200);
        let radius = crate::common::iterations_for_max_degree(2, 3.0) as usize;
        let res = gather(&g, &[true; 200], 2 * radius);
        let all = groups(&res);
        assert_eq!(all.len(), 200);
        assert!(all.iter().all(|(_, members)| members.len() == 1));
    }

    #[test]
    fn isolated_participants_replay_alone_on_one_node() {
        // Path 0-1-2 plus isolated 3 and 4; node 5 does not participate.
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId::new(0), NodeId::new(1))
            .expect("valid edge");
        b.add_edge(NodeId::new(1), NodeId::new(2))
            .expect("valid edge");
        let g = b.build();
        let mask = [true, true, true, true, true, false];
        let all = groups(&gather(&g, &mask, 4));
        assert_eq!(
            all,
            vec![
                (vec![0, 1, 2], vec![0, 1, 2]),
                (vec![3], vec![3]),
                (vec![4], vec![4]),
            ]
        );
    }

    #[test]
    fn local_ball_keeps_neighbors_ascending() {
        let g = generators::grid(4, 4);
        let res = gather(&g, &[true; 16], 8);
        for_each_distinct_ball(&res, |ball, _| {
            for i in 0..ball.len() {
                let global: Vec<NodeId> = ball
                    .neighbors(i)
                    .iter()
                    .map(|&u| ball.id(u as usize))
                    .collect();
                assert_eq!(global, g.neighbors(ball.id(i)));
            }
        });
    }
}
