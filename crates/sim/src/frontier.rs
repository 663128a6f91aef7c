//! The set of nodes a round or a phase still has to touch.
//!
//! Every MIS execution here shrinks its problem: each iteration removes the
//! nodes that joined and their neighbours, and by the tail only a handful
//! of the `n` nodes are undecided. A [`Frontier`] holds those nodes so that
//! a round walks them instead of all `n` (the idiom of Ligra's
//! `vertexSubset`): their ids in ascending order, plus a per-node slot
//! table that answers membership and a member's position in `O(1)`.
//! Per-phase scratch can then be indexed by [`Frontier::position`] and sized
//! by [`Frontier::len`] rather than by `n`.
//!
//! An execution's frontier is derived state: it is rebuilt from the
//! execution's own undecided flags when a snapshot is restored and is never
//! serialised, so snapshot bytes do not depend on it.

use cc_mis_graph::{Graph, NodeId};

use crate::bits::idx_u32;

/// Slot-table entry of a node outside the frontier.
const ABSENT: u32 = u32::MAX;

/// A subset of the nodes `0..universe`: ascending ids plus an `O(1)`
/// membership and position table.
///
/// Building one from scratch costs `O(universe)`; [`Frontier::retain`] and
/// [`Frontier::assign`] cost `O(len)` of the sets they touch, so a frontier
/// that shrinks in place, or one reused across phases, never pays for the
/// whole universe again.
///
/// ```
/// use cc_mis_graph::NodeId;
/// use cc_mis_sim::frontier::Frontier;
///
/// let mut f = Frontier::full(5);
/// f.retain(|v| v.raw() % 2 == 0);
/// assert_eq!(f.ids(), &[NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
/// assert_eq!(f.position(NodeId::new(4)), 2);
/// assert!(!f.contains(NodeId::new(3)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Frontier {
    /// The members, strictly ascending.
    ids: Vec<NodeId>,
    /// Per node of the universe: its index in `ids`, or `ABSENT`.
    slots: Vec<u32>,
}

impl Frontier {
    /// The empty frontier over `universe` nodes.
    pub fn empty(universe: usize) -> Self {
        Frontier {
            ids: Vec::new(),
            slots: vec![ABSENT; universe],
        }
    }

    /// Every node of `0..universe`.
    pub fn full(universe: usize) -> Self {
        Frontier {
            ids: (0..universe).map(|v| NodeId::new(idx_u32(v))).collect(),
            slots: (0..universe).map(idx_u32).collect(),
        }
    }

    /// The nodes `members` (strictly ascending) of `0..universe`.
    ///
    /// # Panics
    ///
    /// Panics if a member is outside the universe.
    pub fn from_ids(universe: usize, members: impl IntoIterator<Item = NodeId>) -> Self {
        let mut f = Frontier::empty(universe);
        f.assign(members);
        f
    }

    /// The nodes whose `member` flag is set, over `member.len()` nodes.
    pub fn from_mask(member: &[bool]) -> Self {
        let mut f = Frontier::empty(member.len());
        for (v, _) in member.iter().enumerate().filter(|(_, &m)| m) {
            f.slots[v] = idx_u32(f.ids.len());
            f.ids.push(NodeId::new(idx_u32(v)));
        }
        f
    }

    /// How many nodes the frontier is drawn from.
    pub fn universe(&self) -> usize {
        self.slots.len()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The members, ascending.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Whether `v` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.slots[v.index()] != ABSENT
    }

    /// The position of member `v` in [`Frontier::ids`]: the index of its
    /// entry in frontier-indexed scratch.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    #[inline]
    pub fn position(&self, v: NodeId) -> usize {
        let at = self.slots[v.index()];
        assert!(at != ABSENT, "node {} is not in the frontier", v.raw());
        at as usize
    }

    /// Sum of the members' degrees in `graph`.
    pub fn volume(&self, graph: &Graph) -> usize {
        self.ids.iter().map(|&v| graph.degree(v)).sum()
    }

    /// The edges of `graph` with both ends in the frontier, as `(u, v)`
    /// with `u < v`, in ascending order (that of [`Graph::edges`]). Walks
    /// the members' adjacency only.
    pub fn induced_edges<'a>(
        &'a self,
        graph: &'a Graph,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.ids.iter().flat_map(move |&u| {
            let adjacency = graph.neighbors(u);
            adjacency[adjacency.partition_point(|&v| v <= u)..]
                .iter()
                .filter(move |&&v| self.contains(v))
                .map(move |&v| (u, v))
        })
    }

    /// Keeps the members for which `keep` holds, in place, in `O(len)`:
    /// the survivors stay ascending and are renumbered densely.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let Frontier { ids, slots } = self;
        let mut kept = 0;
        for at in 0..ids.len() {
            let v = ids[at];
            if keep(v) {
                ids[kept] = v;
                slots[v.index()] = idx_u32(kept);
                kept += 1;
            } else {
                slots[v.index()] = ABSENT;
            }
        }
        ids.truncate(kept);
    }

    /// Replaces the members with `members`, which must be strictly
    /// ascending and inside the universe, in `O(len + members)`.
    ///
    /// # Panics
    ///
    /// Panics if a member is outside the universe.
    pub fn assign(&mut self, members: impl IntoIterator<Item = NodeId>) {
        for &v in &self.ids {
            self.slots[v.index()] = ABSENT;
        }
        self.ids.clear();
        for v in members {
            debug_assert!(
                self.ids.last().is_none_or(|&last| last < v),
                "frontier members must be strictly ascending"
            );
            self.slots[v.index()] = idx_u32(self.ids.len());
            self.ids.push(v);
        }
    }
}

impl std::fmt::Debug for Frontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontier")
            .field("universe", &self.universe())
            .field("ids", &self.ids)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(f: &Frontier) -> Vec<u32> {
        f.ids().iter().map(|v| v.raw()).collect()
    }

    #[test]
    fn constructors_agree() {
        let mask = [true, false, true, true, false];
        let f = Frontier::from_mask(&mask);
        assert_eq!(ids(&f), vec![0, 2, 3]);
        assert_eq!(f.universe(), 5);
        assert_eq!(f, Frontier::from_ids(5, [0, 2, 3].map(NodeId::new)));
        let mut h = Frontier::full(5);
        h.retain(|v| mask[v.index()]);
        assert_eq!(f, h);
    }

    #[test]
    fn slots_follow_the_members() {
        let mut f = Frontier::full(6);
        f.retain(|v| v.raw() != 1 && v.raw() != 4);
        for (at, &v) in f.ids().iter().enumerate() {
            assert_eq!(f.position(v), at);
        }
        assert!(!f.contains(NodeId::new(1)));
        f.assign([NodeId::new(5)]);
        assert_eq!(ids(&f), vec![5]);
        assert_eq!(f.position(NodeId::new(5)), 0);
        assert!(!f.contains(NodeId::new(0)));
        f.retain(|_| false);
        assert!(f.is_empty());
        assert_eq!(f, Frontier::empty(6));
    }

    #[test]
    #[should_panic(expected = "not in the frontier")]
    fn position_of_a_non_member_panics() {
        let mut f = Frontier::full(3);
        f.retain(|v| v.raw() != 1);
        f.position(NodeId::new(1));
    }

    #[test]
    fn induced_edges_filter_the_edge_list() {
        let g = cc_mis_graph::generators::erdos_renyi_gnp(30, 0.2, 4);
        let mask: Vec<bool> = (0..30).map(|v| v % 4 != 1).collect();
        let want: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(u, v)| mask[u.index()] && mask[v.index()])
            .collect();
        let got: Vec<(NodeId, NodeId)> = Frontier::from_mask(&mask).induced_edges(&g).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn volume_sums_member_degrees() {
        let g = cc_mis_graph::generators::star(5);
        let mut f = Frontier::full(5);
        assert_eq!(f.volume(&g), 8);
        f.retain(|v| v.raw() != 0);
        assert_eq!(f.volume(&g), 4);
    }
}
