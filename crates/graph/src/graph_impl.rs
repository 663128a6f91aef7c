//! The compact undirected graph representation.

use std::collections::TryReserveError;
use std::fmt;
use std::sync::OnceLock;

use crate::rng::mix3;

/// Identifier of a vertex in a [`Graph`].
///
/// A `NodeId` is an index in `0..n` for a graph with `n` vertices. It is a
/// newtype over `u32` so that vertex indices cannot be confused with other
/// integer quantities (round numbers, degrees, bit counts) flowing through
/// the simulators.
///
/// # Example
///
/// ```
/// use cc_mis_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as a `usize`, suitable for indexing per-node
    /// arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as a `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

/// An immutable, undirected, simple graph in compressed sparse row form.
///
/// Vertices are `0..n`. Adjacency lists are sorted, enabling
/// `O(log deg)` [`Graph::has_edge`] queries and linear-time sorted-merge
/// operations in [`crate::ops`].
///
/// Construct a `Graph` through [`crate::GraphBuilder`], one of the
/// [`crate::generators`], or [`Graph::from_edges`].
///
/// # Example
///
/// ```
/// use cc_mis_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
/// ```
#[derive(Clone)]
pub struct Graph {
    /// CSR offsets; `offsets[v]..offsets[v+1]` indexes `adj`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    adj: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
    /// [`Graph::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
}

/// Equality is structural: the fingerprint memo is a cache of the edge
/// set, not part of it.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.adj == other.adj
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count)
            .finish()
    }
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_mis_graph::Graph;
    /// let g = Graph::empty(5);
    /// assert_eq!(g.node_count(), 5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
            edge_count: 0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Builds a graph with `n` vertices from an edge iterator of raw index
    /// pairs. Duplicate edges are merged; edge direction is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError`] if an edge is a self-loop or references
    /// a vertex `>= n`.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_mis_graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2)]).unwrap();
    /// assert_eq!(g.edge_count(), 2); // (0,1) deduplicated
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, crate::GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = crate::GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(b.build())
    }

    /// Internal: assembles the CSR form from an edge list that is strictly
    /// ascending with `u < v` in every pair, so free of duplicates and
    /// self-loops. Used by the generators, which size their own graphs.
    ///
    /// # Panics
    ///
    /// Panics if the arrays cannot be allocated.
    pub(crate) fn from_sorted_unique_edges<I>(n: usize, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        match Self::try_from_sorted_unique_edges(n, edges) {
            Ok(g) => g,
            Err(e) => panic!("cannot allocate a graph on {n} vertices: {e}"),
        }
    }

    /// Internal: [`Graph::from_sorted_unique_edges`] with every allocation
    /// fallible, for graphs whose size comes from outside (see
    /// [`crate::GraphBuilder::try_build`]). The iterator is walked twice:
    /// once to count degrees, once to fill.
    ///
    /// The fill needs no per-list sort: every neighbour `w < x` of `x`
    /// arrives as `(w, x)`, in ascending `w`, before `x`'s own row
    /// `(x, v)` arrives in ascending `v`.
    pub(crate) fn try_from_sorted_unique_edges<I>(
        n: usize,
        edges: I,
    ) -> Result<Self, TryReserveError>
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        debug_assert!(
            edges.clone().all(|(u, v)| u < v)
                && edges.clone().zip(edges.clone().skip(1)).all(|(a, b)| a < b),
            "edges must be strictly ascending with u < v"
        );
        let mut offsets = filled(n + 1, 0usize)?;
        let mut edge_count = 0;
        for (u, v) in edges.clone() {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
            edge_count += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = Vec::new();
        cursor.try_reserve_exact(n)?;
        cursor.extend_from_slice(&offsets[..n]);
        let mut adj = filled(offsets[n], NodeId::new(0))?;
        for (u, v) in edges {
            adj[cursor[u as usize]] = NodeId::new(v);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = NodeId::new(u);
            cursor[v as usize] += 1;
        }
        Ok(Graph {
            offsets,
            adj,
            edge_count,
            fingerprint: OnceLock::new(),
        })
    }

    /// Internal: wraps CSR arrays that are already valid (sorted, unique,
    /// symmetric adjacency without self-loops). Used by
    /// [`crate::ops::filter_vertices`].
    pub(crate) fn from_csr(offsets: Vec<usize>, adj: Vec<NodeId>) -> Self {
        debug_assert_eq!(offsets.last(), Some(&adj.len()), "offsets cover adj");
        debug_assert!(adj.len().is_multiple_of(2), "every edge is listed twice");
        Graph {
            edge_count: adj.len() / 2,
            offsets,
            adj,
            fingerprint: OnceLock::new(),
        }
    }

    /// Deterministic 64-bit identity hash: a [`mix3`] chain over the node
    /// count, the edge count and the sorted edge list. Two graphs collide
    /// only if they have identical edge sets (up to hash collisions), so a
    /// snapshot taken on one graph is rejected when resumed on another.
    ///
    /// The O(m) walk runs once per graph, on first call; runs that never
    /// save or restore never pay for it.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_mis_graph::generators;
    ///
    /// let a = generators::cycle(8);
    /// let b = generators::cycle(9);
    /// assert_eq!(a.fingerprint(), a.clone().fingerprint());
    /// assert_ne!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let tag = 0x636C_6971_7565_6D69; // b"cliquemi"
            let mut h = mix3(tag, self.node_count() as u64, self.edge_count as u64);
            for (u, v) in self.edges() {
                h = mix3(h, u64::from(u.raw()), u64::from(v.raw()));
            }
            h
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree `Δ` over all vertices (0 for an empty graph).
    ///
    /// The paper's round bounds are stated in terms of this quantity.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(NodeId::new(v as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / n as f64
        }
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all vertices in index order.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_mis_graph::Graph;
    /// let g = Graph::empty(3);
    /// let ids: Vec<u32> = g.nodes().map(|v| v.raw()).collect();
    /// assert_eq!(ids, vec![0, 1, 2]);
    /// ```
    pub fn nodes(&self) -> NodeIter {
        NodeIter {
            next: 0,
            n: self.node_count() as u32,
        }
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    /// Collects all edges as `(u, v)` raw index pairs with `u < v`.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        self.edges().map(|(u, v)| (u.raw(), v.raw())).collect()
    }

    /// Returns the degree histogram: `hist[d]` = number of vertices with
    /// degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            hist[self.degree(v)] += 1;
        }
        hist
    }
}

/// `len` copies of `value`, or the allocator's refusal.
fn filled<T: Clone>(len: usize, value: T) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    v.resize(len, value);
    Ok(v)
}

/// Iterator over the vertices of a [`Graph`], produced by [`Graph::nodes`].
#[derive(Debug, Clone)]
pub struct NodeIter {
    next: u32,
    n: u32,
}

impl Iterator for NodeIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.n {
            let v = NodeId::new(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.n - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIter {}

/// Iterator over the undirected edges of a [`Graph`], produced by
/// [`Graph::edges`]. Yields each edge once, as `(u, v)` with `u < v`.
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: u32,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let n = self.graph.node_count() as u32;
        while self.u < n {
            let u = NodeId::new(self.u);
            let nbrs = self.graph.neighbors(u);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(7);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        for v in g.nodes() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle_structure() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn from_edges_deduplicates_and_ignores_direction() {
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn from_edges_rejects_self_loop() {
        assert!(Graph::from_edges(3, [(1, 1)]).is_err());
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        assert!(Graph::from_edges(3, [(0, 3)]).is_err());
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let nbrs: Vec<u32> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(nbrs, vec![0, 1, 3, 4]);
    }

    #[test]
    fn edge_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let edges: Vec<(u32, u32)> = g.edge_list();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_histogram_counts() {
        // star with center 0 and 3 leaves
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let hist = g.degree_histogram();
        assert_eq!(hist, vec![0, 3, 0, 1]);
    }

    #[test]
    fn node_id_display_and_conversions() {
        let v: NodeId = 9u32.into();
        assert_eq!(v.to_string(), "v9");
        assert_eq!(v.index(), 9);
        assert_eq!(v.raw(), 9);
    }

    #[test]
    fn fingerprint_distinguishes_graphs_and_equality_ignores_the_memo() {
        use crate::generators;
        let a = generators::erdos_renyi_gnp(30, 0.2, 1);
        let b = generators::erdos_renyi_gnp(30, 0.2, 2);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let (cycle, path) = (generators::cycle(5), generators::path(5));
        assert_ne!(cycle.fingerprint(), path.fingerprint());
        // One copy has the memo filled, the other does not.
        assert_eq!(cycle, generators::cycle(5));
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let g = Graph::empty(2);
        let s = format!("{g:?}");
        assert!(s.contains("Graph"));
        assert!(s.contains("nodes"));
    }
}
