//! Structural graph operations.
//!
//! These are the building blocks the algorithms in `cc-mis-core` rely on:
//!
//! * [`induced_subgraph`] — restriction to a vertex subset (used for the
//!   sampled set `S` of §2.4 and the residual graph of the clean-up step).
//! * [`power`] / [`square`] — the graph powers `G^k` underlying the
//!   graph-exponentiation primitive (Lemma 2.14).
//! * [`line_graph`] and [`coloring_product`] — the standard reductions of
//!   [Linial, SICOMP'92] from maximal matching and `(Δ+1)`-coloring to MIS.
//! * [`connected_components`] — shattering analysis (Lemma 2.11) looks at
//!   the components of the residual graph.

use std::collections::VecDeque;

use crate::{Graph, GraphBuilder, NodeId};

/// The subgraph induced by `vertices`, together with the mapping from new
/// vertex indices back to the original ones.
///
/// Duplicate entries in `vertices` are an error in the caller's logic and
/// trigger a panic, because silently deduplicating would desynchronize the
/// returned mapping.
///
/// # Panics
///
/// Panics if `vertices` contains duplicates or out-of-range nodes.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{generators, ops, NodeId};
///
/// let g = generators::cycle(5);
/// let (sub, back) = ops::induced_subgraph(&g, &[NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
/// assert_eq!(sub.node_count(), 3);
/// assert_eq!(sub.edge_count(), 1); // only {0,1} survives
/// assert_eq!(back[0], NodeId::new(0));
/// ```
pub fn induced_subgraph(g: &Graph, vertices: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let mut index_of: Vec<Option<u32>> = vec![None; g.node_count()];
    for (i, &v) in vertices.iter().enumerate() {
        assert!(v.index() < g.node_count(), "vertex {v} out of range");
        assert!(
            index_of[v.index()].is_none(),
            "duplicate vertex {v} in induced_subgraph"
        );
        index_of[v.index()] = Some(i as u32);
    }
    let mut b = GraphBuilder::new(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        for &u in g.neighbors(v) {
            if let Some(j) = index_of[u.index()] {
                if (i as u32) < j {
                    b.add_edge(NodeId::new(i as u32), NodeId::new(j))
                        .expect("induced edges are valid");
                }
            }
        }
    }
    (b.build(), vertices.to_vec())
}

/// The `k`-th power `G^k`: same vertex set, an edge between every pair of
/// distinct vertices at distance `≤ k` in `G`.
///
/// Computed by `⌈log₂ k⌉` squarings plus one multiply, mirroring how the
/// congested-clique algorithm itself gathers neighborhoods (Lemma 2.14).
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{generators, ops, NodeId};
/// let p = generators::path(5); // 0-1-2-3-4
/// let p2 = ops::power(&p, 2);
/// assert!(p2.has_edge(NodeId::new(0), NodeId::new(2)));
/// assert!(!p2.has_edge(NodeId::new(0), NodeId::new(3)));
/// ```
pub fn power(g: &Graph, k: usize) -> Graph {
    assert!(k > 0, "graph power requires k >= 1");
    // BFS to depth k from each vertex. For the moderate sizes and small k
    // used here this is simpler and no slower than repeated squaring.
    let n = g.node_count();
    let mut b = GraphBuilder::new(n);
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    for s in g.nodes() {
        dist[s.index()] = 0;
        touched.push(s.index());
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            if d as usize >= k {
                continue;
            }
            for &u in g.neighbors(v) {
                if dist[u.index()] == u32::MAX {
                    dist[u.index()] = d + 1;
                    touched.push(u.index());
                    queue.push_back(u);
                }
            }
        }
        for &t in &touched {
            if t != s.index() {
                let (a, bb) = (s.index().min(t) as u32, s.index().max(t) as u32);
                b.add_edge(NodeId::new(a), NodeId::new(bb))
                    .expect("power edge");
            }
            dist[t] = u32::MAX;
        }
        touched.clear();
    }
    b.build()
}

/// The square `G²` (edges between vertices at distance ≤ 2). Equivalent to
/// [`power`]`(g, 2)` but computed by direct neighbor merging.
pub fn square(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            if v < u {
                b.add_edge(v, u).expect("original edge");
            }
            for &w in g.neighbors(u) {
                if v < w {
                    b.add_edge(v, w).expect("2-hop edge");
                }
            }
        }
    }
    b.build()
}

/// Connected components: returns `(component_id_per_vertex, component_count)`.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{generators, ops};
/// let g = generators::disjoint_cliques(3, 4);
/// let (ids, count) = ops::connected_components(&g);
/// assert_eq!(count, 3);
/// assert_eq!(ids[0], ids[1]);
/// assert_ne!(ids[0], ids[4]);
/// ```
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    for s in g.nodes() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let id = count;
        count += 1;
        comp[s.index()] = id;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if comp[u.index()] == usize::MAX {
                    comp[u.index()] = id;
                    queue.push_back(u);
                }
            }
        }
    }
    (comp, count)
}

/// Sizes of all connected components, sorted descending.
pub fn component_sizes(g: &Graph) -> Vec<usize> {
    let (ids, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for id in ids {
        sizes[id] += 1;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// The line graph `L(G)`: one vertex per edge of `G`, adjacent when the
/// edges share an endpoint. Returns the line graph together with the list
/// mapping each line-graph vertex to its original edge.
///
/// An MIS of `L(G)` is exactly a maximal matching of `G` — the standard
/// reduction the paper cites from [Linial, SICOMP'92].
///
/// # Example
///
/// ```
/// use cc_mis_graph::{generators, ops};
/// let g = generators::path(4); // edges {0,1},{1,2},{2,3}
/// let (lg, edges) = ops::line_graph(&g);
/// assert_eq!(lg.node_count(), 3);
/// assert_eq!(lg.edge_count(), 2); // consecutive edges share endpoints
/// assert_eq!(edges.len(), 3);
/// ```
pub fn line_graph(g: &Graph) -> (Graph, Vec<(NodeId, NodeId)>) {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    // For each vertex, the indices of incident edges.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); g.node_count()];
    for (i, &(u, v)) in edges.iter().enumerate() {
        incident[u.index()].push(i as u32);
        incident[v.index()].push(i as u32);
    }
    let mut b = GraphBuilder::new(edges.len());
    for list in &incident {
        for (a, &i) in list.iter().enumerate() {
            for &j in &list[a + 1..] {
                b.add_edge(NodeId::new(i), NodeId::new(j))
                    .expect("line edge");
            }
        }
    }
    (b.build(), edges)
}

/// The coloring product `G □ K_c`: vertex set `V × {0..c}`, with
/// `(v,i) ~ (v,j)` for `i ≠ j` and `(u,i) ~ (v,i)` for every edge `{u,v}`.
///
/// For `c = Δ+1`, an MIS of the product selects exactly one color per vertex
/// and no two adjacent vertices share a color — i.e. a proper
/// `(Δ+1)`-coloring (the standard reduction the paper cites from `[Linial]`).
///
/// Vertex `(v, i)` is encoded as index `v * c + i`; use [`decode_product`] to
/// invert.
pub fn coloring_product(g: &Graph, c: usize) -> Graph {
    assert!(c >= 1, "need at least one color");
    let n = g.node_count();
    let id = |v: usize, i: usize| (v * c + i) as u32;
    let mut b = GraphBuilder::new(n * c);
    for v in 0..n {
        for i in 0..c {
            for j in (i + 1)..c {
                b.add_edge(NodeId::new(id(v, i)), NodeId::new(id(v, j)))
                    .expect("color-clique edge");
            }
        }
    }
    for (u, v) in g.edges() {
        for i in 0..c {
            b.add_edge(NodeId::new(id(u.index(), i)), NodeId::new(id(v.index(), i)))
                .expect("cross edge");
        }
    }
    b.build()
}

/// Decodes a [`coloring_product`] vertex index back to `(vertex, color)`.
pub fn decode_product(id: NodeId, c: usize) -> (NodeId, usize) {
    (NodeId::new((id.index() / c) as u32), id.index() % c)
}

/// Restriction of `g` to the edges whose *both* endpoints satisfy `keep`.
/// Unlike [`induced_subgraph`], the vertex set (and numbering) is unchanged;
/// discarded vertices simply become isolated.
///
/// A direct CSR restriction: each kept node's sorted adjacency, filtered to
/// kept neighbours, is already sorted and unique, so nothing is re-sorted
/// or deduplicated. `keep` is called once per node.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{generators, ops, NodeId};
///
/// let g = generators::cycle(4);
/// let f = ops::filter_vertices(&g, |v| v != NodeId::new(0));
/// assert_eq!(f.node_count(), 4);
/// assert_eq!(f.edge_count(), 2); // {1,2} and {2,3}
/// assert_eq!(f.degree(NodeId::new(0)), 0);
/// ```
pub fn filter_vertices(g: &Graph, keep: impl Fn(NodeId) -> bool) -> Graph {
    let kept: Vec<bool> = g.nodes().map(keep).collect();
    let mut offsets = Vec::with_capacity(g.node_count() + 1);
    let mut adj = Vec::new();
    offsets.push(0);
    for v in g.nodes() {
        if kept[v.index()] {
            adj.extend(g.neighbors(v).iter().filter(|u| kept[u.index()]));
        }
        offsets.push(adj.len());
    }
    Graph::from_csr(offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn induced_subgraph_maps_back() {
        let g = generators::complete(5);
        let verts = [NodeId::new(1), NodeId::new(3), NodeId::new(4)];
        let (sub, back) = induced_subgraph(&g, &verts);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(back, verts.to_vec());
    }

    #[test]
    #[should_panic(expected = "duplicate vertex")]
    fn induced_subgraph_rejects_duplicates() {
        let g = generators::complete(3);
        induced_subgraph(&g, &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn power_of_path_matches_distance() {
        let p = generators::path(8);
        for k in 1..=4 {
            let pk = power(&p, k);
            for u in 0..8u32 {
                for v in (u + 1)..8u32 {
                    let expected = (v - u) as usize <= k;
                    assert_eq!(
                        pk.has_edge(NodeId::new(u), NodeId::new(v)),
                        expected,
                        "k={k} u={u} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn square_equals_power_two() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnp(40, 0.08, seed);
            assert_eq!(square(&g), power(&g, 2), "seed {seed}");
        }
    }

    #[test]
    fn power_one_is_identity() {
        let g = generators::erdos_renyi_gnp(30, 0.15, 1);
        assert_eq!(power(&g, 1), g);
    }

    #[test]
    fn power_saturates_to_component_cliques() {
        let g = generators::disjoint_cliques(2, 3);
        let big = power(&g, 10);
        // Each clique stays its own component-clique.
        assert_eq!(big.edge_count(), 2 * 3);
        assert!(!big.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn components_of_union() {
        let g = generators::disjoint_cliques(4, 3);
        let (_, count) = connected_components(&g);
        assert_eq!(count, 4);
        assert_eq!(component_sizes(&g), vec![3, 3, 3, 3]);
    }

    #[test]
    fn components_of_empty_graph() {
        let g = Graph::empty(5);
        let (ids, count) = connected_components(&g);
        assert_eq!(count, 5);
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = generators::star(5); // 4 edges all sharing the center
        let (lg, _) = line_graph(&g);
        assert_eq!(lg.node_count(), 4);
        assert_eq!(lg.edge_count(), 6); // K_4
    }

    #[test]
    fn line_graph_of_cycle_is_cycle() {
        let g = generators::cycle(6);
        let (lg, _) = line_graph(&g);
        assert_eq!(lg.node_count(), 6);
        assert_eq!(lg.edge_count(), 6);
        assert!(lg.nodes().all(|v| lg.degree(v) == 2));
    }

    #[test]
    fn coloring_product_structure() {
        let g = generators::path(3); // Δ = 2, so c = 3
        let prod = coloring_product(&g, 3);
        assert_eq!(prod.node_count(), 9);
        // per-vertex clique edges: 3 * C(3,2) = 9; cross edges: 2 edges * 3 = 6
        assert_eq!(prod.edge_count(), 9 + 6);
        let (v, c) = decode_product(NodeId::new(7), 3);
        assert_eq!((v.raw(), c), (2, 1));
    }

    #[test]
    fn filter_vertices_isolates_dropped() {
        let g = generators::complete(4);
        let f = filter_vertices(&g, |v| v.raw() != 0);
        assert_eq!(f.node_count(), 4);
        assert_eq!(f.edge_count(), 3); // K_3 among {1,2,3}
        assert_eq!(f.degree(NodeId::new(0)), 0);
    }
}
