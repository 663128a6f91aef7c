//! Sequential greedy MIS.
//!
//! The folklore linear-time algorithm: scan vertices in a fixed order and
//! take each vertex whose neighbors are all untaken. It serves three roles
//! here: a ground-truth oracle for tests, the leader's subroutine in the
//! clean-up step of §2.4 (the leader receives the `O(n)`-edge residual graph
//! and solves it centrally), and the centralized finisher of the low-degree
//! fast path (§2.5).

use cc_mis_graph::{Graph, NodeId};

/// Greedy MIS scanning vertices in id order.
///
/// # Example
///
/// ```
/// use cc_mis_core::greedy::greedy_mis;
/// use cc_mis_graph::{checks, generators};
///
/// let g = generators::cycle(7);
/// let mis = greedy_mis(&g);
/// assert!(checks::is_maximal_independent_set(&g, &mis));
/// ```
pub fn greedy_mis(g: &Graph) -> Vec<NodeId> {
    let order: Vec<NodeId> = g.nodes().collect();
    greedy_mis_with_order(g, &order)
}

/// Greedy MIS scanning vertices in the given order (a permutation of a
/// subset of the vertices; vertices not listed are never taken but still
/// block their listed neighbors — pass a full permutation for a true MIS).
///
/// # Panics
///
/// Panics if `order` contains an out-of-range vertex.
pub fn greedy_mis_with_order(g: &Graph, order: &[NodeId]) -> Vec<NodeId> {
    let mut blocked = vec![false; g.node_count()];
    let mut mis = Vec::new();
    for &v in order {
        if !blocked[v.index()] {
            mis.push(v);
            blocked[v.index()] = true;
            for &u in g.neighbors(v) {
                blocked[u.index()] = true;
            }
        }
    }
    mis.sort_unstable();
    mis
}

/// Greedy MIS over an explicit residual instance: `residual` lists the
/// undecided vertices, ascending; `edges` are the residual edges (both
/// endpoints residual). This is exactly the input the clean-up leader of
/// §2.4 assembles from routed packets. Vertices are scanned in id order,
/// and the work is proportional to the residual instance, not to `n`.
///
/// # Panics
///
/// Panics if an edge has an endpoint outside `residual`.
pub fn greedy_mis_on_residual(residual: &[NodeId], edges: &[(NodeId, NodeId)]) -> Vec<NodeId> {
    debug_assert!(
        residual.windows(2).all(|w| w[0] < w[1]),
        "the residual is strictly ascending"
    );
    let at = |v: NodeId| {
        residual
            .binary_search(&v)
            .expect("residual edges join residual vertices")
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); residual.len()];
    for &(u, v) in edges {
        let (a, b) = (at(u), at(v));
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut blocked = vec![false; residual.len()];
    let mut mis = Vec::new();
    for (a, &v) in residual.iter().enumerate() {
        if !blocked[a] {
            mis.push(v);
            blocked[a] = true;
            for &b in &adj[a] {
                blocked[b] = true;
            }
        }
    }
    mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::{checks, generators};

    #[test]
    fn greedy_is_mis_on_families() {
        let graphs = vec![
            generators::cycle(9),
            generators::complete(6),
            generators::star(8),
            generators::grid(4, 5),
            generators::erdos_renyi_gnp(80, 0.1, 3),
            generators::disjoint_cliques(4, 5),
            Graph::empty(5),
        ];
        for g in &graphs {
            let mis = greedy_mis(g);
            assert!(checks::is_maximal_independent_set(g, &mis), "{g:?}");
        }
    }

    use cc_mis_graph::Graph;

    #[test]
    fn id_order_takes_lowest_ids() {
        let g = generators::path(4);
        assert_eq!(greedy_mis(&g), vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn custom_order_changes_selection() {
        let g = generators::path(3); // 0-1-2
        let mis = greedy_mis_with_order(&g, &[NodeId::new(1), NodeId::new(0), NodeId::new(2)]);
        assert_eq!(mis, vec![NodeId::new(1)]);
        assert!(checks::is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn residual_variant_ignores_dead_vertices() {
        // 5 vertices; 2 is dead; residual edges form 0-1 and 3-4.
        let residual = [0, 1, 3, 4].map(NodeId::new);
        let edges = [
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(3), NodeId::new(4)),
        ];
        let mis = greedy_mis_on_residual(&residual, &edges);
        assert_eq!(mis, vec![NodeId::new(0), NodeId::new(3)]);
    }

    #[test]
    fn residual_variant_takes_isolated_alive() {
        let residual = [0, 2].map(NodeId::new);
        let mis = greedy_mis_on_residual(&residual, &[]);
        assert_eq!(mis, vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn clique_yields_single_vertex() {
        let g = generators::complete(10);
        assert_eq!(greedy_mis(&g).len(), 1);
    }
}
