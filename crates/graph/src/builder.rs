//! Incremental, validated graph construction.

use std::collections::{BTreeSet, TryReserveError};
use std::error::Error;
use std::fmt;

use crate::{Graph, NodeId};

/// Error produced when constructing a [`Graph`] from invalid input.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{GraphBuilder, GraphError, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// let err = b.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
/// assert!(matches!(err, GraphError::SelfLoop { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An edge connected a vertex to itself; simple graphs forbid this.
    SelfLoop {
        /// The offending vertex.
        node: NodeId,
    },
    /// An edge endpoint was `>= n` for a graph with `n` vertices.
    NodeOutOfRange {
        /// The offending vertex.
        node: NodeId,
        /// The number of vertices in the graph under construction.
        node_count: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop at {node} is not allowed in a simple graph")
            }
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "{node} is out of range for a graph with {node_count} vertices"
                )
            }
        }
    }
}

impl Error for GraphError {}

/// Builds a [`Graph`] incrementally, validating and deduplicating edges.
///
/// # Example
///
/// ```
/// use cc_mis_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId::new(0), NodeId::new(1))?;
/// b.add_edge(NodeId::new(1), NodeId::new(0))?; // duplicate, ignored
/// b.add_edge(NodeId::new(2), NodeId::new(3))?;
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), cc_mis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            node_count: n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of vertices of the graph under construction.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was new,
    /// `false` if it was already present.
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::NodeOutOfRange`] if either endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w.index() >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    node_count: self.node_count,
                });
            }
        }
        let key = if u < v {
            (u.raw(), v.raw())
        } else {
            (v.raw(), u.raw())
        };
        Ok(self.edges.insert(key))
    }

    /// Whether the undirected edge `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v {
            (u.raw(), v.raw())
        } else {
            (v.raw(), u.raw())
        };
        self.edges.contains(&key)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if the graph's arrays cannot be allocated; see
    /// [`GraphBuilder::try_build`].
    pub fn build(self) -> Graph {
        Graph::from_sorted_unique_edges(self.node_count, self.edges.iter().copied())
    }

    /// [`GraphBuilder::build`] for a vertex count that came from outside:
    /// the `O(n)` arrays are allocated fallibly, so a count the allocator
    /// refuses is an error instead of an abort.
    ///
    /// # Errors
    ///
    /// Returns the allocator's [`TryReserveError`] if the arrays cannot be
    /// allocated.
    pub fn try_build(self) -> Result<Graph, TryReserveError> {
        Graph::try_from_sorted_unique_edges(self.node_count, self.edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_counts() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        assert!(!b.add_edge(NodeId::new(1), NodeId::new(0)).unwrap());
        assert_eq!(b.edge_count(), 1);
        assert!(b.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!b.has_edge(NodeId::new(1), NodeId::new(2)));
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
        assert_eq!(
            err.to_string(),
            "self-loop at v1 is not allowed in a simple graph"
        );
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfRange { node_count: 2, .. }
        ));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<GraphError>();
    }

    #[test]
    fn default_builder_is_empty() {
        let b = GraphBuilder::default();
        assert_eq!(b.node_count(), 0);
        let g = b.build();
        assert!(g.is_empty());
    }

    #[test]
    fn build_empty_with_nodes() {
        let g = GraphBuilder::new(10).build();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 0);
    }
}
