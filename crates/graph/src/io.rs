//! Reading and writing graphs in common text formats.
//!
//! Two formats are supported:
//!
//! * **Edge list** — one `u v` pair per line, `#` comments, with an
//!   optional first line `n <count>` pinning the vertex count (otherwise
//!   it is `max id + 1`).
//! * **DIMACS** — the classic `p edge <n> <m>` / `e <u> <v>` format
//!   (1-indexed on disk, 0-indexed in memory).
//!
//! Both readers are streaming (`R: Read`) and validate through
//! [`GraphBuilder`], so malformed input yields a structured error rather
//! than a bad graph. A vertex count is the one number in a file that sizes
//! an allocation by itself (a graph on `n` vertices holds `O(n)` words
//! however few edges it has), so both readers refuse a count above
//! [`MAX_NODES`] before allocating anything, and allocate the graph
//! fallibly.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// The most vertices a graph file may declare (or imply by its largest
/// endpoint): `2^26`, 64 times the largest graph the experiments and
/// scaling sweeps build. Its `O(n)` arrays then stay near 1 GiB at most,
/// so a 20-byte header cannot ask for tens of gigabytes.
pub const MAX_NODES: usize = 1 << 26;

/// Error produced when parsing a graph file.
#[derive(Debug)]
pub enum ParseGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally invalid edge (self-loop / out-of-range endpoint).
    Graph {
        /// 1-based line number.
        line: usize,
        /// The underlying validation error.
        source: GraphError,
    },
    /// The vertex count set on `line` is above [`MAX_NODES`], or the
    /// allocator refused the graph's arrays.
    TooLarge {
        /// 1-based line number of the count (the header, or the largest
        /// endpoint when there is no header).
        line: usize,
        /// The vertex count asked for.
        nodes: usize,
    },
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::Io(e) => write!(f, "i/o error: {e}"),
            ParseGraphError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ParseGraphError::Graph { line, source } => {
                write!(f, "invalid edge on line {line}: {source}")
            }
            ParseGraphError::TooLarge { line, nodes } => write!(
                f,
                "graph too large on line {line}: {nodes} vertices (at most {MAX_NODES} are read)"
            ),
        }
    }
}

impl Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseGraphError::Io(e) => Some(e),
            ParseGraphError::Graph { source, .. } => Some(source),
            ParseGraphError::Syntax { .. } | ParseGraphError::TooLarge { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseGraphError {
    fn from(e: std::io::Error) -> Self {
        ParseGraphError::Io(e)
    }
}

/// Reads an edge-list graph. Pass `&mut reader` to keep ownership.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failure, unparsable lines, self-loops,
/// out-of-range endpoints (when an `n` header is present), or a vertex
/// count above [`MAX_NODES`].
///
/// # Example
///
/// ```
/// use cc_mis_graph::io::read_edge_list;
///
/// let text = "n 4\n# a comment\n0 1\n2 3\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), cc_mis_graph::io::ParseGraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, ParseGraphError> {
    let buf = BufReader::new(reader);
    // The declared count and the line that set it.
    let mut declared_n: Option<(usize, usize)> = None;
    let mut edges: Vec<(u32, u32, usize)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut max_line = 0;
    let mut any_node = false;
    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let first = parts.next().expect("nonempty line has a token");
        if first == "n" {
            let count = parts
                .next()
                .ok_or_else(|| ParseGraphError::Syntax {
                    line: line_no,
                    message: "expected a count after 'n'".into(),
                })?
                .parse::<usize>()
                .map_err(|e| ParseGraphError::Syntax {
                    line: line_no,
                    message: format!("bad node count: {e}"),
                })?;
            declared_n = Some((count, line_no));
            continue;
        }
        let u = first.parse::<u32>().map_err(|e| ParseGraphError::Syntax {
            line: line_no,
            message: format!("bad endpoint: {e}"),
        })?;
        let v = parts
            .next()
            .ok_or_else(|| ParseGraphError::Syntax {
                line: line_no,
                message: "expected two endpoints".into(),
            })?
            .parse::<u32>()
            .map_err(|e| ParseGraphError::Syntax {
                line: line_no,
                message: format!("bad endpoint: {e}"),
            })?;
        if u.max(v) >= max_id {
            max_id = u.max(v);
            max_line = line_no;
        }
        any_node = true;
        edges.push((u, v, line_no));
    }
    let (n, n_line) = declared_n.unwrap_or(if any_node {
        (max_id as usize + 1, max_line)
    } else {
        (0, 0)
    });
    let too_large = || ParseGraphError::TooLarge {
        line: n_line,
        nodes: n,
    };
    if n > MAX_NODES {
        return Err(too_large());
    }
    let mut b = GraphBuilder::new(n);
    for (u, v, line) in edges {
        b.add_edge(NodeId::new(u), NodeId::new(v))
            .map_err(|source| ParseGraphError::Graph { line, source })?;
    }
    b.try_build().map_err(|_| too_large())
}

/// Writes a graph as an edge list (with an `n` header so isolated trailing
/// vertices round-trip).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "n {}", g.node_count())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{} {}", u.raw(), v.raw())?;
    }
    Ok(())
}

/// Reads a DIMACS `p edge` file (1-indexed vertices on disk).
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failure, unparsable lines, a missing
/// `p` line, zero vertex ids, self-loops, out-of-range endpoints, or a
/// vertex count above [`MAX_NODES`].
///
/// # Example
///
/// ```
/// use cc_mis_graph::io::read_dimacs;
///
/// let text = "c example\np edge 3 2\ne 1 2\ne 2 3\n";
/// let g = read_dimacs(text.as_bytes())?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), cc_mis_graph::io::ParseGraphError>(())
/// ```
pub fn read_dimacs<R: Read>(reader: R) -> Result<Graph, ParseGraphError> {
    let buf = BufReader::new(reader);
    // The builder and the line of its `p` line.
    let mut builder: Option<(GraphBuilder, usize)> = None;
    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("p ") {
            let mut parts = rest.split_whitespace();
            let kind = parts.next().unwrap_or("");
            if kind != "edge" && kind != "col" {
                return Err(ParseGraphError::Syntax {
                    line: line_no,
                    message: format!("unsupported problem kind '{kind}'"),
                });
            }
            let n = parts
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| ParseGraphError::Syntax {
                    line: line_no,
                    message: "bad vertex count in p line".into(),
                })?;
            if n > MAX_NODES {
                return Err(ParseGraphError::TooLarge {
                    line: line_no,
                    nodes: n,
                });
            }
            builder = Some((GraphBuilder::new(n), line_no));
        } else if let Some(rest) = trimmed.strip_prefix("e ") {
            let (b, _) = builder.as_mut().ok_or_else(|| ParseGraphError::Syntax {
                line: line_no,
                message: "edge before p line".into(),
            })?;
            let mut parts = rest.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<u32, ParseGraphError> {
                tok.and_then(|s| s.parse::<u32>().ok())
                    .filter(|&x| x >= 1)
                    .ok_or_else(|| ParseGraphError::Syntax {
                        line: line_no,
                        message: "bad 1-indexed endpoint".into(),
                    })
            };
            let u = parse(parts.next())?;
            let v = parse(parts.next())?;
            b.add_edge(NodeId::new(u - 1), NodeId::new(v - 1))
                .map_err(|source| ParseGraphError::Graph {
                    line: line_no,
                    source,
                })?;
        } else {
            return Err(ParseGraphError::Syntax {
                line: line_no,
                message: format!("unrecognized line '{trimmed}'"),
            });
        }
    }
    let (builder, line) = builder.ok_or_else(|| ParseGraphError::Syntax {
        line: 0,
        message: "missing p line".into(),
    })?;
    let nodes = builder.node_count();
    builder
        .try_build()
        .map_err(|_| ParseGraphError::TooLarge { line, nodes })
}

/// Writes a graph in DIMACS `p edge` format (1-indexed on disk).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_dimacs<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "p edge {} {}", g.node_count(), g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(writer, "e {} {}", u.raw() + 1, v.raw() + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::erdos_renyi_gnp(40, 0.1, 3);
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let back = read_edge_list(bytes.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_without_header_infers_n() {
        let g = read_edge_list("0 1\n5 2\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_list_empty_input_is_empty_graph() {
        let g = read_edge_list("# nothing\n\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn edge_list_reports_line_numbers() {
        let err = read_edge_list("0 1\nbogus\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, ParseGraphError::Syntax { line: 2, .. }),
            "{err}"
        );
        let err = read_edge_list("n 2\n0 5\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, ParseGraphError::Graph { line: 2, .. }),
            "{err}"
        );
        let err = read_edge_list("3 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = generators::grid(4, 5);
        let mut bytes = Vec::new();
        write_dimacs(&g, &mut bytes).unwrap();
        let back = read_dimacs(bytes.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dimacs_rejects_malformed() {
        assert!(read_dimacs("e 1 2\n".as_bytes()).is_err()); // edge before p
        assert!(read_dimacs("p edge 3 1\ne 0 1\n".as_bytes()).is_err()); // 0-index
        assert!(read_dimacs("p matching 3 1\n".as_bytes()).is_err()); // kind
        assert!(read_dimacs("".as_bytes()).is_err()); // no p line
        assert!(read_dimacs("p edge 3 1\nx 1 2\n".as_bytes()).is_err()); // junk
    }

    #[test]
    fn dimacs_comments_ignored() {
        let g = read_dimacs("c hi\np edge 2 1\nc mid\ne 1 2\n".as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    /// A declared (or implied) vertex count above `MAX_NODES` is refused
    /// before the graph is allocated: 4e9 vertices would take 32 GB of
    /// offsets alone.
    #[test]
    fn huge_vertex_counts_are_refused_before_allocating() {
        let too_large = |err: ParseGraphError, at: usize| {
            assert!(
                matches!(err, ParseGraphError::TooLarge { line, nodes: 4_000_000_000 } if line == at),
                "{err}"
            );
        };
        too_large(
            read_edge_list("n 4000000000\n0 1\n".as_bytes()).unwrap_err(),
            1,
        );
        too_large(
            read_edge_list("0 1\n0 3999999999\n".as_bytes()).unwrap_err(),
            2,
        );
        too_large(
            read_dimacs("p edge 4000000000 1\ne 1 2\n".as_bytes()).unwrap_err(),
            1,
        );
        let err = read_edge_list(format!("n {}\n", MAX_NODES + 1).as_bytes()).unwrap_err();
        assert!(err.to_string().contains("too large on line 1"), "{err}");
    }

    #[test]
    fn error_type_is_well_behaved() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<ParseGraphError>();
        let e = ParseGraphError::Syntax {
            line: 3,
            message: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
