//! Approximate workspace call graph over the token-tree layer.
//!
//! Nodes are the `fn` items [`crate::syntax`] extracts; edges come from
//! name resolution by identifier: a call site `name(…)` links to every
//! workspace `fn name`, narrowed by the qualifier when one is present
//! (`Type::name` links only to fns in an `impl Type`, `Self::name` stays
//! within the caller's impl, and `.name(…)` method calls link only to fns
//! that have a self type). This over-approximates trait dispatch and
//! under-approximates macro-generated calls (macro bodies are opaque) —
//! both deliberate: the observer-purity rule R18 uses the graph for a
//! reachability closure where over-approximation is the safe direction,
//! and the misses are recorded in DESIGN.md §8.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{calls_in, CallSite, FileSyntax};

/// One function node.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning file in the slice passed to [`build`].
    pub file: usize,
    /// Index of the originating [`crate::syntax::FnSpan`] within that
    /// file's `fns` list (for body re-resolution).
    pub item: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub self_type: Option<String>,
    /// True for test code (structural `cfg(test)` or test-target file).
    pub is_test: bool,
    /// 1-based `fn`-keyword line.
    pub start_line: usize,
    /// 1-based body-close line.
    pub end_line: usize,
    /// Raw call sites extracted from the body.
    pub calls: Vec<CallSite>,
}

/// The resolved graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Resolved callee node ids per node (deduplicated, sorted).
    pub callees: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Builds the graph from parsed files. `files` must stay index-aligned
/// with whatever source list the caller scopes findings against.
pub fn build(files: &[FileSyntax]) -> CallGraph {
    let mut nodes = Vec::new();
    for (fi, fs) in files.iter().enumerate() {
        for (si, span) in fs.fns.iter().enumerate() {
            nodes.push(FnNode {
                file: fi,
                item: si,
                name: span.name.clone(),
                self_type: span.self_type.clone(),
                is_test: span.is_test,
                start_line: span.start_line,
                end_line: span.end_line,
                calls: calls_in(fs.body_of(span)),
            });
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.clone()).or_default().push(i);
    }
    let mut graph = CallGraph {
        callees: vec![Vec::new(); nodes.len()],
        nodes,
        by_name,
    };
    for i in 0..graph.nodes.len() {
        let mut targets = BTreeSet::new();
        for call in &graph.nodes[i].calls {
            for t in graph.resolve(i, call) {
                targets.insert(t);
            }
        }
        graph.callees[i] = targets.into_iter().collect();
    }
    graph
}

impl CallGraph {
    /// Resolves one call site from node `caller` to candidate definitions.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let me = &self.nodes[caller];
        cands
            .iter()
            .copied()
            .filter(|&j| {
                let def = &self.nodes[j];
                match call.qual.as_deref() {
                    Some("Self") | Some("self") => def.self_type == me.self_type,
                    Some(q) => def.self_type.as_deref() == Some(q),
                    None if call.method => def.self_type.is_some(),
                    None => true,
                }
            })
            .collect()
    }

    /// Callee closure of `seeds`: everything they can reach through
    /// calls, admitting only nodes for which `admit` holds. Seeds are
    /// included unconditionally.
    pub fn closure(
        &self,
        seeds: impl IntoIterator<Item = usize>,
        admit: impl Fn(&FnNode) -> bool,
    ) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = seeds.into_iter().collect();
        let mut work: Vec<usize> = set.iter().copied().collect();
        while let Some(i) = work.pop() {
            for &n in &self.callees[i] {
                if !set.contains(&n) && admit(&self.nodes[n]) {
                    set.insert(n);
                    work.push(n);
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;
    use crate::syntax::parse_file;

    fn graph_of(srcs: &[(&str, &str)]) -> CallGraph {
        let files: Vec<FileSyntax> = srcs
            .iter()
            .map(|(p, s)| parse_file(&scan_str(p, s)))
            .collect();
        build(&files)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn free_function_calls_resolve_across_files() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/b/src/lib.rs", "pub fn driver() { helper(); }\n"),
        ]);
        let (h, d) = (idx(&g, "helper"), idx(&g, "driver"));
        assert_eq!(g.callees[d], vec![h]);
        assert!(g.callees[h].is_empty());
    }

    #[test]
    fn qualified_calls_narrow_to_the_impl_type() {
        let src = "struct A; struct B;\n\
                   impl A { fn make() {} }\n\
                   impl B { fn make() {} }\n\
                   fn f() { A::make(); }\n";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let f = idx(&g, "f");
        assert_eq!(g.callees[f].len(), 1);
        let target = g.callees[f][0];
        assert_eq!(g.nodes[target].self_type.as_deref(), Some("A"));
    }

    #[test]
    fn method_calls_link_only_to_methods() {
        let src = "fn send() {}\n\
                   impl Round { fn send(&mut self) {} }\n\
                   fn f(r: &mut Round) { r.send(); }\n";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let f = idx(&g, "f");
        assert_eq!(g.callees[f].len(), 1);
        assert_eq!(
            g.nodes[g.callees[f][0]].self_type.as_deref(),
            Some("Round"),
            "the free fn `send` is not a method-call candidate"
        );
    }

    #[test]
    fn closure_walks_callees_transitively() {
        let src = "fn sink() {}\n\
                   fn mid() { sink(); }\n\
                   fn top() { mid(); }\n\
                   fn unrelated() {}\n";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let reach = g.closure([idx(&g, "top")], |_| true);
        let names: Vec<&str> = reach.iter().map(|&i| g.nodes[i].name.as_str()).collect();
        assert_eq!(names, vec!["sink", "mid", "top"]);
    }

    #[test]
    fn closure_admit_gate_blocks_expansion() {
        let src = "fn top() { t(); }\n\
                   #[cfg(test)]\n\
                   mod tests { pub fn t() { sink(); } }\n\
                   fn sink() {}\n";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let reach = g.closure([idx(&g, "top")], |n| !n.is_test);
        assert_eq!(reach.len(), 1, "test callees are not admitted");
    }
}
