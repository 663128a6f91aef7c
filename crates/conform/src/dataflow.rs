//! Intraprocedural dataflow layer: rules R18 and R19.
//!
//! The lexical layer sees lines, the structural layer sees call edges;
//! neither sees what a closure captures or what an observer reaches. This
//! module builds small, purpose-specific def-use chains directly on the
//! token trees of [`crate::syntax`] and checks two invariants of
//! observers and node-parallel helpers that nothing else enforces:
//!
//! * **R18 observer purity** — methods of `RoundObserver` impls must not
//!   reach `RoundLedger` charging or `Round` mutation through the call
//!   graph: observers are diagnostics-only.
//! * **R19 shard isolation** — closures handed to the `par_nodes` shard
//!   helpers may only index captured state through their shard-provided
//!   slice arguments.
//!
//! Both analyses are deliberately *linear* approximations: trees are
//! walked in textual order, branches are not path-split, and helper
//! inlining stops at depth one. Every approximation errs toward false
//! negatives; DESIGN.md §12 documents the known shapes.

use crate::callgraph::{CallGraph, FnNode};
use crate::diag::Finding;
use crate::syntax::{group_of, ident_of, line_of, punct_of, FileSyntax, Group, Tree};
use std::collections::BTreeSet;

/// Runs the dataflow rules over the parsed workspace.
pub fn check(syntaxes: &[FileSyntax], graph: &CallGraph, findings: &mut Vec<Finding>) {
    check_r18(syntaxes, graph, findings);
    check_r19(syntaxes, findings);
}

// ---------------------------------------------------------------------------
// Shared token-tree helpers
// ---------------------------------------------------------------------------

/// A call site located inside a sibling slice, turbofish-aware (unlike
/// [`crate::syntax::calls_in`], which skips `take_outbox::<M>(…)` calls).
pub(crate) struct CallAt<'a> {
    pub(crate) name: &'a str,
    /// True for `.name(…)` method calls.
    pub(crate) method: bool,
    pub(crate) args: &'a Group,
    pub(crate) line: usize,
    /// Index just past the argument group.
    pub(crate) after: usize,
}

/// Matches `ident [::<…>] (args)` at `i`, rejecting `fn` definitions,
/// keywords, and macro names.
pub(crate) fn call_at<'a>(trees: &'a [Tree], i: usize) -> Option<CallAt<'a>> {
    let name = ident_of(&trees[i])?;
    if crate::syntax::is_keyword(name) || name.starts_with('\'') {
        return None;
    }
    if i > 0 && ident_of(&trees[i - 1]) == Some("fn") {
        return None;
    }
    let mut j = i + 1;
    // Turbofish: `::<…>` between the name and the argument list.
    if punct_of(trees.get(j)?) == Some(':') && punct_of(trees.get(j + 1)?) == Some(':') {
        if punct_of(trees.get(j + 2)?) != Some('<') {
            return None; // a path segment, not a call
        }
        j = skip_angles(trees, j + 2);
    }
    let args = match trees.get(j) {
        Some(Tree::Group(g)) if g.delim == '(' => g,
        _ => return None,
    };
    let method = i > 0 && punct_of(&trees[i - 1]) == Some('.');
    Some(CallAt {
        name,
        method,
        args,
        line: line_of(&trees[i]),
        after: j + 1,
    })
}

/// Local copy of the syntax layer's generic-run skipper (it is private
/// there): returns the index just past the `>` matching the `<` at `i`.
fn skip_angles(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    let mut prev = ' ';
    while i < trees.len() {
        match punct_of(&trees[i]) {
            Some('<') => depth += 1,
            Some('>') if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        prev = punct_of(&trees[i]).unwrap_or(' ');
        i += 1;
    }
    i
}

/// True if `name` occurs as an identifier anywhere under `trees`.
pub(crate) fn contains_ident(trees: &[Tree], name: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(_) => ident_of(t) == Some(name),
        Tree::Group(g) => contains_ident(&g.children, name),
    })
}

/// Splits a sibling slice on top-level commas.
pub(crate) fn split_commas(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in trees.iter().enumerate() {
        if punct_of(t) == Some(',') {
            out.push(&trees[start..i]);
            start = i + 1;
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Binding identifiers of a pattern slice: every identifier before the
/// first top-level `:` (type ascription), recursing into tuple/struct
/// pattern groups, excluding keywords (`mut`, `ref`, …) and `_`.
pub(crate) fn pattern_idents(trees: &[Tree], out: &mut Vec<String>) {
    let upto = trees
        .iter()
        .position(|t| punct_of(t) == Some(':'))
        .unwrap_or(trees.len());
    for t in &trees[..upto] {
        match t {
            Tree::Leaf(_) => {
                if let Some(id) = ident_of(t) {
                    if !crate::syntax::is_keyword(id) && id != "_" && !id.starts_with('\'') {
                        out.push(id.to_string());
                    }
                }
            }
            Tree::Group(g) => {
                for seg in split_commas(&g.children) {
                    pattern_idents(seg, out);
                }
            }
        }
    }
}

/// The line span of an `impl Trait for Type { … }` block, located by token
/// scan (the syntax layer drops the trait name of an impl).
pub(crate) struct TraitImpl {
    pub(crate) open_line: usize,
    pub(crate) close_line: usize,
}

pub(crate) fn trait_impls(fs: &FileSyntax, trait_name: &str) -> Vec<TraitImpl> {
    let mut out = Vec::new();
    scan_trait_impls(&fs.roots, trait_name, &mut out);
    out
}

fn scan_trait_impls(trees: &[Tree], trait_name: &str, out: &mut Vec<TraitImpl>) {
    let mut i = 0;
    while i < trees.len() {
        if ident_of(&trees[i]) == Some("impl") {
            let mut j = i + 1;
            if punct_of(trees.get(j).unwrap_or(&trees[i])) == Some('<') {
                j = skip_angles(trees, j);
            }
            let mut saw_trait = false;
            let mut after_for = false;
            while j < trees.len() {
                if let Some(g) = group_of(&trees[j]) {
                    if g.delim == '{' {
                        if saw_trait && after_for {
                            out.push(TraitImpl {
                                open_line: g.open_line,
                                close_line: g.close_line,
                            });
                        }
                        break;
                    }
                    j += 1;
                    continue;
                }
                if punct_of(&trees[j]) == Some('<') {
                    j = skip_angles(trees, j);
                    continue;
                }
                match ident_of(&trees[j]) {
                    Some(id) if id == trait_name && !after_for => saw_trait = true,
                    Some("for") => after_for = true,
                    _ => {}
                }
                if punct_of(&trees[j]) == Some(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else if let Some(g) = group_of(&trees[i]) {
            scan_trait_impls(&g.children, trait_name, out);
            i += 1;
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// R18 — observer purity
// ---------------------------------------------------------------------------

/// `Round`/`RoundCore` mutators an observer must not reach (beyond any
/// direct `.charge_*` call, which is flagged unconditionally).
const ROUND_MUTATORS: [&str; 6] = [
    "send",
    "deliver",
    "begin_round",
    "finish",
    "flush_charges",
    "set_enforcement",
];

fn check_r18(syntaxes: &[FileSyntax], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut seeds: BTreeSet<usize> = BTreeSet::new();
    for (fi, fs) in syntaxes.iter().enumerate() {
        for im in trait_impls(fs, "RoundObserver") {
            for (ni, node) in graph.nodes.iter().enumerate() {
                if node.file == fi
                    && !node.is_test
                    && node.start_line >= im.open_line
                    && node.end_line <= im.close_line
                {
                    seeds.insert(ni);
                }
            }
        }
    }
    if seeds.is_empty() {
        return;
    }
    let admit = |n: &FnNode| !n.is_test;
    let reach = graph.closure(seeds.iter().copied(), false, true, admit);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &ni in &reach {
        let node = &graph.nodes[ni];
        let via = if seeds.contains(&ni) {
            "a RoundObserver impl method"
        } else {
            "code reachable from a RoundObserver impl"
        };
        for call in &node.calls {
            let charges = call.method && call.name.starts_with("charge_");
            let mutates = ROUND_MUTATORS.contains(&call.name.as_str())
                && graph.resolve(ni, call).iter().any(|&t| {
                    let tn = &graph.nodes[t];
                    syntaxes[tn.file].effective == "crates/sim/src/runtime.rs"
                        && matches!(tn.self_type.as_deref(), Some("Round" | "RoundCore"))
                });
            if (charges || mutates) && seen.insert((ni, call.line)) {
                findings.push(Finding::new(
                    &syntaxes[node.file].effective,
                    call.line,
                    "R18",
                    format!(
                        "`{}` ({via}) calls `{}`: observers are diagnostics-only and must \
                         not reach ledger charging or round mutation, or --trace would \
                         perturb the golden ledgers",
                        node.name, call.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R19 — shard isolation in par_nodes closures
// ---------------------------------------------------------------------------

/// The deterministic-parallelism helpers and whether their closures get
/// exclusive shard slices (`true`) or per-node indices (`false`). Shard
/// closures may not index *any* captured state; per-node map closures may
/// read captured slices but not index-write them.
const PAR_HELPERS: [(&str, bool); 3] = [
    ("par_scatter_shards", true),
    ("par_zip_shards", true),
    ("par_map_nodes", false),
];

fn check_r19(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        for f in &fs.fns {
            if f.is_test {
                continue;
            }
            r19_walk(fs.body_of(f), &fs.effective, findings);
        }
    }
}

fn r19_walk(trees: &[Tree], path: &str, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            if i > 0 && punct_of(&trees[i - 1]) == Some('!') {
                i += 1;
                continue;
            }
            r19_walk(&g.children, path, findings);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            if let Some(&(_, shard)) = PAR_HELPERS.iter().find(|(n, _)| *n == call.name) {
                check_closure_arg(&call.args.children, shard, path, findings);
                i = call.after;
                continue;
            }
        }
        i += 1;
    }
}

/// Analyzes the closure argument of one par-helper call site.
fn check_closure_arg(args: &[Tree], shard: bool, path: &str, findings: &mut Vec<Finding>) {
    // Locate the closure: the first top-level `|…|`.
    let Some(a) = args.iter().position(|t| punct_of(t) == Some('|')) else {
        return;
    };
    let Some(rel) = args[a + 1..].iter().position(|t| punct_of(t) == Some('|')) else {
        return;
    };
    let b = a + 1 + rel;
    let mut sanctioned: Vec<String> = Vec::new();
    for seg in split_commas(&args[a + 1..b]) {
        pattern_idents(seg, &mut sanctioned);
    }
    let body = &args[b + 1..];
    collect_locals(body, &mut sanctioned);
    let mut offenders: Vec<(usize, String)> = Vec::new();
    collect_index_offenses(body, &sanctioned, shard, &mut offenders);
    if let Some(&(line, _)) = offenders.iter().min_by_key(|(l, _)| *l) {
        let mut roots: Vec<&str> = offenders.iter().map(|(_, r)| r.as_str()).collect();
        roots.sort_unstable();
        roots.dedup();
        let what = if shard {
            "indexes captured state"
        } else {
            "index-writes captured state"
        };
        findings.push(Finding::new(
            path,
            line,
            "R19",
            format!(
                "par-shard closure {what} ({}) outside its shard-provided arguments: \
                 cross-shard indexing races once shards run on different threads — go \
                 through the closure's slice parameters, or carry a justified allow(R19) \
                 for an audited disjointness argument",
                roots.join(", ")
            ),
        ));
    }
}

/// Adds `let`-bound and `for`-pattern identifiers declared inside the
/// closure body to the sanctioned set.
fn collect_locals(trees: &[Tree], out: &mut Vec<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_locals(&g.children, out);
            i += 1;
            continue;
        }
        match ident_of(&trees[i]) {
            Some("let") => {
                let end = trees[i + 1..]
                    .iter()
                    .position(|t| punct_of(t) == Some('=') || punct_of(t) == Some(';'))
                    .map_or(trees.len(), |p| i + 1 + p);
                pattern_idents(&trees[i + 1..end], out);
                i = end;
            }
            Some("for") => {
                let end = trees[i + 1..]
                    .iter()
                    .position(|t| ident_of(t) == Some("in"))
                    .map_or(trees.len(), |p| i + 1 + p);
                pattern_idents(&trees[i + 1..end], out);
                i = end;
            }
            _ => i += 1,
        }
    }
}

/// Finds `root[…]` indexing (and, when `writes_only`, only index-writes)
/// whose chain root is not a sanctioned identifier.
fn collect_index_offenses(
    trees: &[Tree],
    sanctioned: &[String],
    any_index: bool,
    out: &mut Vec<(usize, String)>,
) {
    for i in 0..trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            let indexes = g.delim == '['
                && i > 0
                && ident_of(&trees[i - 1])
                    .is_some_and(|s| !crate::syntax::is_keyword(s) || matches!(s, "self" | "Self"));
            if indexes {
                if let Some(root) = chain_root(trees, i - 1) {
                    let ok = sanctioned.iter().any(|s| s == root);
                    if !ok && (any_index || is_index_write(trees, i)) {
                        out.push((g.open_line, root.to_string()));
                    }
                }
            }
            collect_index_offenses(&g.children, sanctioned, any_index, out);
        }
    }
}

/// The identifier at the start of a `a.b.c[…]` chain ending at `i` (the
/// tree just before the index group). Returns `None` when the chain starts
/// at a call/group result rather than a place.
fn chain_root(trees: &[Tree], mut i: usize) -> Option<&str> {
    loop {
        ident_of(&trees[i])?;
        if i >= 2 && punct_of(&trees[i - 1]) == Some('.') {
            if ident_of(&trees[i - 2]).is_some() {
                i -= 2;
                continue;
            }
            return None; // chain hangs off a group/call result
        }
        return ident_of(&trees[i]);
    }
}

/// True if the index group at `i` is the target of an assignment
/// (`x[…] = v`, `x[…] += v`, `x[…].f = v`, shifts included).
fn is_index_write(trees: &[Tree], i: usize) -> bool {
    let mut j = i + 1;
    // Skip further place projections: `.field`, nested `[…]`.
    while j < trees.len() {
        if punct_of(&trees[j]) == Some('.') && trees.get(j + 1).and_then(ident_of).is_some() {
            j += 2;
            continue;
        }
        if group_of(&trees[j]).is_some_and(|g| g.delim == '[') {
            j += 1;
            continue;
        }
        break;
    }
    let p1 = punct_of(trees.get(j).unwrap_or(&trees[i])).unwrap_or(' ');
    let p2 = trees.get(j + 1).and_then(punct_of).unwrap_or(' ');
    let p3 = trees.get(j + 2).and_then(punct_of).unwrap_or(' ');
    if p1 == '=' && p2 != '=' {
        return true;
    }
    if "+-*/%^&|".contains(p1) && p2 == '=' {
        return true;
    }
    "<>".contains(p1) && p2 == p1 && p3 == '='
}
