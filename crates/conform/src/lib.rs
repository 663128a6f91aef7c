//! `cc-mis-conform` — the in-tree conformance linter.
//!
//! PR 1 made the simulators fast by leaning on contracts nothing enforced
//! mechanically: `par_nodes` runs bit-identical to sequential, f64
//! accumulation orders are preserved, round/bit/message charges are
//! byte-identical across engines, and the workspace builds with zero
//! registry access. The paper's guarantees (the Lemma 2.12/2.14 bandwidth
//! bounds, the `O(log n)`-bit congested-clique message limit) only hold in
//! this reproduction while every hot-path edit respects those invariants —
//! so this crate enforces them the way production stacks do: a linter in
//! the tier-1 gate, not a review checklist.
//!
//! The linter is deliberately **zero-dependency and offline** (no dylint,
//! no rustc internals, no registry crates): a line/token scanner
//! ([`scanner`]), a token-tree layer ([`syntax`]) and approximate call
//! graph ([`callgraph`]) on top of it, a rule set ([`rules`], lexical
//! R1–R9 and R14, structural/interprocedural R10–R13 and R20), dataflow rules
//! R18/R19 ([`dataflow`]), determinism-taint rules R21/R23/R24 ([`taint`]),
//! and a justified-pragma escape hatch ([`pragma`], with stale-pragma
//! detection `P2`). Diagnostics are stable `file:line rule-id message`
//! lines ([`diag`]), `--sarif PATH` also writes them as a SARIF 2.1.0 log
//! via `cc_mis_analysis::json`, and `--explain <rule>` prints each rule's
//! contract, rationale, and fix recipe.
//!
//! Run it with `cargo run -p cc-mis-conform -- --workspace` (or
//! `scripts/conform.sh`); the process exits nonzero on any finding
//! (exit 3 if any finding is severity `error`: P1/R21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod pragma;
pub mod rules;
pub mod scanner;
pub mod syntax;
pub mod taint;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::Finding;

/// An input to the checker: a path (used for scoping/diagnostics unless the
/// file carries a `conform-fixture:` override) plus its contents.
#[derive(Debug, Clone)]
pub struct Input {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// One workspace file, lexed and parsed exactly once. Every rule layer —
/// lexical, structural, dataflow — consumes this shared index; the
/// single-parse contract is pinned by a test over
/// [`syntax::parse_invocations`].
#[derive(Debug)]
pub struct FileIndex {
    /// Line-scanner output: code/comment channels, test marks.
    pub source: scanner::SourceFile,
    /// Token-tree output: roots and fn spans.
    pub syntax: syntax::FileSyntax,
}

/// Lexes and parses one `.rs` input into its shared [`FileIndex`].
pub fn index_str(path: &str, text: &str) -> FileIndex {
    let (effective, lines, whole_file_test) = scanner::lex_parts(path, text);
    let (source, syntax) = syntax::index_file(effective, lines, whole_file_test);
    FileIndex { source, syntax }
}

/// Checks a set of inputs (`.rs` sources and `Cargo.toml` manifests) and
/// returns the sorted findings. This is the engine behind the CLI; tests
/// drive it directly with fixture inputs.
///
/// The pipeline: index every file once, then the lexical, structural,
/// dataflow and taint phases, pragma filtering (recording hits for the
/// `P2` stale-pragma pass), and the manifest checks.
pub fn check(inputs: &[Input]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sources: Vec<scanner::SourceFile> = Vec::new();
    let mut syntaxes: Vec<syntax::FileSyntax> = Vec::new();
    for input in inputs.iter().filter(|i| i.path.ends_with(".rs")) {
        let ix = index_str(&input.path, &input.text);
        sources.push(ix.source);
        syntaxes.push(ix.syntax);
    }
    // Pragmas for every file up front: the structural rules need them
    // before the per-file filter (a justified allow(R10) on a charge site
    // must stop the interprocedural propagation, not just hide one line).
    let pragmas: Vec<Vec<pragma::Pragma>> = sources
        .iter()
        .map(|file| pragma::collect(file, &mut findings))
        .collect();
    // `(pragma line, rule)` pairs that actually suppressed something, per
    // file — the P2 stale-pragma pass flags the rest.
    let mut hits: Vec<Vec<(usize, String)>> = vec![Vec::new(); sources.len()];
    let counters = rules::declared_counters(&sources);
    let mut rule_findings = Vec::new();
    for file in &sources {
        rules::check_file(file, &counters, &mut rule_findings);
    }
    let graph = callgraph::build(&syntaxes);
    rules::check_structural(
        &sources,
        &syntaxes,
        &graph,
        &pragmas,
        &mut hits,
        &mut rule_findings,
    );
    dataflow::check(&syntaxes, &graph, &mut rule_findings);
    taint::check(&sources, &syntaxes, &mut rule_findings);
    rule_findings.retain(|f| {
        let Some(fi) = sources.iter().position(|s| s.effective == f.path) else {
            return true;
        };
        match pragma::suppressing(&pragmas[fi], f.rule, f.line) {
            Some(pline) => {
                hits[fi].push((pline, f.rule.to_string()));
                false
            }
            None => true,
        }
    });
    for (fi, file) in sources.iter().enumerate() {
        pragma::check_stale(&file.effective, &pragmas[fi], &hits[fi], &mut findings);
    }
    findings.append(&mut rule_findings);
    for input in inputs.iter().filter(|i| i.path.ends_with(".toml")) {
        rules::check_manifest(&input.path, &input.text, &mut findings);
    }
    diag::sort(&mut findings);
    findings
}

/// Walks the workspace at `root` and checks every tracked `.rs` source and
/// `Cargo.toml`, in sorted path order. Skips `target/`, `.git/`,
/// `results/`, and the linter's own `tests/fixtures/` trees (fixtures
/// deliberately violate rules).
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_paths(root, root, &mut paths)?;
    paths.sort();
    let mut inputs = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = fs::read_to_string(root.join(&rel))?;
        inputs.push(Input { path: rel, text });
    }
    Ok(check(&inputs))
}

fn collect_paths(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "results" | "fixtures") {
                continue;
            }
            collect_paths(root, &path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(path: &str, text: &str) -> Input {
        Input {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn clean_input_has_no_findings() {
        let findings = check(&[rs(
            "crates/core/src/x.rs",
            "//! Docs.\npub fn f() -> u32 { 1 }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pragma_suppresses_next_line_finding() {
        let src = "// conform: allow(R1) -- demo of the escape hatch\n\
                   use std::collections::HashMap;\n";
        assert!(check(&[rs("crates/core/src/x.rs", src)]).is_empty());
        let unsuppressed = "use std::collections::HashMap;\n";
        assert_eq!(check(&[rs("crates/core/src/x.rs", unsuppressed)]).len(), 1);
    }

    #[test]
    fn unjustified_pragma_does_not_suppress_and_is_reported() {
        let src = "// conform: allow(R1)\nuse std::collections::HashMap;\n";
        let findings = check(&[rs("crates/core/src/x.rs", src)]);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"P1"), "{findings:?}");
        assert!(rules.contains(&"R1"), "{findings:?}");
    }

    #[test]
    fn each_source_file_is_parsed_exactly_once_per_check() {
        // The shared FileIndex feeds the lexical, structural, and dataflow
        // layers from ONE tokenize+parse per file. The counter is
        // thread-local, so this delta is race-free under the parallel test
        // runner.
        let inputs = [
            rs("crates/core/src/a.rs", "//! A.\npub fn f() -> u32 { 1 }\n"),
            rs(
                "crates/sim/src/b.rs",
                "//! B.\npub fn g(x: u32) -> u32 { x + 1 }\n",
            ),
            Input {
                path: "crates/demo/Cargo.toml".to_string(),
                text: "[package]\nname = \"demo\"\n".to_string(),
            },
        ];
        let before = syntax::parse_invocations();
        let findings = check(&inputs);
        let after = syntax::parse_invocations();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(
            after - before,
            2,
            "expected exactly one parse per .rs input"
        );
    }

    #[test]
    fn stale_pragma_is_flagged_and_live_pragma_is_not() {
        // Live: R1 fires on the next line and is suppressed — no P2.
        let live = "// conform: allow(R1) -- demo of the escape hatch\n\
                    use std::collections::HashMap;\n";
        assert!(check(&[rs("crates/core/src/x.rs", live)]).is_empty());
        // Stale: nothing on the covered lines ever fires R1.
        let stale = "// conform: allow(R1) -- left behind after a refactor\n\
                     pub fn f() -> u32 { 1 }\n";
        let findings = check(&[rs("crates/core/src/x.rs", stale)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "P2");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn findings_are_sorted_and_stable() {
        let src = "use std::collections::HashMap;\nlet x = opt.unwrap();\n";
        let findings = check(&[rs("crates/sim/src/x.rs", src)]);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].line <= findings[1].line);
        assert!(findings[0].render().starts_with("crates/sim/src/x.rs:1 R1"));
    }
}
