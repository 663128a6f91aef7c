//! Workspace policy the compiler cannot state per crate (DESIGN.md §8).
//!
//! - Every crate root (`src/lib.rs`, `src/main.rs`) anywhere in the tree,
//!   perfbench included, carries `#![forbid(unsafe_code)]`. The workspace
//!   lint table only sets `deny`, which a module can lift; `forbid` in the
//!   root cannot be lifted below it.
//! - Neither tracked lockfile names a `source`: every package resolves
//!   in-tree, so the build needs no registry. Cargo rewrites the root lock
//!   before this test runs, so a registry, git or transitive dependency
//!   added to any manifest fails here.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `src/lib.rs` and `src/main.rs` below `dir`, skipping build
/// outputs (`target/`) and hidden directories.
fn crate_roots(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry is readable").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                crate_roots(&path, out);
            }
        } else if matches!(name, "lib.rs" | "main.rs")
            && path.parent().and_then(Path::file_name) == Some("src".as_ref())
        {
            out.push(path);
        }
    }
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let mut roots = Vec::new();
    crate_roots(root(), &mut roots);
    assert!(
        roots.iter().any(|p| p.ends_with("perfbench/src/main.rs")),
        "the walk must reach every workspace, perfbench included: {roots:?}"
    );
    let missing: Vec<String> = roots
        .iter()
        .filter(|p| {
            let text = fs::read_to_string(p).expect("crate root is readable");
            !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}

#[test]
fn lockfiles_resolve_every_package_in_tree() {
    for lock in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let text = fs::read_to_string(root().join(lock))
            .unwrap_or_else(|e| panic!("{lock} is tracked and must exist: {e}"));
        let sourced: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("source ="))
            .collect();
        assert!(
            sourced.is_empty(),
            "{lock} names packages outside the tree (offline builds break): {sourced:?}"
        );
    }
}
