//! Persistent incremental cache for workspace lint runs.
//!
//! A workspace run is a pure function of (rule set, file table, file
//! contents): nothing else feeds the pipeline. The cache exploits that by
//! storing, at `target/conform-cache.bin`, the complete findings of the
//! last run keyed by a **rule-set fingerprint** (FNV over every rule's
//! metadata plus the cache format version) and a **file table** of
//! `(path, content-hash)` pairs. A warm run whose fingerprint and file
//! table match byte-for-byte returns the cached findings without lexing or
//! parsing a single file — the whole-run fast path behind the ≥5× warm
//! speedup (pinned by a zero-`parse_invocations` test; the wall-clock
//! number is recorded in DESIGN.md §14).
//!
//! On any mismatch the run falls back to the full pipeline (correctness
//! never depends on the cache) and the cache is rewritten atomically
//! (temp file + rename). The hit/miss counts reported by `--timings` use
//! **dependency-closure invalidation**: a changed file invalidates itself
//! plus every file connected to it through the call graph's file-level
//! edges (in both directions — the interprocedural rules R10/R12/R18
//! propagate along calls, so a callee edit can change a caller's findings
//! and vice versa); files outside that closure count as hits. The closure
//! is computed over the edges captured at cache time, which is sound
//! because a file whose own content changed is always a miss regardless of
//! edges.
//!
//! Serialization reuses the workspace's snapshot layer
//! ([`cc_mis_sim::snapshot`]) — same varint-free fixed-width encoding,
//! same magic/version header — so the cache inherits the tested
//! corruption handling: any decode error, unknown rule id, or format
//! drift simply reads as "no cache".

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use cc_mis_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::diag::Finding;
use crate::fixes::{Edit, Fix, Span};
use crate::{Analysis, Input};

/// Bumped whenever the serialized layout below changes; folded into the
/// rule-set fingerprint so stale layouts read as cold caches.
const CACHE_FORMAT: u32 = 1;

/// The algorithm tag in the snapshot header.
const ALGORITHM: &str = "conform-cache";

/// A loaded cache: the last run's inputs-and-outputs summary.
pub struct Cache {
    /// Rule-set fingerprint the findings were computed under.
    pub fingerprint: u64,
    /// `(path, content hash)` of every input, in sorted path order.
    pub files: Vec<(String, u64)>,
    /// File-level call-graph edges, as indices into `files`.
    pub edges: Vec<(u32, u32)>,
    /// The complete sorted findings of the cached run.
    pub findings: Vec<Finding>,
}

/// FNV-1a over a byte string; the cache's only hash. Stable across runs
/// and platforms, unlike `std`'s keyed `DefaultHasher`.
pub fn content_hash(text: &str) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, text.as_bytes())
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of the rule set currently compiled in: any edit to a rule's
/// id, contract, rationale, or fix recipe — or to the cache layout —
/// invalidates every cached result.
pub fn ruleset_fingerprint() -> u64 {
    let mut h = fnv(0xcbf2_9ce4_8422_2325, &CACHE_FORMAT.to_le_bytes());
    for r in crate::rules::RULES {
        for part in [r.id, r.summary, r.contract, r.rationale, r.fix] {
            h = fnv(h, part.as_bytes());
            h = fnv(h, b"\x1f");
        }
    }
    h
}

impl Cache {
    /// True when the cached run covers exactly the current inputs: same
    /// rule set, same file table, same content hashes.
    pub fn full_hit(&self, hashes: &[(String, u64)]) -> bool {
        self.fingerprint == ruleset_fingerprint() && self.files == hashes
    }

    /// `(hits, misses)` of the current inputs against this cache under
    /// dependency-closure invalidation: changed, added, or
    /// closure-connected files are misses; the rest are hits.
    pub fn damage(&self, hashes: &[(String, u64)]) -> (usize, usize) {
        if self.fingerprint != ruleset_fingerprint() {
            return (0, hashes.len());
        }
        // Seed the closure with every cached file that changed or vanished.
        let mut invalid: BTreeSet<u32> = BTreeSet::new();
        for (i, (path, hash)) in self.files.iter().enumerate() {
            match hashes.iter().find(|(p, _)| p == path) {
                Some((_, h)) if h == hash => {}
                _ => {
                    invalid.insert(i as u32);
                }
            }
        }
        // Expand along file-level call edges, both directions, to fixpoint.
        let mut work: Vec<u32> = invalid.iter().copied().collect();
        while let Some(i) = work.pop() {
            for &(a, b) in &self.edges {
                let next = if a == i {
                    b
                } else if b == i {
                    a
                } else {
                    continue;
                };
                if invalid.insert(next) {
                    work.push(next);
                }
            }
        }
        let mut hits = 0usize;
        for (path, hash) in hashes {
            let cached = self
                .files
                .iter()
                .position(|(p, h)| p == path && h == hash)
                .map(|i| i as u32);
            if cached.is_some_and(|i| !invalid.contains(&i)) {
                hits += 1;
            }
        }
        (hits, hashes.len() - hits)
    }
}

/// Loads the cache at `path`. Any IO error, decode error, header or
/// format mismatch, or unknown rule id reads as "no cache".
pub fn load(path: &Path) -> Option<Cache> {
    let bytes = fs::read(path).ok()?;
    decode(&bytes).ok()
}

fn decode(bytes: &[u8]) -> Result<Cache, SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    if r.algorithm() != ALGORITHM {
        return Err(SnapshotError::Corrupt {
            offset: 0,
            what: "not a conform cache",
        });
    }
    r.expect("cache format", &CACHE_FORMAT)?;
    let fingerprint = r.read_u64()?;
    let n_files = r.read_usize()?;
    let mut files = Vec::with_capacity(n_files);
    for _ in 0..n_files {
        let path = r.read_str()?;
        let hash = r.read_u64()?;
        files.push((path, hash));
    }
    let n_edges = r.read_usize()?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let a = r.read_u32()?;
        let b = r.read_u32()?;
        edges.push((a, b));
    }
    let n_findings = r.read_usize()?;
    let mut findings = Vec::with_capacity(n_findings);
    for _ in 0..n_findings {
        findings.push(read_finding(&mut r)?);
    }
    r.finish()?;
    Ok(Cache {
        fingerprint,
        files,
        edges,
        findings,
    })
}

fn read_finding(r: &mut SnapshotReader<'_>) -> Result<Finding, SnapshotError> {
    let path = r.read_str()?;
    let line = r.read_usize()?;
    let rule_name = r.read_str()?;
    // Findings carry `&'static str` rule ids; restore by interning against
    // the compiled rule table. An unknown id means the cache predates a
    // rule rename — treat as corruption.
    let rule = crate::rules::RULES
        .iter()
        .find(|ri| ri.id == rule_name)
        .map(|ri| ri.id)
        .ok_or(SnapshotError::Corrupt {
            offset: 0,
            what: "unknown rule id",
        })?;
    let message = r.read_str()?;
    let mut finding = Finding::new(&path, line, rule, message);
    if r.read_bool()? {
        let title = r.read_str()?;
        let n_edits = r.read_usize()?;
        let mut edits = Vec::with_capacity(n_edits);
        for _ in 0..n_edits {
            let line = r.read_usize()?;
            let start_col = r.read_usize()?;
            let end_col = r.read_usize()?;
            let replacement = r.read_str()?;
            edits.push(Edit {
                span: Span {
                    line,
                    start_col,
                    end_col,
                },
                replacement,
            });
        }
        finding = finding.with_fix(Fix { title, edits });
    }
    Ok(finding)
}

/// Writes the cache for a just-completed run, atomically and best-effort:
/// a cache write failure must never fail the lint.
pub fn store(path: &Path, inputs: &[Input], hashes: &[(String, u64)], analysis: &Analysis) {
    let mut w = SnapshotWriter::new(ALGORITHM);
    w.write_u32(CACHE_FORMAT);
    w.write_u64(ruleset_fingerprint());
    w.write_usize(hashes.len());
    for (p, h) in hashes {
        w.write_str(p);
        w.write_u64(*h);
    }
    // The analysis's edges index the `.rs`-input order; the file table
    // indexes all inputs. Re-map through the `.rs` positions.
    let rs_pos: Vec<u32> = inputs
        .iter()
        .enumerate()
        .filter(|(_, i)| i.path.ends_with(".rs"))
        .map(|(k, _)| k as u32)
        .collect();
    let edges: Vec<(u32, u32)> = analysis
        .edges
        .iter()
        .filter_map(|&(a, b)| Some((*rs_pos.get(a as usize)?, *rs_pos.get(b as usize)?)))
        .collect();
    w.write_usize(edges.len());
    for (a, b) in &edges {
        w.write_u32(*a);
        w.write_u32(*b);
    }
    w.write_usize(analysis.findings.len());
    for f in &analysis.findings {
        write_finding(&mut w, f);
    }
    let bytes = w.finish();
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let tmp = path.with_extension("bin.tmp");
    if fs::write(&tmp, &bytes).is_ok() {
        let _ = fs::rename(&tmp, path);
    }
}

fn write_finding(w: &mut SnapshotWriter, f: &Finding) {
    w.write_str(&f.path);
    w.write_usize(f.line);
    w.write_str(f.rule);
    w.write_str(&f.message);
    match &f.fix {
        None => w.write_bool(false),
        Some(fix) => {
            w.write_bool(true);
            w.write_str(&fix.title);
            w.write_usize(fix.edits.len());
            for e in &fix.edits {
                w.write_usize(e.span.line);
                w.write_usize(e.span.start_col);
                w.write_usize(e.span.end_col);
                w.write_str(&e.replacement);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_invocations;
    use std::path::PathBuf;

    fn scratch_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "cc-mis-conform-cache-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, text).unwrap();
        }
        root
    }

    const CLEAN_A: &str = "//! A.\npub fn helper() -> u32 { 1 }\n";
    const CLEAN_B: &str = "//! B.\npub fn driver() -> u32 { helper() }\n";

    #[test]
    fn warm_run_is_byte_identical_and_parses_nothing() {
        let root = scratch_workspace(
            "warm",
            &[
                ("crates/core/src/a.rs", CLEAN_A),
                ("crates/core/src/b.rs", "use std::collections::HashMap;\n"),
            ],
        );
        let cold = crate::check_workspace_cached(&root, None).unwrap();
        assert_eq!(cold.len(), 1, "{cold:?}");
        let before = parse_invocations();
        let mut t = crate::Timings::default();
        let warm = crate::check_workspace_cached(&root, Some(&mut t)).unwrap();
        assert_eq!(
            parse_invocations() - before,
            0,
            "a full cache hit must not parse"
        );
        assert_eq!(warm, cold, "warm findings must be byte-identical");
        assert_eq!(t.cache, Some((2, 0)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn content_change_invalidates_the_dependency_closure() {
        let root = scratch_workspace(
            "closure",
            &[
                ("crates/core/src/a.rs", CLEAN_A),
                ("crates/core/src/b.rs", CLEAN_B),
                ("crates/core/src/c.rs", "//! C.\npub fn lone() {}\n"),
            ],
        );
        let _ = crate::check_workspace_cached(&root, None).unwrap();
        // Edit the callee: itself and its caller are misses; `c.rs` is not.
        fs::write(
            root.join("crates/core/src/a.rs"),
            "//! A.\npub fn helper() -> u32 { 2 }\n",
        )
        .unwrap();
        let mut t = crate::Timings::default();
        let findings = crate::check_workspace_cached(&root, Some(&mut t)).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(t.cache, Some((1, 2)), "{:?}", t.cache);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_cache_reads_as_cold() {
        let root = scratch_workspace("corrupt", &[("crates/core/src/a.rs", CLEAN_A)]);
        let _ = crate::check_workspace_cached(&root, None).unwrap();
        let cache_path = root.join("target").join("conform-cache.bin");
        let mut bytes = fs::read(&cache_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        bytes.truncate(mid + 1);
        fs::write(&cache_path, &bytes).unwrap();
        assert!(load(&cache_path).is_none());
        let mut t = crate::Timings::default();
        let findings = crate::check_workspace_cached(&root, Some(&mut t)).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(t.cache, Some((0, 1)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(ruleset_fingerprint(), ruleset_fingerprint());
        assert_ne!(content_hash("a"), content_hash("b"));
    }
}
