//! Determinism-taint rules R21–R24.
//!
//! The bit-determinism story says a run is a pure function of
//! `(seed, graph, params)`. Scheduling identity — how many worker threads
//! ran, which shard a value landed in, what `CC_MIS_*` knobs the process
//! environment carried — is explicitly allowed to vary between runs, so it
//! must never reach the three places where it would become observable:
//! ledger charges, RNG seeding, and snapshot bytes.
//!
//! * **R21** tracks that taint intraprocedurally over the token-tree layer:
//!   sources are `thread_count()` / `available_parallelism()` /
//!   `std::env` reads (and the `config::env_*` accessors wrapping them),
//!   plus the shard-index parameter of closures handed to
//!   `par_zip_shards` / `par_scatter_shards`. `let`-bindings propagate
//!   taint to a fixpoint; sinks are `.charge_*` arguments,
//!   `SplitMix64`/`SharedRandomness` constructor arguments, and
//!   `SnapshotWriter` `.write_*` arguments. The lattice is the trivial
//!   clean < tainted, with no kills — a value once derived from scheduling
//!   identity stays suspect for the rest of the function.
//! * **R23** confines `std::env` reads in crates/core and crates/sim to
//!   the central config module, so R21's env-source list stays auditable.
//! * **R24** confines raw `std::process` and socket APIs in crates/core
//!   and crates/sim to the sharded-transport module, so every process
//!   boundary speaks the checksummed frame codec and sits behind the
//!   checkpoint-recovery machinery the fault matrix exercises.

use std::collections::BTreeSet;

use crate::dataflow::{call_at, contains_ident, split_commas};
use crate::diag::Finding;
use crate::rules::in_sim_core;
use crate::scanner::SourceFile;
use crate::syntax::{group_of, ident_of, punct_of, FileSyntax, Tree};

/// The path every core/sim env read must live in (R23), and the one module
/// whose env sources R21 treats as its own.
const CONFIG_MODULE: &str = "crates/sim/src/config.rs";

/// The one core/sim module sanctioned to spawn worker processes and open
/// sockets (R24): the sharded transport, whose FrameLink backends own the
/// frame codec and the checkpoint-recovery protocol.
const SHARD_MODULE: &str = "crates/sim/src/shard.rs";

/// Runs the taint phase.
pub fn check(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    check_r21(syntaxes, findings);
    check_r23(sources, findings);
    check_r24(sources, findings);
}

// ---------------------------------------------------------------------------
// R21 — scheduling identity must not reach charges, RNG seeds, or snapshots
// ---------------------------------------------------------------------------

/// Calls whose results carry scheduling identity. `thread_count` and the
/// `config::env_*` accessors are name-based (the call graph's resolution is
/// overkill here: the names are unique in-tree and the rule is
/// intraprocedural by design).
const SOURCE_CALLS: &[&str] = &[
    "thread_count",
    "available_parallelism",
    "env_threads",
    "env_dense_pair_max",
    "env_shards",
    "env_shard_backend",
    "env_worker_bin",
    "env_worker_log_dir",
];

/// Helpers whose closure's first parameter is a shard index.
const SHARD_HELPERS: &[&str] = &["par_zip_shards", "par_scatter_shards"];

fn check_r21(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        let path = fs.effective.as_str();
        if !in_sim_core(path) {
            continue;
        }
        for f in &fs.fns {
            if f.is_test {
                continue;
            }
            let body = fs.body_of(f);
            let mut tainted: BTreeSet<String> = BTreeSet::new();
            collect_shard_params(body, &mut tainted);
            // `let` propagation to a fixpoint (no kills: rebinding a name
            // to a clean value later is rare enough to not carve out).
            loop {
                let before = tainted.len();
                collect_let_taint(body, &mut tainted);
                if tainted.len() == before {
                    break;
                }
            }
            let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
            scan_sinks(body, &tainted, path, &f.name, &mut seen, findings);
        }
    }
}

/// True if the expression slice derives from scheduling identity: it names
/// a tainted binding or contains a source call.
fn slice_tainted(trees: &[Tree], tainted: &BTreeSet<String>) -> bool {
    slice_has_source(trees) || tainted.iter().any(|t| contains_ident(trees, t))
}

/// True if the slice contains a call to one of the taint sources.
fn slice_has_source(trees: &[Tree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Some(g) = group_of(t) {
            if slice_has_source(&g.children) {
                return true;
            }
            continue;
        }
        let Some(id) = ident_of(t) else { continue };
        let called = matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
        if !called {
            continue;
        }
        if SOURCE_CALLS.contains(&id) {
            return true;
        }
        // `env::var(…)` / `env::var_os(…)` / `env::vars(…)`.
        if matches!(id, "var" | "var_os" | "vars")
            && i >= 3
            && punct_of(&trees[i - 1]) == Some(':')
            && punct_of(&trees[i - 2]) == Some(':')
            && ident_of(&trees[i - 3]) == Some("env")
        {
            return true;
        }
    }
    false
}

/// Taints the first (shard-index) parameter of closures passed to the
/// shard-parallel helpers.
fn collect_shard_params(trees: &[Tree], tainted: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_shard_params(&g.children, tainted);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            if SHARD_HELPERS.contains(&call.name) {
                if let Some(first) = closure_first_param(&call.args.children) {
                    tainted.insert(first);
                }
            }
        }
        i += 1;
    }
}

/// The first parameter name of the first top-level closure in an argument
/// slice (`|shard, chunk, row| …` → `shard`).
fn closure_first_param(args: &[Tree]) -> Option<String> {
    let open = args.iter().position(|t| punct_of(t) == Some('|'))?;
    let close = open
        + 1
        + args[open + 1..]
            .iter()
            .position(|t| punct_of(t) == Some('|'))?;
    let params = &args[open + 1..close];
    let first = split_commas(params).first().copied()?;
    let mut ids = Vec::new();
    crate::dataflow::pattern_idents(first, &mut ids);
    ids.into_iter().next()
}

/// One pass of `let` propagation: any binding whose initializer is tainted
/// taints its pattern identifiers. Recurses into every group, so closure
/// and block bodies are covered.
fn collect_let_taint(trees: &[Tree], tainted: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_let_taint(&g.children, tainted);
            i += 1;
            continue;
        }
        if ident_of(&trees[i]) == Some("let") {
            // Find the initializer `=` (skipping `==` and `=>`), then the
            // terminating `;` at this nesting level.
            let mut j = i + 1;
            let mut eq = None;
            while j < trees.len() {
                match punct_of(&trees[j]) {
                    Some(';') => break,
                    Some('=') => {
                        let next = trees.get(j + 1).and_then(punct_of);
                        if matches!(next, Some('=' | '>')) {
                            j += 2;
                            continue;
                        }
                        eq = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(eq) = eq {
                let mut end = eq + 1;
                while end < trees.len() && punct_of(&trees[end]) != Some(';') {
                    end += 1;
                }
                if slice_tainted(&trees[eq + 1..end], tainted) {
                    let mut ids = Vec::new();
                    crate::dataflow::pattern_idents(&trees[i + 1..eq], &mut ids);
                    for id in ids {
                        tainted.insert(id);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Flags every sink whose arguments are tainted: ledger charges, RNG
/// constructors, snapshot writes.
fn scan_sinks(
    trees: &[Tree],
    tainted: &BTreeSet<String>,
    path: &str,
    fn_name: &str,
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            scan_sinks(&g.children, tainted, path, fn_name, seen, findings);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            let args = &call.args.children;
            let rng_ctor = i >= 3
                && punct_of(&trees[i - 1]) == Some(':')
                && punct_of(&trees[i - 2]) == Some(':')
                && matches!(
                    ident_of(&trees[i - 3]),
                    Some("SplitMix64" | "SharedRandomness")
                );
            let sink: Option<(&'static str, &'static str)> =
                if call.method && call.name.starts_with("charge_") {
                    Some((
                        "charge",
                        "bills a ledger with it — totals would depend on the machine, \
                         not on (seed, graph, params)",
                    ))
                } else if call.method && call.name.starts_with("write_") {
                    Some((
                        "write",
                        "writes it into a snapshot — checkpoints taken on different \
                         machines (or thread counts) would diverge byte-wise, voiding \
                         resume equivalence",
                    ))
                } else if rng_ctor {
                    Some((
                        "seed",
                        "seeds an RNG stream with it — the coin sequence would change \
                         with the thread count, which no replay can reproduce",
                    ))
                } else {
                    None
                };
            if let Some((kind, why)) = sink {
                if slice_tainted(args, tainted) && seen.insert((call.line, kind)) {
                    findings.push(Finding::new(
                        path,
                        call.line,
                        "R21",
                        format!(
                            "`{fn_name}` derives a value from scheduling identity (thread \
                             count, shard index, or env read) and {why}; derive it from \
                             simulation state instead — scheduling identity may steer \
                             scheduling only"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// R23 — env reads live only in the config module
// ---------------------------------------------------------------------------

fn check_r23(sources: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in sources {
        let path = f.effective.as_str();
        if !in_sim_core(path) || path == CONFIG_MODULE {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.as_str();
            let Some(at) = code.find("env::var") else {
                continue;
            };
            // Reject `my_env::var`-style matches: the char before `env`
            // must not be part of an identifier.
            let pre = code[..at].chars().next_back();
            if pre.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            findings.push(Finding::new(
                path,
                idx + 1,
                "R23",
                format!(
                    "environment read outside the config module: every std::env read in \
                     crates/core and crates/sim belongs in {CONFIG_MODULE}, so the full \
                     set of ambient knobs stays auditable in one place"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R24 — process and socket APIs live only in the sharded-transport module
// ---------------------------------------------------------------------------

/// Tokens that open a process or byte-stream boundary. `Command::new` (not
/// the bare path `std::process`) keeps `ExitCode`-style uses clean; `.kill()`
/// catches hand-rolled child teardown outside the recovery protocol.
const PROCESS_TOKENS: &[&str] = &[
    "UnixListener",
    "UnixStream",
    "TcpListener",
    "TcpStream",
    "Command::new",
    "Stdio::",
    ".kill()",
];

fn check_r24(sources: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in sources {
        let path = f.effective.as_str();
        if !in_sim_core(path) || path == SHARD_MODULE {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.as_str();
            let Some(pat) = PROCESS_TOKENS.iter().find(|p| code.contains(*p)) else {
                continue;
            };
            findings.push(Finding::new(
                path,
                idx + 1,
                "R24",
                format!(
                    "`{pat}` outside the sharded-transport module: process spawns and \
                     sockets in crates/core and crates/sim belong in {SHARD_MODULE}, \
                     behind the frame codec and checkpoint recovery"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;
    use crate::syntax::parse_file;

    fn indexed(path: &str, src: &str) -> (Vec<SourceFile>, Vec<FileSyntax>) {
        let file = scan_str(path, src);
        let fs = parse_file(&file);
        (vec![file], vec![fs])
    }

    #[test]
    fn r21_flags_tainted_charge_and_clean_pool_use() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(ledger: &mut RoundLedger) {\n\
             \x20   let threads = thread_count();\n\
             \x20   let pool = threads.min(8);\n\
             \x20   let salt = pool + 1;\n\
             \x20   ledger.charge_bits(salt as u64);\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R21");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn r21_allows_scheduling_only_use() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(ledger: &mut RoundLedger, n: u64) {\n\
             \x20   let threads = thread_count();\n\
             \x20   let _chunk = n as usize / threads.max(1);\n\
             \x20   ledger.charge_bits(n);\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn r21_flags_shard_index_seeding_an_rng() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(outs: &mut [u64], rows: &mut [u64]) {\n\
             \x20   par_zip_shards(outs, rows, 4, |shard, chunk, row| {\n\
             \x20       let rng = SplitMix64::new(shard as u64);\n\
             \x20       let _ = rng;\n\
             \x20       let _ = (chunk, row);\n\
             \x20   });\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R21");
    }

    #[test]
    fn r23_confines_env_reads_to_the_config_module() {
        let (src, fs) = indexed(
            "crates/sim/src/worker.rs",
            "pub fn knob() -> bool {\n    std::env::var(\"CC_MIS_X\").is_ok()\n}\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, &mut findings);
        // The env read itself is an R21 *source*, not a sink — only R23 fires.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R23");
        assert_eq!(findings[0].line, 2);
    }
}
