//! The conformance rule set.
//!
//! Each rule enforces one contract the reproduction's guarantees rest on
//! (see DESIGN.md §8 for the rule ↔ contract table). Rules are lexical:
//! they run over the scanner's code channel, so comments, doc-examples,
//! and string contents never trip them, and most rules skip test code
//! (the contracts bind the simulation, not its assertions).

use crate::diag::Finding;
use crate::scanner::{Line, SourceFile};
use crate::syntax::{
    ident_of, line_of, punct_of, walk_exprs, ExprCtx, FileSyntax, Tok, Token, Tree,
};

/// Static description of one rule, including the `--explain` material.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The contract the rule enforces, stated as an invariant.
    pub contract: &'static str,
    /// Why the reproduction needs the contract.
    pub rationale: &'static str,
    /// Recipe for fixing a finding (or justifying a pragma).
    pub fix: &'static str,
}

/// All rules, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        summary: "no HashMap/HashSet in node-simulation library code (crates/core, crates/sim): \
                  unordered iteration breaks deterministic replay",
        contract: "library code under crates/core/src and crates/sim/src never names \
                   HashMap/HashSet or their module paths",
        rationale: "hash iteration order depends on RandomState; any node loop over a hash \
                    collection makes (seed, graph, params) stop fixing the run, breaking \
                    replay and the golden-ledger pins",
        fix: "use BTreeMap/BTreeSet, or an index-based Vec keyed by dense node ids",
    },
    RuleInfo {
        id: "R3",
        summary: "no ambient nondeterminism (thread_rng, SystemTime::now, Instant::now, \
                  RandomState) in library code: randomness must flow through seeded rng modules",
        contract: "library code draws randomness and time only through the seeded rng \
                   modules (SplitMix64, SharedRandomness)",
        rationale: "the paper's guarantees are statements about seeded executions; an \
                    ambient source anywhere in a charged path makes runs unreproducible",
        fix: "thread a seed or a SharedRandomness stream down to the call site; bench \
              timing belongs in test/bench targets (which the rule skips)",
    },
    RuleInfo {
        id: "R4",
        summary: "every crate root (src/lib.rs, src/main.rs) carries #![forbid(unsafe_code)]",
        contract: "each crate root declares #![forbid(unsafe_code)]",
        rationale: "forbid (not deny) means no module can opt back in; the simulators have \
                    no business with unsafe and the audit surface stays zero",
        fix: "add `#![forbid(unsafe_code)]` at the top of src/lib.rs / src/main.rs",
    },
    RuleInfo {
        id: "R5",
        summary: "no unwrap()/short expect() in crates/core and crates/sim library code: \
                  panics must name the violated invariant",
        contract: "library panics in crates/core and crates/sim carry an \
                   expect(\"<invariant>\") message of at least 4 characters",
        rationale: "a bare unwrap in a charged path turns a model violation into an \
                    anonymous panic; naming the invariant makes ledger-corrupting states \
                    diagnosable from the panic alone",
        fix: "replace `.unwrap()` with `.expect(\"<which invariant holds and why>\")` or \
              return a typed error",
    },
    RuleInfo {
        id: "R6",
        summary: "ledger charges go through counters declared in the ledger modules \
                  (crates/sim/src/metrics.rs, runtime.rs); no direct write to ledger \
                  counter fields elsewhere",
        contract: "every charge_* call names a method declared in metrics.rs or runtime.rs, \
                   and no library code in crates/core or crates/sim outside those two \
                   assigns (`=`, `+=`, …) to or mutably borrows (`&mut x.bits`) a ledger \
                   counter field",
        rationale: "the E-series tables are read straight off the ledger; an ad-hoc \
                    counter or direct field write silently forks the accounting model, and \
                    skips the checked add that makes counter overflow panic",
        fix: "add the counter as a RoundLedger method in metrics.rs (public) or runtime.rs \
              (round-core private) and call it",
    },
    RuleInfo {
        id: "R7",
        summary: "engine bandwidth arguments in library code reference the named O(log n) \
                  word-size constants (cc_mis_sim::bits), never magic literals",
        contract: "engine constructors receive bandwidth expressions built from \
                   cc_mis_sim::bits constants, not integer literals",
        rationale: "the Lemma 2.12/2.14 bounds are stated in O(log n)-bit words; a magic \
                    literal hides whether an experiment ran in the model or beside it",
        fix: "use standard_bandwidth(n) (or a named constant derived from it)",
    },
    RuleInfo {
        id: "R8",
        summary: "no registry dependencies in any Cargo.toml: every entry must be a path or \
                  workspace dependency (offline-build guard)",
        contract: "every dependency entry in every manifest resolves in-tree (path = … or \
                   workspace = true)",
        rationale: "the workspace builds fully offline; one registry entry breaks the \
                    build everywhere the registry is unreachable",
        fix: "vendor the code in-tree as a workspace crate, or drop the dependency",
    },
    RuleInfo {
        id: "R11",
        summary: "RNG-stream discipline: seeded per-node streams are never .clone()d, and \
                  never re-seeded inside loops in library code",
        contract: "library code does not clone RNG stream state and does not construct \
                   SplitMix64/SharedRandomness inside a loop body; inside the rng modules \
                   themselves no .clone() appears at all without a pragma",
        rationale: "a cloned or re-seeded stream silently replays the same coins, which \
                    breaks the independence assumptions behind every concentration bound \
                    in the paper (and is invisible to the golden-ledger tests, which pin \
                    totals, not distributions)",
        fix: "pass `&mut` to the one stream, or derive an independent per-node stream \
              through the Stream enum / mix3 keying; hoist constructors out of the loop",
    },
    RuleInfo {
        id: "R13",
        summary: "no floating point in the accounting modules (metrics.rs, runtime.rs, \
                  routing.rs): ledger bookkeeping is integer-exact",
        contract: "library code in the accounting modules contains no f32/f64 tokens and \
                   no float literals",
        rationale: "float accumulation is rounding-order dependent, so one reassociated \
                    sum would make ledgers diverge across refactors; probability math in \
                    crates/core is exempt — it never writes a ledger",
        fix: "keep counters u64 and compare via cross-multiplication instead of ratios; \
              floats belong in analysis/reporting crates",
    },
    RuleInfo {
        id: "R14",
        summary: "in crates/core, engine rounds are opened only by step-driven runner \
                  modules (files with an `impl Execution for`) or the sanctioned round \
                  substrate: ad-hoc round loops bypass the driver",
        contract: "every non-test `begin_round` call site in crates/core/src sits in a \
                   module that implements the `Execution` trait, or in the round \
                   substrate (cleanup.rs)",
        rationale: "checkpoint/resume is sound only if all round progress flows through \
                    `Execution::step`, where the driver counts steps and snapshots at \
                    boundaries; a round opened outside a runner module advances engine \
                    and ledger state the snapshot layer never sees",
        fix: "move the round loop into an `Execution::step` implementation (driving it \
              via `drive`/`drive_observed`), or — for shared leader-election style \
              subroutines called from `step` — house it in the round substrate module",
    },
    RuleInfo {
        id: "R18",
        summary: "observers are diagnostics-only: `RoundObserver` impls never reach \
                  ledger charging or round mutation",
        contract: "no method of a `RoundObserver` impl reaches, through the call \
                   graph, a `.charge_*` call or a `Round`/`RoundCore` mutator in \
                   crates/sim/src/runtime.rs",
        rationale: "the traced and untraced runs are pinned to identical ledgers; an \
                    observer that charges or mutates rounds would make `--trace` \
                    perturb the golden numbers it exists to explain",
        fix: "keep observers to recording (own fields, sinks); move any accounting \
              into the round core, the one module that can call the ledger charges",
    },
    RuleInfo {
        id: "R19",
        summary: "shard isolation: closures given to the `par_nodes` helpers index \
                  captured state only through their shard arguments",
        contract: "a closure passed to `par_zip_shards` / `par_scatter_shards` indexes \
                   mutable state only via its shard-slice parameters (any captured \
                   indexing is flagged); a `par_map_nodes` closure may read captured \
                   slices but not index-write them",
        rationale: "the deterministic thread pool only guarantees bit-identical runs \
                    because shards own disjoint slices; one captured `&mut` index \
                    crossing a shard boundary is a data race the tests can't reliably \
                    catch",
        fix: "pass the state in as a sharded argument, or carry a justified \
              allow(R19) citing the disjointness argument (as the audited scatter \
              core does)",
    },
    RuleInfo {
        id: "R20",
        summary: "executions are driven, not hand-stepped: outside the driver and the \
                  batch scheduler, library code never calls `.step()` directly",
        contract: "in crates/core and crates/sim non-test code, a `.step()` call \
                   appears only in crates/sim/src/driver.rs, in \
                   crates/sim/src/scheduler.rs, or inside a function itself named \
                   `step` (an `Execution` delegating to an inner execution)",
        rationale: "the scheduler's preemption accounting and the driver's \
                    checkpoint cadence both hinge on owning every step boundary; a \
                    hand-rolled `while let Status::Running = exec.step()` loop \
                    advances an execution the step counters and snapshot policy \
                    never see, so batch runs would silently drift from solo runs",
        fix: "drive the execution through `drive`/`drive_observed`/\
              `drive_with_checkpoints` or submit it to `BatchScheduler`; wrappers \
              that forward to an inner execution belong in their own `fn step`",
    },
    RuleInfo {
        id: "R21",
        summary: "determinism taint: shard indices, thread counts, and CC_MIS_* env reads \
                  never flow into ledger charges, RNG seeding, or snapshot writes",
        contract: "in crates/core and crates/sim library code, no value derived from a \
                   par_nodes shard index, thread_count()/available_parallelism(), or a \
                   std::env read appears as an argument to a .charge_* call, a \
                   SplitMix64/SharedRandomness constructor, or a SnapshotWriter write_*",
        rationale: "scheduling identity is the one input allowed to vary between runs of \
                    the same (seed, graph, params); the moment it seeds a stream, bills \
                    a ledger, or lands in a checkpoint, bit-determinism and \
                    resume-equivalence silently depend on the machine",
        fix: "derive the value from simulation state (node ids, round numbers, the \
              seed) instead; thread counts and shard indices may steer scheduling only",
    },
    RuleInfo {
        id: "P1",
        summary: "conform pragmas must be well-formed, name known rules, and carry a \
                  justification",
        contract: "every `conform: allow(...)` pragma parses, names existing rules, and \
                   ends with `-- <justification>`",
        rationale: "the escape hatch is part of the audit trail: an unjustified allow is \
                    indistinguishable from a silenced bug",
        fix: "write `// conform: allow(Rn) -- <why this site is sound>`",
    },
    RuleInfo {
        id: "P2",
        summary: "stale pragmas: a justified allow(RN) that no longer suppresses any \
                  finding at its site is reported so pragma debt cannot accrete",
        contract: "every rule named by a conform pragma actually fires (and is \
                   suppressed) at the pragma's site during the run",
        rationale: "a pragma that outlives its finding is pure audit noise: it documents \
                    a waiver for a hazard that no longer exists, and it would silently \
                    re-arm if the hazard ever returned in a different shape",
        fix: "delete the pragma (or the rule id within it) once the code it excused \
              has been fixed or removed",
    },
];

/// True if `id` names a rule (usable in a pragma).
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

pub(crate) fn in_sim_core(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/sim/src")
}

fn is_metrics(path: &str) -> bool {
    path == "crates/sim/src/metrics.rs"
}

/// The two modules that define `RoundLedger` charges: `metrics.rs` (the
/// public `charge_replay`) and `runtime.rs` (the round core's private
/// primitives).
fn is_ledger_module(path: &str) -> bool {
    is_metrics(path) || is_runtime(path)
}

fn is_runtime(path: &str) -> bool {
    path == "crates/sim/src/runtime.rs"
}

fn is_routing(path: &str) -> bool {
    path == "crates/sim/src/routing.rs"
}

/// The two seeded-stream modules, where R11 forbids any `.clone()`.
fn is_rng_module(path: &str) -> bool {
    path == "crates/sim/src/rng.rs" || path == "crates/graph/src/rng.rs"
}

/// The crates/core round substrate: shared subroutines (leader-election
/// clean-up) that open engine rounds on behalf of a runner's `step`.
fn is_round_substrate(path: &str) -> bool {
    path == "crates/core/src/cleanup.rs"
}

fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs")
}

/// Extracts the `charge_*` counter names declared (`fn charge_x`) in the
/// scanned ledger modules.
pub fn declared_counters(files: &[SourceFile]) -> Vec<String> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| is_ledger_module(&f.effective)) {
        for line in &f.lines {
            let mut rest = line.code.as_str();
            while let Some(at) = rest.find("fn charge_") {
                let ident_start = at + "fn ".len();
                let name: String = rest[ident_start..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !out.contains(&name) {
                    out.push(name);
                }
                rest = &rest[ident_start..];
            }
        }
    }
    out.sort();
    out
}

/// Runs the lexical rules (R1, R3–R7, R14) over one scanned file, appending
/// findings.
pub fn check_file(file: &SourceFile, counters: &[String], findings: &mut Vec<Finding>) {
    let path = file.effective.as_str();
    // R14 marker: a file that implements the `Execution` trait is a
    // driver-sanctioned runner module and may open engine rounds.
    let is_runner_module = file
        .lines
        .iter()
        .any(|l| l.code.contains("impl Execution for"));
    let mut has_forbid = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.contains("#![forbid(unsafe_code)]") {
            has_forbid = true;
        }
        if line.in_test {
            continue;
        }

        // R1 — deterministic collections in simulation code.
        if in_sim_core(path) {
            for pat in ["HashMap", "HashSet", "hash_map::", "hash_set::"] {
                if code.contains(pat) {
                    findings.push(Finding::new(
                        path,
                        lineno,
                        "R1",
                        format!(
                            "`{pat}` in node-simulation code: unordered iteration breaks the \
                             deterministic-replay contract; use BTreeMap/BTreeSet or an \
                             index-based Vec"
                        ),
                    ));
                    break;
                }
            }
        }

        // R3 — no ambient nondeterminism in library code.
        for pat in [
            "thread_rng",
            "SystemTime::now",
            "Instant::now",
            "rand::random",
            "RandomState",
            "from_entropy",
        ] {
            if code.contains(pat) {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R3",
                    format!(
                        "`{pat}` is ambient nondeterminism: all randomness and time must flow \
                         through the seeded rng modules so (seed, graph, params) fixes the run"
                    ),
                ));
                break;
            }
        }

        // R5 — panics must state the violated invariant.
        if in_sim_core(path) {
            if code.contains(".unwrap()") {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R5",
                    "bare `unwrap()` in library code: use `expect(\"<invariant>\")` or a typed \
                     error so a panic names the broken invariant",
                ));
            }
            if let Some(msg) = short_expect_message(line) {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R5",
                    format!("`expect(\"{msg}\")` message too short to state an invariant"),
                ));
            }
        }

        // R6 — charges go through declared counters; no direct field bumps.
        if !is_ledger_module(path) {
            if !counters.is_empty() {
                for name in charge_calls(code) {
                    if !counters.contains(&name) {
                        findings.push(Finding::new(
                            path,
                            lineno,
                            "R6",
                            format!(
                                "`{name}()` is not declared in crates/sim/src/metrics.rs or \
                                 runtime.rs: stale or ad-hoc counter (declared: {})",
                                counters.join(", ")
                            ),
                        ));
                    }
                }
            }
            if in_sim_core(path) {
                if let Some(field) = ledger_field_assignment(code) {
                    findings.push(Finding::new(
                        path,
                        lineno,
                        "R6",
                        format!(
                            "direct write to ledger counter `.{field}` bypasses the \
                             charge_* API; add or use a RoundLedger method so charges stay \
                             byte-identical, overflow-checked and auditable"
                        ),
                    ));
                }
            }
        }

        // R14 — in crates/core, engine rounds open only under the driver:
        // inside a runner module (one with an `impl Execution for`) or the
        // sanctioned round substrate. Anywhere else, round progress would
        // escape step counting and checkpoint boundaries.
        if path.starts_with("crates/core/src")
            && !is_round_substrate(path)
            && !is_runner_module
            && code.contains("begin_round")
        {
            findings.push(Finding::new(
                path,
                lineno,
                "R14",
                "`begin_round` outside a runner module: rounds in crates/core must be \
                 opened from an `Execution::step` implementation (or the round \
                 substrate) so the driver sees every step boundary for \
                 checkpoint/resume",
            ));
        }

        // R7 — engine bandwidth must reference named constants.
        check_bandwidth_literals(file, idx, findings);
    }

    // R4 — crate roots forbid unsafe code.
    if is_crate_root(path) && !has_forbid && !file.lines.is_empty() {
        findings.push(Finding::new(
            path,
            1,
            "R4",
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
}

/// Yields the names of `.charge_*()` method calls in `code`.
fn charge_calls(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find(".charge_") {
        let ident_start = at + 1;
        let name: String = rest[ident_start..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if rest[ident_start + name.len()..].starts_with('(') {
            out.push(name);
        }
        rest = &rest[ident_start..];
    }
    out
}

/// Ledger counter field names (RoundLedger and PhaseRecord).
const LEDGER_FIELDS: &[&str] = &["rounds", "messages", "bits", "violations"];

/// R6: the first ledger counter field that `code` writes: assigns to,
/// plainly (`x.bits = x.bits + y`) or compoundly (`x.bits += y`,
/// `x.bits <<= 1`), or mutably borrows through a plain field path
/// (`bump(&mut x.bits, y)`). Comparisons (`==`, `<=`, `>=`, `!=`) are not
/// assignments.
fn ledger_field_assignment(code: &str) -> Option<&'static str> {
    for field in LEDGER_FIELDS {
        let pat = format!(".{field}");
        for (at, _) in code.match_indices(&pat) {
            let rest = &code[at + pat.len()..];
            if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = rest.trim_start();
            let receiver_start =
                code[..at].trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == '.');
            let whole_field = rest.is_empty() || rest.starts_with([',', ')', ';']);
            if whole_field && receiver_start.trim_end().ends_with("&mut") {
                return Some(field);
            }
            let op = ["<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^="]
                .iter()
                .any(|op| rest.starts_with(op));
            let plain = rest.starts_with('=') && !rest[1..].starts_with(['=', '>']);
            if op || plain {
                return Some(field);
            }
        }
    }
    None
}

/// If the line calls `.expect("...")` with a string literal shorter than 4
/// characters, returns the literal (from the raw channel, where string
/// contents survive).
fn short_expect_message(line: &Line) -> Option<String> {
    let at = line.code.find(".expect(\"")?;
    // The code channel blanks string contents, so the literal must be read
    // from the raw text at its own offset.
    let raw_at = line.raw.find(".expect(\"")?;
    let _ = at;
    let msg_start = raw_at + ".expect(\"".len();
    let rest = &line.raw[msg_start..];
    let close = rest.find('"')?;
    let msg = &rest[..close];
    (msg.chars().count() < 4).then(|| msg.to_string())
}

const ENGINE_CTORS: &[&str] = &[
    "CliqueEngine::strict(",
    "CliqueEngine::audit(",
    "CliqueEngine::new(",
    "CongestEngine::strict(",
    "CongestEngine::audit(",
    "CongestEngine::new(",
];

/// R7: flags engine constructions whose bandwidth argument is a bare
/// integer literal (library code in crates/core and crates/sim only).
fn check_bandwidth_literals(file: &SourceFile, idx: usize, findings: &mut Vec<Finding>) {
    let path = file.effective.as_str();
    if !in_sim_core(path) {
        return;
    }
    let code = file.lines[idx].code.as_str();
    for pat in ENGINE_CTORS {
        let Some(at) = code.find(pat) else { continue };
        // Join up to 3 following lines so multi-line constructor calls
        // still parse; the args end at the matching close paren.
        let mut text = code[at + pat.len()..].to_string();
        for follow in file.lines.iter().skip(idx + 1).take(3) {
            text.push(' ');
            text.push_str(&follow.code);
        }
        let Some(args) = top_level_args(&text) else {
            continue;
        };
        if let Some(bandwidth) = args.get(1) {
            let b = bandwidth
                .trim()
                .trim_end_matches("u64")
                .trim_end_matches('_');
            if !b.is_empty() && b.chars().all(|c| c.is_ascii_digit() || c == '_') {
                findings.push(Finding::new(
                    path,
                    idx + 1,
                    "R7",
                    format!(
                        "magic bandwidth literal `{b}` in `{}`: reference the named O(log n) \
                         word-size constants (cc_mis_sim::bits::standard_bandwidth and friends) \
                         so the Lemma 2.12/2.14 bounds stay auditable",
                        pat.trim_end_matches('(')
                    ),
                ));
            }
        }
    }
}

/// Splits the text of an argument list (starting just after the opening
/// paren) at top-level commas; returns `None` if the close paren is never
/// found in the provided text.
fn top_level_args(text: &str) -> Option<Vec<String>> {
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '{' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' | '}' if depth > 0 => {
                depth -= 1;
                cur.push(c);
            }
            ')' => {
                args.push(cur);
                return Some(args);
            }
            ',' if depth == 0 => args.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    None
}

/// R8: checks one `Cargo.toml` for registry dependencies. Every entry in a
/// dependency table must resolve in-tree (`path = …` or `workspace = true`).
pub fn check_manifest(path: &str, text: &str, findings: &mut Vec<Finding>) {
    #[derive(PartialEq)]
    enum Section {
        Deps,
        /// `[dependencies.foo]` — judged when the section closes.
        DepEntry {
            name: String,
            line: usize,
            ok: bool,
        },
        Other,
    }
    let mut section = Section::Other;
    let close_entry = |section: &Section, findings: &mut Vec<Finding>| {
        if let Section::DepEntry { name, line, ok } = section {
            if !ok {
                findings.push(registry_finding(path, *line, name));
            }
        }
    };
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            close_entry(&section, findings);
            let name = line.trim_start_matches('[').trim_end_matches(']');
            section = if let Some(entry) = name
                .strip_prefix("dependencies.")
                .or_else(|| name.strip_prefix("dev-dependencies."))
                .or_else(|| name.strip_prefix("build-dependencies."))
                .or_else(|| name.strip_prefix("workspace.dependencies."))
            {
                Section::DepEntry {
                    name: entry.to_string(),
                    line: lineno,
                    ok: false,
                }
            } else if name.ends_with("dependencies") {
                Section::Deps
            } else {
                Section::Other
            };
            continue;
        }
        match &mut section {
            Section::Deps => {
                let Some((key, value)) = line.split_once('=') else {
                    continue;
                };
                let value = value.trim();
                if !value.contains("path") && !value.contains("workspace = true") {
                    findings.push(registry_finding(path, lineno, key.trim()));
                }
            }
            Section::DepEntry { ok, .. } => {
                let key = line.split('=').next().unwrap_or("").trim();
                if key == "path" || (key == "workspace" && line.contains("true")) {
                    *ok = true;
                }
            }
            Section::Other => {}
        }
    }
    close_entry(&section, findings);
}

fn registry_finding(path: &str, line: usize, name: &str) -> Finding {
    Finding::new(
        path,
        line,
        "R8",
        format!(
            "dependency `{name}` resolves to a registry crate: the workspace must build fully \
             offline — use a path/workspace dependency or vendor the code in-tree"
        ),
    )
}

/// Runs the structural rules R11, R13 and R20 over the whole parsed
/// workspace (`syntaxes` index-aligned with `sources`).
pub fn check_structural(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    findings: &mut Vec<Finding>,
) {
    check_r11(syntaxes, findings);
    check_r13(sources, syntaxes, findings);
    check_r20(sources, syntaxes, findings);
}

/// R11: RNG-stream discipline — no `.clone()` on stream state, no stream
/// construction inside loops, in library code. Inside the rng modules
/// themselves, any `.clone()` (test code included) needs a pragma.
fn check_r11(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        let path = fs.effective.as_str();
        let strict = is_rng_module(path);
        if !strict && !path.contains("/src/") {
            continue;
        }
        for span in &fs.fns {
            if span.is_test && !strict {
                continue;
            }
            let in_lib = !span.is_test;
            walk_exprs(fs.body_of(span), ExprCtx::default(), &mut |sibs, i, ctx| {
                if ctx.in_macro {
                    return;
                }
                // `.clone()` on a receiver that names an RNG stream (any
                // receiver at all inside the rng modules).
                if ident_of(&sibs[i]) == Some("clone")
                    && i >= 2
                    && punct_of(&sibs[i - 1]) == Some('.')
                    && matches!(sibs.get(i + 1), Some(Tree::Group(g)) if g.delim == '(')
                {
                    let receiver = sibs.get(i - 2).and_then(ident_of).unwrap_or("");
                    let lower = receiver.to_ascii_lowercase();
                    let rng_ish = lower.contains("rng") || lower.contains("rand");
                    if (in_lib && rng_ish) || strict {
                        findings.push(Finding::new(
                            path,
                            line_of(&sibs[i]),
                            "R11",
                            format!(
                                "`{}.clone()` duplicates seeded stream state: a cloned \
                                 stream replays the same coins, breaking independence; \
                                 pass `&mut` to the one stream or derive a keyed substream",
                                if receiver.is_empty() {
                                    "<expr>"
                                } else {
                                    receiver
                                }
                            ),
                        ));
                    }
                }
                // `SplitMix64::…` / `SharedRandomness::…` inside a loop body
                // re-seeds a stream per iteration.
                if in_lib
                    && ctx.in_loop
                    && matches!(ident_of(&sibs[i]), Some("SplitMix64" | "SharedRandomness"))
                    && punct_of(sibs.get(i + 1).unwrap_or(&sibs[i])) == Some(':')
                {
                    findings.push(Finding::new(
                        path,
                        line_of(&sibs[i]),
                        "R11",
                        format!(
                            "`{}` constructed inside a loop: re-seeding per iteration \
                             correlates draws across iterations; hoist the stream out of \
                             the loop or key a substream per index (mix3)",
                            ident_of(&sibs[i]).unwrap_or("stream")
                        ),
                    ));
                }
            });
        }
    }
}

/// R13: the accounting modules are integer-exact — no float types or
/// literals in library lines of metrics.rs, runtime.rs, or routing.rs.
fn check_r13(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for (fi, fs) in syntaxes.iter().enumerate() {
        let path = fs.effective.as_str();
        if !(is_metrics(path) || is_runtime(path) || is_routing(path)) {
            continue;
        }
        let lines = &sources[fi].lines;
        // Per offending line, the first offense description.
        let mut offenses: Vec<(usize, String)> = Vec::new();
        visit_float_tokens(&fs.roots, &mut |line, what| {
            if !offenses.iter().any(|(l, _)| *l == line) {
                offenses.push((line, what.to_string()));
            }
        });
        offenses.sort_by_key(|&(l, _)| l);
        for (lineno, what) in offenses {
            if lines.get(lineno - 1).is_none_or(|line| line.in_test) {
                continue;
            }
            findings.push(Finding::new(
                path,
                lineno,
                "R13",
                format!(
                    "{what} in an accounting module: ledger bookkeeping must be \
                     integer-exact (float accumulation is rounding-order dependent); \
                     keep counters u64 and compare via cross-multiplication"
                ),
            ));
        }
    }
}

/// R20: executions are driven, not hand-stepped — in sim-core library
/// code, `.step()` is called only by the driver, the batch scheduler, or a
/// `fn step` forwarding to an inner execution. Any other call site
/// advances an execution outside the step accounting that preemption and
/// checkpoint cadence are built on.
fn check_r20(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for (fi, fs) in syntaxes.iter().enumerate() {
        let path = fs.effective.as_str();
        if !in_sim_core(path) || is_step_owner(path) {
            continue;
        }
        let lines = &sources[fi].lines;
        for f in &fs.fns {
            if f.is_test || f.name == "step" {
                continue;
            }
            for lineno in f.start_line..=f.end_line {
                let Some(line) = lines.get(lineno - 1) else {
                    continue;
                };
                if line.in_test || !line.code.contains(".step()") {
                    continue;
                }
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R20",
                    format!(
                        "`.step()` called in `{}`, outside the driver/scheduler: a \
                         hand-rolled step loop bypasses the step counters that \
                         preemption and checkpoint cadence rely on — drive the \
                         execution via `drive*` or `BatchScheduler`, or forward from \
                         a `fn step`",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// The two modules sanctioned to advance executions step-by-step: the
/// solo driver and the batch scheduler.
fn is_step_owner(path: &str) -> bool {
    path == "crates/sim/src/driver.rs" || path == "crates/sim/src/scheduler.rs"
}

/// Calls `f(line, description)` for every float type name or float literal
/// in `trees` (recursively).
fn visit_float_tokens(trees: &[Tree], f: &mut impl FnMut(usize, &str)) {
    for t in trees {
        match t {
            Tree::Leaf(Token {
                tok: Tok::Ident(s),
                line,
            }) if s == "f64" || s == "f32" => f(*line, "float type `f64`/`f32`"),
            Tree::Leaf(Token {
                tok: Tok::Num(s),
                line,
            }) if s.contains('.') || s.contains("f64") || s.contains("f32") => {
                f(*line, "float literal")
            }
            Tree::Group(g) => visit_float_tokens(&g.children, f),
            Tree::Leaf(_) => {}
        }
    }
}
