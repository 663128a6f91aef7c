//! The conformance rule set.
//!
//! Each rule enforces one contract the reproduction's guarantees rest on
//! (see DESIGN.md §8 for the rule ↔ contract table). Rules are lexical:
//! they run over the scanner's code channel, so comments, doc-examples,
//! and string contents never trip them, and most rules skip test code
//! (the contracts bind the simulation, not its assertions).

use crate::diag::Finding;
use crate::scanner::{Line, SourceFile};
use crate::syntax::{ident_of, line_of, punct_of, walk_exprs, ExprCtx, FileSyntax, Tree};

/// Static description of one rule. DESIGN.md §8 states each rule's
/// contract and fix.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// All rules, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R3",
        summary: "no ambient nondeterminism (thread_rng, SystemTime::now, Instant::now, \
                  RandomState) in library code: randomness must flow through seeded rng modules",
    },
    RuleInfo {
        id: "R5",
        summary: "no short expect() messages in crates/core and crates/sim library code: \
                  panics must name the violated invariant",
    },
    RuleInfo {
        id: "R6",
        summary: "no direct write to ledger counter fields in crates/core and crates/sim \
                  library code outside the ledger modules (metrics.rs, runtime.rs)",
    },
    RuleInfo {
        id: "R7",
        summary: "engine bandwidth arguments in library code reference the named O(log n) \
                  word-size constants (cc_mis_sim::bits), never magic literals",
    },
    RuleInfo {
        id: "R11",
        summary: "RNG-stream discipline: seeded per-node streams are never .clone()d, and \
                  never re-seeded inside loops in library code",
    },
    RuleInfo {
        id: "R14",
        summary: "in crates/core, engine rounds are opened only by step-driven runner \
                  modules (files with an `impl Execution for`) or the sanctioned round \
                  substrate: ad-hoc round loops bypass the driver",
    },
    RuleInfo {
        id: "R18",
        summary: "observers are diagnostics-only: `RoundObserver` impls never reach \
                  ledger charging or round mutation",
    },
    RuleInfo {
        id: "R19",
        summary: "shard isolation: closures given to the `par_nodes` helpers index \
                  captured state only through their shard arguments",
    },
    RuleInfo {
        id: "R20",
        summary: "executions are driven, not hand-stepped: outside the driver and the \
                  batch scheduler, library code never calls `.step()` directly",
    },
    RuleInfo {
        id: "R21",
        summary: "determinism taint: shard indices, thread counts, and CC_MIS_* env reads \
                  never flow into ledger charges, RNG seeding, or snapshot writes",
    },
    RuleInfo {
        id: "P1",
        summary: "conform pragmas must be well-formed, name known rules, and carry a \
                  justification",
    },
    RuleInfo {
        id: "P2",
        summary: "stale pragmas: a justified allow(RN) that no longer suppresses any \
                  finding at its site is reported so pragma debt cannot accrete",
    },
];

/// True if `id` names a rule (usable in a pragma).
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

pub(crate) fn in_sim_core(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/sim/src")
}

/// The two modules that define `RoundLedger` charges: `metrics.rs` (the
/// public `charge_replay`) and `runtime.rs` (the round core's private
/// primitives).
fn is_ledger_module(path: &str) -> bool {
    path == "crates/sim/src/metrics.rs" || path == "crates/sim/src/runtime.rs"
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

/// Runs the lexical rules (R3, R5–R7, R14) over one scanned file,
/// appending findings.
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let path = file.effective.as_str();
    // R14 marker: a file that implements the `Execution` trait is a
    // driver-sanctioned runner module and may open engine rounds.
    let is_runner_module = file
        .lines
        .iter()
        .any(|l| l.code.contains("impl Execution for"));
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if line.in_test {
            continue;
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

        // R5 — panics must state the violated invariant (clippy's
        // `unwrap_used` covers bare unwraps).
        if in_sim_core(path) {
            if let Some(msg) = short_expect_message(line) {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R5",
                    format!("`expect(\"{msg}\")` message too short to state an invariant"),
                ));
            }
        }

        // R6 — no direct bumps of ledger counter fields.
        if in_sim_core(path) && !is_ledger_module(path) {
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
    // The call must be code, not comment; the code channel blanks string
    // contents, so the literal itself is read from the raw text.
    line.code.find(".expect(\"")?;
    let raw_at = line.raw.find(".expect(\"")?;
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

/// Runs the structural rules R11 and R20 over the whole parsed workspace
/// (`syntaxes` index-aligned with `sources`).
pub fn check_structural(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    findings: &mut Vec<Finding>,
) {
    check_r11(syntaxes, findings);
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
