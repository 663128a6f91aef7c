//! `cc-mis-conform` — command-line front end for the conformance linter.
//!
//! ```text
//! cc-mis-conform --workspace            # lint the whole workspace (default)
//! cc-mis-conform --workspace --json     # machine-readable findings
//! cc-mis-conform --sarif out.sarif      # also write a SARIF 2.1.0 log
//! cc-mis-conform --baseline base.txt    # gate on *new* findings only
//! cc-mis-conform --timings              # per-phase wall clock on stderr
//! cc-mis-conform --fix                  # apply mechanical fixes in place
//! cc-mis-conform --fix --diff           # dry run: print the would-be diff
//! cc-mis-conform --no-cache             # skip the persistent result cache
//! cc-mis-conform --list-rules           # print the rule set
//! cc-mis-conform --explain R10          # contract, rationale, fix recipe
//! cc-mis-conform --root DIR [PATH...]   # lint specific files/dirs under DIR
//! ```
//!
//! Exits 0 on a conform-clean tree, 1 on rule findings, 3 on any
//! error-severity finding (`P1` broken escape hatch, `R16` pool leak,
//! `R21` determinism taint), 2 on usage or I/O errors. Diagnostics are
//! stable `file:line rule-id message` lines. With `--baseline PATH`, the
//! first run writes a normalized snapshot of current findings and later
//! runs subtract it — error-severity findings always surface.
//!
//! Workspace runs reuse `target/conform-cache.bin` (content-hash keyed;
//! `--timings` reports hits/misses); `--no-cache` and `--fix` bypass it.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cc_mis_conform::{
    baseline, check_with, check_workspace_cached, check_workspace_with, diag, find_workspace_root,
    fixes, rules, scanner, workspace_inputs, Finding, Input, Timings,
};

const USAGE: &str = "usage: cc-mis-conform [--workspace] [--json] [--sarif PATH] \
                     [--baseline PATH] [--timings] [--fix [--diff]] [--no-cache] \
                     [--list-rules] [--explain RULE] [--root DIR] [PATH...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut list_rules = false;
    let mut explain: Option<String> = None;
    let mut sarif: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut timings = false;
    let mut fix = false;
    let mut diff = false;
    let mut no_cache = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--json" => json = true,
            "--timings" => timings = true,
            "--fix" => fix = true,
            "--diff" => diff = true,
            "--no-cache" => no_cache = true,
            "--list-rules" => list_rules = true,
            "--explain" => match it.next() {
                Some(rule) => explain = Some(rule.clone()),
                None => return usage_error("--explain needs a rule id (e.g. R10)"),
            },
            "--sarif" => match it.next() {
                Some(path) => sarif = Some(PathBuf::from(path)),
                None => return usage_error("--sarif needs an output path"),
            },
            "--baseline" => match it.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => return usage_error("--baseline needs a snapshot path"),
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}`"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    if list_rules {
        for rule in rules::RULES {
            println!("{:3}  {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(id) = explain {
        let Some(rule) = rules::RULES.iter().find(|r| r.id == id) else {
            return usage_error(&format!(
                "unknown rule `{id}` (try --list-rules for the rule set)"
            ));
        };
        println!("{}  {}", rule.id, rule.summary);
        println!();
        println!("contract:  {}", rule.contract);
        println!("rationale: {}", rule.rationale);
        println!("fix:       {}", rule.fix);
        return ExitCode::SUCCESS;
    }

    if diff && !fix {
        return usage_error("--diff only makes sense together with --fix");
    }

    let mut phase_times = Timings::default();
    let mut findings = if paths.is_empty() {
        let start = root.clone().unwrap_or_else(|| PathBuf::from("."));
        let Some(ws) = find_workspace_root(&start) else {
            eprintln!(
                "error: no workspace root (Cargo.toml with [workspace]) at or above {}",
                start.display()
            );
            return ExitCode::from(2);
        };
        // `--fix` rewrites files the cache would key on, so it (like
        // `--no-cache`) runs the full pipeline.
        let result = if fix {
            workspace_inputs(&ws).map(|inputs| {
                let findings = check_with(&inputs, timings.then_some(&mut phase_times));
                let disks: Vec<PathBuf> = inputs.iter().map(|i| ws.join(&i.path)).collect();
                apply_fixes(&inputs, &disks, &findings, diff);
                findings
            })
        } else if no_cache {
            check_workspace_with(&ws, timings.then_some(&mut phase_times))
        } else {
            check_workspace_cached(&ws, timings.then_some(&mut phase_times))
        };
        match result {
            Ok(findings) => findings,
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        let base = root.unwrap_or_else(|| PathBuf::from("."));
        match read_inputs(&base, &paths) {
            Ok((inputs, disks)) => {
                let findings = check_with(&inputs, timings.then_some(&mut phase_times));
                if fix {
                    apply_fixes(&inputs, &disks, &findings, diff);
                }
                findings
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        }
    };
    if timings {
        eprintln!("{}", phase_times.render());
    }

    if let Some(path) = baseline_path {
        match baseline::apply(&path, &mut findings) {
            Ok(out) if out.wrote => eprintln!(
                "conform: baseline written to {} ({} finding(s) recorded)",
                path.display(),
                out.suppressed
            ),
            Ok(out) => eprintln!(
                "conform: baseline {} suppressed {} known finding(s)",
                path.display(),
                out.suppressed
            ),
            Err(err) => {
                eprintln!("error: baseline {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = sarif {
        if let Err(err) = std::fs::write(&path, diag::to_sarif(&findings)) {
            eprintln!("error: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", diag::to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            eprintln!("conform: clean");
        } else {
            eprintln!("conform: {} finding(s)", findings.len());
        }
    }
    // Severity-aware exit: error findings (P1 broken escape hatch, R16
    // pool leak, R21 determinism taint) outrank ordinary findings so
    // CI can distinguish "state corruption" from "style drift".
    if findings.iter().any(|f| f.severity() == "error") {
        ExitCode::from(3)
    } else if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Reads explicit file arguments (relative to `base` unless absolute),
/// returning the inputs plus their on-disk paths (for `--fix`).
fn read_inputs(base: &Path, paths: &[PathBuf]) -> std::io::Result<(Vec<Input>, Vec<PathBuf>)> {
    let mut inputs = Vec::new();
    let mut disks = Vec::new();
    for p in paths {
        let full = if p.is_absolute() {
            p.clone()
        } else {
            base.join(p)
        };
        let text = std::fs::read_to_string(&full)?;
        inputs.push(Input {
            path: p.to_string_lossy().replace('\\', "/"),
            text,
        });
        disks.push(full);
    }
    Ok((inputs, disks))
}

/// Applies (or, with `diff`, previews) every mechanical fix in `findings`.
/// Findings are keyed by *effective* path; each is mapped back to the
/// on-disk input whose effective path matches, then all of that file's
/// edits are applied in one right-to-left pass.
fn apply_fixes(inputs: &[Input], disks: &[PathBuf], findings: &[Finding], diff: bool) {
    let mut total_edits = 0usize;
    let mut files_changed = 0usize;
    for (input, disk) in inputs.iter().zip(disks) {
        let effective = scanner::effective_path(&input.path, &input.text);
        let edits: Vec<fixes::Edit> = findings
            .iter()
            .filter(|f| f.path == effective)
            .filter_map(|f| f.fix.as_ref())
            .flat_map(|fix| fix.edits.iter().cloned())
            .collect();
        if edits.is_empty() {
            continue;
        }
        let (after, applied) = fixes::apply(&input.text, &edits);
        if applied == 0 || after == input.text {
            continue;
        }
        if diff {
            print!("{}", fixes::render_diff(&input.path, &input.text, &after));
        } else if let Err(err) = std::fs::write(disk, &after) {
            eprintln!("error: writing {}: {err}", disk.display());
            continue;
        }
        total_edits += applied;
        files_changed += 1;
    }
    eprintln!(
        "conform: {total_edits} fix(es) across {files_changed} file(s){}",
        if diff { " (dry run)" } else { "" }
    );
}
