//! `cc-mis-conform` — command-line front end for the conformance linter.
//!
//! ```text
//! cc-mis-conform --workspace            # lint the whole workspace (default)
//! cc-mis-conform --list-rules           # print the rule set (DESIGN.md §8
//!                                       # has each rule's contract and fix)
//! cc-mis-conform --root DIR [PATH...]   # lint specific files under DIR
//! ```
//!
//! Exits 0 on a conform-clean tree, 1 on rule findings, 3 on any
//! error-severity finding (`P1` broken escape hatch, `R21` determinism
//! taint), 2 on usage or I/O errors. Diagnostics are stable
//! `file:line rule-id message` lines.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cc_mis_conform::{check, check_workspace, find_workspace_root, rules, Input};

const USAGE: &str = "usage: cc-mis-conform [--workspace] [--list-rules] [--root DIR] [PATH...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--list-rules" => list_rules = true,
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

    let result = if paths.is_empty() {
        let start = root.unwrap_or_else(|| PathBuf::from("."));
        let Some(ws) = find_workspace_root(&start) else {
            eprintln!(
                "error: no workspace root (Cargo.toml with [workspace]) at or above {}",
                start.display()
            );
            return ExitCode::from(2);
        };
        check_workspace(&ws)
    } else {
        let base = root.unwrap_or_else(|| PathBuf::from("."));
        read_inputs(&base, &paths).map(|inputs| check(&inputs))
    };
    let findings = match result {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        eprintln!("conform: clean");
    } else {
        eprintln!("conform: {} finding(s)", findings.len());
    }
    // Severity-aware exit: error findings (P1 broken escape hatch, R21
    // determinism taint) outrank ordinary findings so CI can distinguish
    // "state corruption" from "style drift".
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

/// Reads explicit file arguments (relative to `base` unless absolute).
fn read_inputs(base: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<Input>> {
    paths
        .iter()
        .map(|p| {
            let full = if p.is_absolute() {
                p.clone()
            } else {
                base.join(p)
            };
            Ok(Input {
                path: p.to_string_lossy().replace('\\', "/"),
                text: std::fs::read_to_string(&full)?,
            })
        })
        .collect()
}
