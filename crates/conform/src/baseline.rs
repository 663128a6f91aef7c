//! Findings baseline: "no new findings" CI gating.
//!
//! `--baseline PATH` supports incremental adoption of new rules: the first
//! run writes a normalized snapshot of the current findings, later runs
//! subtract it, and the exit code reflects only *new* findings. Keys are
//! [`crate::diag::baseline_key`] lines (rule, path, message — no line
//! numbers, so unrelated edits don't churn the file). Error-severity
//! findings (`P1`, `R16`, `R21`) are never baselined: a broken escape
//! hatch or corrupted-state bug must always fail the gate.

use crate::diag::{self, Finding};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// What applying a baseline did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineOutcome {
    /// True if the baseline file did not exist and was written.
    pub wrote: bool,
    /// Findings removed because the baseline already records them.
    pub suppressed: usize,
}

/// Applies (or, if `path` does not exist, writes) the baseline at `path`,
/// removing known non-error findings from `findings` in place.
pub fn apply(path: &Path, findings: &mut Vec<Finding>) -> io::Result<BaselineOutcome> {
    let before = findings.len();
    match fs::read_to_string(path) {
        Ok(text) => {
            let known: BTreeSet<&str> = text
                .lines()
                .map(str::trim_end)
                .filter(|l| !l.is_empty())
                .collect();
            findings.retain(|f| {
                f.severity() == "error" || !known.contains(diag::baseline_key(f).as_str())
            });
            Ok(BaselineOutcome {
                wrote: false,
                suppressed: before - findings.len(),
            })
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let keys: BTreeSet<String> = findings
                .iter()
                .filter(|f| f.severity() != "error")
                .map(diag::baseline_key)
                .collect();
            let mut doc = String::new();
            for k in &keys {
                doc.push_str(k);
                doc.push('\n');
            }
            fs::write(path, doc)?;
            findings.retain(|f| f.severity() == "error");
            Ok(BaselineOutcome {
                wrote: true,
                suppressed: before - findings.len(),
            })
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, msg: &str) -> Finding {
        Finding::new(path, 1, rule, msg)
    }

    fn temp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("conform-baseline-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir creates");
        dir.join("baseline.txt")
    }

    #[test]
    fn first_run_writes_and_suppresses() {
        let path = temp("write");
        let mut v = vec![f("R1", "a.rs", "m1"), f("P1", "a.rs", "broken pragma")];
        let out = apply(&path, &mut v).expect("baseline writes");
        assert!(out.wrote);
        assert_eq!(out.suppressed, 1);
        // The error finding survives; the warning is now baselined.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P1");
        let text = fs::read_to_string(&path).expect("baseline readable");
        assert!(text.contains("R1\ta.rs\tm1"));
        assert!(!text.contains("P1"), "errors are never baselined: {text}");
    }

    #[test]
    fn second_run_flags_only_new_findings() {
        let path = temp("diff");
        let mut first = vec![f("R1", "a.rs", "m1")];
        apply(&path, &mut first).expect("baseline writes");
        let mut second = vec![f("R1", "a.rs", "m1"), f("R2", "b.rs", "new finding")];
        let out = apply(&path, &mut second).expect("baseline applies");
        assert!(!out.wrote);
        assert_eq!(out.suppressed, 1);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].rule, "R2");
    }
}
