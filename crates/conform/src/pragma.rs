//! The conformance allow-pragma grammar.
//!
//! A finding may be suppressed in place with a justified pragma comment:
//!
//! ```text
//! // conform: allow(R3) -- wall-clock harness, not a charged path
//! let start = Instant::now();
//! ```
//!
//! Grammar: after the `conform` marker and a colon, `allow(<rule>[, <rule>...])`
//! followed by ` -- <justification>`. The justification is **mandatory** — an allow with no reason is itself a
//! conformance finding (`P1`), as is an allow naming an unknown rule. A
//! pragma applies to its own line and the immediately following line.
//!
//! Only plain `//` comments carry pragmas: doc comments (`///`, `//!`)
//! are rendered documentation, so a pragma-shaped line there (like the
//! example above) illustrates the grammar without directing the linter —
//! and without tripping the `P2` stale-pragma audit.
//!
//! A pragma that suppresses nothing is itself a finding (`P2`): every
//! waiver in the audit trail must still be pulling its weight.

use crate::diag::Finding;
use crate::rules::rule_exists;
use crate::scanner::SourceFile;

/// A parsed, validated pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// Rules the pragma suppresses.
    pub rules: Vec<String>,
}

/// Extracts pragmas from `file`'s comment channel. Malformed or
/// unjustified pragmas are reported into `findings` (rule `P1`) and do not
/// suppress anything.
pub fn collect(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(at) = line.comment.find("conform:") else {
            continue;
        };
        // Doc comments document; only plain comments direct the linter.
        let trimmed = line.raw.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let lineno = idx + 1;
        let body = line.comment[at + "conform:".len()..].trim();
        match parse(body) {
            Ok(rules) => pragmas.push(Pragma {
                line: lineno,
                rules,
            }),
            Err(msg) => findings.push(Finding::new(&file.effective, lineno, "P1", msg)),
        }
    }
    pragmas
}

/// Parses `allow(<rules>) -- <justification>`, returning the rule list.
fn parse(body: &str) -> Result<Vec<String>, String> {
    let rest = body.strip_prefix("allow").ok_or_else(|| {
        "malformed conform pragma: expected `conform: allow(<rule>) -- <justification>`".to_string()
    })?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or("malformed conform pragma: missing `(` after `allow`")?;
    let close = rest
        .find(')')
        .ok_or("malformed conform pragma: missing `)`")?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("conform pragma allows no rules".to_string());
    }
    for r in &rules {
        if !rule_exists(r) {
            return Err(format!("conform pragma names unknown rule `{r}`"));
        }
    }
    let after = rest[close + 1..].trim_start();
    let justification = after.strip_prefix("--").map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(
            "conform pragma requires a justification: `conform: allow(<rule>) -- <why>`"
                .to_string(),
        );
    }
    Ok(rules)
}

/// If `pragmas` suppress `rule` at 1-based line `lineno` (a pragma covers
/// its own line and the next one), returns the line of the pragma doing
/// the suppressing — callers record it as a "hit" so the P2 stale-pragma
/// pass knows which `(pragma, rule)` pairs still pull their weight.
pub fn suppressing(pragmas: &[Pragma], rule: &str, lineno: usize) -> Option<usize> {
    pragmas
        .iter()
        .find(|p| (p.line == lineno || p.line + 1 == lineno) && p.rules.iter().any(|r| r == rule))
        .map(|p| p.line)
}

/// Emits a P2 finding for every `(pragma, rule)` pair in `pragmas` that
/// registered no hit — the rule never fired (suppressed) at that site, so
/// the pragma is stale debt.
pub fn check_stale(
    effective: &str,
    pragmas: &[Pragma],
    hits: &[(usize, String)],
    findings: &mut Vec<Finding>,
) {
    for p in pragmas {
        for rule in &p.rules {
            if hits.iter().any(|(l, r)| *l == p.line && r == rule) {
                continue;
            }
            findings.push(Finding::new(
                effective,
                p.line,
                "P2",
                format!(
                    "stale pragma: `allow({rule})` suppresses nothing here — the rule no \
                     longer fires at this site; delete the pragma (or drop `{rule}` from \
                     it) so the audit trail only lists live waivers"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;

    fn pragmas_of(src: &str) -> (Vec<Pragma>, Vec<Finding>) {
        let f = scan_str("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        let p = collect(&f, &mut findings);
        (p, findings)
    }

    #[test]
    fn justified_pragma_parses() {
        let (p, f) = pragmas_of("// conform: allow(R3, R5) -- test scaffolding only\n");
        assert!(f.is_empty());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rules, vec!["R3", "R5"]);
        assert_eq!(suppressing(&p, "R5", 1), Some(1));
        assert_eq!(suppressing(&p, "R5", 2), Some(1));
        assert_eq!(suppressing(&p, "R5", 3), None);
        assert_eq!(suppressing(&p, "R7", 2), None);
    }

    #[test]
    fn missing_justification_is_a_finding() {
        let (p, f) = pragmas_of("// conform: allow(R3)\n");
        assert!(p.is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "P1");
        assert!(f[0].message.contains("justification"));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let (p, f) = pragmas_of("// conform: allow(R99) -- because\n");
        assert!(p.is_empty());
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn malformed_pragma_is_a_finding() {
        let (p, f) = pragmas_of("// conform: disallow(R3) -- x\n");
        assert!(p.is_empty());
        assert_eq!(f[0].rule, "P1");
    }

    #[test]
    fn doc_comment_pragmas_are_documentation_not_directives() {
        let (p, f) = pragmas_of(
            "//! // conform: allow(R3) -- grammar example in module docs\n\
             /// // conform: allow(R3)\n",
        );
        assert!(p.is_empty(), "{p:?}");
        assert!(f.is_empty(), "a malformed doc example is not a P1: {f:?}");
    }

    #[test]
    fn stale_pragma_rules_are_reported_individually() {
        let (p, _) = pragmas_of("// conform: allow(R3, R5) -- scaffolding\n");
        let mut findings = Vec::new();
        // Only R3 registered a hit; R5 is stale.
        check_stale(
            "crates/core/src/x.rs",
            &p,
            &[(1, "R3".to_string())],
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "P2");
        assert!(findings[0].message.contains("allow(R5)"), "{findings:?}");
    }
}
