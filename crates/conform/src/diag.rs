//! Findings and stable diagnostic rendering.

use cc_mis_analysis::json::Json;

/// One conformance finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (or fixture effective path).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`R1`..`R21`, or `P1`/`P2` for pragma violations).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(path: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Self {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }

    /// The stable one-line diagnostic form: `file:line rule-id message`.
    pub fn render(&self) -> String {
        format!("{}:{} {} {}", self.path, self.line, self.rule, self.message)
    }

    /// Severity class: pragma violations (`P1`) are errors — a broken
    /// escape hatch may be silencing anything — as is determinism taint
    /// (`R21`), which corrupts reproducibility rather than merely drifting
    /// from the model. Every other rule finding is a warning (the CI gate
    /// still fails on warnings; the split feeds the exit code and SARIF
    /// levels).
    pub fn severity(&self) -> &'static str {
        match self.rule {
            "P1" | "R21" => "error",
            _ => "warning",
        }
    }
}

/// Sorts findings into the stable output order (path, line, rule).
pub fn sort(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}

/// Renders findings as a SARIF 2.1.0 log, the interchange format CI
/// annotation tooling consumes. One run, one driver (`cc-mis-conform`),
/// rule metadata from [`crate::rules::RULES`], one result per finding.
pub fn to_sarif(findings: &[Finding]) -> String {
    let rules: Vec<Json> = crate::rules::RULES
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("id", Json::Str(r.id.to_string())),
                (
                    "shortDescription",
                    Json::obj(vec![("text", Json::Str(r.summary.to_string()))]),
                ),
                (
                    "fullDescription",
                    Json::obj(vec![("text", Json::Str(r.contract.to_string()))]),
                ),
                (
                    "help",
                    Json::obj(vec![(
                        "text",
                        Json::Str(format!("{} Fix: {}", r.rationale, r.fix)),
                    )]),
                ),
            ])
        })
        .collect();
    let results: Vec<Json> = findings
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("ruleId", Json::Str(f.rule.to_string())),
                ("level", Json::Str(f.severity().to_string())),
                (
                    "message",
                    Json::obj(vec![("text", Json::Str(f.message.clone()))]),
                ),
                (
                    "locations",
                    Json::Arr(vec![Json::obj(vec![(
                        "physicalLocation",
                        Json::obj(vec![
                            (
                                "artifactLocation",
                                Json::obj(vec![("uri", Json::Str(f.path.clone()))]),
                            ),
                            (
                                "region",
                                Json::obj(vec![("startLine", Json::UInt(f.line as u64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "$schema",
            Json::Str(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                    .to_string(),
            ),
        ),
        ("version", Json::Str("2.1.0".to_string())),
        (
            "runs",
            Json::Arr(vec![Json::obj(vec![
                (
                    "tool",
                    Json::obj(vec![(
                        "driver",
                        Json::obj(vec![
                            ("name", Json::Str("cc-mis-conform".to_string())),
                            ("informationUri", Json::Str("DESIGN.md".to_string())),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_file_line_rule_message() {
        let f = Finding::new("crates/x/src/a.rs", 7, "R1", "no hash iteration");
        assert_eq!(f.render(), "crates/x/src/a.rs:7 R1 no hash iteration");
    }

    #[test]
    fn sort_orders_by_path_then_line_then_rule() {
        let mut v = vec![
            Finding::new("b.rs", 1, "R1", "m"),
            Finding::new("a.rs", 9, "R5", "m"),
            Finding::new("a.rs", 9, "R3", "m"),
            Finding::new("a.rs", 2, "R8", "m"),
        ];
        sort(&mut v);
        let order: Vec<(String, usize, &str)> =
            v.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2, "R8"),
                ("a.rs".to_string(), 9, "R3"),
                ("a.rs".to_string(), 9, "R5"),
                ("b.rs".to_string(), 1, "R1"),
            ]
        );
    }
}
