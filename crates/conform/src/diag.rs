//! Findings and stable diagnostic rendering.

/// One conformance finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (or fixture effective path).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`R3`..`R21`, or `P1`/`P2` for pragma violations).
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
    /// still fails on warnings; the split feeds the exit code).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_file_line_rule_message() {
        let f = Finding::new("crates/x/src/a.rs", 7, "R3", "ambient time");
        assert_eq!(f.render(), "crates/x/src/a.rs:7 R3 ambient time");
    }

    #[test]
    fn sort_orders_by_path_then_line_then_rule() {
        let mut v = vec![
            Finding::new("b.rs", 1, "R7", "m"),
            Finding::new("a.rs", 9, "R5", "m"),
            Finding::new("a.rs", 9, "R3", "m"),
            Finding::new("a.rs", 2, "R6", "m"),
        ];
        sort(&mut v);
        let order: Vec<(String, usize, &str)> =
            v.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2, "R6"),
                ("a.rs".to_string(), 9, "R3"),
                ("a.rs".to_string(), 9, "R5"),
                ("b.rs".to_string(), 1, "R7"),
            ]
        );
    }
}
