//! Benchmark regression gate: compares a fresh harness run against the
//! pinned medians in `results/bench_*.json`.
//!
//! Both inputs are the JSON-lines format written by
//! [`crate::harness::Harness::finish`] — one object per group, each with a
//! `results` array of `{name, samples, min_ns, median_ns, q1_ns, q3_ns,
//! mean_ns}`
//! records. The gate compares **medians** (robust to a single noisy
//! sample) and fails when a case slows down by more than the allowed
//! percentage, or disappears from the fresh run entirely.
//!
//! Used by `scripts/bench.sh --check` via the `bench_check` binary; see
//! `scripts/tier1.sh` for the opt-in CI hook.

/// One pinned case matched (or not) against the fresh run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseCheck {
    /// `group/name` label from the pinned file.
    pub name: String,
    /// Pinned median, nanoseconds.
    pub pinned_ns: u64,
    /// Fresh median, nanoseconds; `None` if the case vanished.
    pub fresh_ns: Option<u64>,
}

impl CaseCheck {
    /// True if this case regressed: missing from the fresh run, or slower
    /// than `pinned * (100 + max_regress_pct) / 100`. Integer
    /// cross-multiplication — no rounding to argue about.
    pub fn regressed(&self, max_regress_pct: u64) -> bool {
        match self.fresh_ns {
            None => true,
            Some(fresh) => fresh * 100 > self.pinned_ns * (100 + max_regress_pct),
        }
    }
}

/// Extracts `(case name, median_ns)` pairs for `group` from harness
/// JSON-lines text. Lines for other groups are ignored; a malformed record
/// is skipped rather than guessed at.
pub fn parse_medians(text: &str, group: &str) -> Vec<(String, u64)> {
    let tag = format!("\"group\":\"{group}\"");
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains(&tag) {
            continue;
        }
        let mut rest = line;
        while let Some(i) = rest.find("\"name\":\"") {
            rest = &rest[i + 8..];
            let Some(j) = rest.find('"') else { break };
            let name = rest[..j].to_string();
            rest = &rest[j..];
            let Some(k) = rest.find("\"median_ns\":") else {
                break;
            };
            rest = &rest[k + 12..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(median) = digits.parse::<u64>() {
                out.push((name, median));
            }
        }
    }
    out
}

/// Matches every pinned case against the fresh medians by name.
pub fn compare(pinned: &[(String, u64)], fresh: &[(String, u64)]) -> Vec<CaseCheck> {
    pinned
        .iter()
        .map(|(name, pinned_ns)| CaseCheck {
            name: name.clone(),
            pinned_ns: *pinned_ns,
            fresh_ns: fresh
                .iter()
                .find(|(fname, _)| fname == name)
                .map(|&(_, median)| median),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: &str = concat!(
        r#"{"group":"clique_all_to_all_round","results":[{"name":"clique_all_to_all_round/n64","samples":10,"min_ns":50,"median_ns":100,"mean_ns":110},{"name":"clique_all_to_all_round/n256","samples":10,"min_ns":900,"median_ns":1000,"mean_ns":1010}]}"#,
        "\n",
        r#"{"group":"beeping_round","results":[{"name":"beeping_round/n1024","samples":10,"min_ns":5,"median_ns":7,"mean_ns":8}]}"#,
        "\n",
    );

    #[test]
    fn parses_only_the_requested_group() {
        let medians = parse_medians(PINNED, "clique_all_to_all_round");
        assert_eq!(
            medians,
            vec![
                ("clique_all_to_all_round/n64".to_string(), 100),
                ("clique_all_to_all_round/n256".to_string(), 1000),
            ]
        );
        assert_eq!(
            parse_medians(PINNED, "beeping_round"),
            vec![("beeping_round/n1024".to_string(), 7)]
        );
        assert!(parse_medians(PINNED, "absent_group").is_empty());
    }

    #[test]
    fn regression_threshold_is_a_strict_percentage() {
        let case = CaseCheck {
            name: "g/n".to_string(),
            pinned_ns: 1000,
            fresh_ns: Some(1250),
        };
        assert!(!case.regressed(25), "exactly +25% is allowed");
        let case = CaseCheck {
            fresh_ns: Some(1251),
            ..case
        };
        assert!(case.regressed(25), "+25.1% fails");
    }

    #[test]
    fn missing_and_faster_cases() {
        let pinned = parse_medians(PINNED, "clique_all_to_all_round");
        let fresh = vec![("clique_all_to_all_round/n64".to_string(), 40u64)];
        let checks = compare(&pinned, &fresh);
        assert_eq!(checks.len(), 2);
        assert!(!checks[0].regressed(25), "6x faster passes");
        assert!(checks[1].regressed(25), "vanished case fails the gate");
        assert_eq!(checks[1].fresh_ns, None);
    }
}
