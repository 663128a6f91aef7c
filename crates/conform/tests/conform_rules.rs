//! Fixture-driven tests: one firing + one clean fixture per rule.
//!
//! Each `.rs` fixture begins with a `conform-fixture:` path override so a
//! file that physically lives under `tests/fixtures/` is scoped as if it
//! sat anywhere in the tree (see `scanner::fixture_override`). The
//! workspace walker skips `fixtures/` directories, so the deliberately
//! violating files here never fail the live-tree scan.

use cc_mis_conform::{check, Finding, Input};

/// Loads a fixture by file name, keyed to the crate's own manifest dir so
/// the test works from any working directory.
fn fixture(name: &str) -> Input {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} must be readable: {e}"));
    // Manifest fixtures are fed under the path their header comment names;
    // .rs fixtures carry the override in-band and any placeholder works.
    let effective = match name {
        "r8_fires.toml" | "r8_clean.toml" => "crates/demo/Cargo.toml".to_string(),
        _ => format!("crates/conform/tests/fixtures/{name}"),
    };
    Input {
        path: effective,
        text,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Asserts the firing fixture reports `rule` and the clean one reports
/// nothing at all.
fn assert_fires_and_clean(rule: &str, fires: &str, clean: &str) {
    let firing = check(&[fixture(fires)]);
    assert!(
        firing.iter().any(|f| f.rule == rule),
        "{fires} should report {rule}, got {firing:?}"
    );
    let clean_findings = check(&[fixture(clean)]);
    assert!(
        clean_findings.is_empty(),
        "{clean} should be clean, got {clean_findings:?}"
    );
}

#[test]
fn r1_hash_collections_in_charged_crates() {
    assert_fires_and_clean("R1", "r1_fires.rs", "r1_clean.rs");
}

#[test]
fn r3_ambient_nondeterminism() {
    assert_fires_and_clean("R3", "r3_fires.rs", "r3_clean.rs");
}

#[test]
fn r4_crate_roots_forbid_unsafe() {
    assert_fires_and_clean("R4", "r4_fires.rs", "r4_clean.rs");
    // R4 anchors to line 1 so the diagnostic stays stable as files grow.
    let firing = check(&[fixture("r4_fires.rs")]);
    assert!(firing.iter().any(|f| f.rule == "R4" && f.line == 1));
}

#[test]
fn r5_unwrap_and_short_expect() {
    let firing = check(&[fixture("r5_fires.rs")]);
    let rules = rules_of(&firing);
    // Both the bare unwrap and the non-invariant expect message fire.
    assert_eq!(
        rules.iter().filter(|r| **r == "R5").count(),
        2,
        "{firing:?}"
    );
    let clean = check(&[fixture("r5_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r6_stale_counters_and_direct_mutation() {
    // R6 needs the (fixture) metrics.rs in the same input set: the declared
    // counter set is extracted from whatever files scope as metrics.rs or
    // runtime.rs.
    let firing = check(&[fixture("r6_metrics.rs"), fixture("r6_fires.rs")]);
    let r6: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(
        r6.len(),
        4,
        "stale call, direct `+=`, direct `=` and `&mut` borrow expected: {firing:?}"
    );
    assert!(
        r6.iter().any(|f| f.message.contains("charge_probe")),
        "{firing:?}"
    );
    assert!(
        r6.iter()
            .any(|f| f.message.contains("ledger counter `.messages`")),
        "{firing:?}"
    );
    assert!(
        r6.iter()
            .any(|f| f.message.contains("ledger counter `.rounds`")),
        "{firing:?}"
    );
    let clean = check(&[fixture("r6_metrics.rs"), fixture("r6_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r6_is_skipped_without_a_metrics_file() {
    // Checking a single file in isolation must not produce false stale-call
    // findings just because metrics.rs was not part of the input set.
    let findings = check(&[fixture("r6_clean.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r7_magic_bandwidth_literals() {
    assert_fires_and_clean("R7", "r7_fires.rs", "r7_clean.rs");
}

#[test]
fn r8_registry_dependencies() {
    let firing = check(&[fixture("r8_fires.toml")]);
    let r8: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R8").collect();
    // serde, rand, and the [dev-dependencies.criterion] subsection.
    assert_eq!(r8.len(), 3, "{firing:?}");
    let clean = check(&[fixture("r8_clean.toml")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r11_stream_clone_and_reseeding_in_loop() {
    assert_fires_and_clean("R11", "r11_fires.rs", "r11_clean.rs");
    let firing = check(&[fixture("r11_fires.rs")]);
    let r11: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R11").collect();
    // One for the in-loop constructor, one for the stream clone.
    assert_eq!(r11.len(), 2, "{firing:?}");
    assert!(r11.iter().any(|f| f.message.contains("inside a loop")));
    assert!(r11.iter().any(|f| f.message.contains("clone()")));
}

#[test]
fn r13_floats_in_accounting_modules() {
    assert_fires_and_clean("R13", "r13_fires.rs", "r13_clean.rs");
}

#[test]
fn r14_rounds_outside_runner_modules() {
    assert_fires_and_clean("R14", "r14_fires.rs", "r14_clean.rs");
    // The clean twin opens the same round, but from inside an `impl
    // Execution for` module — the driver-sanctioned place to do it.
    let firing = check(&[fixture("r14_fires.rs")]);
    assert!(
        firing
            .iter()
            .any(|f| f.rule == "R14" && f.message.contains("outside a runner module")),
        "{firing:?}"
    );
}

#[test]
fn r18_observer_purity() {
    assert_fires_and_clean("R18", "r18_fires.rs", "r18_clean.rs");
    let firing = check(&[fixture("r18_fires.rs")]);
    assert!(
        firing.iter().any(|f| f.rule == "R18"
            && f.message.contains("`on_round_end`")
            && f.message.contains("charge_bits")),
        "{firing:?}"
    );
}

#[test]
fn r19_shard_closure_isolation() {
    assert_fires_and_clean("R19", "r19_fires.rs", "r19_clean.rs");
    let firing = check(&[fixture("r19_fires.rs")]);
    let r19: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R19").collect();
    // One aggregated finding per offending closure: the scatter closure
    // (two captured roots) and the map closure (one index-write).
    assert_eq!(r19.len(), 2, "{firing:?}");
    assert!(
        r19.iter().any(|f| f.message.contains("cuts, totals")),
        "offending roots are aggregated and sorted: {firing:?}"
    );
    assert!(
        r19.iter()
            .any(|f| f.message.contains("index-writes captured state")),
        "{firing:?}"
    );
}

#[test]
fn r19_justified_pragma_clears_an_audited_closure() {
    // The live scatter core carries exactly this shape: a justified
    // allow(R19) on the offense line inside the closure.
    let src = "// conform-fixture: crates/sim/src/scatter_demo.rs\n\
               pub fn scatter(cuts: &[usize], chunks: &mut [Chunk]) {\n\
                   par_scatter_shards(chunks, |shard, chunk| {\n\
                       // conform: allow(R19) -- shard ranges are disjoint by construction\n\
                       let base = cuts[shard];\n\
                       chunk.fill(base);\n\
                   });\n\
               }\n";
    let findings = check(&[Input {
        path: "crates/conform/tests/fixtures/inline.rs".to_string(),
        text: src.to_string(),
    }]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r20_step_calls_stay_in_the_driver_and_scheduler() {
    assert_fires_and_clean("R20", "r20_fires.rs", "r20_clean.rs");
    let firing = check(&[fixture("r20_fires.rs")]);
    assert!(
        firing.iter().any(|f| f.rule == "R20"
            && f.message.contains("`solve_inline`")
            && f.message.contains("BatchScheduler")),
        "{firing:?}"
    );
    // The same code is fine where the step loop legitimately lives: the
    // driver and the batch scheduler own step boundaries.
    for owner in ["crates/sim/src/driver.rs", "crates/sim/src/scheduler.rs"] {
        let src = std::fs::read_to_string(format!(
            "{}/tests/fixtures/r20_fires.rs",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("fixture must be readable")
        .replace("crates/core/src/harness.rs", owner);
        let findings = check(&[Input {
            path: "crates/conform/tests/fixtures/inline.rs".to_string(),
            text: src,
        }]);
        assert!(
            !findings.iter().any(|f| f.rule == "R20"),
            "{owner} owns step boundaries: {findings:?}"
        );
    }
}

#[test]
fn r21_scheduling_identity_must_not_reach_charges_seeds_or_snapshots() {
    let firing = check(&[fixture("r21_fires.rs")]);
    let r21: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R21").collect();
    // The shard-index RNG seed and the thread-count snapshot write.
    assert_eq!(r21.len(), 2, "{firing:?}");
    assert!(
        r21.iter()
            .any(|f| f.message.contains("seeds an RNG stream")),
        "{firing:?}"
    );
    assert!(
        r21.iter()
            .any(|f| f.message.contains("writes it into a snapshot")),
        "{firing:?}"
    );
    // Determinism taint voids replay equivalence: error severity.
    assert!(r21.iter().all(|f| f.severity() == "error"), "{firing:?}");
    let clean = check(&[fixture("r21_clean.rs")]);
    assert!(clean.is_empty(), "scheduling-only use is fine: {clean:?}");
}

#[test]
fn p2_stale_pragma_is_audited() {
    let firing = check(&[fixture("p2_stale.rs")]);
    let p2: Vec<&Finding> = firing.iter().filter(|f| f.rule == "P2").collect();
    assert_eq!(p2.len(), 1, "{firing:?}");
    assert!(p2[0].message.contains("suppresses nothing"), "{firing:?}");
    // A live pragma (pragma_justified.rs) is covered by
    // justified_pragma_suppresses: suppressing a real finding is the
    // clean state, not a P2.
}

/// Maps a rule id to its (firing, clean) fixture input sets. Most rules
/// need exactly one file per side; R6 pulls in the declared-counter file,
/// so it lists every file each side needs.
fn fixture_pair(id: &str) -> (Vec<String>, Vec<String>) {
    let one = |f: &str, c: &str| (vec![f.to_string()], vec![c.to_string()]);
    match id {
        "P1" => one("pragma_unjustified.rs", "pragma_justified.rs"),
        // P2's clean side is any live pragma: justified AND still earning
        // its keep by suppressing a real finding.
        "P2" => one("p2_stale.rs", "pragma_justified.rs"),
        "R6" => (
            vec!["r6_metrics.rs".to_string(), "r6_fires.rs".to_string()],
            vec!["r6_clean.rs".to_string()],
        ),
        "R8" => one("r8_fires.toml", "r8_clean.toml"),
        other => {
            let stem = other.to_lowercase();
            (
                vec![format!("{stem}_fires.rs")],
                vec![format!("{stem}_clean.rs")],
            )
        }
    }
}

#[test]
fn every_rule_has_a_firing_and_a_clean_fixture() {
    // Meta-test: adding a rule to RULES without fixture coverage fails here,
    // and the firing/clean contract is enforced uniformly for all of them.
    for rule in cc_mis_conform::rules::RULES {
        let (fires, clean) = fixture_pair(rule.id);
        let firing_inputs: Vec<Input> = fires.iter().map(|n| fixture(n)).collect();
        let firing = check(&firing_inputs);
        assert!(
            firing.iter().any(|f| f.rule == rule.id),
            "{fires:?} should report {}: {firing:?}",
            rule.id
        );
        let clean_inputs: Vec<Input> = clean.iter().map(|n| fixture(n)).collect();
        let clean_findings = check(&clean_inputs);
        assert!(
            clean_findings.is_empty(),
            "{clean:?} should be clean, got {clean_findings:?}"
        );
    }
}

#[test]
fn every_rule_has_explain_text_and_the_id_set_is_complete() {
    // --explain prints summary/contract/rationale/fix verbatim; none may be
    // empty, and the rule set itself is pinned so a dropped entry fails
    // loudly rather than silently losing coverage.
    let ids: Vec<&str> = cc_mis_conform::rules::RULES.iter().map(|r| r.id).collect();
    // R17 and R22 are retired: snapshot save/restore parity holds by
    // construction (one field list per execution) and the byte format is
    // pinned by the golden checkpoints in tests/snapshot_format.rs. R15 and
    // R16 are retired too: crates/sim/tests/steady_state_alloc.rs measures
    // the allocation-free round (and with it every leaked pool buffer)
    // instead of pattern-matching for it. R9, R10 and R12 are held by the
    // compiler and clippy (ledger charges private to the round core,
    // `cast_possible_truncation`), and R2, R23 and R24 by the root
    // clippy.toml.
    let expected: Vec<String> = (1..=21)
        .filter(|n| ![2, 9, 10, 12, 15, 16, 17].contains(n))
        .map(|n| format!("R{n}"))
        .chain(["P1".to_string(), "P2".to_string()])
        .collect();
    assert_eq!(ids, expected, "rule registry drifted");
    for rule in cc_mis_conform::rules::RULES {
        for (what, text) in [
            ("summary", rule.summary),
            ("contract", rule.contract),
            ("rationale", rule.rationale),
            ("fix", rule.fix),
        ] {
            assert!(
                !text.trim().is_empty(),
                "{} has an empty --explain {what}",
                rule.id
            );
        }
    }
}

#[test]
fn dataflow_sarif_snapshot_is_frozen() {
    // Golden SARIF over the dataflow and taint firing fixtures plus one
    // lexical fixture, checked as one input set. Pins rule metadata,
    // severity levels (R21 error, R1/R18/R19 warning), locations and
    // message wording; regenerate from the repo root (full relative paths)
    // with
    //   cargo run -p cc-mis-conform -- \
    //     --sarif crates/conform/tests/fixtures/dataflow_golden.sarif \
    //     $(for f in r18 r19 r21 r1; do \
    //         echo crates/conform/tests/fixtures/${f}_fires.rs; done)
    // and review the diff before committing.
    let findings = check(&[
        fixture("r18_fires.rs"),
        fixture("r19_fires.rs"),
        fixture("r21_fires.rs"),
        fixture("r1_fires.rs"),
    ]);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for id in ["R18", "R19", "R21", "R1"] {
        assert!(
            rules.contains(&id),
            "mixed run must fire {id}: {findings:?}"
        );
    }
    let sarif = cc_mis_conform::diag::to_sarif(&findings);
    let golden_path = format!(
        "{}/tests/fixtures/dataflow_golden.sarif",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("golden SARIF must be committed at {golden_path}: {e}"));
    assert_eq!(
        sarif.trim_end(),
        golden.trim_end(),
        "SARIF output drifted from the committed golden snapshot"
    );
}

#[test]
fn sarif_log_carries_rules_and_results() {
    let findings = vec![Finding::new("crates/sim/src/lib.rs", 3, "R13", "float")];
    let sarif = cc_mis_conform::diag::to_sarif(&findings);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"cc-mis-conform\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"R13\""), "{sarif}");
    assert!(sarif.contains("\"startLine\": 3"), "{sarif}");
    // Every rule's metadata rides along in tool.driver.rules.
    for rule in cc_mis_conform::rules::RULES {
        assert!(
            sarif.contains(&format!("\"id\": \"{}\"", rule.id)),
            "missing metadata for {}",
            rule.id
        );
    }
}

#[test]
fn justified_pragma_suppresses() {
    let findings = check(&[fixture("pragma_justified.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unjustified_pragma_reports_p1_and_does_not_suppress() {
    let findings = check(&[fixture("pragma_unjustified.rs")]);
    let rules = rules_of(&findings);
    assert!(rules.contains(&"P1"), "{findings:?}");
    assert!(rules.contains(&"R1"), "{findings:?}");
}

#[test]
fn diagnostics_use_the_effective_path() {
    // The rendered diagnostic points at the virtual location the fixture
    // claims, so pragma/grep workflows behave the same as on real files.
    let firing = check(&[fixture("r1_fires.rs")]);
    assert!(
        firing
            .iter()
            .all(|f| f.path == "crates/core/src/fixture_demo.rs"),
        "{firing:?}"
    );
}
