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
    // Fixtures carry their effective path in-band; any placeholder works.
    Input {
        path: format!("crates/conform/tests/fixtures/{name}"),
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
fn r3_ambient_nondeterminism() {
    assert_fires_and_clean("R3", "r3_fires.rs", "r3_clean.rs");
}

#[test]
fn r5_short_expect() {
    // The non-invariant expect message fires; the invariant-naming one on
    // the line above does not.
    let firing = check(&[fixture("r5_fires.rs")]);
    assert_eq!(rules_of(&firing), vec!["R5"], "{firing:?}");
    assert_eq!(firing[0].line, 4, "{firing:?}");
    let clean = check(&[fixture("r5_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r6_direct_counter_writes() {
    let firing = check(&[fixture("r6_fires.rs")]);
    let r6: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(
        r6.len(),
        3,
        "direct `+=`, direct `=` and `&mut` borrow expected: {firing:?}"
    );
    for field in ["bits", "messages", "rounds"] {
        assert!(
            r6.iter()
                .any(|f| f.message.contains(&format!("ledger counter `.{field}`"))),
            "{firing:?}"
        );
    }
    let clean = check(&[fixture("r6_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r7_magic_bandwidth_literals() {
    assert_fires_and_clean("R7", "r7_fires.rs", "r7_clean.rs");
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

/// Maps a rule id to its (firing, clean) fixture names.
fn fixture_pair(id: &str) -> (String, String) {
    match id {
        "P1" => ("pragma_unjustified.rs".into(), "pragma_justified.rs".into()),
        // P2's clean side is any live pragma: justified AND still earning
        // its keep by suppressing a real finding.
        "P2" => ("p2_stale.rs".into(), "pragma_justified.rs".into()),
        other => {
            let stem = other.to_lowercase();
            (format!("{stem}_fires.rs"), format!("{stem}_clean.rs"))
        }
    }
}

#[test]
fn every_rule_has_a_firing_and_a_clean_fixture() {
    // Meta-test: adding a rule to RULES without fixture coverage fails here,
    // and the firing/clean contract is enforced uniformly for all of them.
    for rule in cc_mis_conform::rules::RULES {
        let (fires, clean) = fixture_pair(rule.id);
        assert_fires_and_clean(rule.id, &fires, &clean);
    }
}

#[test]
fn the_rule_id_set_is_complete() {
    // The rule set is pinned so a dropped entry fails loudly rather than
    // silently losing coverage, and every rule has a summary for
    // --list-rules.
    let ids: Vec<&str> = cc_mis_conform::rules::RULES.iter().map(|r| r.id).collect();
    // R17 and R22 are retired: snapshot save/restore parity holds by
    // construction (one field list per execution) and the byte format is
    // pinned by the golden checkpoints in tests/snapshot_format.rs. R15 and
    // R16 are retired too: crates/sim/tests/steady_state_alloc.rs measures
    // the allocation-free round (and with it every leaked pool buffer)
    // instead of pattern-matching for it. R9, R10, R12 and R13 are held by
    // the compiler and clippy (ledger charges private to the round core,
    // `cast_possible_truncation`, the float lints on the accounting
    // modules), R1, R2, R23 and R24 by the root clippy.toml, and R4 and R8
    // by tests/workspace_policy.rs.
    let expected: Vec<String> = (1..=21)
        .filter(|n| ![1, 2, 4, 8, 9, 10, 12, 13, 15, 16, 17].contains(n))
        .map(|n| format!("R{n}"))
        .chain(["P1".to_string(), "P2".to_string()])
        .collect();
    assert_eq!(ids, expected, "rule registry drifted");
    for rule in cc_mis_conform::rules::RULES {
        assert!(
            !rule.summary.trim().is_empty(),
            "{} has no summary",
            rule.id
        );
    }
}

#[test]
fn dataflow_diagnostics_are_frozen() {
    // The dataflow and taint firing fixtures, checked as one input set,
    // render to exactly these lines: rule ids, locations and message
    // wording are pinned. A deliberate change updates them here.
    let findings = check(&[
        fixture("r18_fires.rs"),
        fixture("r19_fires.rs"),
        fixture("r21_fires.rs"),
    ]);
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    assert_eq!(rendered, DATAFLOW_GOLDEN, "diagnostics drifted");
}

/// `Finding::render()` lines of the R18, R19 and R21 firing fixtures.
const DATAFLOW_GOLDEN: &[&str] = &[
    "crates/sim/src/demo_par.rs:10 R21 `shard_rng` derives a value from \
     scheduling identity (thread count, shard index, or env read) and seeds \
     an RNG stream with it — the coin sequence would change with the thread \
     count, which no replay can reproduce; derive it from simulation state \
     instead — scheduling identity may steer scheduling only",
    "crates/sim/src/demo_par.rs:18 R21 `checkpoint` derives a value from \
     scheduling identity (thread count, shard index, or env read) and \
     writes it into a snapshot — checkpoints taken on different machines \
     (or thread counts) would diverge byte-wise, voiding resume \
     equivalence; derive it from simulation state instead — scheduling \
     identity may steer scheduling only",
    "crates/sim/src/runtime.rs:11 R18 `on_round_end` (a RoundObserver impl \
     method) calls `charge_bits`: observers are diagnostics-only and must \
     not reach ledger charging or round mutation, or --trace would perturb \
     the golden ledgers",
    "crates/sim/src/scatter_demo.rs:8 R19 par-shard closure indexes \
     captured state (cuts, totals) outside its shard-provided arguments: \
     cross-shard indexing races once shards run on different threads — go \
     through the closure's slice parameters, or carry a justified \
     allow(R19) for an audited disjointness argument",
    "crates/sim/src/scatter_demo.rs:17 R19 par-shard closure index-writes \
     captured state (counts) outside its shard-provided arguments: \
     cross-shard indexing races once shards run on different threads — go \
     through the closure's slice parameters, or carry a justified \
     allow(R19) for an audited disjointness argument",
];

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
    assert!(rules.contains(&"R3"), "{findings:?}");
}

#[test]
fn diagnostics_use_the_effective_path() {
    // The rendered diagnostic points at the virtual location the fixture
    // claims, so pragma/grep workflows behave the same as on real files.
    let firing = check(&[fixture("r3_fires.rs")]);
    assert!(
        !firing.is_empty()
            && firing
                .iter()
                .all(|f| f.path == "crates/analysis/src/fixture_demo.rs"),
        "{firing:?}"
    );
}
