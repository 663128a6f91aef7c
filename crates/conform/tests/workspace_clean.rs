//! Meta-test: the live workspace is conform-clean, and the CLI's exit
//! codes match its contract (0 clean, 1 findings, 3 any P1, 2 usage).

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    // crates/conform -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("manifest dir sits two levels below the workspace root")
}

#[test]
fn live_workspace_has_no_findings() {
    let findings =
        cc_mis_conform::check_workspace(workspace_root()).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "the committed tree must be conform-clean:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn cli_workspace_scan_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .args(["--workspace", "--root"])
        .arg(workspace_root())
        .output()
        .expect("linter binary runs");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_firing_fixture_exits_nonzero_with_stable_diagnostics() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1_fires.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Stable `file:line rule-id message` shape, using the effective path.
    assert!(
        stdout.contains("crates/core/src/fixture_demo.rs:") && stdout.contains(" R1 "),
        "stdout:\n{stdout}"
    );
}

#[test]
fn cli_json_output_is_well_formed() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r5_fires.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--json")
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"findings\""), "stdout:\n{stdout}");
    assert!(stdout.contains("\"count\": 2"), "stdout:\n{stdout}");
    assert!(stdout.contains("\"rule\": \"R5\""), "stdout:\n{stdout}");
}

#[test]
fn cli_list_rules_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--list-rules")
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in cc_mis_conform::rules::RULES {
        assert!(
            stdout.contains(rule.id),
            "missing {} in:\n{stdout}",
            rule.id
        );
    }
}

#[test]
fn cli_explain_prints_contract_rationale_fix() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .args(["--explain", "R12"])
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in ["R12", "contract:", "rationale:", "fix:"] {
        assert!(stdout.contains(section), "missing {section} in:\n{stdout}");
    }
}

#[test]
fn cli_explain_unknown_rule_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .args(["--explain", "R99"])
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "stderr:\n{stderr}");
}

#[test]
fn cli_sarif_writes_a_log_alongside_normal_output() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r12_fires.rs");
    let sarif_path = std::env::temp_dir().join("cc-mis-conform-test.sarif");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--sarif")
        .arg(&sarif_path)
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let sarif = std::fs::read_to_string(&sarif_path).expect("SARIF log written");
    let _ = std::fs::remove_file(&sarif_path);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"R12\""), "{sarif}");
}

#[test]
fn cli_p1_findings_exit_three() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pragma_unjustified.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    // The unjustified pragma is a P1 ("error"), which outranks plain findings.
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn cli_r16_pool_leak_exits_three() {
    // R16 findings are error severity (state corruption), same exit class
    // as a broken pragma.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r16_fires.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn cli_timings_render_per_phase_wall_clock() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1_clean.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--timings")
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for phase in [
        "timings: 1 file(s)",
        "index",
        "lexical",
        "structural",
        "dataflow",
        "taint",
    ] {
        assert!(stderr.contains(phase), "missing {phase} in:\n{stderr}");
    }
    // Explicit-path runs never touch the persistent cache.
    assert!(!stderr.contains("cache"), "stderr:\n{stderr}");
}

#[test]
fn cli_fix_diff_is_a_dry_run() {
    let dir = std::env::temp_dir().join(format!("conform-fix-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1_fires.rs");
    let file = dir.join("r1_fires.rs");
    std::fs::copy(&src, &file).expect("fixture copies");
    let before = std::fs::read_to_string(&file).expect("copy is readable");

    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .args(["--fix", "--diff"])
        .arg(&file)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("-use std::collections::HashMap;"),
        "{stdout}"
    );
    assert!(
        stdout.contains("+use std::collections::BTreeMap;"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(dry run)"), "stderr:\n{stderr}");
    // Dry run: the file on disk is untouched.
    let after = std::fs::read_to_string(&file).expect("file still readable");
    assert_eq!(before, after, "--diff must not write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_fix_applies_in_place_and_is_idempotent() {
    let dir = std::env::temp_dir().join(format!("conform-fix-apply-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1_fires.rs");
    let file = dir.join("r1_fires.rs");
    std::fs::copy(&src, &file).expect("fixture copies");

    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--fix")
        .arg(&file)
        .output()
        .expect("linter binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "pre-fix findings reported: {out:?}"
    );
    let fixed = std::fs::read_to_string(&file).expect("fixed file readable");
    assert!(fixed.contains("BTreeMap"), "{fixed}");
    assert!(!fixed.contains("HashMap"), "{fixed}");

    // The fixed file lints clean, and a second --fix pass is a no-op.
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--fix")
        .arg(&file)
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 fix(es)"), "stderr:\n{stderr}");
    let again = std::fs::read_to_string(&file).expect("file still readable");
    assert_eq!(fixed, again, "--fix must be idempotent");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_warm_workspace_run_hits_the_cache() {
    // First run primes target/conform-cache.bin; the second is a full hit.
    // The cache file's content is a pure function of the tree, so a
    // concurrent test writing it (atomic temp+rename) cannot spoil this.
    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
            .args(["--workspace", "--timings", "--root"])
            .arg(workspace_root())
            .output()
            .expect("linter binary runs");
        assert!(out.status.success(), "{out:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .args(["--workspace", "--timings", "--root"])
        .arg(workspace_root())
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cache") && stderr.contains("0 miss(es)"),
        "warm run should be a full cache hit:\n{stderr}"
    );
}

#[test]
fn cli_baseline_gates_on_new_findings_only() {
    let dir = std::env::temp_dir().join(format!("conform-baseline-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let baseline = dir.join("baseline.txt");
    let r5 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r5_fires.rs");
    let r1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1_fires.rs");

    // First run writes the snapshot and exits clean (warnings baselined).
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(&r5)
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("baseline written"), "stderr:\n{stderr}");

    // Same findings again: still clean.
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(&r5)
        .output()
        .expect("linter binary runs");
    assert!(out.status.success(), "{out:?}");

    // A finding the baseline has never seen still fails the gate.
    let out = Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(&r1)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
