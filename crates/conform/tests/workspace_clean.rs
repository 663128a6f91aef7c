//! Meta-test: the live workspace is conform-clean, and the CLI's exit
//! codes match its contract (0 clean, 1 findings, 3 any P1, 2 usage).

use std::path::Path;

#[allow(
    clippy::disallowed_types,
    reason = "drives the built cc-mis-conform binary as a child process"
)]
fn conform() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_cc-mis-conform"))
}

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
    let out = conform()
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
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r3_fires.rs");
    let out = conform()
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Stable `file:line rule-id message` shape, using the effective path.
    assert!(
        stdout.contains("crates/analysis/src/fixture_demo.rs:5 R3 `Instant::now`"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn cli_list_rules_names_every_rule() {
    let out = conform()
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
    // Retired ids stay retired.
    for retired in [
        "R1", "R2", "R4", "R8", "R9", "R10", "R12", "R13", "R15", "R16", "R17", "R22", "R23", "R24",
    ] {
        assert!(
            !stdout
                .lines()
                .any(|l| l.starts_with(&format!("{retired} "))),
            "{retired} listed in:\n{stdout}"
        );
    }
}

#[test]
fn cli_p1_findings_exit_three() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pragma_unjustified.rs");
    let out = conform()
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    // The unjustified pragma is a P1 ("error"), which outranks plain findings.
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn cli_r21_determinism_taint_exits_three() {
    // R21 findings are error severity (a run stops being a pure function
    // of seed, graph and params), same exit class as a broken pragma.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r21_fires.rs");
    let out = conform()
        .arg(&fixture)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn cli_accepts_only_its_four_settable_values() {
    // --workspace, --list-rules, --root and paths; anything else, the
    // retired --sarif and --explain included, is a usage error, never
    // silently ignored.
    for flag in [
        "--sarif",
        "--explain",
        "--json",
        "--timings",
        "--fix",
        "--no-cache",
        "--baseline",
    ] {
        let out = conform().arg(flag).output().expect("linter binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
