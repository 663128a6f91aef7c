//! End-to-end tests of the `clique-mis` CLI binary.

#[allow(
    clippy::disallowed_types,
    reason = "drives the built clique-mis binary as a child process"
)]
fn cli() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_clique-mis"))
}

#[test]
fn run_reports_a_verified_mis() {
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "thm11",
            "--family",
            "gnp",
            "--n",
            "200",
            "--avg-deg",
            "10",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified maximal independent"), "{text}");
    assert!(text.contains("rounds"));
}

#[test]
fn run_json_is_parseable_shape() {
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "luby",
            "--family",
            "cycle",
            "--n",
            "30",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"verified\":true"));
    assert!(text.contains("\"mis_size\""));
}

/// A file that declares billions of vertices gets a typed error and exit
/// code 1, not an allocation abort: the readers refuse the count before
/// allocating.
#[test]
fn huge_declared_vertex_counts_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("clique-mis-cli-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in [
        ("huge.edges", "n 4000000000\n0 1\n"),
        ("huge.dimacs", "p edge 4000000000 1\ne 1 2\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = cli()
            .args([
                "run",
                "--algorithm",
                "luby",
                "--input",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("graph too large on line 1"),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn huge_generated_vertex_counts_fail_cleanly() {
    let out = cli()
        .args(["run", "--family", "gnp", "--n", "4000000000000"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "run: {stderr}");
    assert!(
        stderr.contains("graph too large: 4000000000000 vertices"),
        "run: {stderr}"
    );

    // An oversized job after a valid one: the file is refused at parse
    // time, before any job runs.
    let dir = std::env::temp_dir().join(format!("clique-mis-cli-huge-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs_path = dir.join("jobs.jsonl");
    std::fs::write(
        &jobs_path,
        "{\"algorithm\":\"luby\",\"family\":\"cycle\",\"n\":48,\"seed\":3}\n\
         {\"algorithm\":\"luby\",\"family\":\"gnp\",\"n\":4000000000000,\"seed\":3}\n",
    )
    .unwrap();
    let out = cli()
        .args([
            "batch",
            "--jobs",
            jobs_path.to_str().unwrap(),
            "--out",
            dir.join("out").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "batch: {stderr}");
    assert!(
        stderr.contains("jobs line 2: graph too large: 4000000000000 vertices"),
        "batch: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_then_run_roundtrips_through_a_file() {
    let dir = std::env::temp_dir().join(format!("clique-mis-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.edges");

    let out = cli()
        .args(["gen", "--family", "grid", "--n", "64", "--format", "edges"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();

    let out = cli()
        .args([
            "run",
            "--algorithm",
            "greedy",
            "--input",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("64 nodes"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--checkpoint` must write a snapshot that a *fresh process* can `--resume`
/// into the exact same result, and mismatched resumes must fail loudly.
#[test]
fn checkpoint_roundtrips_into_resume() {
    let dir = std::env::temp_dir().join(format!("clique-mis-ckpt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("run.snap");
    let graph = [
        "--family",
        "gnp",
        "--n",
        "80",
        "--avg-deg",
        "8",
        "--seed",
        "7",
    ];

    let straight = cli()
        .args(["run", "--algorithm", "thm11"])
        .args(graph)
        .arg("--json")
        .output()
        .expect("binary runs");
    assert!(straight.status.success());

    let out = cli()
        .args(["run", "--algorithm", "thm11"])
        .args(graph)
        .args([
            "--checkpoint",
            snap.to_str().unwrap(),
            "--checkpoint-every",
            "3",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, straight.stdout,
        "checkpointing changed the run's output"
    );
    assert!(snap.exists(), "no snapshot written");

    let resumed = cli()
        .args(["run", "--algorithm", "thm11"])
        .args(graph)
        .args(["--resume", snap.to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, straight.stdout,
        "resumed run diverged from the straight run"
    );

    // Wrong algorithm: clear error, nonzero exit.
    let out = cli()
        .args(["run", "--algorithm", "luby"])
        .args(graph)
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not match this run"), "{err}");
    assert!(err.contains("algorithm"), "{err}");

    // Wrong graph: clear error, nonzero exit.
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "thm11",
            "--family",
            "gnp",
            "--n",
            "100",
            "--avg-deg",
            "8",
            "--seed",
            "7",
            "--resume",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("graph fingerprint"), "{err}");

    // greedy is sequential — checkpoint flags are rejected.
    let out = cli()
        .args(["run", "--algorithm", "greedy"])
        .args(graph)
        .args(["--checkpoint", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("greedy is sequential"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `batch` must produce, for every job, a result file byte-identical to a
/// solo `run --json` of the same request (and a trace file identical to
/// solo `--trace`), even while the scheduler preempts between jobs.
#[test]
fn batch_jobs_are_byte_identical_to_solo_runs() {
    let dir = std::env::temp_dir().join(format!("clique-mis-batch-test-{}", std::process::id()));
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let jobs_path = dir.join("jobs.jsonl");
    // graph_seed defaults to seed, matching the solo CLI's single --seed.
    let jobs = [
        r#"{"algorithm":"thm11","family":"gnp","n":64,"avg_deg":8,"seed":7,"trace":true}"#,
        r#"{"algorithm":"luby","family":"cycle","n":48,"seed":3}"#,
        r#"{"algorithm":"sparsified","family":"gnp","n":80,"seed":9,"trace":true}"#,
        r#"{"algorithm":"auto","family":"grid","n":64,"seed":5}"#,
        r#"{"algorithm":"thm11","family":"kronecker","n":128,"seed":2}"#,
    ];
    std::fs::write(&jobs_path, jobs.join("\n") + "\n").unwrap();

    let out = cli()
        .args([
            "batch",
            "--jobs",
            jobs_path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--quantum",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("5 jobs (5 ok, 0 failed)"), "{summary}");
    assert!(summary.contains("executions/sec"), "{summary}");

    let manifest = std::fs::read_to_string(out_dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"executions_per_sec\""), "{manifest}");
    assert!(manifest.contains("\"median_rounds\""), "{manifest}");

    let solo_args: [&[&str]; 5] = [
        &[
            "--algorithm",
            "thm11",
            "--family",
            "gnp",
            "--n",
            "64",
            "--avg-deg",
            "8",
            "--seed",
            "7",
        ],
        &[
            "--algorithm",
            "luby",
            "--family",
            "cycle",
            "--n",
            "48",
            "--seed",
            "3",
        ],
        &[
            "--algorithm",
            "sparsified",
            "--family",
            "gnp",
            "--n",
            "80",
            "--avg-deg",
            "8",
            "--seed",
            "9",
        ],
        &[
            "--algorithm",
            "auto",
            "--family",
            "grid",
            "--n",
            "64",
            "--seed",
            "5",
        ],
        &[
            "--algorithm",
            "thm11",
            "--family",
            "kronecker",
            "--n",
            "128",
            "--seed",
            "2",
        ],
    ];
    for (i, args) in solo_args.iter().enumerate() {
        let traced = i == 0 || i == 2;
        let solo_trace = dir.join(format!("solo-{i}.trace.jsonl"));
        let mut cmd = cli();
        cmd.arg("run").args(args.iter()).arg("--json");
        if traced {
            cmd.args(["--trace", solo_trace.to_str().unwrap()]);
        }
        let solo = cmd.output().expect("binary runs");
        assert!(
            solo.status.success(),
            "job {i} stderr: {}",
            String::from_utf8_lossy(&solo.stderr)
        );
        let batch_result = std::fs::read(out_dir.join(format!("job-{i:05}.json"))).unwrap();
        assert_eq!(
            batch_result, solo.stdout,
            "job {i}: batch result file differs from solo --json stdout"
        );
        if traced {
            let batch_trace =
                std::fs::read(out_dir.join(format!("job-{i:05}.trace.jsonl"))).unwrap();
            let solo_bytes = std::fs::read(&solo_trace).unwrap();
            assert_eq!(
                batch_trace, solo_bytes,
                "job {i}: batch trace differs from solo --trace"
            );
        }
    }

    // A malformed jobs file fails loudly with the offending line number.
    std::fs::write(&jobs_path, "{\"algorithm\":\"luby\"}\n").unwrap();
    let out = cli()
        .args([
            "batch",
            "--jobs",
            jobs_path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("jobs line 1"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_answers_consistently() {
    let out = cli()
        .args([
            "query", "--node", "5", "--family", "cycle", "--n", "100", "--seed", "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("node v5:"));
    assert!(text.contains("probes"));
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "nonsense",
            "--family",
            "cycle",
            "--n",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown algorithm"));
    assert!(err.contains("usage:"));

    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn reduce_and_ruling_verify() {
    let out = cli()
        .args([
            "reduce", "--kind", "matching", "--family", "cycle", "--n", "40",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("maximal matching"));

    let out = cli()
        .args([
            "ruling",
            "--k",
            "2",
            "--family",
            "gnp",
            "--n",
            "80",
            "--avg-deg",
            "6",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("2-ruling set"));
}
