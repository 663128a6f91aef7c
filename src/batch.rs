//! `clique-mis batch` — MIS-as-a-service over the step-driven scheduler.
//!
//! Reads a JSONL job spec (one solve request per line: graph family ×
//! algorithm × seed, plus optional trace / checkpoint policy), fans the
//! jobs through [`BatchScheduler`] with checkpoint-based preemption, and
//! writes per-job result + trace files plus an aggregate manifest.
//!
//! Determinism contract: every job's result file is byte-identical to the
//! stdout of a solo `clique-mis run --json` of the same request, and every
//! trace file to the solo `--trace` output, at any `--quantum` and any
//! thread count (`tests/batch_equivalence.rs` and `tests/cli.rs` pin it).
//!
//! A job line looks like:
//!
//! ```text
//! {"algorithm":"thm11","family":"gnp","n":64,"avg_deg":8,"seed":7,"trace":true}
//! ```
//!
//! Fields: `algorithm` and `family` + `n` are required; `avg_deg` defaults
//! to 8, `seed` to 1, `graph_seed` to `seed` (the solo CLI uses one
//! `--seed` for both), `trace` to false; `checkpoint_every` enables
//! periodic CCMS snapshots to `job-NNNNN.ck`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use clique_mis::algorithms::beeping_mis::{BeepingExecution, BeepingParams, BeepingRun};
use clique_mis::algorithms::clique_mis::{CliqueMisExecution, CliqueMisParams, CliqueMisResult};
use clique_mis::algorithms::ghaffari16::{
    Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params,
};
use clique_mis::algorithms::lowdeg::{AutoExecution, LowDegExecution, LowDegParams, LowDegResult};
use clique_mis::algorithms::luby::{LubyExecution, LubyParams};
use clique_mis::algorithms::sparsified::{
    finish_with_cleanup, SparsifiedExecution, SparsifiedParams,
};
use clique_mis::algorithms::MisOutcome;
use clique_mis::analysis::json::Json;
use clique_mis::analysis::trace::JsonlTraceSink;
use clique_mis::graph::{checks, Graph};
use clique_mis::sim::par_nodes::set_thread_override;
use clique_mis::sim::{BatchScheduler, BoxedExecution, JobSpec, MapOutcome};

use crate::{build_family, check_node_count, result_json, Options};

/// What a batch job resolves to: the solo `run` label plus its outcome, or
/// a per-job error (e.g. a beeping run that left residual nodes).
type JobOut = Result<(String, MisOutcome), String>;

/// One parsed line of the jobs file.
#[derive(Debug, Clone, PartialEq)]
struct JobLine {
    algorithm: String,
    family: String,
    n: usize,
    avg_deg: f64,
    graph_seed: u64,
    seed: u64,
    trace: bool,
    checkpoint_every: Option<u64>,
}

pub(crate) fn cmd_batch(opts: &Options) -> Result<(), String> {
    let jobs_path = opts.get("jobs").ok_or("need --jobs PATH.jsonl")?;
    let out_dir = PathBuf::from(opts.get("out").ok_or("need --out DIR")?);
    let quantum: u64 = opts.get_parsed("quantum")?.unwrap_or(8);
    if let Some(threads) = opts.get_parsed::<usize>("threads")? {
        set_thread_override(Some(threads));
    }
    let spec_text = std::fs::read_to_string(jobs_path)
        .map_err(|e| format!("reading jobs file {jobs_path}: {e}"))?;
    let jobs = parse_jobs(&spec_text)?;
    if jobs.is_empty() {
        return Err(format!("jobs file {jobs_path} contains no jobs"));
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating output dir {}: {e}", out_dir.display()))?;

    // Build each distinct graph once; jobs reference graphs by index so a
    // 1000-job sweep over a handful of instances holds a handful of graphs.
    let mut graph_idx: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut graphs: Vec<Graph> = Vec::new();
    let mut by_key: BTreeMap<(String, usize, u64, u64), usize> = BTreeMap::new();
    for job in &jobs {
        let key = (
            job.family.clone(),
            job.n,
            job.avg_deg.to_bits(),
            job.graph_seed,
        );
        let idx = match by_key.get(&key) {
            Some(&idx) => idx,
            None => {
                let g = build_family(&job.family, job.n, job.avg_deg, job.graph_seed)?;
                graphs.push(g);
                by_key.insert(key, graphs.len() - 1);
                graphs.len() - 1
            }
        };
        graph_idx.push(idx);
    }

    // Per-job side channels: trace sinks (flushed after the run) and
    // checkpoint-write errors (the sink callback cannot early-return).
    let mut sinks: Vec<Option<Rc<RefCell<JsonlTraceSink>>>> = Vec::with_capacity(jobs.len());
    let mut ck_errors: Vec<Rc<RefCell<Option<String>>>> = Vec::with_capacity(jobs.len());
    let mut specs: Vec<JobSpec<'_, JobOut>> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let g = &graphs[graph_idx[i]];
        let mut spec = JobSpec::new(
            format!("job-{i:05}:{}", job.algorithm),
            make_exec(&job.algorithm, g, job.seed)?,
        );
        let sink = if job.trace {
            let sink =
                JsonlTraceSink::new(out_dir.join(format!("job-{i:05}.trace.jsonl"))).shared();
            spec = spec.observed(JsonlTraceSink::as_observer(&sink));
            Some(sink)
        } else {
            None
        };
        sinks.push(sink);
        let ck_error = Rc::new(RefCell::new(None));
        if let Some(every) = job.checkpoint_every {
            let path = out_dir.join(format!("job-{i:05}.ck"));
            let slot = Rc::clone(&ck_error);
            spec = spec.checkpointed(every, move |_, bytes| {
                let mut slot = slot.borrow_mut();
                if slot.is_none() {
                    if let Err(e) = std::fs::write(&path, bytes) {
                        *slot = Some(format!("writing snapshot {}: {e}", path.display()));
                    }
                }
            });
        }
        ck_errors.push(ck_error);
        specs.push(spec);
    }

    let scheduler = if quantum == 0 {
        BatchScheduler::unbounded()
    } else {
        BatchScheduler::with_quantum(quantum)
    };
    // conform: allow(R3) -- wall-clock batch throughput reporting; job results never depend on it
    let start = std::time::Instant::now();
    let results = scheduler.run(specs);
    let wall = start.elapsed().as_secs_f64();

    // Flush side channels and write per-job result files.
    let mut ok = 0usize;
    let mut total_rounds = 0u64;
    let mut total_steps = 0u64;
    let mut total_preemptions = 0u64;
    let mut per_algorithm: BTreeMap<&str, AlgoStats> = BTreeMap::new();
    for (i, result) in results.iter().enumerate() {
        if let Some(e) = ck_errors[i].borrow_mut().take() {
            return Err(e);
        }
        if let Some(sink) = &sinks[i] {
            JsonlTraceSink::finish_shared(sink).map_err(|e| format!("writing trace: {e}"))?;
        }
        total_steps += result.steps;
        total_preemptions += result.preemptions;
        let g = &graphs[graph_idx[i]];
        let line = match &result.outcome {
            Ok((label, outcome)) => {
                if !checks::is_maximal_independent_set(g, &outcome.mis) {
                    return Err(format!(
                        "internal error: {} failed MIS verification",
                        result.label
                    ));
                }
                ok += 1;
                total_rounds += outcome.ledger.rounds;
                let stats = per_algorithm.entry(&jobs[i].algorithm).or_default();
                stats.rounds.push(outcome.ledger.rounds);
                stats.bits.push(outcome.ledger.bits);
                stats.mis_sizes.push(outcome.mis.len() as u64);
                result_json(label, g, outcome)
            }
            Err(e) => Json::obj(vec![("error", Json::from(e.as_str()))]).render(),
        };
        let path = out_dir.join(format!("job-{i:05}.json"));
        std::fs::write(&path, format!("{line}\n"))
            .map_err(|e| format!("writing result {}: {e}", path.display()))?;
    }

    let manifest = Json::obj(vec![
        ("jobs", Json::from(jobs.len())),
        ("ok", Json::from(ok)),
        ("failed", Json::from(jobs.len() - ok)),
        (
            "quantum",
            if quantum == 0 {
                Json::Null
            } else {
                Json::from(quantum)
            },
        ),
        ("wall_seconds", Json::from(wall)),
        ("total_steps", Json::from(total_steps)),
        ("total_rounds", Json::from(total_rounds)),
        ("total_preemptions", Json::from(total_preemptions)),
        (
            "executions_per_sec",
            Json::from(jobs.len() as f64 / wall.max(1e-9)),
        ),
        (
            "rounds_per_sec",
            Json::from(total_rounds as f64 / wall.max(1e-9)),
        ),
        (
            "per_algorithm",
            Json::Arr(
                per_algorithm
                    .iter()
                    .map(|(algorithm, stats)| {
                        Json::obj(vec![
                            ("algorithm", Json::from(*algorithm)),
                            ("jobs", Json::from(stats.rounds.len())),
                            ("median_rounds", Json::from(median(&stats.rounds))),
                            ("median_bits", Json::from(median(&stats.bits))),
                            ("median_mis_size", Json::from(median(&stats.mis_sizes))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let manifest_path = out_dir.join("manifest.json");
    std::fs::write(&manifest_path, manifest.render_pretty())
        .map_err(|e| format!("writing manifest {}: {e}", manifest_path.display()))?;
    println!(
        "batch: {} jobs ({} ok, {} failed) in {:.3}s — {:.1} executions/sec, {:.0} rounds/sec",
        jobs.len(),
        ok,
        jobs.len() - ok,
        wall,
        jobs.len() as f64 / wall.max(1e-9),
        total_rounds as f64 / wall.max(1e-9),
    );
    Ok(())
}

/// Per-algorithm accumulators for the manifest medians.
#[derive(Debug, Default)]
struct AlgoStats {
    rounds: Vec<u64>,
    bits: Vec<u64>,
    mis_sizes: Vec<u64>,
}

/// Median of a non-empty sample (lower middle for even sizes, matching the
/// bench harness's integer median).
fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// Builds the factory closure for one job's execution, unified to
/// [`JobOut`] via [`MapOutcome`]. The factory is re-invoked after every
/// preemption, so it must (and does) construct deterministically.
fn make_exec<'a>(
    algorithm: &str,
    g: &'a Graph,
    seed: u64,
) -> Result<Box<dyn FnMut() -> BoxedExecution<'a, JobOut> + 'a>, String> {
    let mis = |label: &'static str| move |o: MisOutcome| Ok((label.to_string(), o));
    Ok(match algorithm {
        "luby" => {
            let params = LubyParams::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    LubyExecution::new(g, &params, seed),
                    mis("luby (CONGEST)"),
                ))
            })
        }
        "ghaffari16" => {
            let params = Ghaffari16Params::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    Ghaffari16Execution::new(g, &params, seed),
                    mis("ghaffari16 (CONGEST)"),
                ))
            })
        }
        "g16-clique" => {
            let params = Ghaffari16Params::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    Ghaffari16CliqueExecution::new(g, &params, seed),
                    mis("ghaffari16 (congested clique)"),
                ))
            })
        }
        "beeping" => {
            let params = BeepingParams::for_graph(g);
            Box::new(move || {
                Box::new(MapOutcome::new(
                    BeepingExecution::new(g, &params, seed),
                    |run: BeepingRun| {
                        if !run.residual.is_empty() {
                            return Err(format!(
                                "beeping run left {} undecided node(s); raise the iteration budget",
                                run.residual.len()
                            ));
                        }
                        Ok((
                            "beeping MIS (§2.2)".to_string(),
                            MisOutcome {
                                mis: run.mis,
                                ledger: run.ledger,
                                iterations: run.iterations,
                            },
                        ))
                    },
                ))
            })
        }
        "sparsified" => {
            let params = SparsifiedParams::for_graph(g);
            let finish = move |run| {
                Ok((
                    "sparsified beeping MIS (§2.3)".to_string(),
                    finish_with_cleanup(g, run),
                ))
            };
            Box::new(move || {
                Box::new(MapOutcome::new(
                    SparsifiedExecution::new(g, &params, seed),
                    finish,
                ))
            })
        }
        "thm11" => Box::new(move || {
            Box::new(MapOutcome::new(
                CliqueMisExecution::new(g, &CliqueMisParams::default(), seed),
                |r: CliqueMisResult| {
                    Ok((
                        "Theorem 1.1 (§2.4, congested clique)".to_string(),
                        MisOutcome {
                            mis: r.mis,
                            ledger: r.ledger,
                            iterations: r.iterations,
                        },
                    ))
                },
            ))
        }),
        "lowdeg" => Box::new(move || {
            Box::new(MapOutcome::new(
                LowDegExecution::new(g, &LowDegParams::default(), seed),
                |r: LowDegResult| {
                    Ok((
                        "low-degree fast path (§2.5)".to_string(),
                        MisOutcome {
                            mis: r.mis,
                            ledger: r.ledger,
                            iterations: r.iterations,
                        },
                    ))
                },
            ))
        }),
        "auto" => Box::new(move || {
            Box::new(MapOutcome::new(AutoExecution::new(g, seed), |(o, s)| {
                Ok((format!("Theorem 1.1 dispatcher [{s:?}]"), o))
            }))
        }),
        "greedy" => {
            return Err("greedy is sequential and cannot be batched; use `clique-mis run`".into())
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

/// Parses the JSONL jobs file, reporting the first bad line.
fn parse_jobs(text: &str) -> Result<Vec<JobLine>, String> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("jobs line {}: {e}", lineno + 1))?;
        jobs.push(job_from_value(&value).map_err(|e| format!("jobs line {}: {e}", lineno + 1))?);
    }
    Ok(jobs)
}

fn job_from_value(value: &JsonValue) -> Result<JobLine, String> {
    let JsonValue::Obj(fields) = value else {
        return Err("job must be a JSON object".into());
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "algorithm"
                | "family"
                | "n"
                | "avg_deg"
                | "graph_seed"
                | "seed"
                | "trace"
                | "checkpoint_every"
        ) {
            return Err(format!("unknown job field '{key}'"));
        }
    }
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let algorithm = match get("algorithm") {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(_) => return Err("'algorithm' must be a string".into()),
        None => return Err("missing 'algorithm'".into()),
    };
    let family = match get("family") {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(_) => return Err("'family' must be a string".into()),
        None => return Err("missing 'family'".into()),
    };
    let n = as_u64(get("n").ok_or("missing 'n'")?, "n")? as usize;
    check_node_count(n)?;
    let avg_deg = match get("avg_deg") {
        None => 8.0,
        Some(JsonValue::Num(x)) => *x,
        Some(_) => return Err("'avg_deg' must be a number".into()),
    };
    let seed = match get("seed") {
        None => 1,
        Some(v) => as_u64(v, "seed")?,
    };
    let graph_seed = match get("graph_seed") {
        None => seed,
        Some(v) => as_u64(v, "graph_seed")?,
    };
    let trace = match get("trace") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err("'trace' must be a boolean".into()),
    };
    let checkpoint_every = match get("checkpoint_every") {
        None => None,
        Some(v) => {
            let every = as_u64(v, "checkpoint_every")?;
            if every == 0 {
                return Err("'checkpoint_every' must be at least 1".into());
            }
            Some(every)
        }
    };
    Ok(JobLine {
        algorithm,
        family,
        n,
        avg_deg,
        graph_seed,
        seed,
        trace,
        checkpoint_every,
    })
}

fn as_u64(value: &JsonValue, key: &str) -> Result<u64, String> {
    match value {
        JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
            Ok(*x as u64)
        }
        _ => Err(format!("'{key}' must be a non-negative integer")),
    }
}

/// Minimal JSON value for the flat batch job records. The analysis crate
/// has a zero-dep JSON *writer*; this is the matching reader, scoped to
/// what job lines need (no exponents-heavy numeric edge cases, lossless
/// for 53-bit integers).
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // slicing at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number")?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_job_shapes() {
        let v = parse_json(r#"{"algorithm":"luby","n":64,"avg_deg":8.5,"trace":true}"#)
            .expect("valid job line parses");
        let JsonValue::Obj(fields) = v else {
            panic!("expected object");
        };
        assert_eq!(
            fields[0],
            ("algorithm".into(), JsonValue::Str("luby".into()))
        );
        assert_eq!(fields[1], ("n".into(), JsonValue::Num(64.0)));
        assert_eq!(fields[2], ("avg_deg".into(), JsonValue::Num(8.5)));
        assert_eq!(fields[3], ("trace".into(), JsonValue::Bool(true)));
    }

    #[test]
    fn json_parser_rejects_trailing_garbage() {
        assert!(parse_json(r#"{"a":1} extra"#).is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_parser_handles_escapes_arrays_null() {
        let v = parse_json(r#"["a\n\"bA", null, [1, -2.5]]"#).expect("valid JSON");
        assert_eq!(
            v,
            JsonValue::Arr(vec![
                JsonValue::Str("a\n\"bA".into()),
                JsonValue::Null,
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(-2.5)]),
            ])
        );
    }

    #[test]
    fn job_lines_default_and_validate() {
        let jobs = parse_jobs(
            "# comment\n\
             {\"algorithm\":\"thm11\",\"family\":\"gnp\",\"n\":64}\n\
             \n\
             {\"algorithm\":\"luby\",\"family\":\"cycle\",\"n\":48,\"seed\":7,\"trace\":true,\"checkpoint_every\":4}\n",
        )
        .expect("well-formed jobs parse");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[0].graph_seed, 1);
        assert_eq!(jobs[0].avg_deg, 8.0);
        assert!(!jobs[0].trace);
        assert_eq!(jobs[1].checkpoint_every, Some(4));
        assert_eq!(jobs[1].graph_seed, 7, "graph_seed defaults to seed");

        assert!(
            parse_jobs("{\"algorithm\":\"luby\"}\n").is_err(),
            "missing family/n"
        );
        assert!(
            parse_jobs("{\"algorithm\":\"luby\",\"family\":\"cycle\",\"n\":8,\"bogus\":1}\n")
                .is_err(),
            "unknown field rejected"
        );
        assert!(
            parse_jobs(
                "{\"algorithm\":\"luby\",\"family\":\"cycle\",\"n\":8,\"checkpoint_every\":0}\n"
            )
            .is_err(),
            "zero cadence rejected"
        );
    }

    #[test]
    fn median_is_lower_middle() {
        assert_eq!(median(&[5]), 5);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
        assert_eq!(median(&[4, 1, 3]), 3);
    }
}
