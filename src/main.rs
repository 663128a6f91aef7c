//! `clique-mis` — command-line front end for the library.
//!
//! ```text
//! clique-mis run    --algorithm thm11 --family gnp --n 1000 --avg-deg 16 --seed 7
//! clique-mis run    --algorithm luby  --input graph.edges --json
//! clique-mis reduce --kind matching --family grid --n 400
//! clique-mis ruling --k 2 --family gnp --n 500 --avg-deg 8
//! clique-mis query  --node 17 --family regular --n 10000 --avg-deg 4
//! clique-mis gen    --family ba --n 300 --avg-deg 6 --format dimacs > g.dimacs
//! ```
//!
//! Every MIS-producing command verifies its output before printing.

#![forbid(unsafe_code)]

mod batch;

use std::process::ExitCode;

use clique_mis::algorithms::beeping_mis::{BeepingExecution, BeepingParams};
use clique_mis::algorithms::clique_mis::{
    run_clique_mis_outcome, CliqueMisExecution, CliqueMisParams,
};
use clique_mis::algorithms::ghaffari16::{
    Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params,
};
use clique_mis::algorithms::greedy::greedy_mis;
use clique_mis::algorithms::lca::{MisAnswer, MisOracle};
use clique_mis::algorithms::lowdeg::{AutoExecution, LowDegExecution, LowDegParams};
use clique_mis::algorithms::luby::{LubyExecution, LubyParams};
use clique_mis::algorithms::reductions::{
    coloring_via_mis, edge_coloring_via_mis, maximal_matching_via_mis,
};
use clique_mis::algorithms::ruling_set::k_ruling_set_via_mis;
use clique_mis::algorithms::sparsified::{
    finish_with_cleanup, SparsifiedExecution, SparsifiedParams,
};
use clique_mis::algorithms::MisOutcome;
use clique_mis::analysis::json::Json;
use clique_mis::analysis::trace::JsonlTraceSink;
use clique_mis::graph::{checks, generators, io as graph_io, Graph, NodeId};
use clique_mis::sim::driver::resume;
use clique_mis::sim::{drive_observed, drive_with_checkpoints, Execution, SharedObserver};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  clique-mis run    --algorithm <greedy|luby|ghaffari16|g16-clique|beeping|sparsified|thm11|lowdeg|auto> <graph> [--seed S] [--json] [--trace PATH] [--checkpoint PATH [--checkpoint-every K]] [--resume PATH] [--shards S [--shard-backend <channel|process>] [--fault SHARD@ROUND]]
  clique-mis batch  --jobs PATH.jsonl --out DIR [--quantum K] [--threads T]
  clique-mis reduce --kind <matching|vertex-coloring|edge-coloring> <graph> [--seed S]
  clique-mis ruling --k <K> <graph> [--seed S]
  clique-mis query  --node <V> <graph> [--seed S]
  clique-mis gen    <graph> [--format <edges|dimacs>]
  clique-mis worker --socket PATH --shard K   (internal: shard worker child process)

graph source (one of):
  --family <gnp|regular|ba|grid|cycle|star|cliques|geometric|smallworld|kronecker> --n <N> [--avg-deg <D>] [--seed S]
  --input <path>   (edge list: 'n <count>' header then 'u v' lines; or DIMACS if named *.dimacs/*.col)

batch jobs file: one JSON object per line, e.g.
  {\"algorithm\":\"thm11\",\"family\":\"gnp\",\"n\":64,\"avg_deg\":8,\"seed\":7,\"trace\":true}
(--quantum K preempts each job every K steps, 0 = run to completion; results land in DIR/job-NNNNN.json plus DIR/manifest.json)";

/// Simple flag parser: `--key value` pairs after a subcommand.
struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
            if key == "json" {
                flags.push(key.to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), value.clone()));
                i += 2;
            }
        }
        Ok(Options { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let opts = Options::parse(rest)?;
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "batch" => batch::cmd_batch(&opts),
        "reduce" => cmd_reduce(&opts),
        "ruling" => cmd_ruling(&opts),
        "query" => cmd_query(&opts),
        "gen" => cmd_gen(&opts),
        "worker" => cmd_worker(&opts),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_graph(opts: &Options) -> Result<Graph, String> {
    if let Some(path) = opts.get("input") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let g = if path.ends_with(".dimacs") || path.ends_with(".col") {
            graph_io::read_dimacs(file).map_err(|e| e.to_string())?
        } else {
            graph_io::read_edge_list(file).map_err(|e| e.to_string())?
        };
        return Ok(g);
    }
    let family = opts.get("family").ok_or("need --family or --input")?;
    let n: usize = opts.get_parsed("n")?.ok_or("need --n with --family")?;
    let seed: u64 = opts.get_parsed("seed")?.unwrap_or(1);
    let avg: f64 = opts.get_parsed("avg-deg")?.unwrap_or(8.0);
    build_family(family, n, avg, seed)
}

/// Refuses a generated vertex count above [`graph_io::MAX_NODES`], the
/// bound the graph readers hold files to, before anything is allocated.
fn check_node_count(n: usize) -> Result<(), String> {
    if n > graph_io::MAX_NODES {
        return Err(format!(
            "graph too large: {n} vertices (at most {} are built)",
            graph_io::MAX_NODES
        ));
    }
    Ok(())
}

/// Builds a named generator family, shared by `--family` graph sources and
/// the batch job file. `n` is a target size: `grid` rounds to a square,
/// `cliques` to whole blocks, `kronecker` up to the next power of two
/// (none of which passes [`graph_io::MAX_NODES`], a power of two).
fn build_family(family: &str, n: usize, avg: f64, seed: u64) -> Result<Graph, String> {
    check_node_count(n)?;
    let g = match family {
        "gnp" => generators::erdos_renyi_gnp(n, (avg / (n.max(2) - 1) as f64).min(1.0), seed),
        "regular" => {
            let mut d = (avg.round() as usize).min(n.saturating_sub(1));
            if n * d % 2 == 1 {
                d = d.saturating_sub(1);
            }
            generators::random_regular(n, d, seed)
        }
        "ba" => generators::barabasi_albert(n, (avg / 2.0).round().max(1.0) as usize, seed),
        "grid" => {
            let side = (n as f64).sqrt().round().max(1.0) as usize;
            generators::grid(side, side)
        }
        "cycle" => generators::cycle(n),
        "star" => generators::star(n),
        "cliques" => generators::disjoint_cliques(
            n / (avg.round() as usize + 1).max(2),
            (avg.round() as usize + 1).max(2),
        ),
        "geometric" => {
            // radius for expected degree ≈ avg: π r² n = avg
            let r = (avg / (std::f64::consts::PI * n as f64)).sqrt();
            generators::random_geometric(n, r, seed)
        }
        "smallworld" => {
            let k = ((avg.round() as usize) / 2 * 2)
                .max(2)
                .min(n.saturating_sub(1) / 2 * 2);
            generators::watts_strogatz(n, k, 0.1, seed)
        }
        "kronecker" => {
            let scale = usize::BITS - (n.max(2) - 1).leading_zeros();
            generators::kronecker(scale, (avg / 2.0).round().max(1.0) as usize, seed)
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    Ok(g)
}

/// Renders the ledger's per-phase breakdown as a JSON array.
fn phases_json(outcome: &MisOutcome) -> String {
    Json::Arr(
        outcome
            .ledger
            .phases
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("label", Json::from(p.label.as_str())),
                    ("rounds", Json::from(p.rounds)),
                    ("messages", Json::from(p.messages)),
                    ("bits", Json::from(p.bits)),
                ])
            })
            .collect(),
    )
    .render()
}

/// Renders one verified result as the single-line JSON record emitted by
/// `run --json` and written per job by `batch` — one format, one function,
/// so batch output stays byte-identical to a solo run.
fn result_json(label: &str, g: &Graph, outcome: &MisOutcome) -> String {
    let members: Vec<u32> = outcome.mis.iter().map(|v| v.raw()).collect();
    format!(
        "{{\"algorithm\":{label:?},\"n\":{},\"m\":{},\"max_degree\":{},\"mis_size\":{},\"rounds\":{},\"messages\":{},\"bits\":{},\"iterations\":{},\"phases\":{},\"verified\":true,\"mis\":{members:?}}}",
        g.node_count(),
        g.edge_count(),
        g.max_degree(),
        outcome.mis.len(),
        outcome.ledger.rounds,
        outcome.ledger.messages,
        outcome.ledger.bits,
        outcome.iterations,
        phases_json(outcome),
    )
}

/// Checkpoint/resume flags shared by all `run` algorithms.
struct CheckpointOpts {
    /// Where to write snapshots during the run (`--checkpoint PATH`).
    checkpoint: Option<String>,
    /// Snapshot cadence in steps (`--checkpoint-every K`, default 1).
    every: u64,
    /// Snapshot to restore before stepping (`--resume PATH`).
    resume: Option<String>,
}

impl CheckpointOpts {
    fn parse(opts: &Options) -> Result<CheckpointOpts, String> {
        let every: u64 = opts.get_parsed("checkpoint-every")?.unwrap_or(1);
        if every == 0 {
            return Err("--checkpoint-every must be at least 1".into());
        }
        if opts.get("checkpoint-every").is_some() && opts.get("checkpoint").is_none() {
            return Err("--checkpoint-every needs --checkpoint PATH".into());
        }
        Ok(CheckpointOpts {
            checkpoint: opts.get("checkpoint").map(str::to_string),
            every,
            resume: opts.get("resume").map(str::to_string),
        })
    }

    fn any(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some()
    }
}

/// Drives an execution to completion, honouring `--resume` and `--checkpoint`.
///
/// A `--resume` snapshot is restored before the first step; any mismatch
/// (wrong algorithm, graph, or parameters) is reported as a clear error.
/// With `--checkpoint`, every `K`-th step boundary overwrites `PATH` with a
/// fresh snapshot, so the newest resumable state survives a crash.
fn drive_cli<E: Execution>(
    mut exec: E,
    observer: Option<SharedObserver>,
    ck: &CheckpointOpts,
) -> Result<E::Outcome, String> {
    if let Some(path) = &ck.resume {
        let bytes = std::fs::read(path).map_err(|e| format!("reading snapshot {path}: {e}"))?;
        resume(&mut exec, &bytes).map_err(|e| format!("resuming from {path}: {e}"))?;
    }
    match &ck.checkpoint {
        None => Ok(drive_observed(exec, observer)),
        Some(path) => {
            let mut io_error: Option<String> = None;
            let outcome = drive_with_checkpoints(exec, observer, ck.every, |_, bytes| {
                if io_error.is_none() {
                    if let Err(e) = std::fs::write(path, bytes) {
                        io_error = Some(format!("writing snapshot {path}: {e}"));
                    }
                }
            });
            match io_error {
                Some(e) => Err(e),
                None => Ok(outcome),
            }
        }
    }
}

/// Applies the sharded-transport flags for this process: `--shards S`
/// routes round delivery through `S` frame-based worker shards,
/// `--shard-backend` picks in-process channels (default) or OS-process
/// workers, and `--fault SHARD@ROUND` kills one shard at the given round
/// to exercise checkpoint recovery. The overrides are process-scoped and
/// live until exit; nothing here needs undoing.
fn apply_shard_opts(opts: &Options) -> Result<(), String> {
    let shards: usize = opts.get_parsed("shards")?.unwrap_or(0);
    if shards > 0 {
        clique_mis::sim::set_shards_override(Some(shards));
    }
    match opts.get("shard-backend") {
        None => {}
        Some("channel") => {
            clique_mis::sim::set_backend_override(Some(clique_mis::sim::ShardBackend::Channel));
        }
        Some("process") => {
            clique_mis::sim::set_backend_override(Some(clique_mis::sim::ShardBackend::Process));
        }
        Some(other) => return Err(format!("unknown shard backend '{other}'")),
    }
    if opts.get("shard-backend").is_some() && shards == 0 {
        return Err("--shard-backend needs --shards S".into());
    }
    if let Some(spec) = opts.get("fault") {
        if shards == 0 {
            return Err("--fault needs --shards S".into());
        }
        let (s, r) = spec
            .split_once('@')
            .ok_or_else(|| format!("--fault: expected SHARD@ROUND, got '{spec}'"))?;
        let kill_shard: usize = s
            .parse()
            .map_err(|_| format!("--fault: cannot parse shard '{s}'"))?;
        let at_round: u64 = r
            .parse()
            .map_err(|_| format!("--fault: cannot parse round '{r}'"))?;
        if kill_shard >= shards {
            return Err(format!(
                "--fault: shard {kill_shard} out of range (S = {shards})"
            ));
        }
        if at_round == 0 {
            return Err("--fault: rounds are numbered from 1".into());
        }
        clique_mis::sim::arm_fault(clique_mis::sim::FaultPlan {
            kill_shard,
            at_round,
        });
    }
    Ok(())
}

/// Internal verb spawned by the process shard backend: serve one shard
/// over the Unix socket until the coordinator hangs up.
fn cmd_worker(opts: &Options) -> Result<(), String> {
    let socket = opts.get("socket").ok_or("worker needs --socket PATH")?;
    let shard: u32 = opts.get_parsed("shard")?.ok_or("worker needs --shard K")?;
    clique_mis::sim::worker_main(socket, shard).map_err(|e| format!("shard worker {shard}: {e}"))
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed")?.unwrap_or(1);
    let algorithm = opts.get("algorithm").unwrap_or("auto");
    let ck = CheckpointOpts::parse(opts)?;
    apply_shard_opts(opts)?;
    let sink = opts.get("trace").map(|p| JsonlTraceSink::new(p).shared());
    let obs = || -> Option<SharedObserver> { sink.as_ref().map(JsonlTraceSink::as_observer) };
    let (outcome, label): (MisOutcome, String) = match algorithm {
        "greedy" => {
            if ck.any() {
                return Err("greedy is sequential; checkpointing is not supported".into());
            }
            (
                MisOutcome {
                    mis: greedy_mis(&g),
                    ledger: Default::default(),
                    iterations: 0,
                },
                "greedy (sequential)".into(),
            )
        }
        "luby" => (
            drive_cli(
                LubyExecution::new(&g, &LubyParams::for_graph(&g), seed),
                obs(),
                &ck,
            )?,
            "luby (CONGEST)".into(),
        ),
        "ghaffari16" => (
            drive_cli(
                Ghaffari16Execution::new(&g, &Ghaffari16Params::for_graph(&g), seed),
                obs(),
                &ck,
            )?,
            "ghaffari16 (CONGEST)".into(),
        ),
        "g16-clique" => (
            drive_cli(
                Ghaffari16CliqueExecution::new(&g, &Ghaffari16Params::for_graph(&g), seed),
                obs(),
                &ck,
            )?,
            "ghaffari16 (congested clique)".into(),
        ),
        "beeping" => {
            let run = drive_cli(
                BeepingExecution::new(&g, &BeepingParams::for_graph(&g), seed),
                obs(),
                &ck,
            )?;
            if !run.residual.is_empty() {
                return Err(format!(
                    "beeping run left {} undecided node(s); raise the iteration budget",
                    run.residual.len()
                ));
            }
            (
                MisOutcome {
                    mis: run.mis,
                    ledger: run.ledger,
                    iterations: run.iterations,
                },
                "beeping MIS (§2.2)".into(),
            )
        }
        "sparsified" => {
            let params = SparsifiedParams::for_graph(&g);
            let run = drive_cli(SparsifiedExecution::new(&g, &params, seed), obs(), &ck)?;
            (
                finish_with_cleanup(&g, run),
                "sparsified beeping MIS (§2.3)".into(),
            )
        }
        "thm11" => {
            let r = drive_cli(
                CliqueMisExecution::new(&g, &CliqueMisParams::default(), seed),
                obs(),
                &ck,
            )?;
            (
                MisOutcome {
                    mis: r.mis,
                    ledger: r.ledger,
                    iterations: r.iterations,
                },
                "Theorem 1.1 (§2.4, congested clique)".into(),
            )
        }
        "lowdeg" => {
            let r = drive_cli(
                LowDegExecution::new(&g, &LowDegParams::default(), seed),
                obs(),
                &ck,
            )?;
            (
                MisOutcome {
                    mis: r.mis,
                    ledger: r.ledger,
                    iterations: r.iterations,
                },
                "low-degree fast path (§2.5)".into(),
            )
        }
        "auto" => {
            let (o, s) = drive_cli(AutoExecution::new(&g, seed), obs(), &ck)?;
            (o, format!("Theorem 1.1 dispatcher [{s:?}]"))
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    if !checks::is_maximal_independent_set(&g, &outcome.mis) {
        return Err("internal error: output failed MIS verification".into());
    }
    if let Some(sink) = &sink {
        let events =
            JsonlTraceSink::finish_shared(sink).map_err(|e| format!("writing trace: {e}"))?;
        eprintln!(
            "trace: {events} events written to {}",
            opts.get("trace").unwrap_or_default()
        );
    }
    if opts.has_flag("json") {
        println!("{}", result_json(&label, &g, &outcome));
    } else {
        println!(
            "graph: {} nodes, {} edges, Δ = {}",
            g.node_count(),
            g.edge_count(),
            g.max_degree()
        );
        println!("algorithm: {label}");
        println!(
            "MIS: {} nodes (verified maximal independent)",
            outcome.mis.len()
        );
        println!(
            "cost: {} rounds, {} messages, {} bits, {} iterations",
            outcome.ledger.rounds, outcome.ledger.messages, outcome.ledger.bits, outcome.iterations
        );
    }
    Ok(())
}

fn cmd_reduce(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed")?.unwrap_or(1);
    let kind = opts.get("kind").ok_or("need --kind")?;
    let mis_fn = |h: &Graph| run_clique_mis_outcome(h, &CliqueMisParams::default(), seed).mis;
    match kind {
        "matching" => {
            let m = maximal_matching_via_mis(&g, mis_fn);
            if !checks::is_maximal_matching(&g, &m) {
                return Err("internal error: matching failed verification".into());
            }
            println!(
                "maximal matching: {} edges (of {})",
                m.len(),
                g.edge_count()
            );
        }
        "vertex-coloring" => {
            let palette = g.max_degree() + 1;
            let colors = coloring_via_mis(&g, palette, mis_fn).map_err(|e| e.to_string())?;
            if !checks::is_proper_coloring(&g, &colors, palette) {
                return Err("internal error: coloring failed verification".into());
            }
            println!("(Δ+1)-coloring with palette {palette}: verified proper");
        }
        "edge-coloring" => {
            let colored = edge_coloring_via_mis(&g, mis_fn);
            let palette = (2 * g.max_degree()).saturating_sub(1).max(1);
            println!(
                "(2Δ-1)-edge-coloring with palette {palette}: {} edges colored",
                colored.len()
            );
        }
        other => return Err(format!("unknown reduction '{other}'")),
    }
    Ok(())
}

fn cmd_ruling(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed")?.unwrap_or(1);
    let k: usize = opts.get_parsed("k")?.unwrap_or(2);
    let set = k_ruling_set_via_mis(&g, k, |h| {
        run_clique_mis_outcome(h, &CliqueMisParams::default(), seed).mis
    });
    if !checks::is_k_ruling_set(&g, &set, k) {
        return Err("internal error: ruling set failed verification".into());
    }
    println!(
        "{k}-ruling set: {} nodes (every vertex within distance {k})",
        set.len()
    );
    Ok(())
}

fn cmd_query(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed")?.unwrap_or(1);
    let node: u32 = opts.get_parsed("node")?.ok_or("need --node")?;
    if node as usize >= g.node_count() {
        return Err(format!("node {node} out of range (n = {})", g.node_count()));
    }
    let oracle = MisOracle::new(&g, seed);
    let (answer, stats) = oracle.query(NodeId::new(node));
    println!(
        "node v{node}: {}",
        match answer {
            MisAnswer::InMis => "IN the MIS",
            MisAnswer::Dominated => "dominated (an MIS neighbor exists)",
        }
    );
    println!(
        "query cost: {} probes, ball of {} nodes / {} edges, radius {}, {} attempt(s)",
        stats.probes, stats.ball_nodes, stats.ball_edges, stats.radius, stats.attempts
    );
    Ok(())
}

fn cmd_gen(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let format = opts.get("format").unwrap_or("edges");
    let stdout = std::io::stdout();
    let lock = stdout.lock();
    match format {
        "edges" => graph_io::write_edge_list(&g, lock).map_err(|e| e.to_string())?,
        "dimacs" => graph_io::write_dimacs(&g, lock).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format '{other}'")),
    }
    Ok(())
}
