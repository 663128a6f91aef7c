//! Central environment configuration for the simulator.
//!
//! Every `CC_MIS_*` environment read in `crates/sim` and `crates/core`
//! lives here and nowhere else — the root `clippy.toml` pins that. The
//! point is auditability of the determinism story: environment variables
//! are per-process ambient state, so any code path that consults one is a
//! place where two runs of "the same" configuration could diverge. By
//! funneling all reads through this module, the reviewer (and the R21
//! taint rule) can see at a glance exactly which knobs exist and verify
//! each one is *scheduling-only* — thread counts and delivery topology
//! that by construction never change simulation results.
//!
//! The accessors return `Option` and leave defaulting to the caller: the
//! knob owner (`par_nodes::thread_count`, `shard::shard_count`) keeps its
//! own override/default policy and documents it there.

/// Reads one environment variable (`None` when unset or not Unicode): the
/// only environment read in `crates/sim` and `crates/core`.
#[allow(
    clippy::disallowed_methods,
    reason = "the config module's one environment read, so every ambient knob is auditable here"
)]
fn env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The worker-thread knob from `CC_MIS_THREADS`.
///
/// `Some(k)` when the variable is set — unparsable or `< 1` values fall
/// back to `1`, the sequential escape hatch. `None` when unset (callers
/// then use the machine's available parallelism).
pub fn env_threads() -> Option<usize> {
    env("CC_MIS_THREADS").map(|s| s.trim().parse::<usize>().unwrap_or(1).max(1))
}

/// The shard-count knob from `CC_MIS_SHARDS`.
///
/// `Some(k)` when the variable is set — unparsable values fall back to `0`
/// (direct delivery); `0` is meaningful (it forces direct delivery even if
/// other configuration suggests sharding). `None` when unset. Framed
/// delivery is byte-identical to direct at any shard count (pinned by the
/// runtime's equivalence tests), so this is a topology knob, never a
/// semantics knob.
pub fn env_shards() -> Option<usize> {
    env("CC_MIS_SHARDS").map(|s| s.trim().parse::<usize>().unwrap_or(0))
}

/// The shard-backend knob from `CC_MIS_SHARD_BACKEND` (`"channel"` or
/// `"process"`). Unrecognised values fall back to the channel backend at
/// the point of use; both backends speak the identical frame protocol, so
/// this too never changes results.
pub fn env_shard_backend() -> Option<String> {
    env("CC_MIS_SHARD_BACKEND")
}

/// The worker-binary knob from `CC_MIS_WORKER_BIN`: the executable spawned
/// for process-backend shard workers. Unset means "this process's own
/// binary" (the CLI re-invokes itself with the `worker` verb).
pub fn env_worker_bin() -> Option<String> {
    env("CC_MIS_WORKER_BIN")
}

/// The worker-log knob from `CC_MIS_WORKER_LOG_DIR`: when set, each
/// process-backend worker's stderr is redirected to a log file in this
/// directory (CI uploads them on failure). Unset discards worker stderr.
pub fn env_worker_log_dir() -> Option<String> {
    env("CC_MIS_WORKER_LOG_DIR")
}

/// Directory for coordinator↔worker Unix domain sockets: the OS temp dir.
/// Socket names include the coordinator pid and a monotone counter, so
/// concurrent processes never collide.
pub fn socket_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}
