//! Synchronous distributed-model simulators for the `clique-mis`
//! reproduction of *"Distributed MIS via All-to-All Communication"*
//! (Ghaffari, PODC 2017).
//!
//! The paper's results are statements about **round complexity** in three
//! synchronous message-passing models (§1 of the paper):
//!
//! * **CONGEST** — per round, each node sends one `B = O(log n)`-bit message
//!   to each *neighbor* ([`congest::CongestEngine`]).
//! * **CONGESTED-CLIQUE** — per round, each node sends `B` bits to *every*
//!   other node ([`clique::CliqueEngine`]).
//! * **full-duplex beeping** — per round each node beeps or stays silent and
//!   hears the OR of its neighbors' beeps ([`beeping::BeepingEngine`]).
//!
//! The engines here simulate those models *honestly*: every message carries
//! an explicit bit size, per-round per-link budgets are enforced (strict
//! mode) or tallied (audit mode), and a [`metrics::RoundLedger`] records
//! rounds, messages, and bits so the experiment harness reports exactly the
//! quantities the paper bounds.
//!
//! Two further pieces of substrate live here:
//!
//! * [`routing`] — a constructive scheduler for Lenzen-style all-to-all
//!   routing [Lenzen, PODC'13], used as a black box by the paper
//!   (Lemma 2.14 and the clean-up step). Our scheduler validates the
//!   capacity precondition and *measures* the rounds it actually needs.
//! * [`rng::SharedRandomness`] — addressable per-`(node, round)` coins. The
//!   simulation argument of §2.4 hinges on randomness being *replayable by
//!   third parties*; a counter-based stream makes the direct execution and
//!   the congested-clique simulation bit-identical.
//!
//! # Example
//!
//! ```
//! use cc_mis_sim::clique::CliqueEngine;
//! use cc_mis_graph::NodeId;
//!
//! // 4 nodes, 32-bit bandwidth per ordered pair per round, strict.
//! let mut engine = CliqueEngine::strict(4, 32);
//! let mut round = engine.begin_round::<u32>();
//! round.send(NodeId::new(0), NodeId::new(3), 17, 0xABCD)?;
//! let inboxes = round.deliver();
//! assert_eq!(inboxes[3], vec![(NodeId::new(0), 0xABCD)]);
//! assert_eq!(engine.ledger().rounds, 1);
//! # Ok::<(), cc_mis_sim::BandwidthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod beeping;
pub mod bits;
pub mod clique;
pub mod config;
pub mod congest;
pub mod driver;
pub mod frontier;
pub mod metrics;
pub mod par_nodes;
mod pool;
pub mod rng;
pub mod routing;
pub mod runtime;
pub mod scheduler;
pub mod shard;
pub mod snapshot;

pub use driver::{
    drive, drive_observed, drive_with_checkpoints, drive_with_fault, Execution, Status,
};
pub use frontier::Frontier;
pub use metrics::{BandwidthError, RoundLedger};
pub use par_nodes::par_map_nodes;
pub use rng::SharedRandomness;
pub use runtime::{Inboxes, RoundEvent, RoundObserver, SharedObserver};
pub use scheduler::{BatchScheduler, BoxedExecution, JobResult, JobSpec, MapOutcome};
pub use shard::{
    arm_fault, disarm_fault, fault_injections, set_backend_override, set_shards_override,
    set_worker_binary, shard_count, worker_main, FaultPlan, ShardBackend, ShardError, Wire,
    WireCursor,
};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
