//! The algorithms of *"Distributed MIS via All-to-All Communication"*
//! (Ghaffari, PODC 2017), plus the baselines it builds on and the standard
//! reductions it cites.
//!
//! The paper constructs its `Õ(√(log Δ))`-round congested-clique MIS
//! algorithm through a chain of intermediate algorithms, each of which is
//! implemented here as a standalone, runnable, instrumented artifact:
//!
//! | Module | Paper section | Model |
//! |---|---|---|
//! | [`greedy`] | (folklore; leader subroutine) | sequential |
//! | [`luby`] | §1.1 baseline [Luby'86; ABI'86] | CONGEST |
//! | [`ghaffari16`] | §2.1 recap of [Ghaffari, SODA'16] | CONGEST |
//! | [`beeping_mis`] | §2.2 intermediate algorithm (1) | beeping |
//! | [`sparsified`] | §2.3 intermediate algorithm (2) | beeping + 1 exchange |
//! | [`exponentiation`] | Lemma 2.14 | congested clique |
//! | [`clique_mis`] | §2.4, **Theorem 1.1** | congested clique |
//! | [`lowdeg`] | §2.5, Lemma 2.15 | congested clique |
//! | [`reductions`] | §1.1 "standard reductions `[28]`" | any |
//! | [`ruling_set`] | §1.1 related work | congested clique |
//! | [`lca`] | §1.2 local-computation connection | centralized queries |
//!
//! All randomized algorithms draw coins from
//! [`cc_mis_sim::SharedRandomness`], so a fixed `(seed, parameters, graph)`
//! triple determines the execution bit-for-bit. The congested-clique
//! simulation in [`clique_mis`] reproduces the direct execution of
//! [`sparsified`] **exactly** under a shared seed — that equivalence is the
//! correctness core of §2.4 and is enforced by integration tests.
//!
//! # Example
//!
//! ```
//! use cc_mis_core::clique_mis::{run_clique_mis, CliqueMisParams};
//! use cc_mis_graph::{checks, generators};
//!
//! let g = generators::erdos_renyi_gnp(200, 0.1, 1);
//! let out = run_clique_mis(&g, &CliqueMisParams::default(), 7);
//! assert!(checks::is_maximal_independent_set(&g, &out.mis));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beeping_mis;
pub mod cleanup;
pub mod clique_mis;
pub mod common;
pub mod exponentiation;
pub mod ghaffari16;
pub mod greedy;
pub mod lca;
pub mod lowdeg;
pub mod luby;
pub mod reductions;
pub(crate) mod replay;
pub(crate) mod rounds;
pub mod ruling_set;
pub mod sparsified;

pub use common::MisOutcome;
