//! # pmcast-sim — simulation harness and figure regenerators
//!
//! This crate turns the building blocks of the other `pmcast` crates into
//! the *experiments* of the paper's evaluation (Section 5): it samples
//! workloads, runs Monte-Carlo multicast trials over the simulated network,
//! aggregates the outcomes and regenerates the data behind every figure.
//!
//! * [`scenario`] — the fluent [`scenario::Scenario`] /
//!   [`scenario::ScenarioBuilder`] API describing a trial's workload:
//!   multiple publishers, multiple events, per-round publish schedules,
//!   crash/churn schedules, loss, and the [`scenario::MembershipSpec`]
//!   membership axis (global knowledge, flat lpbcast-style partial views,
//!   or the paper's hierarchical delegate tables).
//! * [`runner`] — run one or many multicast trials of a scenario,
//!   optionally in parallel, and aggregate their outcomes.  One generic simulation
//!   loop serves every protocol through
//!   [`pmcast_core::MulticastProtocol`] / [`pmcast_core::ProtocolFactory`];
//!   the [`runner::Protocol`] enum is a thin factory dispatch.
//! * [`workload`] — interest-assignment generators: i.i.d. Bernoulli
//!   (the paper's analysis model), exact-count, subtree-clustered, and a
//!   content-based stock-ticker workload exercising real filters.
//! * [`experiments`] — one module per figure/claim: Figure 4 (delivery
//!   reliability), Figure 5 (spurious reception), Figure 6 (scalability),
//!   Figure 7 (tuning), view sizes (Eq. 2/12), baseline comparison and
//!   round-count validation.
//! * [`report`] — ASCII tables and CSV output under `target/figures/`.
//!
//! The `figures` binary (`cargo run -p pmcast-sim --bin figures -- all`)
//! regenerates everything; `--paper` switches from the quick profile (small
//! group, few trials — used in tests and CI) to the full paper-scale profile
//! (`a = 22`, `d = 3`, `n = 10 648`).
//!
//! ## Performance architecture
//!
//! All experiment sweeps run their Monte-Carlo trials through
//! [`scenario::Scenario::run_parallel`], which fans independent trials out
//! over every available core. Trial `t` derives its entire randomness stream
//! from `seed + t`, so the parallel runner is **bit-identical** to the
//! sequential [`scenario::Scenario::run`] — same `AggregateOutcome`, any
//! thread count, any scheduling — which the test suite asserts. When adding
//! experiments, keep all randomness derived from the per-trial seed (never
//! from state shared between trials) and parallelism remains free and
//! deterministic.
//!
//! ## Example
//!
//! ```rust
//! use pmcast_sim::runner::{AggregateOutcome, Protocol};
//! use pmcast_sim::scenario::Scenario;
//!
//! let scenario = Scenario::builder()
//!     .group(6, 3)
//!     .matching_rate(0.5)
//!     .loss(0.01)
//!     .trials(3)
//!     .build();
//! let outcome = AggregateOutcome::from_trials(&scenario.run(Protocol::Pmcast));
//! assert!(outcome.delivery_mean > 0.5);
//! assert_eq!(outcome.trials, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod prediction;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod workload;
