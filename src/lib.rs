//! # pmcast — Probabilistic Multicast
//!
//! A Rust implementation of *Probabilistic Multicast* (Eugster & Guerraoui,
//! DSN 2002): a gossip-based algorithm that multicasts events to the subset
//! of a large process group that is actually interested in them, combining
//! the scalability of epidemic dissemination with content-based
//! publish/subscribe selectivity and a hierarchical membership whose
//! per-process views grow with `n^(1/d)` rather than `n`.
//!
//! This umbrella crate re-exports the public API of the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`addr`] | `pmcast-addr` | hierarchical addresses, prefixes, distances |
//! | [`interest`] | `pmcast-interest` | events, predicates, filters, interest regrouping |
//! | [`membership`] | `pmcast-membership` | group tree, delegates, view tables, membership providers |
//! | [`simnet`] | `pmcast-simnet` | deterministic round-based network simulation |
//! | [`core`] | `pmcast-core` | the pmcast protocol and the baseline protocols |
//! | [`analysis`] | `pmcast-analysis` | Pittel asymptote, infection Markov chains, reliability model |
//! | [`sim`] | `pmcast-sim` | experiment harness and figure regenerators |
//! | [`net`] | `pmcast-net` | event-driven async runtime, conformance-tested against [`sim`] |
//!
//! The most commonly used items are also re-exported at the crate root.
//!
//! ## API architecture
//!
//! All three dissemination protocols — pmcast and the two baselines —
//! implement the [`MulticastProtocol`] trait and are built through a
//! [`ProtocolFactory`] ([`PmcastFactory`], [`FloodFactory`],
//! [`GenuineFactory`]) from the same `(topology, oracle, membership,
//! config)` quadruple.  Membership knowledge is a pluggable
//! [`MembershipView`]: [`GlobalOracleView`] gives every process the whole
//! group (the paper's evaluation model), [`PartialView`] bounds each
//! process to an lpbcast-style flat gossip-maintained partial view, and
//! [`DelegateView`] maintains the paper's Section 2 hierarchical view
//! tables (per-depth delegate slots that contain pmcast's tree delegates
//! by construction).  Workloads
//! are described declaratively with the [`Scenario`] builder — including a
//! [`MembershipSpec`] axis and `join_at` / `leave_at` lifecycle schedules
//! over a sparse [`Population`] — and executed by one generic trial loop
//! ([`sim::runner`]), so comparing protocols or adding workloads never
//! duplicates simulation code.
//!
//! Two lifecycle vocabularies coexist at this root, one per layer:
//! [`LifecycleEvent`] / [`LifecycleEventKind`] (from `pmcast-membership`)
//! describe a [`Population`]'s *scheduled membership events* — joins and
//! graceful leaves only, since crashes are a fault model, not membership —
//! while [`LifecycleTransition`] / [`LifecycleKind`] (from
//! `pmcast-simnet`) are the *applied engine transitions* the
//! [`Simulation`] reports to its lifecycle observer, which do include
//! `Crash`.  Schedules are written in the former; observers receive the
//! latter.
//!
//! ## Quick start
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use std::sync::Arc;
//! use pmcast::{
//!     AddressSpace, AssignmentOracle, Event, GlobalOracleView, ImplicitRegularTree,
//!     MulticastReport, NetworkConfig, PmcastConfig, PmcastFactory, ProcessId,
//!     ProtocolFactory, Simulation, TreeTopology,
//! };
//! use rand::SeedableRng;
//!
//! // 64 processes in a regular tree of depth 3.
//! let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 4)?);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
//! let membership = Arc::new(GlobalOracleView::new(topology.member_count()));
//!
//! let group = PmcastFactory::build(&topology, oracle.clone(), membership, &PmcastConfig::default());
//! let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(1));
//! let event = Event::builder(1).int("b", 7).build();
//! sim.process_mut(ProcessId(0)).pmcast(event.clone());
//! sim.run_until_quiescent(200);
//!
//! let report = MulticastReport::collect(&event, sim.processes(), oracle.as_ref());
//! assert!(report.delivery_ratio() > 0.8);
//! # Ok(())
//! # }
//! ```
//!
//! Or declaratively, running the same workload on every protocol:
//!
//! ```rust
//! use pmcast::{Event, Protocol, Publisher, Scenario};
//!
//! let scenario = Scenario::builder()
//!     .group(4, 3)
//!     .matching_rate(0.5)
//!     .publish(Publisher::Interested, Event::builder(1).int("b", 7).build())
//!     .publish_at(2, Publisher::Uniform, Event::builder(2).int("b", 8).build())
//!     .seed(1)
//!     .build();
//! for protocol in [Protocol::Pmcast, Protocol::FloodBroadcast, Protocol::GenuineMulticast] {
//!     let outcome = &scenario.run(protocol)[0];
//!     assert_eq!(outcome.per_event.len(), 2);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Hierarchical addresses, prefixes and distances (`pmcast-addr`).
pub mod addr {
    pub use pmcast_addr::*;
}

/// Content-based subscription model (`pmcast-interest`).
pub mod interest {
    pub use pmcast_interest::*;
}

/// Tree-structured membership (`pmcast-membership`).
pub mod membership {
    pub use pmcast_membership::*;
}

/// Deterministic round-based network simulation (`pmcast-simnet`).
pub mod simnet {
    pub use pmcast_simnet::*;
}

/// The pmcast protocol and baselines (`pmcast-core`).
pub mod core {
    pub use pmcast_core::*;
}

/// Stochastic analysis (`pmcast-analysis`).
pub mod analysis {
    pub use pmcast_analysis::*;
}

/// Experiment harness and figure regenerators (`pmcast-sim`).
pub mod sim {
    pub use pmcast_sim::*;
}

/// Event-driven async runtime (`pmcast-net`): long-running broker tasks on
/// timers and transports, conformance-tested against the round-synchronous
/// simulator (which stays the oracle).
pub mod net {
    pub use pmcast_net::*;
}

pub use pmcast_addr::{AddrError, Address, AddressSpace, Prefix};
pub use pmcast_analysis::{EnvParams, GroupParams};
pub use pmcast_core::{
    FloodBroadcastProcess, FloodFactory, GenuineFactory, GenuineMulticastProcess, Gossip,
    InterestRouting, MulticastProtocol, MulticastReport, PmcastConfig, PmcastFactory, PmcastGroup,
    PmcastProcess, ProtocolFactory, ProtocolGroup, TuningConfig,
};
pub use pmcast_sim::prediction::{parse_check_model, predict, DriftGate, ModelPrediction};
pub use pmcast_sim::runner::{DeliveryLatency, Protocol, TrialOutcome};
pub use pmcast_sim::scenario::{
    MembershipSpec, Publication, Publisher, Scenario, ScenarioBuilder, SubtreeLoss, TopicWorkload,
};
pub use pmcast_interest::{
    AttributeValue, Event, EventId, Filter, Interest, InterestSummary, InternStats, Interner,
    Predicate,
};
pub use pmcast_membership::{
    AssignmentOracle, DelegateView, DelegateViewConfig, GlobalOracleView, GroupTree,
    ImplicitRegularTree, InterestOracle, LazyDelegateView, LifecycleEvent, LifecycleEventKind,
    MembershipView, PartialView, PartialViewConfig, Population, PopulationSizes,
    SubscriptionOracle, SubtreeSummaries, TopicOracle, TreeTopology, UniformOracle, ViewTable,
    TOPIC_ATTRIBUTE,
};
pub use pmcast_net::{NetConfig, NetGroup, NetGroupHandle, NetTrialOutcome, Seen};
pub use pmcast_simnet::{
    FaultPlan, LifecycleKind, LifecyclePlan, LifecycleTransition, LinkDelay, LossOverride,
    NetworkConfig, PartitionWindow, ProcessId, Simulation, Straggler, TrafficStats,
};
