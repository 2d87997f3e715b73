//! # pmcast-membership — tree-structured membership for pmcast
//!
//! This crate implements the membership scheme of *Probabilistic Multicast*
//! (Eugster & Guerraoui, DSN 2002), Section 2: a pmcast group is split into
//! subgroups following the hierarchical address space; each subgroup is
//! represented by `R` *delegates* (the processes with the smallest
//! addresses), and the recursive select/merge of delegates yields a compound
//! spanning tree.  Every process only knows the delegates along its path to
//! the root plus its immediate neighbours, giving per-process views of size
//! `R·a·(d−1) + a ∈ O(d·R·n^(1/d))` instead of `n` (Equation 2 / 12).
//!
//! Provided building blocks:
//!
//! * [`TreeTopology`] — the abstract "who is where in the tree" interface the
//!   dissemination layer builds on, with two implementations:
//!   [`ImplicitRegularTree`] (a fully populated regular tree, computed on the
//!   fly — what the paper's analysis assumes) and [`GroupTree`] (an explicit
//!   membership with arbitrary populated addresses and per-process
//!   subscriptions).
//! * [`ViewTable`] / [`DepthTable`] / [`ViewEntry`] — the per-depth membership
//!   tables of Figure 2, including regrouped interests and process counts,
//!   with delegates elected by the paper's smallest-address rule.
//! * [`InterestOracle`] — the interface used by the protocol to decide
//!   whether a process / subtree is interested in an event, with an exact
//!   subscription-based implementation and an assignment-based one used by
//!   the evaluation workloads.
//! * [`MembershipView`] — the *provider* boundary the dissemination layer
//!   draws fanout candidates from, with three implementations: a global one
//!   ([`GlobalOracleView`], everyone knows everyone — the evaluation
//!   model), an lpbcast-style flat bounded gossip one ([`PartialView`]),
//!   and the paper's own hierarchical view-table maintenance
//!   ([`DelegateView`]: per-depth delegate slots structured by the tree
//!   coordinates, gossip-piggybacked delegate tables, smallest-address
//!   re-election under churn).  See the [`provider`] module docs for the
//!   sampling-determinism and eviction contract and the [`delegate`]
//!   module docs for the hierarchical design.  Both gossip providers also
//!   bootstrap over **sparse** populations (`bootstrap_sparse`), seating
//!   delegates gap-aware over partially occupied subgroups.
//! * [`Population`] — a sparse, time-varying population over the regular
//!   address space: initial occupancy plus a deterministic join/leave
//!   schedule, with [`GroupTree`] snapshots per round (see the
//!   [`population`] module docs).
//!
//! ## Example
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use pmcast_addr::AddressSpace;
//! use pmcast_membership::{GroupTree, TreeTopology};
//! use pmcast_interest::{Filter, Predicate};
//!
//! let space = AddressSpace::regular(3, 4)?;
//! let mut tree = GroupTree::new(space.clone());
//! for address in space.iter() {
//!     tree.join(address, Filter::new().with("b", Predicate::gt(0.0)))?;
//! }
//! assert_eq!(tree.member_count(), 64);
//!
//! // Delegates of the root subgroup are the 3 smallest addresses.
//! let delegates = tree.delegates(&pmcast_addr::Prefix::root(), 3);
//! assert_eq!(delegates.len(), 3);
//! assert_eq!(delegates[0].to_string(), "0.0.0");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod delegate;
mod error;
mod lazy;
mod oracle;
pub mod population;
pub mod provider;
mod summaries;
mod topic;
mod topology;
mod tree;
mod view;

pub use delegate::{DelegateView, DelegateViewConfig};
pub use error::MembershipError;
pub use lazy::LazyDelegateView;
pub use oracle::{AssignmentOracle, InterestOracle, SubscriptionOracle, UniformOracle};
pub use summaries::SubtreeSummaries;
pub use topic::{TopicOracle, TOPIC_ATTRIBUTE};
pub use population::{LifecycleEvent, LifecycleEventKind, Population, PopulationSizes};
pub use provider::{GlobalOracleView, MembershipView, PartialView, PartialViewConfig};
pub use topology::{ImplicitRegularTree, TreeTopology};
pub use tree::GroupTree;
pub use view::{DepthTable, ViewEntry, ViewTable};

/// Default redundancy factor `R` suggested by the paper (`R > 1`, the
/// evaluation uses `R = 3` or `R = 4`).
pub const DEFAULT_REDUNDANCY: usize = 3;
