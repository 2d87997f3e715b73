//! Declarative multicast scenarios: *what happens* in a trial, separated
//! from *which protocol* runs it.
//!
//! A [`Scenario`] describes a whole experiment point — the group shape, the
//! interest workload, the fault model and a **publish schedule** of any
//! number of events from any number of publishers at any rounds.  The
//! [`ScenarioBuilder`] makes composing one a few fluent lines; the runner
//! ([`crate::runner::run_scenario`] and friends) executes it with one
//! generic simulation loop for every protocol implementing
//! [`pmcast_core::MulticastProtocol`], so a new workload is a new builder
//! chain — never a fork of the trial loop.
//!
//! ```rust
//! use pmcast_interest::Event;
//! use pmcast_sim::runner::Protocol;
//! use pmcast_sim::scenario::{Publisher, Scenario};
//!
//! let scenario = Scenario::builder()
//!     .group(4, 3) // 4^3 = 64 processes
//!     .matching_rate(0.6)
//!     .loss(0.01)
//!     .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
//!     .publish_at(3, Publisher::Uniform, Event::builder(2).int("b", 2).build())
//!     .trials(2)
//!     .seed(7)
//!     .build();
//! let outcomes = scenario.run(Protocol::Pmcast);
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].per_event.len(), 2);
//! ```

use std::sync::Arc;

use pmcast_core::PmcastConfig;
use pmcast_interest::Event;
use pmcast_membership::{
    DelegateView, DelegateViewConfig, GlobalOracleView, LazyDelegateView, MembershipView,
    PartialView, PartialViewConfig, Population, PopulationSizes,
};
use pmcast_simnet::{FaultPlan, LinkDelay, PartitionWindow, Straggler};
use serde::{Deserialize, Serialize};

use crate::runner::{run_scenario, run_scenario_parallel, Protocol, TrialOutcome};

/// Which membership provider the processes of a trial draw their fanout
/// candidates from — the scenario axis that turns "a group of `n` known
/// processes" into "a population discovered by gossip".
///
/// # Examples
///
/// The same workload can run over global knowledge, a flat lpbcast-style
/// bounded view, or the paper's hierarchical delegate tables — only the
/// membership axis changes:
///
/// ```rust
/// use pmcast_sim::runner::Protocol;
/// use pmcast_sim::scenario::{MembershipSpec, Scenario};
///
/// for membership in [
///     MembershipSpec::Global,          // everyone knows everyone
///     MembershipSpec::partial(12),     // flat bounded random views
///     MembershipSpec::delegate(3),     // Section 2 per-depth delegate slots
/// ] {
///     let scenario = Scenario::builder()
///         .group(4, 2)
///         .membership(membership)
///         .seed(7)
///         .build();
///     let outcome = &scenario.run(Protocol::Pmcast)[0];
///     assert!(outcome.messages_sent > 0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MembershipSpec {
    /// Every process knows the whole group
    /// ([`GlobalOracleView`]) — the historical construction, bit-identical
    /// to pre-provider scenarios.
    #[default]
    Global,
    /// lpbcast-style **flat** bounded partial views maintained by gossip
    /// ([`PartialView`]), re-bootstrapped per trial from the trial's
    /// membership seed stream (see the seed contract in
    /// [`crate::runner`]).
    Partial {
        /// Maximum peers per process view.
        view_size: usize,
        /// Membership-gossip contacts per round.
        gossip_fanout: usize,
        /// View entries piggybacked per contact.
        digest_size: usize,
    },
    /// The paper's **hierarchical** Section 2 view-table maintenance
    /// ([`DelegateView`]): per-depth delegate slots structured by the
    /// scenario's tree coordinates, gossip-piggybacked delegate tables and
    /// smallest-address re-election under churn.  Bounded like
    /// [`Partial`](Self::Partial) (`(d−1)·a·slots + a` entries), but the
    /// bounded view *contains pmcast's tree delegates by construction* —
    /// see `examples/partial_view_sweep.rs` for the flat-vs-delegate
    /// comparison this variant exists for.
    Delegate {
        /// Delegate slots per subgroup per depth (keep `slots ≥ R`).
        slots: usize,
        /// Membership-gossip contacts per round.
        gossip_fanout: usize,
        /// View entries piggybacked per contact.
        digest_size: usize,
    },
    /// The **lazy** delegate provider ([`LazyDelegateView`]): the same
    /// per-depth delegate answers as [`Delegate`](Self::Delegate) in its
    /// churn-converged steady state, but computed on demand from an `O(n)`
    /// occupancy set instead of materialized slot tables — so a
    /// million-process delegate trial bootstraps instantly instead of
    /// building `n · a · d · slots` table entries.  Consumes **no**
    /// randomness (stream-neutral by construction) and models instant
    /// re-election under churn; use [`Delegate`](Self::Delegate) when the
    /// gossip convergence of the tables is itself under study.
    DelegateLazy {
        /// Delegate slots per subgroup per depth (keep `slots ≥ R`).
        slots: usize,
    },
}

impl MembershipSpec {
    /// The default partial-view spec with a given view size (the knob the
    /// paper-style reliability-vs-view-size sweeps vary).
    pub fn partial(view_size: usize) -> Self {
        let defaults = PartialViewConfig::default().with_view_size(view_size);
        Self::Partial {
            view_size: defaults.view_size,
            gossip_fanout: defaults.gossip_fanout,
            digest_size: defaults.digest_size,
        }
    }

    /// The default delegate-view spec with a given per-subgroup slot count
    /// (the hierarchical counterpart of [`partial`](Self::partial)'s view
    /// size).
    pub fn delegate(slots: usize) -> Self {
        let defaults = DelegateViewConfig::default().with_slots(slots);
        Self::Delegate {
            slots: defaults.slots,
            gossip_fanout: defaults.gossip_fanout,
            digest_size: defaults.digest_size,
        }
    }

    /// The lazy delegate-view spec with a given per-subgroup slot count —
    /// [`delegate`](Self::delegate)'s instant-bootstrap counterpart for
    /// trials whose group is too large to materialize slot tables for.
    pub fn delegate_lazy(slots: usize) -> Self {
        Self::DelegateLazy { slots }
    }

    /// Instantiates the provider for one trial over a regular
    /// `arity^depth` tree; `membership_seed` must come from the trial's
    /// membership stream (rule 3 of the [`crate::runner`] seed contract —
    /// shared by the [`Partial`](Self::Partial) and
    /// [`Delegate`](Self::Delegate) providers) so parallel trials stay
    /// bit-identical to sequential ones.
    ///
    /// `occupied` carries the trial's initial population (see
    /// [`Population::occupied_at_start`]): `None` for the fully populated
    /// static tree (the historical path, bit-identical streams), `Some`
    /// for a sparse start — the gossip providers then bootstrap gap-aware
    /// (`bootstrap_sparse`, which consumes no randomness beyond the same
    /// seed), while [`Global`](Self::Global) stays the omniscient static
    /// directory it has always been (stream-neutral by contract: it knows
    /// every address and ignores lifecycle notifications).
    pub fn instantiate(
        &self,
        arity: u32,
        depth: usize,
        membership_seed: u64,
        occupied: Option<&[bool]>,
    ) -> Arc<dyn MembershipView> {
        let n = (arity as usize).pow(depth as u32);
        match *self {
            MembershipSpec::Global => Arc::new(GlobalOracleView::new(n)),
            MembershipSpec::Partial {
                view_size,
                gossip_fanout,
                digest_size,
            } => {
                let config = PartialViewConfig {
                    view_size,
                    gossip_fanout,
                    digest_size,
                };
                Arc::new(match occupied {
                    Some(occupied) => {
                        PartialView::bootstrap_sparse(occupied, config, membership_seed)
                    }
                    None => PartialView::bootstrap(n, config, membership_seed),
                })
            }
            MembershipSpec::Delegate {
                slots,
                gossip_fanout,
                digest_size,
            } => {
                let config = DelegateViewConfig {
                    slots,
                    gossip_fanout,
                    digest_size,
                };
                Arc::new(match occupied {
                    Some(occupied) => DelegateView::bootstrap_sparse(
                        arity,
                        depth,
                        config,
                        membership_seed,
                        occupied,
                    ),
                    None => DelegateView::bootstrap(arity, depth, config, membership_seed),
                })
            }
            // The lazy provider derives every answer from occupancy alone:
            // no tables, no randomness, `membership_seed` deliberately
            // unused (the stream stays untouched, rule 3 is vacuous here).
            MembershipSpec::DelegateLazy { slots } => {
                Arc::new(LazyDelegateView::new(arity, depth, slots, occupied))
            }
        }
    }
}

/// How the publisher of a scheduled publication is chosen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Publisher {
    /// A uniformly random process.
    Uniform,
    /// A uniformly random *interested* process (the paper's model: the
    /// publisher counts as the initially infected process).  Falls back to
    /// a uniform draw when nobody is interested.
    Interested,
    /// The process with this dense identifier.
    Process(usize),
}

/// One scheduled publication: an event injected at a given round by a
/// publisher chosen per [`Publisher`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Publication {
    /// Simulation round at which the event is published.
    pub round: u64,
    /// How the publishing process is chosen.
    pub publisher: Publisher,
    /// The event payload.
    pub event: Event,
}

/// Correlated loss over one subtree of the scenario's `arity^depth` group:
/// every message **to or from** a process under `prefix` suffers an extra
/// independent loss probability on top of the global `ε` (the two loss
/// sources compose multiplicatively).  This is the scenario-level face of a
/// [`pmcast_simnet::LossOverride`] — the builder translates the tree prefix
/// into the subtree's contiguous dense-index range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubtreeLoss {
    /// Tree coordinates of the lossy subtree, most significant level first
    /// (e.g. `[2, 0]` is subgroup 0 within top-level subgroup 2); the empty
    /// prefix covers the whole group.
    pub prefix: Vec<u32>,
    /// Extra loss probability applied to the subtree's links.
    pub loss_probability: f64,
}

/// A heavy multi-topic traffic axis: `topics` overlapping audiences,
/// `events` publications spread over `publish_rounds` rounds with a
/// Zipf-tilted topic mix — the production-style pub/sub workload the
/// single-matching-rate trials cannot express.
///
/// When a scenario carries one of these, the matching-rate assignment and
/// the publish schedule are **replaced**: every process subscribes to
/// `subscriptions_per_process` distinct topics (drawn from the workload
/// stream, see the seed contract in [`crate::runner`]), each event carries
/// a `topic` attribute drawn from the truncated Zipf mix, and its publisher
/// is a uniform draw among the topic's subscribers.  Interest is answered
/// by a [`pmcast_membership::TopicOracle`], whose per-topic audiences are
/// hashconsed — thousands of events over a few dozen topics build a few
/// dozen audience sets, not thousands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicWorkload {
    /// Number of topics (audiences) the group publishes over.
    pub topics: usize,
    /// Distinct topics each process subscribes to.
    pub subscriptions_per_process: usize,
    /// Events published in total (ids `10_000 + e`).
    pub events: usize,
    /// The rounds the schedule is spread over: event `e` is published at
    /// round `e · publish_rounds / events` (deterministic, no randomness).
    pub publish_rounds: u64,
    /// Skew of the topic mix: topic `k` (0-based) is drawn with weight
    /// `(k + 1)^-zipf_exponent`.  `0.0` is a uniform mix; the classic
    /// Zipf-like skew is `1.0`.
    pub zipf_exponent: f64,
}

impl TopicWorkload {
    /// A topic workload with the given shape, published in a single round
    /// burst with the classic `1.0` Zipf skew.
    pub fn new(topics: usize, subscriptions_per_process: usize, events: usize) -> Self {
        Self {
            topics,
            subscriptions_per_process,
            events,
            publish_rounds: 1,
            zipf_exponent: 1.0,
        }
    }

    /// Spreads the schedule over the given number of rounds, returning the
    /// workload for chaining.
    pub fn with_publish_rounds(mut self, publish_rounds: u64) -> Self {
        self.publish_rounds = publish_rounds;
        self
    }

    /// Sets the Zipf skew of the topic mix, returning the workload for
    /// chaining.
    pub fn with_zipf_exponent(mut self, zipf_exponent: f64) -> Self {
        self.zipf_exponent = zipf_exponent;
        self
    }
}

/// Everything that happens in one Monte-Carlo trial, independent of the
/// protocol disseminating it: group shape, protocol parameters, interest
/// workload, fault model and publish schedule.
///
/// Build one with [`Scenario::builder`]; run it with [`Scenario::run`] /
/// [`Scenario::run_parallel`] (or the `run_scenario*` functions of
/// [`crate::runner`], including the generic
/// [`crate::runner::run_scenario_trial`] for custom protocols).
///
/// An empty `publications` list means the **default workload**: one event
/// (`id = 1000 + trial`, one `b` attribute) published at round 0 by a
/// random interested process — the paper's one-event-one-sender trial
/// shape, kept as the default so the figure sweeps of
/// [`crate::experiments`] reproduce their historical random streams
/// exactly (see the seed-derivation contract in [`crate::runner`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Subgroups per level (`a`).
    pub arity: u32,
    /// Tree depth (`d`).
    pub depth: usize,
    /// Protocol parameters (R, F, env, tuning, …).
    pub protocol: PmcastConfig,
    /// Fraction of interested processes (`p_d`), sampled i.i.d. per trial.
    pub matching_rate: f64,
    /// Network message-loss probability (`ε`).
    pub loss_probability: f64,
    /// Fraction of processes crashed at the start of the run (`τ`).
    pub crash_fraction: f64,
    /// Processes crashed at fixed rounds (`(round, process index)`), on top
    /// of `crash_fraction`.
    pub crash_schedule: Vec<(u64, usize)>,
    /// Processes joining (subscribing) at fixed rounds.  A process whose
    /// earliest lifecycle event is a join starts the trial **absent** — its
    /// address is unoccupied until the join round — so join schedules turn
    /// the fixed full tree into a sparse, growing population (see
    /// [`Scenario::population`]).
    pub join_schedule: Vec<(u64, usize)>,
    /// Processes leaving **gracefully** (unsubscribing) at fixed rounds —
    /// distinct from [`crash_schedule`](Self::crash_schedule): a leave is
    /// announced, so membership providers evict the leaver eagerly, while
    /// a crash is only detectable by missed contact.
    pub leave_schedule: Vec<(u64, usize)>,
    /// Per-link extra delivery latency (`None` keeps every message at the
    /// classic one-round latency); see [`ScenarioBuilder::link_delay`].
    pub link_delay: Option<LinkDelay>,
    /// Transient healing partitions: round-ranged splits of the group into
    /// equal contiguous cells; see [`ScenarioBuilder::partition`].
    pub partition_schedule: Vec<PartitionWindow>,
    /// Correlated extra loss per subtree, layered multiplicatively on the
    /// global `ε`; see [`ScenarioBuilder::subtree_loss`].
    pub subtree_loss: Vec<SubtreeLoss>,
    /// Slow processes whose outbox flushes only every `period`-th round;
    /// see [`ScenarioBuilder::straggler`].
    pub straggler_schedule: Vec<Straggler>,
    /// The publish schedule; empty means the default workload (see type
    /// docs).
    pub publications: Vec<Publication>,
    /// The multi-topic traffic axis; `None` (the default, and what every
    /// scenario serialized before the axis existed deserializes to) keeps
    /// the historical matching-rate workload.  Mutually exclusive with an
    /// explicit publish schedule — the axis *generates* the schedule.
    #[serde(default)]
    pub topics: Option<TopicWorkload>,
    /// The membership provider processes draw fanout candidates from
    /// ([`MembershipSpec::Global`] by default, which reproduces the
    /// historical scenarios bit for bit).
    pub membership: MembershipSpec,
    /// Independent trials to run.
    pub trials: usize,
    /// Base PRNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Safety cap on simulated rounds per trial.
    pub max_rounds: u64,
}

impl Scenario {
    /// Starts building a scenario from the quick-profile defaults
    /// (`a = 6`, `d = 3`, default protocol config, matching rate 0.5,
    /// reliable network, default workload, 1 trial, seed 42).
    ///
    /// # Examples
    ///
    /// Every builder method is an independent axis; only what differs from
    /// the defaults needs to be spelled out:
    ///
    /// ```rust
    /// use pmcast_interest::Event;
    /// use pmcast_sim::runner::Protocol;
    /// use pmcast_sim::scenario::{MembershipSpec, Publisher, Scenario};
    ///
    /// let scenario = Scenario::builder()
    ///     .group(4, 3)                         // 4^3 = 64 processes
    ///     .matching_rate(0.5)
    ///     .loss(0.01)
    ///     .membership(MembershipSpec::delegate(3))
    ///     .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
    ///     .trials(2)
    ///     .seed(9)
    ///     .build();
    /// let outcomes = scenario.run(Protocol::Pmcast);
    /// assert_eq!(outcomes.len(), 2);
    /// // Parallel execution is bit-identical to sequential.
    /// assert_eq!(outcomes, scenario.run_parallel(Protocol::Pmcast));
    /// ```
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                arity: 6,
                depth: 3,
                protocol: PmcastConfig::default(),
                matching_rate: 0.5,
                loss_probability: 0.0,
                crash_fraction: 0.0,
                crash_schedule: Vec::new(),
                join_schedule: Vec::new(),
                leave_schedule: Vec::new(),
                link_delay: None,
                partition_schedule: Vec::new(),
                subtree_loss: Vec::new(),
                straggler_schedule: Vec::new(),
                publications: Vec::new(),
                topics: None,
                membership: MembershipSpec::Global,
                trials: 1,
                seed: 42,
                max_rounds: 400,
            },
        }
    }

    /// The number of addresses of the scenario's tree, `a^d` — the upper
    /// bound any population can grow to, and the range every process index
    /// (publishers, crash/join/leave schedules) is validated against.
    pub fn capacity(&self) -> usize {
        (self.arity as usize).pow(self.depth as u32)
    }

    /// The **initial** population size: `a^d` minus the processes whose
    /// earliest lifecycle event is a join (they start absent).
    ///
    /// For static scenarios (no join/leave schedule) this is the familiar
    /// `n = a^d`.  Callers that need the address-space bound regardless of
    /// the schedule — index validation, per-process allocation — should use
    /// [`capacity`](Self::capacity); callers tracking how the membership
    /// evolves get the initial/peak/final triple from
    /// [`population_sizes`](Self::population_sizes).
    pub fn group_size(&self) -> usize {
        self.population_sizes().initial
    }

    /// The sparse, time-varying population this scenario's join/leave
    /// schedules describe (capacity, initial occupancy, sorted lifecycle
    /// events — see [`Population`]).  The crash schedule participates only
    /// in the initial-absence derivation
    /// ([`Population::with_fault_schedule`]): a process that crashes before
    /// its first join was a member at round zero — the schedule describes a
    /// crash-then-rejoin, not a late newcomer.
    pub fn population(&self) -> Population {
        Population::new(self.capacity(), &self.join_schedule, &self.leave_schedule)
            .with_fault_schedule(&self.crash_schedule)
    }

    /// The initial, peak and final population sizes of the scenario.
    pub fn population_sizes(&self) -> PopulationSizes {
        self.population().sizes()
    }

    /// The dense-index range `[start, end)` of the subtree below a tree
    /// prefix — the same contiguous layout as
    /// `pmcast_membership::ImplicitRegularTree::index_range`.
    fn subtree_range(&self, prefix: &[u32]) -> (usize, usize) {
        let arity = self.arity as usize;
        let span = arity.pow((self.depth - prefix.len()) as u32);
        let base: usize = prefix
            .iter()
            .fold(0, |acc, &component| acc * arity + component as usize);
        (base * span, base * span + span)
    }

    /// Compiles the scenario's fault axes into the [`FaultPlan`] the
    /// simulation network executes, translating each [`SubtreeLoss`] tree
    /// prefix into its contiguous dense-index range.  A scenario that sets
    /// no fault axis compiles to the neutral default plan, which the
    /// network layer treats as exactly absent (bit-identical streams).
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan {
            link_delay: self.link_delay,
            partitions: self.partition_schedule.clone(),
            stragglers: self.straggler_schedule.clone(),
            ..FaultPlan::default()
        };
        for subtree in &self.subtree_loss {
            let (start, end) = self.subtree_range(&subtree.prefix);
            plan = plan.with_loss_override(start, end, subtree.loss_probability);
        }
        plan
    }

    /// Runs all trials sequentially with the given protocol.
    pub fn run(&self, protocol: Protocol) -> Vec<TrialOutcome> {
        run_scenario(self, protocol)
    }

    /// Runs all trials on all available cores; bit-identical to
    /// [`run`](Self::run) (see [`crate::runner::run_scenario_parallel`]).
    pub fn run_parallel(&self, protocol: Protocol) -> Vec<TrialOutcome> {
        run_scenario_parallel(self, protocol)
    }
}

/// Fluent construction of a [`Scenario`]; see [`Scenario::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the group shape: `arity` subgroups per level, `depth` levels
    /// (`n = arity^depth` processes).
    pub fn group(mut self, arity: u32, depth: usize) -> Self {
        self.scenario.arity = arity;
        self.scenario.depth = depth;
        self
    }

    /// Sets the protocol parameters.
    pub fn protocol(mut self, protocol: PmcastConfig) -> Self {
        self.scenario.protocol = protocol;
        self
    }

    /// Sets the fraction of interested processes (`p_d`).
    pub fn matching_rate(mut self, matching_rate: f64) -> Self {
        self.scenario.matching_rate = matching_rate;
        self
    }

    /// Sets the message-loss probability (`ε`).
    pub fn loss(mut self, loss_probability: f64) -> Self {
        self.scenario.loss_probability = loss_probability;
        self
    }

    /// Sets the fraction of processes crashed before the run (`τ`).
    pub fn crash_fraction(mut self, crash_fraction: f64) -> Self {
        self.scenario.crash_fraction = crash_fraction;
        self
    }

    /// Crashes one process at a fixed round (may be called repeatedly to
    /// build a churn schedule; combines with
    /// [`crash_fraction`](Self::crash_fraction)).
    pub fn crash_at(mut self, round: u64, process: usize) -> Self {
        self.scenario.crash_schedule.push((round, process));
        self
    }

    /// Schedules a process to **join** (subscribe) at a fixed round.  A
    /// process whose earliest lifecycle event is a join starts the trial
    /// absent — its address is an occupancy gap until the join round — so
    /// repeated `join_at` calls describe flash-crowd and gradual-growth
    /// workloads.  Re-joining after a [`leave_at`](Self::leave_at) models
    /// resubscription churn.
    ///
    /// Joiners draw their interest from the same sampled assignment as
    /// everybody else (the workload stream samples all `a^d` addresses in
    /// address order regardless of occupancy), so lifecycle schedules
    /// consume **no randomness** and static scenarios stay bit-identical —
    /// see the seed contract in [`crate::runner`].
    pub fn join_at(mut self, round: u64, process: usize) -> Self {
        self.scenario.join_schedule.push((round, process));
        self
    }

    /// Schedules a process to **leave gracefully** (unsubscribe) at a fixed
    /// round — distinct from [`crash_at`](Self::crash_at): the departure is
    /// announced, so membership providers evict the leaver eagerly instead
    /// of discovering the silence by missed contact.
    pub fn leave_at(mut self, round: u64, process: usize) -> Self {
        self.scenario.leave_schedule.push((round, process));
        self
    }

    /// Gives every link an extra delivery latency of `min_extra..=max_extra`
    /// rounds on top of the classic one-round hop.  The extra is constant
    /// per ordered link (drawn once per trial from a single salt off the
    /// network stream), so per-link FIFO order is preserved;
    /// `link_delay(0, 0)` is exactly a no-op.  Models heterogeneous WAN
    /// latencies against which the paper's analysis assumes a uniform
    /// gossip period.
    pub fn link_delay(mut self, min_extra: u64, max_extra: u64) -> Self {
        self.scenario.link_delay = Some(LinkDelay {
            min_extra,
            max_extra,
        });
        self
    }

    /// Splits the group into `cells` equal contiguous cells for rounds
    /// `from_round..until_round`: cross-cell messages are dropped while the
    /// window is active, and the partition **heals** at `until_round`.
    /// Cells are contiguous in dense-index order, so they are subtree
    /// aligned whenever `cells` divides a level's subgroup count.  May be
    /// called repeatedly for repeated outages.
    pub fn partition(mut self, from_round: u64, until_round: u64, cells: usize) -> Self {
        self.scenario.partition_schedule.push(PartitionWindow {
            from_round,
            until_round,
            cells,
        });
        self
    }

    /// Adds correlated loss: every message to or from a process in the
    /// subtree below `prefix` (tree coordinates, most significant level
    /// first; empty = the whole group) is lost with the extra probability
    /// `loss_probability`, composing multiplicatively with the global
    /// [`loss`](Self::loss) `ε` and with any other overlapping override.
    pub fn subtree_loss(mut self, prefix: &[u32], loss_probability: f64) -> Self {
        self.scenario.subtree_loss.push(SubtreeLoss {
            prefix: prefix.to_vec(),
            loss_probability,
        });
        self
    }

    /// Makes one process a straggler: its outbox is held back and flushed
    /// to the network only every `period`-th round (rounds `period`,
    /// `2·period`, …), modelling a slow or overloaded node that batches
    /// its gossip.  `period` 1 is exactly a no-op.
    pub fn straggler(mut self, process: usize, period: u64) -> Self {
        self.scenario
            .straggler_schedule
            .push(Straggler { process, period });
        self
    }

    /// Selects the membership provider (see [`MembershipSpec`]); e.g.
    /// `.membership(MembershipSpec::partial(15))` runs the trial over
    /// lpbcast-style bounded partial views instead of global knowledge,
    /// and `.membership(MembershipSpec::delegate(3))` over the paper's
    /// hierarchical delegate tables.
    pub fn membership(mut self, membership: MembershipSpec) -> Self {
        self.scenario.membership = membership;
        self
    }

    /// Replaces the matching-rate workload with a multi-topic traffic axis
    /// (see [`TopicWorkload`]): per-process topic subscriptions, a
    /// Zipf-tilted publish mix and a generated schedule of
    /// `workload.events` events.  Mutually exclusive with
    /// [`publish`](Self::publish) / [`publish_at`](Self::publish_at).
    pub fn topics(mut self, workload: TopicWorkload) -> Self {
        self.scenario.topics = Some(workload);
        self
    }

    /// Schedules a publication at round 0.
    pub fn publish(self, publisher: Publisher, event: Event) -> Self {
        self.publish_at(0, publisher, event)
    }

    /// Schedules a publication at the given round.
    pub fn publish_at(mut self, round: u64, publisher: Publisher, event: Event) -> Self {
        self.scenario.publications.push(Publication {
            round,
            publisher,
            event,
        });
        self
    }

    /// Sets the number of independent trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.scenario.trials = trials;
        self
    }

    /// Sets the base PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the safety cap on simulated rounds per trial.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.scenario.max_rounds = max_rounds;
        self
    }

    /// Finishes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the trial count is zero (the scenario would run nothing
    /// and aggregate nothing), the protocol configuration is invalid (see
    /// [`PmcastConfig::validate`]), the loss probability or crash fraction
    /// lies outside `[0, 1]`, a [`Publisher::Process`] index or a
    /// crash/join/leave schedule index is out of range for the address
    /// space, a [`Publisher::Process`] publication fires at a round its
    /// publisher is not a member (absent before its join, or already
    /// departed — crashing is a legitimate fault experiment and is not
    /// rejected), or a publication or lifecycle event is scheduled at a
    /// round the trial can never reach (`round >= max_rounds`) — such an
    /// entry would otherwise be silently inert while still shaping the
    /// reports.
    ///
    /// The fault axes are validated the same way: a
    /// [`partition`](Self::partition) starting at or beyond `max_rounds`, a
    /// window healing before it starts, an inverted
    /// [`link_delay`](Self::link_delay) span, a
    /// [`subtree_loss`](Self::subtree_loss) prefix outside the tree or with
    /// a probability outside `[0, 1]`, and a
    /// [`straggler`](Self::straggler) with a zero period, an out-of-range
    /// process or a duplicate process are all rejected here.
    pub fn build(self) -> Scenario {
        assert!(
            self.scenario.trials > 0,
            "a scenario needs at least one trial"
        );
        self.scenario.protocol.validate();
        assert!(
            (0.0..=1.0).contains(&self.scenario.loss_probability),
            "loss probability {} must lie in [0, 1]",
            self.scenario.loss_probability
        );
        assert!(
            (0.0..=1.0).contains(&self.scenario.crash_fraction),
            "crash fraction {} must lie in [0, 1]",
            self.scenario.crash_fraction
        );
        // Index validation is against the address space (`a^d`), not the
        // possibly sparse initial population: a publisher or crash target
        // may well be a process that only joins mid-trial.
        let n = self.scenario.capacity();
        for (label, schedule) in [
            ("crash", &self.scenario.crash_schedule),
            ("join", &self.scenario.join_schedule),
            ("leave", &self.scenario.leave_schedule),
        ] {
            for &(round, process) in schedule {
                assert!(
                    process < n,
                    "{label}-schedule index {process} out of range for a group of {n}"
                );
                assert!(
                    round < self.scenario.max_rounds,
                    "{label} scheduled at round {round} can never happen (max_rounds = {})",
                    self.scenario.max_rounds
                );
            }
        }
        // Membership occupancy per round, for checking that a designated
        // publisher is actually a member when its publication fires.  Only
        // the join/leave schedule matters here: publishing from a process
        // that *crashes* is a legitimate fault experiment.
        let population = self.scenario.population();
        for publication in &self.scenario.publications {
            if let Publisher::Process(index) = publication.publisher {
                assert!(
                    index < n,
                    "publisher index {index} out of range for a group of {n}"
                );
                assert!(
                    population.occupancy_at(publication.round)[index],
                    "publisher {index} is not a member at round {} (absent or departed); \
                     its publication would be silently inert",
                    publication.round
                );
            }
            assert!(
                publication.round < self.scenario.max_rounds,
                "publication scheduled at round {} can never run (max_rounds = {})",
                publication.round,
                self.scenario.max_rounds
            );
        }
        if let Some(topics) = &self.scenario.topics {
            assert!(
                self.scenario.publications.is_empty(),
                "the topic axis generates the publish schedule; explicit publications \
                 cannot be combined with it"
            );
            assert!(topics.topics >= 1, "a topic workload needs at least one topic");
            assert!(
                (1..=topics.topics).contains(&topics.subscriptions_per_process),
                "subscriptions per process ({}) must lie in 1..={} (the topic count)",
                topics.subscriptions_per_process,
                topics.topics
            );
            assert!(topics.events >= 1, "a topic workload publishes at least one event");
            assert!(
                (1..=self.scenario.max_rounds).contains(&topics.publish_rounds),
                "publish_rounds ({}) must lie in 1..={} (max_rounds)",
                topics.publish_rounds,
                self.scenario.max_rounds
            );
            assert!(
                topics.zipf_exponent.is_finite() && topics.zipf_exponent >= 0.0,
                "the Zipf exponent must be a finite non-negative number"
            );
        }
        match self.scenario.membership {
            MembershipSpec::Global => {}
            MembershipSpec::Partial {
                view_size,
                gossip_fanout,
                ..
            } => {
                assert!(view_size > 0, "partial-view size must be positive");
                assert!(gossip_fanout > 0, "membership gossip fanout must be positive");
            }
            MembershipSpec::Delegate {
                slots,
                gossip_fanout,
                ..
            } => {
                assert!(slots > 0, "delegate slots must be positive");
                assert!(gossip_fanout > 0, "membership gossip fanout must be positive");
            }
            MembershipSpec::DelegateLazy { slots } => {
                assert!(slots > 0, "delegate slots must be positive");
            }
        }
        // Fault axes: reject windows the trial can never reach and subtree
        // prefixes outside the tree, then let the compiled plan check its
        // own numeric invariants (delay span, probabilities, straggler
        // indices and duplicates) against the address space.
        for window in &self.scenario.partition_schedule {
            assert!(
                window.from_round < self.scenario.max_rounds,
                "partition starting at round {} lies beyond the trial horizon (max_rounds = {})",
                window.from_round,
                self.scenario.max_rounds
            );
        }
        for subtree in &self.scenario.subtree_loss {
            assert!(
                subtree.prefix.len() <= self.scenario.depth,
                "subtree-loss prefix {:?} is deeper than the tree (depth {})",
                subtree.prefix,
                self.scenario.depth
            );
            for &component in &subtree.prefix {
                assert!(
                    component < self.scenario.arity,
                    "subtree-loss prefix {:?} has component {component} out of range for arity {}",
                    subtree.prefix,
                    self.scenario.arity
                );
            }
        }
        self.scenario.fault_plan().validate_for(n);
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_every_knob() {
        let scenario = Scenario::builder()
            .group(4, 2)
            .protocol(PmcastConfig::default().with_fanout(3))
            .matching_rate(0.25)
            .loss(0.05)
            .crash_fraction(0.01)
            .crash_at(4, 2)
            .join_at(3, 15)
            .leave_at(6, 5)
            .publish(Publisher::Process(1), Event::builder(9).build())
            .publish_at(2, Publisher::Uniform, Event::builder(10).build())
            .trials(3)
            .seed(5)
            .max_rounds(150)
            .build();
        assert_eq!(scenario.arity, 4);
        assert_eq!(scenario.depth, 2);
        assert_eq!(scenario.capacity(), 16);
        // Population-aware sizes: 15 joins mid-trial (absent at start) and
        // 5 leaves, so the group starts at 15, peaks at 16 and ends at 15.
        assert_eq!(scenario.group_size(), 15);
        let sizes = scenario.population_sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (15, 16, 15));
        assert_eq!(scenario.population().initially_absent(), &[15]);
        assert_eq!(scenario.protocol.fanout, 3);
        assert_eq!(scenario.matching_rate, 0.25);
        assert_eq!(scenario.loss_probability, 0.05);
        assert_eq!(scenario.crash_fraction, 0.01);
        assert_eq!(scenario.crash_schedule, vec![(4, 2)]);
        assert_eq!(scenario.join_schedule, vec![(3, 15)]);
        assert_eq!(scenario.leave_schedule, vec![(6, 5)]);
        assert_eq!(scenario.publications.len(), 2);
        assert_eq!(scenario.publications[0].round, 0);
        assert_eq!(scenario.publications[1].round, 2);
        assert_eq!(scenario.trials, 3);
        assert_eq!(scenario.seed, 5);
        assert_eq!(scenario.max_rounds, 150);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_publisher_is_rejected() {
        let _ = Scenario::builder()
            .group(2, 2)
            .publish(Publisher::Process(99), Event::builder(1).build())
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_are_rejected() {
        let _ = Scenario::builder().trials(0).build();
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn out_of_range_loss_is_rejected() {
        let _ = Scenario::builder().loss(1.5).build();
    }

    #[test]
    #[should_panic(expected = "join-schedule index")]
    fn out_of_range_join_is_rejected() {
        let _ = Scenario::builder().group(2, 2).join_at(1, 99).build();
    }

    #[test]
    #[should_panic(expected = "not a member at round")]
    fn publications_from_absent_publishers_are_rejected() {
        // Process 7 only joins at round 5; publishing from it at round 2
        // would be silently inert.
        let _ = Scenario::builder()
            .group(4, 2)
            .join_at(5, 7)
            .publish_at(2, Publisher::Process(7), Event::builder(1).build())
            .build();
    }

    #[test]
    fn publications_within_the_membership_interval_are_accepted() {
        // Joining at 5 and publishing at 5 is fine (joins apply first);
        // publishing from a process that later crashes is fine too.
        let scenario = Scenario::builder()
            .group(4, 2)
            .join_at(5, 7)
            .publish_at(5, Publisher::Process(7), Event::builder(1).build())
            .crash_at(3, 2)
            .publish(Publisher::Process(2), Event::builder(2).build())
            .build();
        assert_eq!(scenario.publications.len(), 2);
    }

    #[test]
    #[should_panic(expected = "leave scheduled at round")]
    fn unreachable_leave_round_is_rejected() {
        let _ = Scenario::builder().max_rounds(10).leave_at(10, 0).build();
    }

    #[test]
    fn fault_axes_chain_and_compile_into_a_plan() {
        let scenario = Scenario::builder()
            .group(4, 3) // 64 addresses
            .link_delay(0, 2)
            .partition(2, 6, 4)
            .subtree_loss(&[1], 0.3)
            .subtree_loss(&[2, 0], 0.5)
            .straggler(7, 3)
            .build();
        assert_eq!(
            scenario.link_delay,
            Some(LinkDelay {
                min_extra: 0,
                max_extra: 2
            })
        );
        let plan = scenario.fault_plan();
        assert!(!plan.is_neutral());
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].cells, 4);
        // Prefix [1] at depth 3, arity 4 → indices [16, 32); prefix [2, 0]
        // → [32, 36).
        assert_eq!(plan.loss_overrides.len(), 2);
        assert_eq!(
            (plan.loss_overrides[0].start, plan.loss_overrides[0].end),
            (16, 32)
        );
        assert_eq!(
            (plan.loss_overrides[1].start, plan.loss_overrides[1].end),
            (32, 36)
        );
        assert_eq!(plan.stragglers, vec![Straggler { process: 7, period: 3 }]);
        // The empty prefix covers the whole group.
        let whole = Scenario::builder().group(4, 3).subtree_loss(&[], 0.1).build();
        let plan = whole.fault_plan();
        assert_eq!(
            (plan.loss_overrides[0].start, plan.loss_overrides[0].end),
            (0, 64)
        );
    }

    #[test]
    fn faultless_scenarios_compile_to_the_neutral_plan() {
        assert!(Scenario::builder().build().fault_plan().is_neutral());
    }

    #[test]
    #[should_panic(expected = "beyond the trial horizon")]
    fn partition_beyond_the_horizon_is_rejected() {
        let _ = Scenario::builder().max_rounds(10).partition(10, 20, 2).build();
    }

    #[test]
    #[should_panic(expected = "must heal at or after")]
    fn inverted_partition_window_is_rejected() {
        let _ = Scenario::builder().partition(6, 2, 2).build();
    }

    #[test]
    #[should_panic(expected = "deeper than the tree")]
    fn too_deep_subtree_loss_prefix_is_rejected() {
        let _ = Scenario::builder().group(4, 2).subtree_loss(&[1, 2, 3], 0.1).build();
    }

    #[test]
    #[should_panic(expected = "out of range for arity")]
    fn subtree_loss_component_beyond_arity_is_rejected() {
        let _ = Scenario::builder().group(4, 2).subtree_loss(&[4], 0.1).build();
    }

    #[test]
    #[should_panic(expected = "loss-override probability")]
    fn subtree_loss_probability_above_one_is_rejected() {
        let _ = Scenario::builder().subtree_loss(&[0], 1.2).build();
    }

    #[test]
    #[should_panic(expected = "link-delay")]
    fn inverted_link_delay_span_is_rejected() {
        let _ = Scenario::builder().link_delay(3, 1).build();
    }

    #[test]
    #[should_panic(expected = "out of range for a group")]
    fn out_of_range_straggler_is_rejected() {
        let _ = Scenario::builder().group(2, 2).straggler(99, 3).build();
    }

    #[test]
    #[should_panic(expected = "straggler period")]
    fn zero_straggler_period_is_rejected() {
        let _ = Scenario::builder().straggler(0, 0).build();
    }

    #[test]
    fn static_scenarios_report_the_full_tree() {
        let scenario = Scenario::builder().group(4, 2).build();
        assert!(scenario.population().is_static());
        assert_eq!(scenario.group_size(), scenario.capacity());
        let sizes = scenario.population_sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (16, 16, 16));
    }

    #[test]
    fn topic_workload_chains_and_validates() {
        let scenario = Scenario::builder()
            .group(4, 2)
            .topics(
                TopicWorkload::new(8, 2, 40)
                    .with_publish_rounds(5)
                    .with_zipf_exponent(0.8),
            )
            .build();
        let workload = scenario.topics.as_ref().unwrap();
        assert_eq!((workload.topics, workload.subscriptions_per_process), (8, 2));
        assert_eq!((workload.events, workload.publish_rounds), (40, 5));
        assert!((workload.zipf_exponent - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot be combined")]
    fn topic_axis_rejects_explicit_publications() {
        let _ = Scenario::builder()
            .publish(Publisher::Uniform, Event::builder(1).build())
            .topics(TopicWorkload::new(4, 1, 10))
            .build();
    }

    #[test]
    #[should_panic(expected = "subscriptions per process")]
    fn oversubscribed_processes_are_rejected() {
        let _ = Scenario::builder().topics(TopicWorkload::new(4, 5, 10)).build();
    }

    #[test]
    #[should_panic(expected = "publish_rounds")]
    fn topic_schedule_beyond_the_horizon_is_rejected() {
        let _ = Scenario::builder()
            .max_rounds(10)
            .topics(TopicWorkload::new(4, 1, 10).with_publish_rounds(11))
            .build();
    }

    #[test]
    fn scenarios_without_the_topic_field_still_deserialize() {
        // A pre-topic-axis scenario round-trips through JSON with the field
        // stripped — `#[serde(default)]` keeps old files loadable.
        let scenario = Scenario::builder().build();
        let json = serde_json::to_string(&scenario).unwrap();
        let stripped = json.replace(",\"topics\":null", "");
        assert_ne!(json, stripped, "the field is serialized");
        let back: Scenario = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn lazy_delegate_spec_instantiates_without_consuming_the_seed() {
        let spec = MembershipSpec::delegate_lazy(2);
        assert_eq!(spec, MembershipSpec::DelegateLazy { slots: 2 });
        // Same provider whatever the membership seed: the lazy view is
        // deterministic in occupancy alone.
        let a = spec.instantiate(3, 2, 1, None);
        let b = spec.instantiate(3, 2, 999, None);
        for process in 0..9 {
            for peer in 0..9 {
                assert_eq!(a.knows(process, peer), b.knows(process, peer));
            }
        }
    }

    #[test]
    #[should_panic(expected = "delegate slots must be positive")]
    fn zero_lazy_slots_are_rejected() {
        let _ = Scenario::builder()
            .membership(MembershipSpec::DelegateLazy { slots: 0 })
            .build();
    }

    #[test]
    fn serde_round_trip() {
        let scenario = Scenario::builder()
            .publish(Publisher::Interested, Event::builder(4).int("b", 2).build())
            .join_at(3, 7)
            .leave_at(5, 2)
            .link_delay(1, 2)
            .partition(2, 4, 2)
            .subtree_loss(&[1], 0.2)
            .straggler(3, 2)
            .build();
        let json = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(scenario, back);
    }
}
