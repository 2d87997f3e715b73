//! The two simulator workloads: `paper_delegate` and `topic_summary`.
//!
//! The untraced run times `run_scenario_trial` itself.  The traced run
//! replays each trial through the public layer calls, in the runner's
//! order (`trial_workload`, `TrialWorkload::membership`, `F::build`,
//! `Simulation::with_lifecycle_observer`, then per round publish,
//! `round_elapsed` and `step`, then `collect_per_event`), with the
//! [`crate::trace`] wrappers in place, and checks that the replay
//! reproduces the untraced trial exactly.

use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pmcast_core::{
    InterestRouting, MulticastProtocol, MulticastReport, PmcastConfig, PmcastFactory,
    ProtocolFactory,
};
use pmcast_interest::{Event, EventId};
use pmcast_membership::{MembershipView, TreeTopology};
use pmcast_sim::prediction::predict;
use pmcast_sim::runner::{
    run_scenario_trial, run_scenario_trial_states, trial_workload, DeliveryLatency, TrialOutcome,
    TrialWorkload,
};
use pmcast_sim::scenario::{MembershipSpec, Scenario, TopicWorkload};
use pmcast_simnet::{
    CrashPlan, LifecycleKind, LifecyclePlan, NetworkConfig, ProcessId, RoundProcess, Simulation,
    TrafficStats,
};

use crate::report::{median, peak_rss_mb, ratio, timed, Metrics, RunResult};
use crate::trace::{CountingView, ProcessLayers, Traced, ViewCounters};

/// Largest tolerated gap between measured delivery and the analytical
/// model on a single-audience workload (`paper_delegate`).
pub const MODEL_TOLERANCE: f64 = 0.05;

/// A simulator workload: the scenario and how many distinct trials one
/// pass runs (trial `t` uses seed `seed + t`).
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// The scenario every trial runs.
    pub scenario: Scenario,
    /// Distinct trials per untraced pass; quality metrics pool these.
    pub trials: usize,
    /// Distinct trials per traced pass; per-layer counts average these.
    pub trace_trials: usize,
}

/// The paper's Fig. 4 point on its own hierarchical membership: a=22, d=3
/// (n = 10 648), R=3, F=2, matching rate 0.5, loss 0.01, crash fraction
/// 0.001, eager delegate tables with 3 slots, one event per trial.
pub fn paper_delegate(seed: u64) -> SimWorkload {
    let scenario = Scenario::builder()
        .group(22, 3)
        .protocol(PmcastConfig::paper_reliability())
        .matching_rate(0.5)
        .loss(0.01)
        .crash_fraction(0.001)
        .membership(MembershipSpec::delegate(3))
        .max_rounds(600)
        .seed(seed)
        .build();
    SimWorkload {
        scenario,
        trials: 8,
        trace_trials: 4,
    }
}

/// Multi-topic traffic on a small group: a=4, d=3 (n = 64), 50 topics,
/// 3 subscriptions per process, Zipf 1.0, 5000 events over 125 publish
/// rounds, delegate tables with 4 slots, summary routing, loss-free.
pub fn topic_summary(seed: u64) -> SimWorkload {
    let scenario = Scenario::builder()
        .group(4, 3)
        .topics(TopicWorkload::new(50, 3, 5000).with_publish_rounds(125))
        .membership(MembershipSpec::delegate(4))
        .protocol(PmcastConfig::default().with_interest_routing(InterestRouting::Summary))
        .seed(seed)
        .build();
    SimWorkload {
        scenario,
        trials: 16,
        trace_trials: 4,
    }
}

/// The runner's crash plan for a scenario (initial fraction plus schedule).
fn crash_plan(scenario: &Scenario) -> CrashPlan {
    match (
        scenario.crash_fraction > 0.0,
        scenario.crash_schedule.is_empty(),
    ) {
        (false, true) => CrashPlan::None,
        (true, true) => CrashPlan::InitialFraction(scenario.crash_fraction),
        (false, false) => CrashPlan::Scheduled(scenario.crash_schedule.clone()),
        (true, false) => CrashPlan::Mixed {
            fraction: scenario.crash_fraction,
            schedule: scenario.crash_schedule.clone(),
        },
    }
}

/// Builds the trial's engine exactly as the runner does: network config
/// from the trial seed, the scenario's lifecycle plan, and the provider
/// observing every join, leave and crash.
fn build_simulation<P: RoundProcess>(
    scenario: &Scenario,
    workload: &TrialWorkload,
    processes: Vec<P>,
    membership: &Arc<dyn MembershipView>,
) -> Simulation<P> {
    let network = NetworkConfig {
        loss_probability: scenario.loss_probability,
        crash_plan: crash_plan(scenario),
        fault_plan: scenario.fault_plan(),
        seed: workload.seed,
    };
    let lifecycle = LifecyclePlan {
        initially_absent: workload.population.initially_absent().to_vec(),
        joins: scenario.join_schedule.clone(),
        leaves: scenario.leave_schedule.clone(),
    };
    let observer = Arc::clone(membership);
    Simulation::with_lifecycle_observer(processes, network, lifecycle, move |t| match t.kind {
        LifecycleKind::Join => observer.observe_join(t.process.0),
        LifecycleKind::Leave => observer.observe_leave(t.process.0),
        LifecycleKind::Crash => observer.observe_crash(t.process.0),
    })
}

/// Host time of one trial's set-up through the layer calls: workload,
/// membership provider, protocol group and engine.
fn setup_seconds(scenario: &Scenario, trial: usize) -> f64 {
    let started = Instant::now();
    let workload = trial_workload(scenario, trial);
    let membership = workload.membership(scenario);
    let group = PmcastFactory::build(
        &workload.topology,
        workload.oracle.clone(),
        Arc::clone(&membership),
        &scenario.protocol,
    );
    let sim = build_simulation(scenario, &workload, group.processes, &membership);
    let seconds = started.elapsed().as_secs_f64();
    drop(sim);
    seconds
}

/// Host times of one replayed trial's phases, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTimes {
    /// `trial_workload`.
    pub workload: f64,
    /// `TrialWorkload::membership`.
    pub membership_build: f64,
    /// `ProtocolFactory::build`.
    pub core_build: f64,
    /// `Simulation::with_lifecycle_observer`.
    pub simnet_build: f64,
    /// All `Simulation::step` calls, protocol callbacks included.
    pub step: f64,
    /// `MulticastReport::collect_per_event`.
    pub collect: f64,
    /// The whole replay.
    pub total: f64,
}

/// One trial replayed through the layer calls.
#[derive(Debug)]
pub struct Replay {
    /// What `run_scenario_trial` would have returned.
    pub outcome: TrialOutcome,
    /// The engine's traffic counters, which the runner drops.
    pub traffic: TrafficStats,
    /// Phase times.
    pub times: ReplayTimes,
    /// Audience hashcons `(hits, misses)` of a topic workload.
    pub intern: (u64, u64),
}

/// Replays trial `trial` of `scenario` through the public layer calls with
/// the tracing wrappers in place: the provider is wrapped in a
/// [`CountingView`] reporting into `counters`, every process in a
/// [`Traced`] reporting into `layers`.
///
/// Mirrors `run_scenario_trial_states` step by step (including its
/// delta-driven latency tracker), so the outcome must be identical.
pub fn replay<F: ProtocolFactory>(
    scenario: &Scenario,
    trial: usize,
    layers: &Rc<ProcessLayers>,
    counters: &Arc<ViewCounters>,
) -> Replay {
    let started = Instant::now();
    let mut times = ReplayTimes::default();
    let (workload, seconds) = timed(|| trial_workload(scenario, trial));
    times.workload = seconds;
    let (inner, seconds) = timed(|| workload.membership(scenario));
    times.membership_build = seconds;
    let membership: Arc<dyn MembershipView> =
        Arc::new(CountingView::new(inner, Arc::clone(counters)));

    let schedule = &workload.schedule;
    let mut injection_order: Vec<usize> = (0..schedule.len()).collect();
    injection_order.sort_by_key(|&index| schedule[index].0);
    struct Tracker {
        event: EventId,
        publish_round: u64,
        recorded: Vec<bool>,
        counts: Vec<u64>,
    }
    let process_count = workload.topology.member_count();
    let mut trackers: Vec<Tracker> = Vec::with_capacity(schedule.len());
    for (round, _, event) in schedule {
        match trackers.iter_mut().find(|t| t.event == event.id()) {
            Some(tracker) => tracker.publish_round = tracker.publish_round.min(*round),
            None => trackers.push(Tracker {
                event: event.id(),
                publish_round: *round,
                recorded: vec![false; process_count],
                counts: Vec::new(),
            }),
        }
    }

    let (group, seconds) = timed(|| {
        F::build(
            &workload.topology,
            workload.oracle.clone(),
            Arc::clone(&membership),
            &scenario.protocol,
        )
    });
    times.core_build = seconds;
    let processes: Vec<Traced<F::Process>> = group
        .processes
        .into_iter()
        .map(|process| Traced::new(process, Rc::clone(layers)))
        .collect();
    let (mut sim, seconds) =
        timed(|| build_simulation(scenario, &workload, processes, &membership));
    times.simnet_build = seconds;

    let mut injected = 0;
    let mut rounds = 0;
    let mut delivery_candidates: Vec<usize> = Vec::new();
    while rounds < scenario.max_rounds {
        delivery_candidates.clear();
        while injected < injection_order.len() {
            let (round, sender, event) = &schedule[injection_order[injected]];
            if *round > sim.round() {
                break;
            }
            sim.process_mut(ProcessId(*sender))
                .publish(Arc::clone(event));
            delivery_candidates.push(*sender);
            injected += 1;
        }
        membership.round_elapsed();
        let step_started = Instant::now();
        sim.step();
        times.step += step_started.elapsed().as_secs_f64();
        rounds += 1;
        let executed = rounds - 1;
        delivery_candidates.extend_from_slice(sim.last_step_receivers());
        for tracker in &mut trackers {
            if tracker.publish_round > executed {
                continue;
            }
            let latency = (executed - tracker.publish_round) as usize;
            for &index in &delivery_candidates {
                if !tracker.recorded[index]
                    && sim.process(ProcessId(index)).has_delivered(tracker.event)
                {
                    tracker.recorded[index] = true;
                    if tracker.counts.len() <= latency {
                        tracker.counts.resize(latency + 1, 0);
                    }
                    tracker.counts[latency] += 1;
                }
            }
        }
        if injected == injection_order.len() && sim.pending_lifecycle() == 0 && sim.is_quiescent() {
            break;
        }
    }
    assert_eq!(
        injected,
        injection_order.len(),
        "every publication is injected"
    );

    let mut seen_ids: Vec<EventId> = Vec::with_capacity(schedule.len());
    let mut unique_events: Vec<&Event> = Vec::with_capacity(schedule.len());
    for (_, _, event) in schedule {
        if !seen_ids.contains(&event.id()) {
            seen_ids.push(event.id());
            unique_events.push(event.as_ref());
        }
    }
    let (per_event, seconds) = timed(|| {
        MulticastReport::collect_per_event(unique_events, sim.processes(), workload.oracle.as_ref())
    });
    times.collect = seconds;
    let mut report = MulticastReport::default();
    for event_report in &per_event {
        report.merge(event_report);
    }
    let latency = trackers
        .into_iter()
        .map(|tracker| DeliveryLatency {
            event: tracker.event,
            publish_round: tracker.publish_round,
            counts: tracker.counts,
        })
        .collect();
    let traffic = *sim.stats();
    let intern = workload
        .topic_oracle
        .as_ref()
        .map(|topics| {
            let stats = topics.intern_stats();
            (stats.hits, stats.misses)
        })
        .unwrap_or((0, 0));
    let outcome = TrialOutcome {
        report,
        per_event,
        latency,
        messages_sent: traffic.messages_sent,
        rounds,
    };
    drop(sim);
    times.total = started.elapsed().as_secs_f64();
    Replay {
        outcome,
        traffic,
        times,
        intern,
    }
}

/// The latency by which a share `q` of the deliveries in a histogram
/// had happened, in rounds.  Deliveries counted at latency `l` are taken
/// as spread evenly over that round, the interval `(l - 1, l]`, so the
/// quantile moves smoothly instead of jumping a whole round between seeds.
fn interpolated_quantile(histogram: &DeliveryLatency, q: f64) -> f64 {
    let target = q * histogram.delivered() as f64;
    let mut before = 0.0;
    for (latency, &count) in histogram.counts.iter().enumerate() {
        let through = before + count as f64;
        if count > 0 && through >= target {
            let within = (target - before) / count as f64;
            return (latency as f64 - 1.0 + within).max(0.0);
        }
        before = through;
    }
    histogram.counts.len().saturating_sub(1) as f64
}

/// A 64-bit fingerprint of a trial's outcome: the hash of its `Debug`
/// form, fed to the hasher piece by piece.  A repeated trial is checked
/// against its first pass through this, so the run keeps no outcome alive
/// and `peak_rss_mb` measures the program, not the benchmark.
fn fingerprint(outcome: &TrialOutcome) -> u64 {
    struct HashWriter(DefaultHasher);
    impl fmt::Write for HashWriter {
        fn write_str(&mut self, text: &str) -> fmt::Result {
            self.0.write(text.as_bytes());
            Ok(())
        }
    }
    let mut writer = HashWriter(DefaultHasher::new());
    write!(writer, "{outcome:?}").expect("hashing cannot fail");
    writer.0.finish()
}

/// The quality metrics pooled over one pass of trials, each trial folded
/// in as it finishes.
#[derive(Default)]
struct Pooled {
    report: MulticastReport,
    messages: u64,
    events: usize,
    /// Every delivery of every event in one histogram; `merge` only adds
    /// buckets, so the event label is irrelevant.
    latency: Option<DeliveryLatency>,
}

impl Pooled {
    fn add(&mut self, outcome: &TrialOutcome) {
        self.report.merge(&outcome.report);
        self.messages += outcome.messages_sent;
        self.events += outcome.per_event.len();
        for histogram in &outcome.latency {
            match self.latency.as_mut() {
                Some(pooled) => pooled.merge(histogram),
                None => self.latency = Some(histogram.clone()),
            }
        }
    }

    fn finish(self, metrics: &mut Metrics) {
        let latency = self.latency.expect("at least one event published");
        metrics.add("delivery_ratio", self.report.delivery_ratio(), "ratio");
        metrics.add("spurious_ratio", self.report.spurious_ratio(), "ratio");
        metrics.add(
            "messages_per_event",
            self.messages as f64 / self.events as f64,
            "messages",
        );
        metrics.add(
            "latency_rounds_p50",
            interpolated_quantile(&latency, 0.5),
            "rounds",
        );
        metrics.add(
            "latency_rounds_p99",
            interpolated_quantile(&latency, 0.99),
            "rounds",
        );
    }
}

/// The untraced run: end-to-end metrics and output checks.
pub fn run_untraced(workload: &SimWorkload, seconds: f64) -> RunResult {
    let scenario = &workload.scenario;
    let mut result = RunResult::default();
    // One untimed set-up warms the caches and the allocator.  After it a
    // timed set-up precedes every trial, so the set-up samples are spread
    // over the whole run and see the same host conditions as the trials.
    setup_seconds(scenario, 0);
    let mut setup_times = Vec::new();

    let mut first_pass: Vec<u64> = Vec::with_capacity(workload.trials);
    let mut pooled = Pooled::default();
    let mut trial_times = Vec::new();
    let mut event_rates = Vec::new();
    crate::cycle_trials(workload.trials, seconds, |index, trial| {
        setup_times.push(setup_seconds(scenario, trial));
        let (outcome, elapsed) = timed(|| run_scenario_trial::<PmcastFactory>(scenario, trial));
        trial_times.push(elapsed);
        event_rates.push(outcome.per_event.len() as f64 / elapsed);
        result.attempted += outcome.per_event.len() as u64;
        if index < workload.trials {
            pooled.add(&outcome);
            first_pass.push(fingerprint(&outcome));
        } else {
            result.check(fingerprint(&outcome) == first_pass[trial], || {
                format!(
                    "trial {trial} did not repeat exactly on pass {}",
                    index / workload.trials
                )
            });
        }
    });

    let metrics = &mut result.metrics;
    metrics.add("setup_s", median(&setup_times), "s");
    metrics.add("trial_s", median(&trial_times), "s");
    metrics.add("events_per_s", median(&event_rates), "events/s");
    pooled.finish(metrics);
    let delivery = metrics
        .get("delivery_ratio")
        .expect("quality metrics added");
    // A topic workload has no single-audience model to check against, so
    // it checks its deliveries against the subscriptions instead.
    if scenario.topics.is_some() {
        let (outcome, states) = run_scenario_trial_states::<PmcastFactory>(scenario, 0);
        result.check(fingerprint(&outcome) == first_pass[0], || {
            "run_scenario_trial_states disagrees with run_scenario_trial".to_string()
        });
        let violations = subscription_violations(scenario, &states);
        result.check(violations == 0, || {
            format!("{violations} deliveries of events outside the receiver's subscriptions")
        });
        eprintln!("check: {violations} deliveries outside subscriptions");
    } else {
        let prediction = predict(scenario);
        result.check(prediction.in_domain, || {
            "the scenario lies outside the analytical model's domain".to_string()
        });
        result.check(
            (delivery - prediction.reliability).abs() <= MODEL_TOLERANCE,
            || {
                format!(
                    "delivery {delivery:.4} is more than {MODEL_TOLERANCE} from the model's {:.4}",
                    prediction.reliability
                )
            },
        );
        eprintln!(
            "check: delivery {delivery:.4} vs model {:.4} (in domain: {})",
            prediction.reliability, prediction.in_domain
        );
    }
    result.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "sim: {} trial executions over {} distinct trials",
        trial_times.len(),
        workload.trials
    );
    result
}

/// Deliveries (process, event) of trial 0 where the event's topic is not
/// among the process's subscriptions, or the oracle says the process is
/// not interested.
fn subscription_violations<P: MulticastProtocol>(scenario: &Scenario, states: &[P]) -> usize {
    let workload = trial_workload(scenario, 0);
    let topics = workload
        .topic_oracle
        .as_ref()
        .expect("the subscription check runs on a topic workload");
    let mut violations = 0;
    for (index, state) in states.iter().enumerate() {
        let subscribed = topics.subscriptions_of(index);
        for (_, _, event) in &workload.schedule {
            if !state.has_delivered(event.id()) {
                continue;
            }
            let topic = topics.topic_of(event).expect("every event carries a topic") as u32;
            if !subscribed.contains(&topic)
                || !workload.oracle.is_interested(state.address(), event)
            {
                violations += 1;
            }
        }
    }
    violations
}

/// Per-layer metrics of one traced trial.
fn trace_sample(
    untraced: f64,
    replay: &Replay,
    layers: &ProcessLayers,
    counters: &ViewCounters,
) -> Metrics {
    let times = replay.times;
    let round_elapsed = counters.round_elapsed_seconds();
    let on_round = layers.on_round.seconds();
    let on_message = layers.on_message.seconds();
    let publish = layers.publish.seconds();
    let step_self = times.step - on_round - on_message;
    let layer_calls = times.workload
        + times.membership_build
        + times.core_build
        + times.simnet_build
        + publish
        + round_elapsed
        + times.step
        + times.collect;
    let summary_calls = counters.summary_allows_calls();
    let mut m = Metrics::default();
    m.add("sim.workload_s", times.workload, "s");
    m.add("sim.runner_self_s", untraced - layer_calls, "s");
    m.add("sim.collect_s", times.collect, "s");
    m.add("membership.build_s", times.membership_build, "s");
    m.add("membership.round_elapsed_s", round_elapsed, "s");
    m.add(
        "membership.round_elapsed_calls",
        counters.round_elapsed_calls() as f64,
        "count",
    );
    m.add(
        "membership.knows_at_depth_calls",
        counters.knows_at_depth_calls() as f64,
        "count",
    );
    m.add(
        "membership.summary_allows_calls",
        summary_calls as f64,
        "count",
    );
    m.add(
        "membership.summary_skip_share",
        ratio(counters.summary_skip_calls() as f64, summary_calls as f64),
        "ratio",
    );
    m.add("interest.intern_hits", replay.intern.0 as f64, "count");
    m.add("interest.intern_misses", replay.intern.1 as f64, "count");
    m.add("core.build_s", times.core_build, "s");
    m.add("core.on_round_s", on_round, "s");
    m.add(
        "core.on_round_calls",
        layers.on_round.calls() as f64,
        "count",
    );
    m.add("core.on_message_s", on_message, "s");
    m.add(
        "core.on_message_calls",
        layers.on_message.calls() as f64,
        "count",
    );
    m.add("core.publish_s", publish, "s");
    m.add(
        "core.has_delivered_calls",
        layers.has_delivered.get() as f64,
        "count",
    );
    m.add("simnet.build_s", times.simnet_build, "s");
    m.add("simnet.step_self_s", step_self, "s");
    m.add(
        "simnet.messages_sent",
        replay.traffic.messages_sent as f64,
        "count",
    );
    m.add(
        "simnet.messages_lost",
        replay.traffic.messages_lost as f64,
        "count",
    );
    m.add(
        "simnet.messages_to_crashed",
        replay.traffic.messages_to_crashed as f64,
        "count",
    );
    m.add(
        "simnet.payload_bytes",
        replay.traffic.payload_bytes as f64,
        "bytes",
    );
    m.add("simnet.rounds", replay.outcome.rounds as f64, "count");
    m.add("trace.trial_s", untraced, "s");
    m.add("trace.overhead_s", times.total - untraced, "s");
    m
}

/// The traced run: every trial runs untraced, then replayed with the
/// wrappers; any difference between the two fails the run.
pub fn run_traced(workload: &SimWorkload, seconds: f64) -> RunResult {
    let scenario = &workload.scenario;
    let mut result = RunResult::default();
    let mut samples: Vec<Metrics> = Vec::new();
    crate::cycle_trials(workload.trace_trials, seconds, |_, trial| {
        let (outcome, untraced) = timed(|| run_scenario_trial::<PmcastFactory>(scenario, trial));
        let layers = Rc::new(ProcessLayers::default());
        let counters = Arc::new(ViewCounters::default());
        let replay = replay::<PmcastFactory>(scenario, trial, &layers, &counters);
        result.attempted += outcome.per_event.len() as u64;
        check_equivalent(&mut result, trial, &outcome, &replay.outcome);
        samples.push(trace_sample(untraced, &replay, &layers, &counters));
    });
    result.metrics = Metrics::mean_of(&samples, workload.trace_trials, &mut result.failures);
    result
}

/// Fails the run unless the replay reproduced the untraced trial exactly.
fn check_equivalent(
    result: &mut RunResult,
    trial: usize,
    untraced: &TrialOutcome,
    traced: &TrialOutcome,
) {
    for (what, same) in [
        (
            "messages_sent",
            untraced.messages_sent == traced.messages_sent,
        ),
        ("rounds", untraced.rounds == traced.rounds),
        ("per-event reports", untraced.per_event == traced.per_event),
        ("latency histograms", untraced.latency == traced.latency),
        ("merged report", untraced.report == traced.report),
    ] {
        result.check(same, || {
            format!("trial {trial}: traced replay differs on {what}")
        });
    }
}
