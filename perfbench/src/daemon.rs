//! The `daemon_ticker` workload: the stock-ticker feed served by
//! `pmcast-net` broker tasks, on the deterministic executor's virtual
//! clock.
//!
//! 125 brokers (a=5, d=3) subscribe with ticker filters; pmcast runs with
//! fanout 3 over `GlobalOracleView`; the group has a 2 ms gossip period,
//! mailboxes of 256 frames and a Seen ring of 4096 ids.  The load is an
//! open loop: 2000 trades, one due every 200 µs of virtual time, each from
//! a random broker; then the run waits for quiescence and shuts down.
//! Virtual time makes every count repeat exactly for a given seed.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcast_addr::AddressSpace;
use pmcast_core::{
    MulticastProtocol, MulticastReport, PmcastConfig, PmcastFactory, PmcastProcess, ProtocolFactory,
};
use pmcast_interest::{Event, Interest};
use pmcast_membership::{GlobalOracleView, GroupTree, MembershipView, TreeTopology};
use pmcast_net::{NetConfig, NetGroup, TransportStats};
use pmcast_sim::workload::{ticker_event, ticker_subscription};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smol::{LocalExecutor, Timer};

use crate::report::{median, peak_rss_mb, ratio, timed, Metrics, RunResult};
use crate::trace::{CountingView, ProcessLayers, Traced, ViewCounters};

/// Trades published per trial.
pub const TRADES: usize = 2000;
/// Virtual time between two trades' due times.
pub const TRADE_PERIOD: Duration = Duration::from_micros(200);
/// The brokers' gossip period; latencies are reported in these rounds.
pub const GOSSIP_PERIOD: Duration = Duration::from_millis(2);
/// Distinct trials per untimed pass (trial `t` uses seed `seed + t`);
/// delivery, spurious and message metrics pool these.
pub const TRIALS: usize = 8;
/// Trials whose first deliveries are logged for the latency metrics.
pub const LATENCY_TRIALS: usize = 2;
/// Distinct trials per traced pass.
pub const TRACE_TRIALS: usize = 2;
/// Brokers in the feed (a=5, d=3).
pub const BROKERS: usize = 125;

/// The generated inputs of one trial: the brokers with their filters, and
/// the trades with their publishing broker, in publish order.
#[derive(Debug)]
pub struct TickerInputs {
    /// 125 brokers, each joined with a ticker subscription; doubles as the
    /// interest oracle.
    pub tree: Arc<GroupTree>,
    /// `(publishing broker, trade)` in publish order.
    pub trades: Vec<(usize, Arc<Event>)>,
}

/// Generates a trial's inputs from its seed.
pub fn ticker_inputs(seed: u64) -> TickerInputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let space = AddressSpace::regular(3, 5).expect("valid shape");
    let mut tree = GroupTree::new(space.clone());
    for address in space.iter() {
        tree.join(address, ticker_subscription(&mut rng))
            .expect("every address joins once");
    }
    let brokers = tree.member_count();
    assert_eq!(brokers, BROKERS, "the feed has one broker per address");
    let trades = (0..TRADES as u64)
        .map(|id| {
            let trade = Arc::new(ticker_event(id, &mut rng));
            (rng.gen_range(0..brokers), trade)
        })
        .collect();
    TickerInputs {
        tree: Arc::new(tree),
        trades,
    }
}

fn net_config(seed: u64) -> NetConfig {
    NetConfig::default()
        .with_gossip_period(GOSSIP_PERIOD)
        .with_mailbox_capacity(256)
        .with_seen_capacity(4096)
        .with_seed(seed)
}

fn protocol_config() -> PmcastConfig {
    PmcastConfig::default().with_fanout(3)
}

/// Host times of one trial's phases, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonTimes {
    /// Input generation (brokers, filters, trades).
    pub workload: f64,
    /// Membership provider construction.
    pub membership_build: f64,
    /// `ProtocolFactory::build`.
    pub core_build: f64,
    /// `NetGroup::spawn`.
    pub spawn: f64,
    /// The executor run: publishing, quiescence and shutdown.
    pub run: f64,
    /// From the first publish to quiescence.
    pub to_quiescence: f64,
    /// Delivery reports over the final states.
    pub collect: f64,
    /// The whole trial.
    pub total: f64,
}

/// What one daemon trial produced.
#[derive(Debug)]
pub struct DaemonRun {
    /// Trades whose publish returned `Ok`.
    pub published: u64,
    /// Trades whose publish returned an error.
    pub publish_errors: u64,
    /// One delivery report per trade, in publish order.
    pub reports: Vec<MulticastReport>,
    /// The transport's counters at shutdown.
    pub transport: TransportStats,
    /// Gossip ticks over all brokers.
    pub ticks: u64,
    /// Gossip frames handed to the protocol over all brokers.
    pub frames_handled: u64,
    /// Gossip frames absorbed by the Seen rings.
    pub frames_deduped: u64,
    /// Brokers that returned a report at shutdown.
    pub brokers_reported: usize,
    /// Reports that say the broker crashed.
    pub brokers_crashed: usize,
    /// Deliveries of a trade the receiving broker's filter rejects.
    pub filter_violations: usize,
    /// Latest any publish returned after its due time (virtual).
    pub max_publish_lag: Duration,
    /// Phase times.
    pub times: DaemonTimes,
}

impl DaemonRun {
    /// Differences that must not exist between two runs of one trial.
    fn differences(&self, other: &DaemonRun) -> Vec<&'static str> {
        [
            ("published trades", self.published == other.published),
            ("per-trade delivery reports", self.reports == other.reports),
            ("transport stats", self.transport == other.transport),
            ("gossip ticks", self.ticks == other.ticks),
            (
                "frames handled",
                self.frames_handled == other.frames_handled,
            ),
            (
                "frames deduped",
                self.frames_deduped == other.frames_deduped,
            ),
            ("publish lag", self.max_publish_lag == other.max_publish_lag),
        ]
        .into_iter()
        .filter_map(|(what, same)| (!same).then_some(what))
        .collect()
    }

    /// The output checks of one trial.
    fn check(&self, trial: usize, result: &mut RunResult) {
        result.check(self.published == TRADES as u64, || {
            format!(
                "trial {trial}: {} of {TRADES} trades published",
                self.published
            )
        });
        result.check(self.brokers_reported == BROKERS, || {
            format!(
                "trial {trial}: {} brokers reported at shutdown",
                self.brokers_reported
            )
        });
        result.check(self.brokers_crashed == 0, || {
            format!(
                "trial {trial}: {} brokers report a crash",
                self.brokers_crashed
            )
        });
        result.check(self.filter_violations == 0, || {
            format!(
                "trial {trial}: {} deliveries of trades a broker's filter rejects",
                self.filter_violations
            )
        });
    }
}

/// Runs one trial: generate inputs, build the group (wrapping the provider
/// with `view` and every process with `wrap`), spawn it, publish every
/// trade on schedule, wait for quiescence, shut down and collect.
pub fn run_trial<P: MulticastProtocol + 'static>(
    seed: u64,
    view: impl FnOnce(Arc<dyn MembershipView>) -> Arc<dyn MembershipView>,
    wrap: impl Fn(PmcastProcess) -> P,
) -> DaemonRun {
    let started = Instant::now();
    let mut times = DaemonTimes::default();
    let (inputs, seconds) = timed(|| ticker_inputs(seed));
    times.workload = seconds;
    let tree = &inputs.tree;
    let (membership, seconds) =
        timed(|| view(Arc::new(GlobalOracleView::new(tree.member_count()))));
    times.membership_build = seconds;
    let (processes, seconds) = timed(|| {
        let group = PmcastFactory::build(
            tree.as_ref(),
            tree.clone(),
            Arc::clone(&membership),
            &protocol_config(),
        );
        group.processes.into_iter().map(&wrap).collect::<Vec<P>>()
    });
    times.core_build = seconds;
    let ((executor, net), seconds) = timed(|| {
        let executor = LocalExecutor::deterministic(seed);
        let net = NetGroup::spawn(&executor, processes, membership, &net_config(seed));
        (executor, net)
    });
    times.spawn = seconds;
    let handle = net.handle().clone();

    let run_started = Instant::now();
    let trades = &inputs.trades;
    let publisher = handle.clone();
    let ((published, publish_errors, max_publish_lag, quiescent_at, reports), seconds) =
        timed(|| {
            executor.run(async move {
                let first = smol::now();
                let (mut published, mut errors) = (0u64, 0u64);
                let mut max_lag = Duration::ZERO;
                for (k, (broker, trade)) in trades.iter().enumerate() {
                    let due = first + TRADE_PERIOD * k as u32;
                    Timer::at(due).await;
                    match publisher.publish(*broker, Arc::clone(trade)).await {
                        Ok(()) => published += 1,
                        Err(_) => errors += 1,
                    }
                    max_lag = max_lag.max(smol::now().saturating_sub(due));
                }
                while !publisher.is_quiescent() {
                    Timer::after(GOSSIP_PERIOD).await;
                }
                let quiescent_at = Instant::now();
                (
                    published,
                    errors,
                    max_lag,
                    quiescent_at,
                    net.shutdown().await,
                )
            })
        });
    times.run = seconds;
    times.to_quiescence = (quiescent_at - run_started).as_secs_f64();

    let ((per_trade, ticks, frames_handled, frames_deduped), seconds) = timed(|| {
        let events = trades.iter().map(|(_, trade)| trade.as_ref());
        let states = reports.iter().map(|report| &report.state);
        let per_trade = MulticastReport::collect_per_event(events, states, tree.as_ref());
        let (mut ticks, mut handled, mut deduped) = (0, 0, 0);
        for report in &reports {
            ticks += report.stats.ticks;
            handled += report.stats.frames_handled;
            deduped += report.stats.frames_deduped;
        }
        (per_trade, ticks, handled, deduped)
    });
    times.collect = seconds;
    times.total = started.elapsed().as_secs_f64();

    let mut filter_violations = 0;
    for report in &reports {
        let filter = tree
            .subscription(report.state.outcome_address())
            .expect("every broker joined with a filter");
        filter_violations += trades
            .iter()
            .filter(|(_, trade)| {
                report.state.outcome_delivered(trade.id()) && !filter.matches(trade)
            })
            .count();
    }
    DaemonRun {
        published,
        publish_errors,
        reports: per_trade,
        transport: handle.stats(),
        ticks,
        frames_handled,
        frames_deduped,
        brokers_reported: reports.len(),
        brokers_crashed: reports.iter().filter(|report| report.crashed).count(),
        filter_violations,
        max_publish_lag,
        times,
    }
}

/// Host time of one trial's set-up: inputs, provider, group and spawn.
fn setup_seconds(seed: u64) -> f64 {
    let started = Instant::now();
    let inputs = ticker_inputs(seed);
    let membership: Arc<dyn MembershipView> =
        Arc::new(GlobalOracleView::new(inputs.tree.member_count()));
    let group = PmcastFactory::build(
        inputs.tree.as_ref(),
        inputs.tree.clone(),
        Arc::clone(&membership),
        &protocol_config(),
    );
    let executor = LocalExecutor::deterministic(seed);
    let net = NetGroup::spawn(&executor, group.processes, membership, &net_config(seed));
    let seconds = started.elapsed().as_secs_f64();
    drop(net);
    seconds
}

fn unwrapped(seed: u64) -> DaemonRun {
    run_trial(seed, |view| view, |process| process)
}

/// Nearest-rank quantile of a sorted sample: the smallest value at or
/// below which at least `q` of the sample lies.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn check_same(
    result: &mut RunResult,
    trial: usize,
    first: &DaemonRun,
    second: &DaemonRun,
    what: &str,
) {
    for difference in first.differences(second) {
        result.check(false, || {
            format!("trial {trial}: {what} differ on {difference}")
        });
    }
}

/// The untraced run: end-to-end metrics and output checks.
///
/// The daemon has no other way to tell when a broker delivered, so the
/// first [`LATENCY_TRIALS`] trials run once, untimed, with every process
/// wrapped to log first deliveries on the virtual clock.  The timed trials
/// then run unwrapped and must reproduce those runs exactly.
pub fn run_untraced(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    // One untimed set-up warms the caches and the allocator.  After it a
    // timed set-up precedes every timed trial, so the set-up samples are
    // spread over the whole run and see the same host conditions as the
    // trials.
    setup_seconds(seed);
    let mut setup_times = Vec::new();

    let mut logged = Vec::with_capacity(LATENCY_TRIALS);
    let mut latencies: Vec<f64> = Vec::new();
    for trial in 0..LATENCY_TRIALS {
        let layers = Rc::new(ProcessLayers::logging_deliveries());
        logged.push(run_trial(
            seed.wrapping_add(trial as u64),
            |view| view,
            |process| Traced::new(process, Rc::clone(&layers)),
        ));
        let log = layers
            .deliveries
            .as_ref()
            .expect("logging enabled")
            .borrow();
        latencies.extend(
            log.latencies()
                .iter()
                .map(|latency| latency.as_secs_f64() / GOSSIP_PERIOD.as_secs_f64()),
        );
    }

    let mut first_pass: Vec<DaemonRun> = Vec::with_capacity(TRIALS);
    let mut trial_times = Vec::new();
    let mut event_rates = Vec::new();
    crate::cycle_trials(TRIALS, seconds, |index, trial| {
        setup_times.push(setup_seconds(seed.wrapping_add(trial as u64)));
        let run = unwrapped(seed.wrapping_add(trial as u64));
        result.attempted += TRADES as u64;
        result.failed += run.publish_errors;
        trial_times.push(run.times.total);
        event_rates.push(run.published as f64 / run.times.to_quiescence);
        if index >= TRIALS {
            check_same(
                &mut result,
                trial,
                &first_pass[trial],
                &run,
                "repeated trials",
            );
            return;
        }
        if let Some(logged) = logged.get(trial) {
            check_same(&mut result, trial, logged, &run, "logged and timed runs");
        }
        run.check(trial, &mut result);
        first_pass.push(run);
    });

    let mut report = MulticastReport::default();
    let (mut frames, mut published) = (0u64, 0u64);
    for run in &first_pass {
        for trade in &run.reports {
            report.merge(trade);
        }
        frames += run.transport.frames_sent + run.transport.frames_dropped;
        published += run.published;
    }
    latencies.sort_by(f64::total_cmp);
    let metrics = &mut result.metrics;
    metrics.add("setup_s", median(&setup_times), "s");
    metrics.add("trial_s", median(&trial_times), "s");
    metrics.add("events_per_s", median(&event_rates), "events/s");
    metrics.add("delivery_ratio", report.delivery_ratio(), "ratio");
    metrics.add("spurious_ratio", report.spurious_ratio(), "ratio");
    metrics.add(
        "messages_per_event",
        frames as f64 / published as f64,
        "messages",
    );
    metrics.add(
        "latency_rounds_p50",
        quantile_sorted(&latencies, 0.5),
        "rounds",
    );
    metrics.add(
        "latency_rounds_p99",
        quantile_sorted(&latencies, 0.99),
        "rounds",
    );
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "daemon: {} timed trials over {TRIALS} distinct trials; delivery {:.4}",
        trial_times.len(),
        report.delivery_ratio()
    );
    result
}

fn trace_sample(
    untraced: f64,
    run: &DaemonRun,
    layers: &ProcessLayers,
    counters: &ViewCounters,
) -> Metrics {
    let times = run.times;
    let round_elapsed = counters.round_elapsed_seconds();
    let on_round = layers.on_round.seconds();
    let on_message = layers.on_message.seconds();
    let publish = layers.publish.seconds();
    let protocol = on_round + on_message + publish;
    let summary_calls = counters.summary_allows_calls();
    let transport = run.transport;
    let mut m = Metrics::default();
    m.add("sim.workload_s", times.workload, "s");
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
    m.add("net.spawn_s", times.spawn, "s");
    m.add("net.run_s", times.run, "s");
    m.add("net.protocol_s", protocol, "s");
    m.add(
        "net.runtime_self_s",
        times.run - protocol - round_elapsed,
        "s",
    );
    m.add("net.frames_sent", transport.frames_sent as f64, "count");
    m.add(
        "net.frames_dropped",
        transport.frames_dropped as f64,
        "count",
    );
    m.add("net.frames_lost", transport.frames_lost as f64, "count");
    m.add("net.frames_deduped", run.frames_deduped as f64, "count");
    m.add(
        "net.dedup_share",
        ratio(
            run.frames_deduped as f64,
            (run.frames_deduped + run.frames_handled) as f64,
        ),
        "ratio",
    );
    m.add("net.ticks", run.ticks as f64, "count");
    m.add(
        "net.peak_in_flight",
        transport.peak_in_flight as f64,
        "count",
    );
    m.add(
        "net.publish_lag_virtual_s",
        run.max_publish_lag.as_secs_f64(),
        "s",
    );
    m.add("net.collect_s", times.collect, "s");
    m.add("trace.trial_s", untraced, "s");
    m.add("trace.overhead_s", times.total - untraced, "s");
    m
}

/// The traced run: each trial runs unwrapped, then with the provider and
/// every process wrapped; the two must agree on every delivery and
/// transport count.
pub fn run_traced(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut samples = Vec::new();
    crate::cycle_trials(TRACE_TRIALS, seconds, |_, trial| {
        let trial_seed = seed.wrapping_add(trial as u64);
        let untraced = unwrapped(trial_seed);
        let layers = Rc::new(ProcessLayers::default());
        let counters = Arc::new(ViewCounters::default());
        let traced = run_trial(
            trial_seed,
            |view| Arc::new(CountingView::new(view, Arc::clone(&counters))),
            |process| Traced::new(process, Rc::clone(&layers)),
        );
        result.attempted += TRADES as u64;
        result.failed += traced.publish_errors;
        traced.check(trial, &mut result);
        check_same(
            &mut result,
            trial,
            &untraced,
            &traced,
            "unwrapped and traced runs",
        );
        samples.push(trace_sample(
            untraced.times.total,
            &traced,
            &layers,
            &counters,
        ));
    });
    result.metrics = Metrics::mean_of(&samples, TRACE_TRIALS, &mut result.failures);
    result
}
