//! The pmcast benchmark: three workloads, the end-to-end metrics a user
//! of the system sees, and a separate traced run that splits the time by
//! layer through the layers' public functions and trait seams.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_delegate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! [`END_TO_END`] metrics, `--trace 1` the [`PER_LAYER`] ones.  See
//! `perfbench/README.md` for what each metric measures and which
//! end-to-end metric a per-layer one should move.

pub mod daemon;
pub mod report;
pub mod sim;
pub mod trace;

use std::time::{Duration, Instant};

use report::{Metrics, RunResult};

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["paper_delegate", "topic_summary", "daemon_ticker"];

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("trial_s", "s"),
    ("events_per_s", "events/s"),
    ("delivery_ratio", "ratio"),
    ("spurious_ratio", "ratio"),
    ("messages_per_event", "messages"),
    ("latency_rounds_p50", "rounds"),
    ("latency_rounds_p99", "rounds"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports all of them, 0 for a layer
/// the workload does not run (the simulator on the daemon, the async
/// runtime on the simulator workloads, the topic hashcons without topics).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sim.workload_s", "s"),
    ("sim.runner_self_s", "s"),
    ("sim.collect_s", "s"),
    ("membership.build_s", "s"),
    ("membership.round_elapsed_s", "s"),
    ("membership.round_elapsed_calls", "count"),
    ("membership.knows_at_depth_calls", "count"),
    ("membership.summary_allows_calls", "count"),
    ("membership.summary_skip_share", "ratio"),
    ("interest.intern_hits", "count"),
    ("interest.intern_misses", "count"),
    ("core.build_s", "s"),
    ("core.on_round_s", "s"),
    ("core.on_round_calls", "count"),
    ("core.on_message_s", "s"),
    ("core.on_message_calls", "count"),
    ("core.publish_s", "s"),
    ("core.has_delivered_calls", "count"),
    ("simnet.build_s", "s"),
    ("simnet.step_self_s", "s"),
    ("simnet.messages_sent", "count"),
    ("simnet.messages_lost", "count"),
    ("simnet.messages_to_crashed", "count"),
    ("simnet.payload_bytes", "bytes"),
    ("simnet.rounds", "count"),
    ("net.spawn_s", "s"),
    ("net.run_s", "s"),
    ("net.protocol_s", "s"),
    ("net.runtime_self_s", "s"),
    ("net.frames_sent", "count"),
    ("net.frames_dropped", "count"),
    ("net.frames_lost", "count"),
    ("net.frames_deduped", "count"),
    ("net.dedup_share", "ratio"),
    ("net.ticks", "count"),
    ("net.peak_in_flight", "count"),
    ("net.publish_lag_virtual_s", "s"),
    ("net.collect_s", "s"),
    ("trace.trial_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Runs trials `0, 1, …, trials − 1, 0, 1, …` until at least one full pass
/// is done and `seconds` have elapsed, calling `f(index, trial)`.
pub fn cycle_trials(trials: usize, seconds: f64, mut f: impl FnMut(usize, usize)) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut index = 0;
    while index < trials || started.elapsed() < budget {
        f(index, index % trials);
        index += 1;
    }
}

/// Runs one workload and returns its result with the metric list of the
/// mode completed and in canonical order.
///
/// # Panics
///
/// Panics on a workload name outside [`WORKLOADS`].
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut result = match (workload, trace) {
        ("paper_delegate", false) => sim::run_untraced(&sim::paper_delegate(seed), seconds),
        ("paper_delegate", true) => sim::run_traced(&sim::paper_delegate(seed), seconds),
        ("topic_summary", false) => sim::run_untraced(&sim::topic_summary(seed), seconds),
        ("topic_summary", true) => sim::run_traced(&sim::topic_summary(seed), seconds),
        ("daemon_ticker", false) => daemon::run_untraced(seed, seconds),
        ("daemon_ticker", true) => daemon::run_traced(seed, seconds),
        (other, _) => panic!("unknown workload {other}"),
    };
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    result.metrics = canonical(&result.metrics, names);
    result
}

/// Per-layer times that are sums of other spans, not leaves of the split.
const AGGREGATE_SPANS: [&str; 5] = [
    "net.run_s",
    "net.protocol_s",
    "net.publish_lag_virtual_s",
    "trace.trial_s",
    "trace.overhead_s",
];

/// One line on how a traced run's time splits: the leaf spans plus self
/// times, the trial total they add up to, and the largest leaf.
///
/// On the simulator workloads the leaves add up to the untraced trial
/// (`sim.runner_self_s` is defined against it); on the daemon they add up
/// to the traced trial (`trace.trial_s + trace.overhead_s`).
pub fn span_summary(workload: &str, metrics: &Metrics) -> String {
    let leaves: Vec<(&str, f64)> = metrics
        .entries()
        .iter()
        .filter(|(name, _, unit)| *unit == "s" && !AGGREGATE_SPANS.contains(name))
        .map(|(name, value, _)| (*name, *value))
        .collect();
    let sum: f64 = leaves.iter().map(|(_, value)| value).sum();
    let untraced = metrics.get("trace.trial_s").unwrap_or(0.0);
    let total = if workload == "daemon_ticker" {
        untraced + metrics.get("trace.overhead_s").unwrap_or(0.0)
    } else {
        untraced
    };
    let (largest, largest_s) = leaves
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", 0.0));
    format!(
        "spans: leaves sum to {sum:.6} s of a {total:.6} s trial; largest span {largest} = {largest_s:.6} s"
    )
}

/// Reorders `metrics` into `names`, filling a metric the workload does not
/// produce with 0.
///
/// # Panics
///
/// Panics when a metric is outside `names` or carries another unit.
fn canonical(metrics: &Metrics, names: &[(&'static str, &'static str)]) -> Metrics {
    for (name, _, unit) in metrics.entries() {
        assert!(
            names.contains(&(*name, *unit)),
            "metric {name} [{unit}] is not in the benchmark's list"
        );
    }
    let mut ordered = Metrics::default();
    for &(name, unit) in names {
        ordered.add(name, metrics.get(name).unwrap_or(0.0), unit);
    }
    ordered
}
