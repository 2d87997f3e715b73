//! Summary statistics and the result line every run prints last.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of a non-empty sample (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Times `f` in seconds of host time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// The process's peak resident set size (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (a non-Linux host).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric; names must be unique within a run.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.entries
                .iter()
                .all(|(existing, _, _)| *existing != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// Averages per-trial samples that report the same metrics in the same
    /// order.  Times (unit `s`) average over every sample; every other
    /// metric is a deterministic count, averaged over the first pass of
    /// `first_pass` distinct trials, and each later repetition of a trial
    /// must reproduce it exactly (a mismatch is pushed onto `failures`).
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty or the samples disagree on names.
    pub fn mean_of(samples: &[Metrics], first_pass: usize, failures: &mut Vec<String>) -> Metrics {
        let names = &samples[0].entries;
        let first_pass = first_pass.min(samples.len());
        let mut means = Metrics::default();
        for (position, &(name, _, unit)) in names.iter().enumerate() {
            let values: Vec<f64> = samples
                .iter()
                .map(|sample| {
                    assert_eq!(
                        sample.entries[position].0, name,
                        "samples disagree on metric names"
                    );
                    sample.entries[position].1
                })
                .collect();
            let value = if unit == "s" {
                mean(&values)
            } else {
                for (index, value) in values.iter().enumerate().skip(first_pass) {
                    if *value != values[index % first_pass] {
                        failures.push(format!(
                            "{name} did not repeat exactly for trial {}",
                            index % first_pass
                        ));
                    }
                }
                mean(&values[..first_pass])
            };
            means.add(name, value, unit);
        }
        means
    }

    /// Every metric as `(name, value, unit)`, in the order added.
    pub fn entries(&self) -> &[(&'static str, f64, &'static str)] {
        &self.entries
    }

    /// The value of a metric added earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(existing, _, _)| *existing == name)
            .map(|(_, value, _)| *value)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check that failed, in plain words (empty = correct).
    pub failures: Vec<String>,
    /// Multicast operations (publications) attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl RunResult {
    /// Records an output check: `ok == false` marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if index > 0 {
                metrics.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives.
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}
