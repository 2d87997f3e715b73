//! Figure 7 — tuned (audience inflation, Section 5.3) vs untuned pmcast.

use criterion::{criterion_group, criterion_main, Criterion};
use pmcast_bench::{bench_profile, publish_rows};
use pmcast_sim::experiments::{tuning, Profile};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};
use pmcast_sim::scenario::Scenario;

fn bench(c: &mut Criterion) {
    let rows = tuning::run(bench_profile());
    publish_rows("fig7_tuning", "Figure 7 — tuned vs untuned algorithm", &rows);

    let untuned = Scenario {
        matching_rate: 0.1,
        ..Profile::Quick.reliability_base()
    };
    let tuned = Scenario {
        protocol: untuned
            .protocol
            .clone()
            .with_tuning(tuning::DEFAULT_THRESHOLD),
        ..untuned.clone()
    };
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("untuned_trial_rate01", |b| {
        let mut trial = 0usize;
        b.iter(|| {
            trial += 1;
            run_scenario_trial_with(&untuned, Protocol::Pmcast, trial)
        });
    });
    group.bench_function("tuned_trial_rate01", |b| {
        let mut trial = 0usize;
        b.iter(|| {
            trial += 1;
            run_scenario_trial_with(&tuned, Protocol::Pmcast, trial)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
