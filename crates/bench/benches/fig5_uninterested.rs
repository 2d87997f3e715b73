//! Figure 5 — reception probability of uninterested processes vs matching
//! rate, contrasted with the flooding baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use pmcast_bench::{bench_profile, publish_rows};
use pmcast_sim::experiments::{spurious, Profile};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};
use pmcast_sim::scenario::Scenario;

fn bench(c: &mut Criterion) {
    let rows = spurious::run(bench_profile());
    publish_rows(
        "fig5_uninterested",
        "Figure 5 — reception probability of uninterested processes",
        &rows,
    );

    let scenario = Scenario {
        matching_rate: 0.2,
        ..Profile::Quick.reliability_base()
    };
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("pmcast_trial_rate02", |b| {
        let mut trial = 0usize;
        b.iter(|| {
            trial += 1;
            run_scenario_trial_with(&scenario, Protocol::Pmcast, trial)
        });
    });
    group.bench_function("flooding_trial_rate02", |b| {
        let mut trial = 0usize;
        b.iter(|| {
            trial += 1;
            run_scenario_trial_with(&scenario, Protocol::FloodBroadcast, trial)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
