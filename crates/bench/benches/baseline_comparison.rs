//! Baseline comparison — pmcast vs flooding gossip broadcast vs genuine
//! multicast on delivery, spurious reception and message cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmcast_bench::{bench_profile, publish_rows};
use pmcast_sim::experiments::{baselines, Profile};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};

fn bench(c: &mut Criterion) {
    let rows = baselines::run(bench_profile());
    publish_rows(
        "baseline_comparison",
        "Baselines — pmcast vs flooding broadcast vs genuine multicast",
        &rows,
    );

    let scenario = Profile::Quick.reliability_base();
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    for (name, kind) in [
        ("pmcast", Protocol::Pmcast),
        ("flooding", Protocol::FloodBroadcast),
        ("genuine", Protocol::GenuineMulticast),
    ] {
        group.bench_with_input(BenchmarkId::new("trial", name), &kind, |b, &kind| {
            let mut trial = 0usize;
            b.iter(|| {
                trial += 1;
                run_scenario_trial_with(&scenario, kind, trial)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
