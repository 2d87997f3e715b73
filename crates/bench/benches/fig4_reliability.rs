//! Figure 4 — delivery probability of interested processes vs matching rate.
//!
//! Regenerates the figure data (quick profile by default, paper profile with
//! `PMCAST_BENCH_PROFILE=paper`) and measures the cost of one full multicast
//! trial at matching rate 0.5.

use criterion::{criterion_group, criterion_main, Criterion};
use pmcast_bench::{bench_profile, publish_rows};
use pmcast_sim::experiments::{reliability, Profile};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};

fn bench(c: &mut Criterion) {
    let rows = reliability::run(bench_profile());
    publish_rows(
        "fig4_reliability",
        "Figure 4 — delivery probability of interested processes",
        &rows,
    );

    let scenario = Profile::Quick.reliability_base();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("pmcast_trial_n216_rate05", |b| {
        let mut trial = 0usize;
        b.iter(|| {
            trial += 1;
            run_scenario_trial_with(&scenario, Protocol::Pmcast, trial)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
