//! Figure 6 — delivery probability as the subgroup size (and thus the group
//! size n = a³) grows, for matching rates 0.5 and 0.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmcast_bench::{bench_profile, publish_rows};
use pmcast_sim::experiments::{scalability, Profile};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};

fn bench(c: &mut Criterion) {
    let rows = scalability::run(bench_profile());
    publish_rows(
        "fig6_scalability",
        "Figure 6 — scalability with growing subgroup size",
        &rows,
    );

    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    for arity in [4u32, 6, 8] {
        let scenario = Profile::Quick.scalability_base(arity);
        group.bench_with_input(
            BenchmarkId::new("pmcast_trial", arity),
            &scenario,
            |b, scenario| {
                let mut trial = 0usize;
                b.iter(|| {
                    trial += 1;
                    run_scenario_trial_with(scenario, Protocol::Pmcast, trial)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
