//! Times the paper-scale reliability experiment point (`a = 22`, `d = 3`,
//! `n = 10 648`, matching rate 0.5) — the unit of work behind Figures 4/5/7
//! — and prints wall-clock plus outcome, so hot-path PRs can report
//! before/after numbers from one command.
//!
//! ```text
//! cargo run --release -p pmcast-sim --bin paperbench -- [TRIALS] [--sequential]
//! ```

use std::time::Instant;

use pmcast_sim::experiments::Profile;
use pmcast_sim::runner::{AggregateOutcome, Protocol};
use pmcast_sim::scenario::Scenario;

fn main() {
    let mut trials = 3usize;
    let mut sequential = false;
    let mut protocol = Protocol::Pmcast;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--sequential" => sequential = true,
            "--flood" => protocol = Protocol::FloodBroadcast,
            other => {
                trials = other.parse().ok().filter(|&t| t > 0).unwrap_or_else(|| {
                    panic!(
                        "expected a positive trial count, --sequential or --flood, got {other:?}"
                    )
                });
            }
        }
    }
    let scenario = Scenario {
        trials,
        ..Profile::Paper.reliability_base()
    };
    let started = Instant::now();
    let outcome = AggregateOutcome::from_trials(&if sequential {
        scenario.run(protocol)
    } else {
        scenario.run_parallel(protocol)
    });
    let elapsed = started.elapsed();
    println!(
        "n={} trials={} mode={} threads={} delivery={:.4} spurious={:.4} messages={:.0} rounds={:.1} elapsed={:.3}s ({:.3}s/trial)",
        scenario.capacity(),
        trials,
        if sequential { "sequential" } else { "parallel" },
        if sequential { 1 } else { rayon::current_num_threads() },
        outcome.delivery_mean,
        outcome.spurious_mean,
        outcome.messages_mean,
        outcome.rounds_mean,
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() / trials as f64,
    );
}
