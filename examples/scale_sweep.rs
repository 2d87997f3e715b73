//! Scalability: seconds per trial from n = 512 to n ≈ 1.05 **million** —
//! the figure the paper could not draw (its evaluation tops out at
//! n = 22³ = 10 648).
//!
//! Every row runs one-publication pmcast trials (matching rate 0.5, 1%
//! loss, publisher drawn from the interested set) at a given group size
//! and membership provider, and reports
//!
//! * **s/trial** — wall-clock seconds per trial, single-core (build +
//!   dissemination to quiescence), and
//! * **peakMB** — the process's peak resident set so far (`VmHWM` from
//!   `/proc/self/status`; 0 where unavailable).  Rows run in increasing
//!   size order, so each row's value bounds that row's working set.
//!
//! The million-process row exists because of the active-set simulation
//! core: a round costs O(gossiping processes), not O(n), and quiescence
//! detection is O(1), so the dissemination cost tracks the message count
//! the analysis predicts instead of the group size.  The delegate column
//! reaches that row too: the eager provider's bootstrap materializes
//! per-process view tables (O(n·a·d) entries), so above 100k processes
//! the sweep switches to the lazy provider, which stores no tables: it
//! computes each seat arithmetically from the tree shape and the sorted
//! alive set (a rank query per `knows_at_depth`), so its memory is O(n)
//! alive bookkeeping plus the shared digit table.
//!
//! ```text
//! cargo run --release --example scale_sweep             # 512 and 10 648
//! cargo run --release --example scale_sweep -- --quick  # 512 only (CI smoke)
//! cargo run --release --example scale_sweep -- --paper  # adds n = 32⁴ ≈ 1.05M
//! cargo run --release --example scale_sweep -- --json   # machine-readable lines
//! cargo run --release --example scale_sweep -- --check-model 0.05
//! ```
//!
//! Every row also carries the analytical prediction
//! (`pmcast_sim::prediction`) — including the million-process row, where
//! the model costs microseconds while the trial costs seconds — and
//! `--check-model <tol>` exits nonzero when a row drifts beyond the
//! tolerance.

use std::time::Instant;

use pmcast::{parse_check_model, predict, Event, MembershipSpec, Protocol, Publisher, Scenario};

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0 when
/// `/proc/self/status` is unavailable (non-Linux hosts).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut gate, args) = parse_check_model(&args);
    let quick = args.iter().any(|arg| arg == "--quick");
    let paper = args.iter().any(|arg| arg == "--paper");
    let json = args.iter().any(|arg| arg == "--json");

    // (arity, depth, trials, run the delegate provider too?).  The sizes
    // grow by ~100× per step; the eager delegate bootstrap is dense (one
    // slot table per process, O(n·a·d) entries), so past 100k processes
    // the delegate column switches to the table-free lazy provider below.
    let mut sizes: Vec<(u32, usize, usize, bool)> = vec![(8, 3, 3, true)];
    if !quick {
        sizes.push((22, 3, 3, true));
    }
    if paper {
        sizes.push((32, 4, 1, true));
    }

    if !json {
        println!(
            "pmcast seconds-per-trial vs. group size — matching rate 0.5, 1% loss, \
             one publication, single core"
        );
        println!(
            "{:>9} {:>7} {:>10} {:>12} {:>12} {:>10} {:>10} {:>8}",
            "n", "a^d", "provider", "s/trial", "delivered", "predicted", "rounds", "peakMB"
        );
    }

    for (arity, depth, trials, with_delegate) in sizes {
        let n = (arity as usize).pow(depth as u32);
        let mut providers: Vec<(&str, MembershipSpec)> = vec![("global", MembershipSpec::Global)];
        if with_delegate {
            // The eager bootstrap is O(n·a·d) in time and memory; the lazy
            // provider computes seats arithmetically instead of storing
            // tables, so the million-process row builds none at all.
            providers.push(if n > 100_000 {
                ("delegate-lazy", MembershipSpec::delegate_lazy(3))
            } else {
                ("delegate", MembershipSpec::delegate(3))
            });
        }
        for (provider, membership) in providers {
            let scenario = Scenario::builder()
                .group(arity, depth)
                .matching_rate(0.5)
                .loss(0.01)
                .membership(membership)
                .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
                .trials(trials)
                .seed(42)
                .build();
            let prediction = predict(&scenario);
            let started = Instant::now();
            let outcomes = scenario.run(Protocol::Pmcast);
            let seconds = started.elapsed().as_secs_f64() / trials as f64;
            let delivered: f64 = outcomes.iter().map(|o| o.report.delivery_ratio()).sum::<f64>()
                / outcomes.len() as f64;
            let rounds: f64 =
                outcomes.iter().map(|o| o.rounds as f64).sum::<f64>() / outcomes.len() as f64;
            let peak = peak_rss_mb();
            if let Some(gate) = gate.as_mut() {
                gate.record(&format!("scale_sweep n={n} {provider}"), &prediction, delivered);
            }
            if json {
                println!(
                    "{{\"n\":{n},\"arity\":{arity},\"depth\":{depth},\"provider\":\"{provider}\",\
                     \"seconds_per_trial\":{seconds:.3},\"delivery_ratio\":{delivered:.4},\
                     \"rounds\":{rounds:.1},\"peak_rss_mb\":{peak:.1},\"trials\":{trials},{}}}",
                    prediction.json_fields()
                );
            } else {
                println!(
                    "{n:>9} {:>7} {provider:>10} {seconds:>12.3} {delivered:>12.3} {:>10} {rounds:>10.1} {peak:>8.0}",
                    format!("{arity}^{depth}"),
                    prediction.display()
                );
            }
        }
    }

    if !json {
        println!(
            "\n(s/trial includes group construction and the full dissemination to quiescence.  \
             The 32^4 row is the active-set core's contribution: rounds cost O(active), \
             quiescence is O(1), and delivery tracking is delta-driven, so a million-process \
             trial stays in single-digit seconds on one core.  delegate = the paper's \
             Section 2 view tables; past 100k processes the column switches to the lazy \
             provider, which computes every seat from the tree shape and the alive set.)"
        );
    }
    if let Some(gate) = gate {
        eprintln!("{}", gate.summary());
        if let Err(drift) = gate.verdict() {
            eprintln!("{drift}");
            std::process::exit(1);
        }
    }
}
