//! One module per evaluation figure / claim of the paper.
//!
//! Every experiment comes in two profiles:
//!
//! * [`Profile::Quick`] — a small group (a = 6, d = 3, n = 216) and few
//!   trials, fast enough for unit tests and smoke benchmarks;
//! * [`Profile::Paper`] — the configuration of the paper's evaluation
//!   (a = 22, d = 3, n = 10 648 for the reliability figures), used by the
//!   `figures` binary and the full benchmark harness.
//!
//! Each module exposes a `run(profile)` function returning typed rows that
//! implement [`crate::report::FigureRow`], so results can be printed, saved
//! as CSV and compared against the paper's curves.  Every data point is a
//! [`Scenario`] derived from the profile's base scenario and run through
//! [`Scenario::run_parallel`].

pub mod baselines;
pub mod reliability;
pub mod rounds;
pub mod scalability;
pub mod spurious;
pub mod tuning;
pub mod views;

use pmcast_core::PmcastConfig;
use serde::{Deserialize, Serialize};

use crate::runner::{AggregateOutcome, Protocol};
use crate::scenario::Scenario;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Profile {
    /// Small group, few trials: fast, used by tests and smoke benches.
    Quick,
    /// Paper-scale group and trial counts (minutes of runtime).
    Paper,
}

impl Profile {
    /// Base scenario for the reliability-style experiments (Figures 4, 5
    /// and 7): `a = 6` (quick, n = 216, 3 trials) or the paper's `a = 22`
    /// (n ≈ 10 648, `R = 3`, `F = 2`, 5 trials), `d = 3`, matching rate
    /// 0.5, `ε = 0.01`, `τ = 0.001`, the default one-event workload and
    /// global membership.
    pub fn reliability_base(self) -> Scenario {
        match self {
            Profile::Quick => base_scenario(6, PmcastConfig::default(), 3, 400),
            Profile::Paper => base_scenario(22, PmcastConfig::paper_reliability(), 5, 600),
        }
    }

    /// Base scenario for the scalability experiment (Figure 6): the
    /// reliability base with `R = 4`, `F = 3` and the given arity.
    pub fn scalability_base(self, arity: u32) -> Scenario {
        match self {
            Profile::Quick => base_scenario(arity, PmcastConfig::paper_scalability(), 3, 400),
            Profile::Paper => base_scenario(arity, PmcastConfig::paper_scalability(), 5, 600),
        }
    }

    /// The matching rates swept by the reliability experiments.
    pub fn matching_rates(self) -> Vec<f64> {
        match self {
            Profile::Quick => vec![0.1, 0.3, 0.5, 0.8],
            Profile::Paper => vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        }
    }

    /// The subgroup sizes swept by the scalability experiment.
    pub fn arities(self) -> Vec<u32> {
        match self {
            Profile::Quick => vec![4, 6, 8],
            Profile::Paper => vec![10, 15, 20, 25, 30, 35, 40],
        }
    }
}

/// The shared shape of every profile's base scenario.
fn base_scenario(arity: u32, protocol: PmcastConfig, trials: usize, max_rounds: u64) -> Scenario {
    Scenario::builder()
        .group(arity, 3)
        .protocol(protocol)
        .matching_rate(0.5)
        .loss(0.01)
        .crash_fraction(0.001)
        .trials(trials)
        .seed(42)
        .max_rounds(max_rounds)
        .build()
}

/// Runs every trial of `base` at the given matching rate in parallel and
/// aggregates them: one data point of a sweep.
fn aggregate(base: &Scenario, matching_rate: f64, protocol: Protocol) -> AggregateOutcome {
    let point = Scenario {
        matching_rate,
        ..base.clone()
    };
    AggregateOutcome::from_trials(&point.run_parallel(protocol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_produce_consistent_configs() {
        let quick = Profile::Quick.reliability_base();
        assert_eq!(quick.capacity(), 216);
        assert_eq!((quick.trials, quick.seed, quick.max_rounds), (3, 42, 400));
        assert_eq!(
            (quick.loss_probability, quick.crash_fraction),
            (0.01, 0.001)
        );
        assert!(quick.publications.is_empty(), "default workload");
        let paper = Profile::Paper.reliability_base();
        assert_eq!(paper.capacity(), 10_648);
        assert_eq!((paper.trials, paper.max_rounds), (5, 600));
        assert_eq!(paper.protocol.redundancy, 3);
        assert_eq!(paper.protocol.fanout, 2);

        let scal = Profile::Paper.scalability_base(25);
        assert_eq!(scal.arity, 25);
        assert_eq!(scal.protocol.redundancy, 4);
        assert_eq!(scal.protocol.fanout, 3);
        let scal_quick = Profile::Quick.scalability_base(4);
        assert_eq!(scal_quick.capacity(), 64);
        assert_eq!(scal_quick.protocol.fanout, 3);

        assert!(Profile::Paper.matching_rates().len() > Profile::Quick.matching_rates().len());
        assert!(Profile::Paper.arities().len() > Profile::Quick.arities().len());
    }
}
