//! **Figure 5** — probability that an *uninterested* process receives a
//! multicast event, as a function of the fraction of interested processes,
//! for the same configuration as Figure 4.
//!
//! This is the metric that distinguishes a multicast from a broadcast: in a
//! flooding gossip broadcast this probability is close to 1 regardless of
//! `p_d`; pmcast keeps it low because only (delegates of) interested
//! subtrees are infected.

use serde::{Deserialize, Serialize};

use crate::report::FigureRow;
use crate::runner::Protocol;

use super::{aggregate, Profile};

/// One data point of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpuriousRow {
    /// Fraction of interested processes (`p_d`).
    pub matching_rate: f64,
    /// Probability that an uninterested process receives the event under
    /// pmcast.
    pub spurious_pmcast: f64,
    /// The same probability under the flooding broadcast baseline (for
    /// contrast; the paper discusses it qualitatively in Section 1).
    pub spurious_flooding: f64,
}

impl FigureRow for SpuriousRow {
    fn headers() -> Vec<&'static str> {
        vec!["matching_rate", "spurious_pmcast", "spurious_flooding"]
    }
    fn values(&self) -> Vec<f64> {
        vec![self.matching_rate, self.spurious_pmcast, self.spurious_flooding]
    }
}

/// Runs the Figure 5 sweep for the given profile.
pub fn run(profile: Profile) -> Vec<SpuriousRow> {
    let base = profile.reliability_base();
    profile
        .matching_rates()
        .into_iter()
        .map(|matching_rate| {
            let pmcast = aggregate(&base, matching_rate, Protocol::Pmcast);
            let flooding = aggregate(&base, matching_rate, Protocol::FloodBroadcast);
            SpuriousRow {
                matching_rate,
                spurious_pmcast: pmcast.spurious_mean,
                spurious_flooding: flooding.spurious_mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmcast_touches_far_fewer_uninterested_processes_than_flooding() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), Profile::Quick.matching_rates().len());
        for row in &rows {
            // pmcast's spurious reception stays well below flooding.  The
            // paper's Figure 5 peaks around 0.12 at a = 22 (delegate density
            // R/a = 3/22); the quick profile runs at a = 6 where half of
            // every subgroup are delegates, so its structural ceiling is
            // near R/a = 0.5 — hence the looser bound here.
            assert!(
                row.spurious_pmcast < 0.6,
                "pmcast spurious reception {} too high at p_d = {}",
                row.spurious_pmcast,
                row.matching_rate
            );
            assert!(
                row.spurious_flooding > row.spurious_pmcast,
                "flooding should reach more uninterested processes (p_d = {})",
                row.matching_rate
            );
        }
        // Flooding is essentially a broadcast.
        assert!(rows.iter().any(|r| r.spurious_flooding > 0.9));
    }
}
