//! **Figure 6** — delivery probability as the group grows: the subgroup
//! size `a` is swept (so `n = a³` grows cubically) with `d = 3`, `R = 4`,
//! `F = 3`, for matching rates 0.5 and 0.2.
//!
//! The paper's claim is that the delivery probability stays above ≈ 0.9
//! across the sweep, slightly lower for the smaller matching rate.

use serde::{Deserialize, Serialize};

use crate::report::FigureRow;
use crate::runner::Protocol;

use super::{aggregate, Profile};

/// One data point of Figure 6 (one subgroup size, both matching rates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalabilityRow {
    /// Subgroup size `a` (the x-axis); the group has `a³` processes.
    pub arity: f64,
    /// Total group size `n = a³`.
    pub group_size: f64,
    /// Delivery probability at matching rate 0.5.
    pub delivery_rate_05: f64,
    /// Delivery probability at matching rate 0.2.
    pub delivery_rate_02: f64,
}

impl FigureRow for ScalabilityRow {
    fn headers() -> Vec<&'static str> {
        vec!["arity", "group_size", "delivery_rate_05", "delivery_rate_02"]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.arity,
            self.group_size,
            self.delivery_rate_05,
            self.delivery_rate_02,
        ]
    }
}

/// Runs the Figure 6 sweep for the given profile.
pub fn run(profile: Profile) -> Vec<ScalabilityRow> {
    profile
        .arities()
        .into_iter()
        .map(|arity| {
            let base = profile.scalability_base(arity);
            let at_half = aggregate(&base, 0.5, Protocol::Pmcast);
            let at_fifth = aggregate(&base, 0.2, Protocol::Pmcast);
            ScalabilityRow {
                arity: arity as f64,
                group_size: base.capacity() as f64,
                delivery_rate_05: at_half.delivery_mean,
                delivery_rate_02: at_fifth.delivery_mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_stays_high_as_the_group_grows() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), Profile::Quick.arities().len());
        for row in &rows {
            assert!(
                row.delivery_rate_05 > 0.85,
                "a = {}: delivery at rate 0.5 is only {}",
                row.arity,
                row.delivery_rate_05
            );
            assert!(
                row.delivery_rate_02 > 0.6,
                "a = {}: delivery at rate 0.2 is only {}",
                row.arity,
                row.delivery_rate_02
            );
        }
        // Group size really grows cubically along the sweep.
        assert!(rows.last().unwrap().group_size > rows.first().unwrap().group_size);
    }
}
