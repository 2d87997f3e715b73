//! **Baseline comparison** (Section 1 / 3.1) — pmcast versus gossip
//! broadcast with filtering on delivery and versus genuine multicast, on
//! delivery reliability, spurious reception and network cost.

use serde::{Deserialize, Serialize};

use crate::report::FigureRow;
use crate::runner::Protocol;

use super::{aggregate, Profile};

/// One protocol's aggregate behaviour at one matching rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Protocol identifier: 0 = pmcast, 1 = flooding broadcast, 2 = genuine
    /// multicast.
    pub protocol: f64,
    /// Fraction of interested processes.
    pub matching_rate: f64,
    /// Delivery probability for interested processes.
    pub delivery: f64,
    /// Reception probability for uninterested processes.
    pub spurious: f64,
    /// Mean gossip messages per multicast.
    pub messages: f64,
    /// Mean rounds to quiescence.
    pub rounds: f64,
}

impl FigureRow for BaselineRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "protocol",
            "matching_rate",
            "delivery",
            "spurious",
            "messages",
            "rounds",
        ]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.protocol,
            self.matching_rate,
            self.delivery,
            self.spurious,
            self.messages,
            self.rounds,
        ]
    }
}

/// Numeric identifiers used in the `protocol` column.
pub const PROTOCOL_PMCAST: f64 = 0.0;
/// Flooding broadcast identifier.
pub const PROTOCOL_FLOODING: f64 = 1.0;
/// Genuine multicast identifier.
pub const PROTOCOL_GENUINE: f64 = 2.0;

/// Runs the baseline comparison for the given profile at matching rates
/// 0.2 and 0.5.
pub fn run(profile: Profile) -> Vec<BaselineRow> {
    let base = profile.reliability_base();
    let mut rows = Vec::new();
    for &matching_rate in &[0.2, 0.5] {
        for (id, kind) in [
            (PROTOCOL_PMCAST, Protocol::Pmcast),
            (PROTOCOL_FLOODING, Protocol::FloodBroadcast),
            (PROTOCOL_GENUINE, Protocol::GenuineMulticast),
        ] {
            let outcome = aggregate(&base, matching_rate, kind);
            rows.push(BaselineRow {
                protocol: id,
                matching_rate,
                delivery: outcome.delivery_mean,
                spurious: outcome.spurious_mean,
                messages: outcome.messages_mean,
                rounds: outcome.rounds_mean,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmcast_sits_between_flooding_and_genuine_multicast() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), 6);
        for matching_rate in [0.2, 0.5] {
            let find = |proto: f64| {
                rows.iter()
                    .find(|r| r.protocol == proto && (r.matching_rate - matching_rate).abs() < 1e-9)
                    .unwrap()
            };
            let pmcast = find(PROTOCOL_PMCAST);
            let flooding = find(PROTOCOL_FLOODING);
            let genuine = find(PROTOCOL_GENUINE);

            // All three deliver reliably to interested processes.
            assert!(pmcast.delivery > 0.7, "pmcast delivery {}", pmcast.delivery);
            assert!(flooding.delivery > 0.9);
            assert!(genuine.delivery > 0.7);

            // Spurious reception: flooding ≫ pmcast ≥ genuine (= 0).
            assert!(flooding.spurious > pmcast.spurious);
            assert!(pmcast.spurious + 1e-9 >= genuine.spurious);
            assert_eq!(genuine.spurious, 0.0);

            // Network cost: flooding costs more than pmcast at partial interest.
            assert!(
                flooding.messages > pmcast.messages,
                "flooding {} vs pmcast {} messages at rate {}",
                flooding.messages,
                pmcast.messages,
                matching_rate
            );
        }
    }
}
