//! Cross-validation of the two halves of the reproduction: the analytical
//! model of Section 4 (pmcast-analysis) against the Monte-Carlo protocol
//! simulation (pmcast-core + pmcast-simnet), on small groups where both are
//! cheap to evaluate.

use pmcast::analysis::churn::ChurnProfile;
use pmcast::analysis::decentralized::{DecentralizedModel, ProviderShape};
use pmcast::analysis::markov::InfectionChain;
use pmcast::analysis::pittel;
use pmcast::analysis::tree::TreeModel;
use pmcast::analysis::views::view_size_report;
use pmcast::sim::experiments::Profile;
use pmcast::sim::runner::AggregateOutcome;
use pmcast::{
    predict, EnvParams, Event, GroupParams, MembershipSpec, Protocol, Publisher, Scenario,
};

/// Runs every pmcast trial of the scenario and aggregates them.
fn simulate(scenario: &Scenario) -> AggregateOutcome {
    AggregateOutcome::from_trials(&scenario.run(Protocol::Pmcast))
}

#[test]
fn simulation_and_model_agree_at_comfortable_matching_rates() {
    let scenario = Scenario {
        trials: 4,
        seed: 2024,
        ..Profile::Quick.reliability_base()
    };
    let model = TreeModel::new(
        GroupParams {
            arity: scenario.arity,
            depth: scenario.depth,
            redundancy: scenario.protocol.redundancy,
            fanout: scenario.protocol.fanout,
        },
        scenario.protocol.env,
    );
    for matching_rate in [0.4, 0.6, 0.9] {
        let simulated = simulate(&Scenario {
            matching_rate,
            ..scenario.clone()
        });
        let predicted = model.reliability(matching_rate);
        // The model is deliberately pessimistic (Section 4.3 neglects that a
        // depth usually starts with all R delegates already infected), so it
        // may under-predict the simulation by a noticeable margin but must
        // stay in the same regime and never over-promise by much.
        assert!(
            simulated.delivery_mean - predicted.reliability_degree > -0.1,
            "p_d = {matching_rate}: model over-promises ({} vs simulated {})",
            predicted.reliability_degree,
            simulated.delivery_mean
        );
        assert!(
            (simulated.delivery_mean - predicted.reliability_degree).abs() < 0.25,
            "p_d = {matching_rate}: simulated {} vs predicted {}",
            simulated.delivery_mean,
            predicted.reliability_degree
        );
        // Both halves agree delivery is likely (the pessimistic model with a
        // slightly lower bar).
        assert!(simulated.delivery_mean > 0.85);
        assert!(predicted.reliability_degree > 0.75);
    }
}

#[test]
fn both_halves_show_the_small_rate_degradation() {
    // The loss of reliability for very small matching rates (Section 5.1 /
    // 5.3) must be visible in the analysis and in the simulation alike.
    let scenario = Scenario {
        trials: 4,
        seed: 7,
        ..Profile::Quick.reliability_base()
    };
    let model = TreeModel::new(
        GroupParams {
            arity: scenario.arity,
            depth: scenario.depth,
            redundancy: scenario.protocol.redundancy,
            fanout: scenario.protocol.fanout,
        },
        scenario.protocol.env,
    );
    let tiny_sim = simulate(&Scenario {
        matching_rate: 0.03,
        ..scenario.clone()
    });
    let comfy_sim = simulate(&Scenario {
        matching_rate: 0.6,
        ..scenario.clone()
    });
    assert!(tiny_sim.delivery_mean < comfy_sim.delivery_mean);
    let tiny_model = model.reliability(0.03).reliability_degree;
    let comfy_model = model.reliability(0.6).reliability_degree;
    assert!(tiny_model < comfy_model);
}

#[test]
fn pittel_budget_matches_the_exact_markov_chain() {
    // Pittel's asymptote (used by the protocol) and the exact chain (used by
    // the analysis) must agree that the budgeted number of rounds infects
    // nearly the whole group, across a range of sizes and fanouts.
    let env = EnvParams::lossless();
    for &(n, fanout) in &[(30usize, 2.0f64), (100, 2.0), (100, 4.0), (400, 3.0)] {
        let budget = pittel::round_budget(n as f64, fanout, &env);
        let mut chain = InfectionChain::new(n, fanout, &env);
        chain.run(budget);
        let infected = chain.expected_infected();
        assert!(
            infected > 0.93 * n as f64,
            "n = {n}, F = {fanout}: {infected:.1} infected after {budget} rounds"
        );
    }
}

#[test]
fn losses_shift_both_the_budget_and_the_chain_consistently() {
    let clean = EnvParams::lossless();
    let lossy = EnvParams {
        loss_probability: 0.3,
        crash_probability: 0.02,
        pittel_constant: 1.0,
    };
    let budget_clean = pittel::round_budget(200.0, 3.0, &clean);
    let budget_lossy = pittel::round_budget(200.0, 3.0, &lossy);
    assert!(budget_lossy > budget_clean);

    // Running the lossy chain for the lossy budget still succeeds.
    let mut chain = InfectionChain::new(200, 3.0, &lossy);
    chain.run(budget_lossy);
    assert!(chain.expected_infected() > 0.9 * 200.0);
}

#[test]
fn view_size_model_matches_group_parameters() {
    // Eq. 2/12 against the GroupParams helper: the analytical view size for
    // the paper's configuration and the group size must be consistent.
    let group = GroupParams {
        arity: 22,
        depth: 3,
        redundancy: 3,
        fanout: 2,
    };
    let report = view_size_report(group.arity, group.depth, group.redundancy);
    assert_eq!(report.group_size, group.group_size());
    assert_eq!(report.tree_view_size, 154);
    assert!(report.reduction_factor > 60.0);
}

#[test]
fn provider_and_churn_matrix_stays_within_model_tolerance() {
    // The closed loop of invariant 9, as a matrix: {global oracle, paper
    // delegate tables, lpbcast-style flat views} × {static, 10% graceful
    // leaves} at the quick scale (n = 216), each simulated cell within 0.1
    // of its provider- and churn-aware model prediction.
    //
    // Global and delegate go through the scenario-level `predict` (the same
    // entry point the sweeps gate on).  The flat view (ℓ = 42, the delegate
    // table size) sits below the prediction module's paper-scale domain
    // floor, so that row exercises `DecentralizedModel` directly — the
    // fixed-sample percolation model itself, without the domain gate.
    let (arity, depth) = (6u32, 3usize);
    let n = (arity as usize).pow(depth as u32);
    let flat_entries = 42; // R·a·(d−1) + a for R = 3: the delegate bound.

    // The churn_sweep leave schedule: `rate·n` distinct leavers spread
    // evenly over the index space, unsubscribing at rounds 2..=6.
    let leavers = |rate: f64| -> Vec<(u64, usize)> {
        let count = (rate * n as f64).round() as usize;
        (0..count)
            .map(|i| (2 + (i % 5) as u64, (i * n) / count.max(1)))
            .collect()
    };
    let scenario_for = |membership: MembershipSpec, churn: f64| -> Scenario {
        let mut builder = Scenario::builder()
            .group(arity, depth)
            .matching_rate(0.5)
            .loss(0.01)
            .membership(membership)
            .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
            .trials(3)
            .seed(42);
        for (round, process) in leavers(churn) {
            builder = builder.leave_at(round, process);
        }
        builder.build()
    };
    let simulate = |scenario: &Scenario| -> f64 {
        let outcomes = scenario.run_parallel(Protocol::Pmcast);
        outcomes.iter().map(|o| o.report.delivery_ratio()).sum::<f64>() / outcomes.len() as f64
    };
    // The model-side churn profile for the same schedule: per-round departed
    // fractions, offsets relative to the round-0 publish.
    let churn_profile = |churn: f64| -> ChurnProfile {
        let mut per_round = std::collections::BTreeMap::new();
        for (round, _) in leavers(churn) {
            *per_round.entry(round as u32).or_insert(0.0) += 1.0 / n as f64;
        }
        ChurnProfile::from_departures(per_round)
    };

    const TOLERANCE: f64 = 0.1;
    for churn in [0.0, 0.10] {
        // Global and delegate: the scenario-level prediction is in-domain
        // and must track the simulation.
        for membership in [MembershipSpec::Global, MembershipSpec::delegate(3)] {
            let scenario = scenario_for(membership, churn);
            let prediction = predict(&scenario);
            assert!(
                prediction.in_domain,
                "{membership:?} at churn {churn} should be inside the model domain"
            );
            let simulated = simulate(&scenario);
            assert!(
                (simulated - prediction.reliability).abs() < TOLERANCE,
                "{membership:?} churn {churn}: simulated {simulated:.4} vs \
                 predicted {:.4}",
                prediction.reliability
            );
        }

        // Flat views: quick scale is outside `predict`'s trust region, so
        // compare against the percolation model directly.
        let scenario = scenario_for(MembershipSpec::partial(flat_entries), churn);
        assert!(!predict(&scenario).in_domain, "quick-scale flat views are out of domain");
        let simulated = simulate(&scenario);
        let group = GroupParams { arity, depth, redundancy: 3, fanout: 2 };
        let modeled = DecentralizedModel::new(
            group,
            scenario.protocol.env,
            ProviderShape::Partial { view_size: flat_entries },
        )
        .with_churn(churn_profile(churn))
        .predict(0.5);
        assert!(
            (simulated - modeled.reliability).abs() < TOLERANCE,
            "flat ℓ={flat_entries} churn {churn}: simulated {simulated:.4} vs \
             modeled {:.4}",
            modeled.reliability
        );
    }
}

#[test]
fn simulated_rounds_never_exceed_the_total_budget_by_much() {
    let scenario = Profile::Quick.reliability_base();
    let model = TreeModel::new(
        GroupParams {
            arity: scenario.arity,
            depth: scenario.depth,
            redundancy: scenario.protocol.redundancy,
            fanout: scenario.protocol.fanout,
        },
        scenario.protocol.env,
    );
    let outcome = simulate(&scenario);
    let budget = model.total_rounds(0.5) as f64;
    // One extra round per depth for promotion plus one trailing round.
    let slack = scenario.depth as f64 + 2.0;
    assert!(
        outcome.rounds_mean <= budget + slack,
        "simulation took {} rounds, budget {budget}",
        outcome.rounds_mean
    );
}
