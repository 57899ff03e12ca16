//! Integration of the analysis toolkit with the mitigation policies: the
//! "measure, then act" loop an operations team would run.

use failmitigate::{
    default_proactive_ttr, evaluate_policy, evaluate_proactive, AllocationPolicy, CheckpointPlan,
    Predictor, SlotRiskModel, SparePolicy,
};
use failscope::{StreamView, TbfAnalysis, TtrAnalysis};
use failsim::{Simulator, SystemModel};
use failtypes::ComponentClass;

#[test]
fn measured_mtbf_drives_checkpoint_intervals_across_generations() {
    let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("valid");
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
    let p2 = CheckpointPlan::from_index(&StreamView::new(&t2), 0.25).expect("valid MTBF");
    let p3 = CheckpointPlan::from_index(&StreamView::new(&t3), 0.25).expect("valid MTBF");

    // The interval scales with sqrt(MTBF): the 4.7x MTBF gain buys ~2.2x
    // longer intervals.
    let ratio = p3.daly_interval_hours() / p2.daly_interval_hours();
    assert!((ratio - (p3.mtbf_hours() / p2.mtbf_hours()).sqrt()).abs() < 0.2);

    // And strictly better efficiency at the optimum.
    assert!(
        p3.efficiency(p3.daly_interval_hours()) > p2.efficiency(p2.daly_interval_hours()) + 0.05
    );
}

#[test]
fn spare_pools_follow_measured_class_rates() {
    let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("valid");
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
    let lead = 14.0 * 24.0;
    let gpus_t2 = SparePolicy::from_index(&StreamView::new(&t2), ComponentClass::Gpu, lead)
        .expect("GPUs fail")
        .required_spares(0.05);
    let gpus_t3 = SparePolicy::from_index(&StreamView::new(&t3), ComponentClass::Gpu, lead)
        .expect("GPUs fail")
        .required_spares(0.05);
    // Tsubame-2's much higher GPU failure rate demands a larger pool.
    assert!(
        gpus_t2 > 2 * gpus_t3,
        "T2 spares {gpus_t2} vs T3 spares {gpus_t3}"
    );
}

#[test]
fn slot_risk_scheduling_uses_measured_fig5_skew() {
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
    let model = SlotRiskModel::from_index(&StreamView::new(&t3)).expect("slot data");
    let jobs: Vec<(usize, f64)> = (0..300).map(|i| (1 + i % 3, 48.0)).collect();

    let first_fit = evaluate_policy(&model, AllocationPolicy::FirstFit, &jobs);
    let risk_aware = evaluate_policy(&model, AllocationPolicy::RiskAware, &jobs);
    let round_robin = evaluate_policy(&model, AllocationPolicy::RoundRobin, &jobs);

    // Risk-aware wins on interruption probability; round-robin wins on
    // balance; first-fit wins on nothing.
    assert!(
        risk_aware.mean_interruption_probability < first_fit.mean_interruption_probability
    );
    assert!(round_robin.max_slot_load_share < first_fit.max_slot_load_share);
}

#[test]
fn proactive_recovery_attacks_the_stagnant_mttr() {
    // The paper's closing argument: MTBF improved 4x across generations
    // but MTTR did not. Show that prediction-triggered proactive recovery
    // moves the needle the hardware refresh did not.
    let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("valid");
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");

    let mttr2 = TtrAnalysis::from_index(&StreamView::new(&t2)).expect("non-empty").mttr_hours();
    let mttr3 = TtrAnalysis::from_index(&StreamView::new(&t3)).expect("non-empty").mttr_hours();
    let generation_gain = 1.0 - mttr3 / mttr2;
    assert!(generation_gain.abs() < 0.2, "hardware refresh barely moved MTTR");

    let predictor = Predictor::new(0.6, 0.85).expect("valid rates");
    let outcome = evaluate_proactive(&t3, predictor, default_proactive_ttr, 4.0)
        .expect("non-empty");
    assert!(
        outcome.mttr_reduction() > 0.4,
        "proactive recovery cuts MTTR by {:.0}%",
        outcome.mttr_reduction() * 100.0
    );
    assert!(outcome.net_hours_saved() > 0.0);
}

#[test]
fn trend_scenarios_are_detected_by_the_trend_test() {
    // Close the loop: a wear-out scenario generated by the simulator is
    // flagged by the Laplace trend test, a burn-in scenario by its
    // decreasing variant, and the calibrated stationary models by
    // neither.
    use failsim::ScenarioBuilder;

    let wear_out = ScenarioBuilder::new("wear-out")
        .window_days(365)
        .system_mtbf_hours(20.0)
        .reliability_trend(0.4, 2.5)
        .build()
        .expect("valid scenario");
    let log = Simulator::new(wear_out, 31).generate().expect("generates");
    let trend = failscope::laplace_trend(&log).expect("enough failures");
    assert!(trend.increasing_at(0.01), "U = {}", trend.u);

    let burn_in = ScenarioBuilder::new("burn-in")
        .window_days(365)
        .system_mtbf_hours(20.0)
        .reliability_trend(2.5, 0.4)
        .build()
        .expect("valid scenario");
    let log = Simulator::new(burn_in, 32).generate().expect("generates");
    let trend = failscope::laplace_trend(&log).expect("enough failures");
    assert!(trend.decreasing_at(0.01), "U = {}", trend.u);

    // Degenerate trend factors are rejected.
    assert!(ScenarioBuilder::new("bad")
        .reliability_trend(0.0, 1.0)
        .build()
        .is_none());
}

#[test]
fn mitigation_consumes_serialized_logs() {
    // The full operational loop: archive the log, reload it later, plan.
    let log = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
    let text = faillog::to_string(&log).expect("serializes");
    let parsed = faillog::from_str(&text).expect("parses");

    let view = StreamView::new(&parsed);
    let tbf = TbfAnalysis::from_index(&view).expect("analysable");
    let plan = CheckpointPlan::new(tbf.mtbf_hours(), 0.25).expect("valid");
    let plan_direct = CheckpointPlan::from_index(&StreamView::new(&log), 0.25).expect("valid");
    assert_eq!(plan.daly_interval_hours(), plan_direct.daly_interval_hours());
}
