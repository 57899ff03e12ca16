//! Benchmarks of the mitigation policies built on top of the analyses:
//! checkpoint planning, spare-pool simulation, slot-aware scheduling, and
//! proactive-recovery evaluation.
//!
//! Run with `cargo bench -p failbench --bench mitigation`.

use criterion::{criterion_group, criterion_main, Criterion};
use failmitigate::{
    default_proactive_ttr, evaluate_policy, evaluate_proactive, simulate_inventory,
    AllocationPolicy, CheckpointPlan, Predictor, SlotRiskModel, SparePolicy,
};
use failscope::StreamView;
use failsim::{Simulator, SystemModel};
use failtypes::ComponentClass;
use std::hint::black_box;
use std::time::Duration;

fn bench_mitigation(c: &mut Criterion) {
    let log = Simulator::new(SystemModel::tsubame3(), 43)
        .generate()
        .expect("valid model");
    let view = StreamView::new(&log);

    let mut group = c.benchmark_group("mitigation");
    group.bench_function("checkpoint_plan_from_log", |b| {
        b.iter(|| {
            let plan = CheckpointPlan::from_index(black_box(&view), 0.25).expect("valid");
            black_box(plan.daly_interval_hours())
        })
    });

    let policy =
        SparePolicy::from_index(&view, ComponentClass::Gpu, 14.0 * 24.0).expect("GPUs fail");
    group.bench_function("spare_inventory_sim_1y", |b| {
        b.iter(|| simulate_inventory(black_box(policy), 4, 8760.0, black_box(7)))
    });

    let risk = SlotRiskModel::from_index(&view).expect("slot data");
    let jobs: Vec<(usize, f64)> = (0..500).map(|i| (1 + i % 4, 24.0)).collect();
    group.bench_function("scheduler_policy_eval_500_jobs", |b| {
        b.iter(|| {
            evaluate_policy(
                black_box(&risk),
                AllocationPolicy::RiskAware,
                black_box(&jobs),
            )
        })
    });

    let predictor = Predictor::new(0.6, 0.85).expect("valid rates");
    group.bench_function("proactive_recovery_eval", |b| {
        b.iter(|| {
            evaluate_proactive(
                black_box(&log),
                black_box(predictor),
                default_proactive_ttr,
                4.0,
            )
            .expect("non-empty")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_mitigation
}
criterion_main!(benches);
