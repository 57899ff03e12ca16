//! End-to-end integration: generate → serialize → parse → analyze, across
//! every crate in the workspace.

use failscope::{
    CategoryBreakdown, InvolvementTable, NodeDistribution, SeasonalAnalysis, StreamView,
    TbfAnalysis, TtrAnalysis,
};
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::{FailureLog, Generation};

fn generate(gen: Generation, seed: u64) -> FailureLog {
    Simulator::new(SystemModel::for_generation(gen), seed)
        .generate()
        .expect("calibrated models generate valid logs")
}

#[test]
fn generate_serialize_parse_analyze_roundtrip() {
    for (gen, seed) in [(Generation::Tsubame2, 42), (Generation::Tsubame3, 43)] {
        let log = generate(gen, seed);

        // Serialize to text and back.
        let text = faillog::to_string(&log).expect("serializes");
        let parsed = faillog::from_str(&text).expect("parses");
        assert_eq!(parsed, log, "round trip must be lossless");

        // Every analysis yields identical results on the parsed copy.
        let a = CategoryBreakdown::from_index(&StreamView::new(&log));
        let b = CategoryBreakdown::from_index(&StreamView::new(&parsed));
        assert_eq!(a, b);
        let (va, vb) = (StreamView::new(&log), StreamView::new(&parsed));
        let a = TbfAnalysis::from_index(&va).expect("analysable");
        let b = TbfAnalysis::from_index(&vb).expect("analysable");
        assert_eq!(a.mtbf_hours(), b.mtbf_hours());
        assert_eq!(a.p75_hours(), b.p75_hours());
    }
}

#[test]
fn file_roundtrip_through_disk() {
    let log = generate(Generation::Tsubame3, 7);
    let dir = std::env::temp_dir().join("failsuite-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.fslog");
    faillog::save(&path, &log).expect("saves");
    let loaded = faillog::load(&path).expect("loads");
    assert_eq!(loaded, log);
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn anonymization_preserves_every_aggregate_analysis() {
    let log = generate(Generation::Tsubame2, 42);
    let anon = faillog::anonymize_nodes(&log, 0xABCD);

    // Node-identity-independent analyses are bit-identical.
    assert_eq!(
        CategoryBreakdown::from_index(&StreamView::new(&log)),
        CategoryBreakdown::from_index(&StreamView::new(&anon))
    );
    assert_eq!(
        InvolvementTable::from_index(&StreamView::new(&log)),
        InvolvementTable::from_index(&StreamView::new(&anon))
    );
    assert_eq!(
        TtrAnalysis::from_index(&StreamView::new(&log)).expect("non-empty").mttr_hours(),
        TtrAnalysis::from_index(&StreamView::new(&anon)).expect("non-empty").mttr_hours()
    );
    assert_eq!(
        SeasonalAnalysis::from_index(&StreamView::new(&log)).monthly_failure_counts(),
        SeasonalAnalysis::from_index(&StreamView::new(&anon)).monthly_failure_counts()
    );

    // Node-level distribution is preserved as a multiset.
    let d1 = NodeDistribution::from_index(&StreamView::new(&log));
    let d2 = NodeDistribution::from_index(&StreamView::new(&anon));
    assert_eq!(d1.failing_nodes(), d2.failing_nodes());
    assert_eq!(d1.histogram(), d2.histogram());
}

#[test]
fn what_if_scenario_flows_through_the_whole_stack() {
    let model = ScenarioBuilder::new("integration-what-if")
        .nodes(128)
        .gpus_per_node(6)
        .system_mtbf_hours(36.0)
        .window_days(400)
        .multi_gpu_fraction(0.3)
        .build()
        .expect("valid scenario");
    let log = Simulator::new(model, 99).generate().expect("generates");

    // Serialize/parse with a custom spec.
    let text = faillog::to_string(&log).expect("serializes");
    let parsed = faillog::from_str(&text).expect("parses");
    assert_eq!(parsed.spec().gpus_per_node(), 6);
    assert_eq!(parsed, log);

    // Analyses run and are self-consistent.
    let view = StreamView::new(&parsed);
    let tbf = TbfAnalysis::from_index(&view).expect("many failures");
    assert!((tbf.mtbf_hours() - 36.0).abs() < 2.0);
    let inv = InvolvementTable::from_index(&StreamView::new(&parsed));
    assert!(inv.rows().iter().all(|r| r.gpus <= 6));
    let multi = inv.multi_gpu_fraction();
    assert!((multi - 0.3).abs() < 0.08, "multi fraction {multi}");

    // Mitigation consumes the same log.
    let plan = failmitigate::CheckpointPlan::from_index(&StreamView::new(&parsed), 0.2)
        .expect("valid MTBF");
    assert!(plan.daly_interval_hours() > 1.0);
}

#[test]
fn filtered_views_stay_consistent_with_full_log() {
    let log = generate(Generation::Tsubame3, 43);
    let gpu_only = log.filtered(|r| r.category().is_gpu());
    assert_eq!(gpu_only.len(), 94);
    // Category breakdown of the filtered log is 100% GPU.
    let b = CategoryBreakdown::from_index(&StreamView::new(&gpu_only));
    assert!((b.gpu_fraction() - 1.0).abs() < 1e-12);
    // The filtered log serializes and parses like any other.
    let text = faillog::to_string(&gpu_only).expect("serializes");
    let parsed = faillog::from_str(&text).expect("parses");
    assert_eq!(parsed.len(), 94);
}

#[test]
fn determinism_across_the_full_pipeline() {
    let once = faillog::to_string(&generate(Generation::Tsubame2, 5)).expect("serializes");
    let twice = faillog::to_string(&generate(Generation::Tsubame2, 5)).expect("serializes");
    assert_eq!(once, twice, "same seed, same bytes");
    let other = faillog::to_string(&generate(Generation::Tsubame2, 6)).expect("serializes");
    assert_ne!(once, other, "different seed, different log");
}
