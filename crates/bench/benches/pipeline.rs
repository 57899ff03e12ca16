//! Microbenchmarks of the building blocks behind the figures: log
//! generation, serialization, the analysis kernels, and the statistics
//! substrate.
//!
//! Run with `cargo bench -p failbench --bench pipeline`.

use criterion::{criterion_group, criterion_main, Criterion};
use failbench::{experiments, runner};
use failscope::{
    per_category_tbf, per_category_ttr, per_category_ttr_index, AvailabilityAnalysis,
    CategoryBreakdown, NodeDistribution, SeasonalAnalysis, StreamView, TbfAnalysis, TtrAnalysis,
};
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failstats::{bootstrap_ci, bootstrap_ci_parallel, fit, ks_test_dist, ContinuousDist, Ecdf};
use std::hint::black_box;
use std::time::Duration;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.bench_function("tsubame2_log", |b| {
        b.iter(|| {
            Simulator::new(SystemModel::tsubame2(), black_box(42))
                .generate()
                .expect("valid model")
        })
    });
    group.bench_function("tsubame3_log", |b| {
        b.iter(|| {
            Simulator::new(SystemModel::tsubame3(), black_box(43))
                .generate()
                .expect("valid model")
        })
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // How generation cost scales with the failure count (fixed window,
    // decreasing MTBF) and with the fleet size.
    let mut group = c.benchmark_group("scaling");
    for failures in [1_000u32, 10_000, 50_000] {
        let mtbf = 365.0 * 24.0 / failures as f64;
        group.bench_function(format!("generate_{failures}_failures"), |b| {
            let model = ScenarioBuilder::new("scale")
                .window_days(365)
                .system_mtbf_hours(mtbf)
                .build()
                .expect("valid scenario");
            b.iter(|| {
                Simulator::new(model.clone(), black_box(1))
                    .generate()
                    .expect("valid model")
            })
        });
    }
    for nodes in [1_000u32, 10_000, 100_000] {
        group.bench_function(format!("generate_{nodes}_node_fleet"), |b| {
            let model = ScenarioBuilder::new("fleet")
                .nodes(nodes)
                .window_days(120)
                .system_mtbf_hours(10.0)
                .build()
                .expect("valid scenario");
            b.iter(|| {
                Simulator::new(model.clone(), black_box(2))
                    .generate()
                    .expect("valid model")
            })
        });
    }
    group.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let log = Simulator::new(SystemModel::tsubame2(), 42)
        .generate()
        .expect("valid model");
    let text = faillog::to_string(&log).expect("serializes");
    let mut group = c.benchmark_group("faillog");
    group.bench_function("write_897_records", |b| {
        b.iter(|| faillog::to_string(black_box(&log)).expect("serializes"))
    });
    group.bench_function("parse_897_records", |b| {
        b.iter(|| faillog::from_str(black_box(&text)).expect("parses"))
    });
    group.bench_function("anonymize_897_records", |b| {
        b.iter(|| faillog::anonymize_nodes(black_box(&log), black_box(7)))
    });
    group.finish();
}

fn bench_analyses(c: &mut Criterion) {
    let log = Simulator::new(SystemModel::tsubame2(), 42)
        .generate()
        .expect("valid model");
    let view = StreamView::new(&log);
    let mut group = c.benchmark_group("analysis");
    group.bench_function("category_breakdown", |b| {
        b.iter(|| CategoryBreakdown::from_index(black_box(&view)))
    });
    group.bench_function("node_distribution", |b| {
        b.iter(|| NodeDistribution::from_index(black_box(&view)))
    });
    group.bench_function("tbf_analysis", |b| {
        b.iter(|| TbfAnalysis::from_index(black_box(&view)).expect("897 failures"))
    });
    group.bench_function("ttr_analysis", |b| {
        b.iter(|| TtrAnalysis::from_index(black_box(&view)).expect("non-empty"))
    });
    group.bench_function("per_category_ttr", |b| {
        b.iter(|| per_category_ttr_index(black_box(&view)))
    });
    group.bench_function("seasonal_analysis", |b| {
        b.iter(|| SeasonalAnalysis::from_index(black_box(&view)))
    });
    group.bench_function("full_report", |b| {
        b.iter(|| failscope::render_report(black_box(&log)))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let log = Simulator::new(SystemModel::tsubame2(), 42)
        .generate()
        .expect("valid model");
    let mut group = c.benchmark_group("engine");

    // Build every per-analysis index once...
    group.bench_function("logview_build", |b| {
        b.iter(|| StreamView::new(black_box(&log)))
    });
    // ...versus each analysis re-indexing the raw log on its own.
    group.bench_function("resort_per_analysis", |b| {
        b.iter(|| {
            let log = black_box(&log);
            (
                TtrAnalysis::from_index(&StreamView::new(log)),
                TbfAnalysis::from_index(&StreamView::new(log)),
                per_category_ttr(log),
                per_category_tbf(log, 5),
                AvailabilityAnalysis::from_index(&StreamView::new(log)),
                SeasonalAnalysis::from_index(&StreamView::new(log)),
            )
        })
    });

    // View-backed report vs. the same report re-deriving everything.
    group.bench_function("report_via_view", |b| {
        b.iter(|| failscope::render_report(black_box(&log)))
    });

    group.finish();
}

fn bench_repro_pipeline(c: &mut Criterion) {
    // The full experiment catalog, serial vs. parallel. Logs are warmed
    // in the shared LogStore first so this isolates analysis/runner cost
    // (the cold-start comparison is `repro bench`).
    let catalog = experiments::catalog();
    let threads = failstats::available_threads();
    let _ = runner::run_catalog_with(&catalog, 1); // warm the store
    let mut group = c.benchmark_group("repro_pipeline");
    group.bench_function("pipeline_serial", |b| {
        b.iter(|| runner::run_catalog_with(black_box(&catalog), 1))
    });
    group.bench_function(format!("pipeline_parallel_{threads}t"), |b| {
        b.iter(|| runner::run_catalog_with(black_box(&catalog), threads))
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    use rand::SeedableRng;
    let truth = failstats::Weibull::new(1.4, 70.0).expect("valid params");
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let sample: Vec<f64> = (0..2000).map(|_| truth.sample(&mut rng)).collect();

    let mut group = c.benchmark_group("stats");
    group.bench_function("ecdf_build_2k", |b| {
        b.iter(|| Ecdf::new(black_box(sample.clone())).expect("non-empty"))
    });
    group.bench_function("weibull_mle_2k", |b| {
        b.iter(|| fit::fit_weibull(black_box(&sample)).expect("converges"))
    });
    group.bench_function("gamma_mle_2k", |b| {
        b.iter(|| fit::fit_gamma(black_box(&sample)).expect("converges"))
    });
    group.bench_function("ks_test_2k", |b| {
        b.iter(|| ks_test_dist(black_box(&sample), black_box(&truth)).expect("non-empty"))
    });
    let mean_stat = |d: &[f64]| d.iter().sum::<f64>() / d.len() as f64;
    group.bench_function("bootstrap_serial_500", |b| {
        b.iter(|| bootstrap_ci(black_box(&sample), mean_stat, 500, 0.95, 1).expect("valid"))
    });
    group.bench_function("bootstrap_parallel_500x4", |b| {
        b.iter(|| {
            bootstrap_ci_parallel(black_box(&sample), mean_stat, 500, 0.95, 1, 4).expect("valid")
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
    targets = bench_generation, bench_scaling, bench_serialization, bench_analyses,
        bench_engine, bench_repro_pipeline, bench_stats
}
criterion_main!(benches);
