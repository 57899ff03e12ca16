//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function generates the calibrated logs (canonical seeds 42/43),
//! runs the corresponding `failscope` analysis, and returns an
//! [`Experiment`] with the regenerated rows/series and the
//! paper-vs-measured checks. `EXPERIMENTS.md` is the rendered archive of
//! exactly this output.

use failscope::{
    class_mtbf_hours, per_category_tbf, per_category_ttr, CategoryBreakdown, InvolvementTable,
    LocusBreakdown, MultiGpuTemporal, NodeDistribution, PepComparison, SeasonalAnalysis,
    SlotDistribution, StreamView, TbfAnalysis, TtrAnalysis,
};
use std::sync::Arc;

use failsim::{ClusteringMode, NodeSelection, Simulator, SlotSkew, SystemModel, TbfModel};
use failtypes::{
    ComponentClass, Domain, SoftwareLocus, SystemSpec, T2Category,
    T3Category,
};

use crate::check::{Check, Experiment};
use crate::logstore::LogStore;
use crate::runner::{self, CatalogEntry};

/// Canonical seed for the Tsubame-2 log.
pub const T2_SEED: u64 = 42;
/// Canonical seed for the Tsubame-3 log.
pub const T3_SEED: u64 = 43;

/// The canonical pair of generated logs, shared from the process-wide
/// [`LogStore`]: each is simulated exactly once per process, and every
/// experiment holds the same `Arc` — no record vectors are cloned.
pub fn standard_logs() -> (Arc<StreamView>, Arc<StreamView>) {
    let store = LogStore::global();
    (
        store.get(&SystemModel::tsubame2(), T2_SEED),
        store.get(&SystemModel::tsubame3(), T3_SEED),
    )
}

/// Averages a per-log statistic over `n` seeds of a model, using the
/// process-wide thread count ([`crate::runner::threads`]).
fn seed_average(
    model: impl Fn() -> SystemModel + Sync,
    base_seed: u64,
    n: u64,
    f: impl Fn(&StreamView) -> f64 + Sync,
) -> f64 {
    seed_average_with(model, base_seed, n, runner::threads(), f)
}

/// Averages a per-log statistic over `n` seeds of a model on up to
/// `threads` workers.
///
/// Seed `s` of the sweep is `base_seed + s * 997` regardless of thread
/// count, logs come from the shared [`LogStore`], and the per-seed
/// values are reduced **in seed order**, so the average is bit-identical
/// at any `threads` value.
pub fn seed_average_with(
    model: impl Fn() -> SystemModel + Sync,
    base_seed: u64,
    n: u64,
    threads: usize,
    f: impl Fn(&StreamView) -> f64 + Sync,
) -> f64 {
    let store = LogStore::global();
    let values = failstats::par_map_ordered(n as usize, threads, |s| {
        let log = store.get(&model(), base_seed + s as u64 * 997);
        f(&log)
    });
    values.iter().sum::<f64>() / n as f64
}

/// All experiment ids in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "table3", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "pep",
];

/// Runs one experiment by id.
///
/// Returns `None` for an unknown id.
pub fn run(id: &str) -> Option<Experiment> {
    Some(match id {
        "table1" => table1(),
        "table2" => table2(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "table3" => table3(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "pep" => pep(),
        _ => return None,
    })
}

/// Every experiment in the workspace — the paper figures in
/// [`ALL_IDS`] order, then the design [`ablations`], then the
/// [`extensions`] — as `(id, constructor)` pairs, listed **without
/// executing anything**.
///
/// This is what the `repro` binary and the parallel runner iterate:
/// resolving an id is a string comparison, and running the catalog on
/// N threads preserves exactly this order.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        ("table1", table1 as fn() -> Experiment),
        ("table2", table2),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("table3", table3),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("pep", pep),
        ("ablate_node_selection", ablations::node_selection),
        ("ablate_slot_skew", ablations::slot_skew),
        ("ablate_tbf_family", ablations::tbf_family),
        ("ablate_tbf_quantile", ablations::tbf_quantile),
        ("ext_overlap", extensions::overlap),
        ("ext_survival", extensions::survival),
        ("ext_racks", extensions::racks),
    ]
}

/// Table I — node configurations of the two systems.
pub fn table1() -> Experiment {
    let t2 = SystemSpec::tsubame2();
    let t3 = SystemSpec::tsubame3();
    let lines = vec![
        format!("{:<22} {:>28} {:>28}", "", "Tsubame-2", "Tsubame-3"),
        format!("{:<22} {:>28} {:>28}", "CPU", t2.cpu_model(), t3.cpu_model()),
        format!(
            "{:<22} {:>28} {:>28}",
            "Cores per CPU",
            t2.cores_per_cpu(),
            t3.cores_per_cpu()
        ),
        format!("{:<22} {:>28} {:>28}", "Num CPUs", t2.cpus_per_node(), t3.cpus_per_node()),
        format!(
            "{:<22} {:>26}GB {:>26}GB",
            "Memory per Node",
            t2.memory_per_node_gb(),
            t3.memory_per_node_gb()
        ),
        format!("{:<22} {:>28} {:>28}", "GPU", t2.gpu_model(), t3.gpu_model()),
        format!("{:<22} {:>28} {:>28}", "Num GPUs", t2.gpus_per_node(), t3.gpus_per_node()),
        format!(
            "{:<22} {:>26}GB {:>26}GB",
            "SSD",
            t2.ssd_per_node_gb(),
            t3.ssd_per_node_gb()
        ),
        format!("{:<22} {:>28} {:>28}", "Interconnect", t2.interconnect(), t3.interconnect()),
    ];
    let checks = vec![
        Check::abs("T2 GPUs per node", 3.0, t2.gpus_per_node() as f64, 0.0),
        Check::abs("T3 GPUs per node", 4.0, t3.gpus_per_node() as f64, 0.0),
        Check::abs("T2 CPU+GPU components (Sec. III)", 7040.0, t2.component_count() as f64, 0.0),
        Check::abs("T3 CPU+GPU components (Sec. III)", 3240.0, t3.component_count() as f64, 0.0),
        Check::abs("T2 Rpeak (PFLOP/s)", 2.3, t2.rpeak_pflops(), 0.0),
        Check::abs("T3 Rpeak (PFLOP/s)", 12.1, t3.rpeak_pflops(), 0.0),
    ];
    Experiment {
        id: "table1",
        title: "Tsubame-2 and Tsubame-3 node configurations",
        checks,
        lines,
    }
}

/// Table II — failure category vocabularies.
pub fn table2() -> Experiment {
    let t2: Vec<&str> = T2Category::ALL.iter().map(|c| c.label()).collect();
    let t3: Vec<&str> = T3Category::ALL.iter().map(|c| c.label()).collect();
    let lines = vec![
        format!("Tsubame-2 ({}): {}", t2.len(), t2.join(", ")),
        format!("Tsubame-3 ({}): {}", t3.len(), t3.join(", ")),
    ];
    let checks = vec![
        Check::abs("T2 category count", 17.0, t2.len() as f64, 0.0),
        Check::abs("T3 category count", 16.0, t3.len() as f64, 0.0),
    ];
    Experiment {
        id: "table2",
        title: "Failure categories reported in the logs",
        checks,
        lines,
    }
}

/// Fig. 2 — failure category breakdowns.
pub fn fig2() -> Experiment {
    let (t2, t3) = standard_logs();
    let b2 = CategoryBreakdown::from_index(&t2);
    let b3 = CategoryBreakdown::from_index(&t3);
    let mut lines = vec!["(a) Tsubame-2".to_string()];
    lines.extend(b2.shares().iter().map(|s| {
        format!("  {:<16} {:>5.2}%  ({})", s.category.label(), s.fraction * 100.0, s.count)
    }));
    lines.push("(b) Tsubame-3".to_string());
    lines.extend(b3.shares().iter().map(|s| {
        format!("  {:<16} {:>5.2}%  ({})", s.category.label(), s.fraction * 100.0, s.count)
    }));
    let checks = vec![
        Check::abs(
            "T2 GPU share (%)",
            44.37,
            b2.fraction_of(T2Category::Gpu.into()) * 100.0,
            0.1,
        ),
        Check::abs(
            "T2 CPU share (%)",
            1.78,
            b2.fraction_of(T2Category::Cpu.into()) * 100.0,
            0.1,
        ),
        Check::abs(
            "T3 Software share (%)",
            50.59,
            b3.fraction_of(T3Category::Software.into()) * 100.0,
            0.1,
        ),
        Check::abs(
            "T3 GPU share (%)",
            27.81,
            b3.fraction_of(T3Category::Gpu.into()) * 100.0,
            0.1,
        ),
        Check::abs(
            "T3 CPU share (%)",
            3.25,
            b3.fraction_of(T3Category::Cpu.into()) * 100.0,
            0.1,
        ),
        Check::abs("T2 total failures", 897.0, b2.total() as f64, 0.0),
        Check::abs("T3 total failures", 338.0, b3.total() as f64, 0.0),
    ];
    Experiment {
        id: "fig2",
        title: "Failure category breakdown (GPU tops T2, software tops T3)",
        checks,
        lines,
    }
}

/// Fig. 3 — Tsubame-3 software failure root loci.
pub fn fig3() -> Experiment {
    let (_, t3) = standard_logs();
    let b = LocusBreakdown::from_index(&t3);
    let lines: Vec<String> = b
        .shares()
        .iter()
        .map(|s| format!("{:<22} {:>5.2}%  ({})", s.locus.label(), s.fraction * 100.0, s.count))
        .collect();
    let checks = vec![
        Check::abs("software failures with loci", 171.0, b.total() as f64, 0.0),
        Check::abs(
            "GPU-driver problems share (%)",
            43.0,
            b.fraction_of(SoftwareLocus::GpuDriverProblem) * 100.0,
            1.5,
        ),
        Check::abs("unknown-cause share (%)", 20.0, b.unknown_fraction() * 100.0, 1.5),
        Check::abs("distinct loci (top 16)", 16.0, b.shares().len() as f64, 0.0),
        Check::range(
            "kernel panics are relatively low (count)",
            3.0,
            b.shares()
                .iter()
                .find(|s| s.locus == SoftwareLocus::KernelPanic)
                .map_or(0.0, |s| s.count as f64),
            0.0,
            8.0,
        ),
    ];
    Experiment {
        id: "fig3",
        title: "Tsubame-3 software failures break down by root locus",
        checks,
        lines,
    }
}

/// Fig. 4 — failures per node.
pub fn fig4() -> Experiment {
    let (t2, t3) = standard_logs();
    let d2 = NodeDistribution::from_index(&t2);
    let d3 = NodeDistribution::from_index(&t3);
    let mut lines = Vec::new();
    for (name, d) in [("Tsubame-2", &d2), ("Tsubame-3", &d3)] {
        lines.push(format!(
            "{name}: {} failing nodes of {}",
            d.failing_nodes(),
            d.total_nodes()
        ));
        for (failures, nodes) in d.histogram().iter().take(8) {
            lines.push(format!(
                "  {failures} failure(s): {:>5.1}% of failing nodes ({nodes})",
                d.fraction_with_exactly(failures) * 100.0
            ));
        }
        if d.max_failures_on_a_node() > 8 {
            lines.push(format!("  ... up to {} failures on one node", d.max_failures_on_a_node()));
        }
    }
    // The 3-failure ratio is noisy on a single seed: average it.
    let f3_t2 = seed_average(SystemModel::tsubame2, 1000, 8, |log| {
        NodeDistribution::from_index(log).fraction_with_exactly(3)
    });
    let f3_t3 = seed_average(SystemModel::tsubame3, 2000, 8, |log| {
        NodeDistribution::from_index(log).fraction_with_exactly(3)
    });
    let checks = vec![
        Check::abs(
            "T2 nodes with exactly one failure (%)",
            60.0,
            d2.fraction_with_exactly(1) * 100.0,
            6.0,
        ),
        Check::abs(
            "T3 nodes with more than one failure (%)",
            60.0,
            d3.fraction_with_multiple() * 100.0,
            8.0,
        ),
        Check::abs(
            "T2 nodes with two failures (%)",
            10.0,
            d2.fraction_with_exactly(2) * 100.0,
            5.0,
        ),
        Check::abs(
            "T3 nodes with two failures (%)",
            10.0,
            d3.fraction_with_exactly(2) * 100.0,
            5.0,
        ),
        Check::range(
            "T3/T2 three-failure share ratio (~1.5x)",
            1.5,
            f3_t3 / f3_t2,
            1.15,
            2.1,
        ),
        Check::range(
            "T2 multi-node software/hardware ratio (paper 1/352)",
            1.0 / 352.0,
            seed_average(SystemModel::tsubame2, 5000, 8, |log| {
                let d = NodeDistribution::from_index(log);
                d.multi_node_software_failures() as f64
                    / d.multi_node_hardware_failures().max(1) as f64
            }),
            0.0,
            0.08,
        ),
        Check::range(
            "T3 multi-failure-node software/hardware ratio (95/104)",
            95.0 / 104.0,
            d3.multi_node_software_failures() as f64
                / d3.multi_node_hardware_failures().max(1) as f64,
            0.5,
            1.6,
        ),
    ];
    Experiment {
        id: "fig4",
        title: "Most T2 nodes see one failure; most T3 nodes see more",
        checks,
        lines,
    }
}

/// Fig. 5 — per-GPU-slot failure distribution.
pub fn fig5() -> Experiment {
    let (t2, t3) = standard_logs();
    let s2 = SlotDistribution::from_index(&t2);
    let s3 = SlotDistribution::from_index(&t3);
    let mut lines = Vec::new();
    for (name, s) in [("Tsubame-2", &s2), ("Tsubame-3", &s3)] {
        lines.push(format!("{name} ({} slot involvements):", s.total_involvements()));
        for share in s.shares() {
            lines.push(format!(
                "  {}: {:>5.1}% ({:+.0}% vs mean)",
                share.slot,
                share.fraction * 100.0,
                (share.relative_to_mean - 1.0) * 100.0
            ));
        }
    }
    let c2: Vec<f64> = s2.shares().iter().map(|s| s.count as f64).collect();
    // Tsubame-3 has only ~100 slot involvements, so its ratio checks are
    // seed-averaged (the canonical-seed series above is what one draw of
    // the figure looks like).
    let t3_ratio = seed_average(SystemModel::tsubame3, 43, 8, |log| {
        let c: Vec<f64> = SlotDistribution::from_index(log)
            .shares()
            .iter()
            .map(|s| s.count as f64)
            .collect();
        (c[0] + c[3]) / (c[1] + c[2]).max(1.0)
    });
    let t3_outer_above_mean = seed_average(SystemModel::tsubame3, 43, 8, |log| {
        let s = SlotDistribution::from_index(log);
        f64::from(s.shares()[0].relative_to_mean > 1.0 && s.shares()[3].relative_to_mean > 1.0)
    });
    let checks = vec![
        Check::abs(
            "T2 GPU1 excess over GPU0/GPU2 (%)",
            20.0,
            (c2[1] / ((c2[0] + c2[2]) / 2.0) - 1.0) * 100.0,
            10.0,
        ),
        Check::range(
            "T3 outer slots (0,3) / inner slots (1,2) ratio (seed-avg)",
            1.9,
            t3_ratio,
            1.4,
            2.6,
        ),
        Check::range(
            "T3 GPU0 and GPU3 above the mean (fraction of seeds)",
            1.0,
            t3_outer_above_mean,
            0.75,
            1.0,
        ),
    ];
    Experiment {
        id: "fig5",
        title: "Different GPU slots fail at different rates",
        checks,
        lines,
    }
}

/// Table III — number of GPUs involved in node failures.
pub fn table3() -> Experiment {
    let (t2, t3) = standard_logs();
    let i2 = InvolvementTable::from_index(&t2);
    let i3 = InvolvementTable::from_index(&t3);
    let mut lines = vec![format!("{:<8} {:>18} {:>18}", "#GPUs", "Tsubame-3", "Tsubame-2")];
    for k in 1..=4u8 {
        let fmt_cell = |t: &InvolvementTable, k: u8, exists: bool| {
            if exists {
                format!("{} ({:.2}%)", t.count_of(k), t.rows().iter().find(|r| r.gpus == k).map_or(0.0, |r| r.fraction * 100.0))
            } else {
                "N/A".to_string()
            }
        };
        lines.push(format!(
            "{:<8} {:>18} {:>18}",
            k,
            fmt_cell(&i3, k, true),
            fmt_cell(&i2, k, k <= 3),
        ));
    }
    lines.push(format!("{:<8} {:>18} {:>18}", "Total", i3.known(), i2.known()));
    let checks = vec![
        Check::abs("T2 single-GPU failures", 112.0, i2.count_of(1) as f64, 0.0),
        Check::abs("T2 double-GPU failures", 128.0, i2.count_of(2) as f64, 0.0),
        Check::abs("T2 triple-GPU failures", 128.0, i2.count_of(3) as f64, 0.0),
        Check::abs("T2 known-involvement total", 368.0, i2.known() as f64, 0.0),
        Check::abs("T3 single-GPU failures", 75.0, i3.count_of(1) as f64, 0.0),
        Check::abs("T3 double-GPU failures", 4.0, i3.count_of(2) as f64, 0.0),
        Check::abs("T3 triple-GPU failures", 2.0, i3.count_of(3) as f64, 0.0),
        Check::abs("T3 quadruple-GPU failures", 0.0, i3.count_of(4) as f64, 0.0),
        Check::abs("T2 multi-GPU share (%)", 69.56, i2.multi_gpu_fraction() * 100.0, 0.5),
        Check::abs("T3 single-GPU share (%)", 92.6, i3.rows()[0].fraction * 100.0, 0.5),
    ];
    Experiment {
        id: "table3",
        title: "GPUs involved per failure: ~70% multi on T2, >92% single on T3",
        checks,
        lines,
    }
}

fn cdf_line(label: &str, ecdf: &failstats::Ecdf) -> String {
    let pts: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&p| format!("p{:02.0}={:.1}h", p * 100.0, ecdf.quantile(p)))
        .collect();
    format!("{label}: {}", pts.join("  "))
}

/// Fig. 6 — CDF of time between failures + component-class MTBF.
pub fn fig6() -> Experiment {
    let (t2, t3) = standard_logs();
    let a2 = TbfAnalysis::from_index(&t2).expect("897 failures");
    let a3 = TbfAnalysis::from_index(&t3).expect("338 failures");
    let gpu2 = class_mtbf_hours(&t2, ComponentClass::Gpu).expect("GPU failures exist");
    let gpu3 = class_mtbf_hours(&t3, ComponentClass::Gpu).expect("GPU failures exist");
    let cpu2 = class_mtbf_hours(&t2, ComponentClass::Cpu).expect("CPU failures exist");
    let cpu3 = class_mtbf_hours(&t3, ComponentClass::Cpu).expect("CPU failures exist");
    let (lo2, hi2) = a2.mtbf_ci_hours(0.95);
    let (lo3, hi3) = a3.mtbf_ci_hours(0.95);
    let lines = vec![
        cdf_line("T2 TBF CDF", a2.ecdf()),
        cdf_line("T3 TBF CDF", a3.ecdf()),
        format!(
            "MTBF 95% CIs: T2 {:.1}-{:.1} h, T3 {:.1}-{:.1} h (disjoint: the 4x gain is unambiguous)",
            lo2, hi2, lo3, hi3
        ),
        format!(
            "class MTBF (h): GPU {gpu2:.1} -> {gpu3:.1} ({:.1}x), CPU {cpu2:.1} -> {cpu3:.1} ({:.1}x)",
            gpu3 / gpu2,
            cpu3 / cpu2
        ),
        "note: the paper reports GPU MTBF 21.94 -> 226.48 h and CPU MTBF".to_string(),
        "537.6 -> 1593.6 h under its own (unstated) event accounting; with".to_string(),
        "window/event-count accounting the *ratios* (~10x GPU, ~3x CPU) are".to_string(),
        "the comparable quantity and are checked below.".to_string(),
    ];
    let checks = vec![
        Check::abs("T2 MTBF (h) (~15)", 15.0, a2.mtbf_hours(), 0.6),
        Check::range("T3 MTBF (h) (more than 70)", 70.0, a3.mtbf_hours(), 70.0, 80.0),
        Check::range(
            "MTBF improvement factor (more than 4x)",
            4.0,
            a3.mtbf_hours() / a2.mtbf_hours(),
            4.0,
            5.5,
        ),
        Check::abs("T2 TBF p75 (h)", 20.0, a2.p75_hours(), 3.0),
        Check::abs("T3 TBF p75 (h)", 93.0, a3.p75_hours(), 10.0),
        Check::range("GPU MTBF improvement (~10x)", 10.0, gpu3 / gpu2, 5.0, 13.0),
        Check::range("CPU MTBF improvement (~3x)", 3.0, cpu3 / cpu2, 1.8, 4.5),
    ];
    Experiment {
        id: "fig6",
        title: "TBF distribution: T3's MTBF is >4x T2's, with a longer tail",
        checks,
        lines,
    }
}

/// Fig. 7 — TBF distribution per failure type.
pub fn fig7() -> Experiment {
    let (t2, t3) = standard_logs();
    let mut lines = Vec::new();
    let mut checks = Vec::new();
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        lines.push(format!("{name} (sorted by mean TBF; n >= 5 events):"));
        let rows = per_category_tbf(log, 5);
        for row in &rows {
            lines.push(format!(
                "  {:<16} mean {:>7.1}h  q1 {:>7.1}h  med {:>7.1}h  q3 {:>7.1}h",
                row.category.label(),
                row.summary.mean(),
                row.summary.q1(),
                row.summary.median(),
                row.summary.q3()
            ));
        }
        // The dominant (GPU/software) categories sit at the top of the
        // sort; memory and CPU sit lower with bigger medians.
        let top_is_dominant = rows
            .first()
            .is_some_and(|r| r.category.is_gpu() || r.category.is_software());
        checks.push(Check::range(
            format!("{name}: most frequent type has the smallest mean TBF"),
            1.0,
            f64::from(top_is_dominant),
            1.0,
            1.0,
        ));
        let med = |class: ComponentClass| {
            rows.iter()
                .find(|r| r.category.component_class() == class)
                .map(|r| r.summary.median())
        };
        if let (Some(gpu), Some(mem)) = (med(ComponentClass::Gpu), med(ComponentClass::Memory)) {
            checks.push(Check::range(
                format!("{name}: memory median TBF / GPU median TBF (higher)"),
                5.0,
                mem / gpu,
                2.0,
                f64::INFINITY,
            ));
        }
    }
    Experiment {
        id: "fig7",
        title: "Per-category TBF: GPU/software shortest, memory/CPU longest",
        checks,
        lines,
    }
}

/// Fig. 8 — temporal clustering of multi-GPU failures.
pub fn fig8() -> Experiment {
    // Clustering is a distributional property: average over seeds, and
    // compare against the independent-assignment ablation.
    let n = 10;
    let cv_on = seed_average(SystemModel::tsubame2, 100, n, |log| {
        MultiGpuTemporal::from_index(log, 96.0).expect("256 multi events").report.cv
    });
    let factor_on = seed_average(SystemModel::tsubame2, 100, n, |log| {
        MultiGpuTemporal::from_index(log, 96.0).expect("256 multi events").clustering_factor()
    });
    let independent = || {
        let mut m = SystemModel::tsubame2();
        m.clustering = ClusteringMode::Independent;
        m
    };
    let cv_off = seed_average(independent, 100, n, |log| {
        MultiGpuTemporal::from_index(log, 96.0).expect("256 multi events").report.cv
    });
    let (t2, _) = standard_logs();
    let t = MultiGpuTemporal::from_index(&t2, 96.0).expect("256 multi events");
    let lines = vec![
        format!(
            "canonical T2 log: {} multi-GPU failures, CV {:.2}, dispersion {:.2}, burstiness {:+.2}",
            t.report.events, t.report.cv, t.report.dispersion_index, t.report.burstiness
        ),
        format!(
            "P(next multi-GPU failure within 96 h) = {:.0}% vs {:.0}% memoryless baseline",
            t.follow_up_probability * 100.0,
            t.poisson_baseline * 100.0
        ),
        format!("seed-averaged CV: clustered {cv_on:.2} vs independent ablation {cv_off:.2}"),
    ];
    let checks = vec![
        Check::range("multi-GPU inter-arrival CV (> 1 = clustered)", 1.0, cv_on, 1.02, 3.0),
        Check::range(
            "quick follow-up vs memoryless baseline (> 1)",
            1.0,
            factor_on,
            1.01,
            3.0,
        ),
        Check::range(
            "independent ablation CV (~1, no clustering)",
            1.0,
            cv_off,
            0.85,
            1.12,
        ),
        Check::range("clustered CV exceeds ablation CV", 1.0, cv_on / cv_off, 1.01, 3.0),
    ];
    Experiment {
        id: "fig8",
        title: "Multi-GPU failures arrive in temporal clusters",
        checks,
        lines,
    }
}

/// Fig. 9 — CDF of time to recovery.
pub fn fig9() -> Experiment {
    let (t2, t3) = standard_logs();
    let a2 = TtrAnalysis::from_index(&t2).expect("non-empty");
    let a3 = TtrAnalysis::from_index(&t3).expect("non-empty");
    let lines = vec![
        cdf_line("T2 TTR CDF", a2.ecdf()),
        cdf_line("T3 TTR CDF", a3.ecdf()),
    ];
    let checks = vec![
        Check::abs("T2 MTTR (h) (~55)", 55.0, a2.mttr_hours(), 8.0),
        Check::abs("T3 MTTR (h) (~55)", 55.0, a3.mttr_hours(), 8.0),
        Check::abs(
            "MTTR difference between generations (h) (~0)",
            0.0,
            a3.mttr_hours() - a2.mttr_hours(),
            8.0,
        ),
        Check::range(
            "median TTR ratio T2/T3 (similar shapes)",
            1.0,
            a2.median_hours() / a3.median_hours(),
            0.6,
            1.6,
        ),
    ];
    Experiment {
        id: "fig9",
        title: "TTR distribution: MTTR ~55 h on both generations",
        checks,
        lines,
    }
}

/// Fig. 10 — TTR distribution per failure type.
pub fn fig10() -> Experiment {
    let (t2, t3) = standard_logs();
    let mut lines = Vec::new();
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        lines.push(format!("{name} (sorted by mean TTR):"));
        for row in per_category_ttr(log) {
            lines.push(format!(
                "  {:<16} share {:>5.2}%  mean {:>6.1}h  q1 {:>6.1}h  med {:>6.1}h  q3 {:>6.1}h  max {:>6.1}h",
                row.category.label(),
                row.share_of_failures * 100.0,
                row.summary.mean(),
                row.summary.q1(),
                row.summary.median(),
                row.summary.q3(),
                row.summary.max()
            ));
        }
    }
    let spread = |view: &StreamView, domain: Domain| {
        failscope::domain_ttr_spread(view, domain).expect("failures in every domain")
    };
    let (hw2, sw2) = (spread(&t2, Domain::Hardware), spread(&t2, Domain::Software));
    let (hw3, sw3) = (spread(&t3, Domain::Hardware), spread(&t3, Domain::Software));
    let pb = per_category_ttr(&t3)
        .into_iter()
        .find(|r| r.category == T3Category::PowerBoard.into())
        .expect("power-board failures");
    let ssd = per_category_ttr(&t2)
        .into_iter()
        .find(|r| r.category == T2Category::Ssd.into())
        .expect("SSD failures");
    // The per-seed maximum of 3 power-board samples is very noisy; use
    // the seed-averaged maxima for the tail checks.
    let pb_max = seed_average(SystemModel::tsubame3, 3000, 8, |log| {
        per_category_ttr(log)
            .into_iter()
            .find(|r| r.category == T3Category::PowerBoard.into())
            .map_or(0.0, |r| r.summary.max())
    });
    let ssd_max = seed_average(SystemModel::tsubame2, 4000, 8, |log| {
        per_category_ttr(log)
            .into_iter()
            .find(|r| r.category == T2Category::Ssd.into())
            .map_or(0.0, |r| r.summary.max())
    });
    let checks = vec![
        Check::range("T2 hardware/software TTR spread ratio (>1)", 1.5, hw2 / sw2, 1.05, 5.0),
        Check::range("T3 hardware/software TTR spread ratio (>1)", 1.5, hw3 / sw3, 1.05, 5.0),
        Check::abs("T3 power-board share (%) (~1)", 1.0, pb.share_of_failures * 100.0, 0.3),
        Check::range("T3 power-board max TTR (h) (up to ~230)", 230.0, pb_max, 120.0, 400.0),
        Check::abs("T2 SSD share (%) (~4)", 4.0, ssd.share_of_failures * 100.0, 0.3),
        Check::range("T2 SSD max TTR (h) (up to ~290)", 290.0, ssd_max, 160.0, 480.0),
    ];
    Experiment {
        id: "fig10",
        title: "Per-category TTR: rare categories can be the costliest",
        checks,
        lines,
    }
}

/// Fig. 11 — monthly TTR distributions.
pub fn fig11() -> Experiment {
    let (t2, t3) = standard_logs();
    let mut lines = Vec::new();
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        let s = SeasonalAnalysis::from_index(log);
        let by_month = s.mean_ttr_by_calendar_month();
        let cells: Vec<String> = failtypes::Month::all()
            .map(|m| match by_month[m.index()] {
                Some(v) => format!("{}={:.0}h", m.name(), v),
                None => format!("{}=-", m.name()),
            })
            .collect();
        lines.push(format!("{name} mean TTR by month: {}", cells.join(" ")));
    }
    // Half-year deltas averaged over seeds.
    let delta2 = seed_average(SystemModel::tsubame2, 500, 8, |log| {
        let (h1, h2) =
            SeasonalAnalysis::from_index(log).half_year_ttr_means().expect("both halves");
        h2 - h1
    });
    let delta3 = seed_average(SystemModel::tsubame3, 600, 8, |log| {
        let (h1, h2) =
            SeasonalAnalysis::from_index(log).half_year_ttr_means().expect("both halves");
        h2 - h1
    });
    lines.push(format!(
        "seed-averaged Jul-Dec minus Jan-Jun mean TTR: T2 {delta2:+.1} h, T3 {delta3:+.1} h"
    ));
    let checks = vec![
        Check::range("T2 second-half TTR uplift (h) (positive)", 5.0, delta2, 0.5, 20.0),
        Check::range("T3 second-half TTR delta (h) (~none)", 0.0, delta3, -8.0, 8.0),
    ];
    Experiment {
        id: "fig11",
        title: "Monthly TTR: a second-half uplift only on Tsubame-2",
        checks,
        lines,
    }
}

/// Fig. 12 — failures per month and the density/TTR (non-)correlation.
pub fn fig12() -> Experiment {
    let (t2, t3) = standard_logs();
    let mut lines = Vec::new();
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        let s = SeasonalAnalysis::from_index(log);
        let series: Vec<String> = s
            .buckets()
            .iter()
            .map(|b| format!("{}-{:02}:{}", b.year, b.month.number(), b.failures))
            .collect();
        lines.push(format!("{name} monthly failures: {}", series.join(" ")));
    }
    let corr = seed_average(SystemModel::tsubame3, 700, 8, |log| {
        SeasonalAnalysis::from_index(log)
            .density_ttr_correlation()
            .expect("enough months")
            .abs()
    });
    let corr2 = seed_average(SystemModel::tsubame2, 800, 8, |log| {
        SeasonalAnalysis::from_index(log)
            .density_ttr_correlation()
            .expect("enough months")
            .abs()
    });
    lines.push(format!(
        "seed-averaged |corr(monthly failures, monthly mean TTR)|: T2 {corr2:.2}, T3 {corr:.2}"
    ));
    let s2 = SeasonalAnalysis::from_index(&t2);
    let counts = s2.monthly_failure_counts();
    let spread = *counts.iter().max().expect("non-empty") as f64
        / (*counts.iter().filter(|&&c| c > 0).min().expect("non-empty") as f64);
    let checks = vec![
        Check::range("T2 monthly count max/min spread (> 1)", 2.0, spread, 1.2, 10.0),
        Check::range("T2 |density-TTR correlation| (~0)", 0.0, corr2, 0.0, 0.4),
        Check::range("T3 |density-TTR correlation| (~0)", 0.0, corr, 0.0, 0.4),
    ];
    Experiment {
        id: "fig12",
        title: "Monthly failure counts vary; density does not predict TTR",
        checks,
        lines,
    }
}

/// Performance-error-proportionality — the paper's proposed metric.
pub fn pep() -> Experiment {
    let (t2, t3) = standard_logs();
    let c = PepComparison::new(&t2, &t3).expect("both logs analysable");
    let lines = vec![
        format!(
            "T2: Rpeak {:.1} PF, MTBF {:.1} h -> {:.0} EFLOP per failure-free period",
            c.older.rpeak_pflops,
            c.older.mtbf_hours,
            c.older.exaflop_per_failure_free_period()
        ),
        format!(
            "T3: Rpeak {:.1} PF, MTBF {:.1} h -> {:.0} EFLOP per failure-free period",
            c.newer.rpeak_pflops,
            c.newer.mtbf_hours,
            c.newer.exaflop_per_failure_free_period()
        ),
        format!(
            "factors: compute {:.2}x (paper quotes ~8x capability), MTBF {:.2}x, PEP {:.2}x",
            c.compute_factor(),
            c.mtbf_factor(),
            c.pep_factor()
        ),
    ];
    let checks = vec![
        Check::abs("compute factor by Rpeak", 5.26, c.compute_factor(), 0.05),
        Check::range("MTBF factor (more than 4x)", 4.0, c.mtbf_factor(), 4.0, 5.5),
        Check::range(
            "PEP factor (compute x MTBF)",
            24.0,
            c.pep_factor(),
            20.0,
            30.0,
        ),
        Check::range(
            "reliability lags compute (MTBF factor < compute factor... paper's point, 1=true)",
            1.0,
            f64::from(c.reliability_lags_compute()),
            1.0,
            1.0,
        ),
    ];
    Experiment {
        id: "pep",
        title: "Performance-error-proportionality across generations",
        checks,
        lines,
    }
}

/// Analyses beyond the paper's figures, driven by its discussion
/// sections; regenerated and checked like the figures.
pub mod extensions {
    use super::*;
    use failscope::{node_lifetimes, AvailabilityAnalysis, NodeSurvival, RackDistribution};

    /// RQ5 implication: with MTTR comparable to MTBF, repairs overlap.
    pub fn overlap() -> Experiment {
        let (t2, t3) = standard_logs();
        let a2 = AvailabilityAnalysis::from_index(&t2).expect("non-empty");
        let a3 = AvailabilityAnalysis::from_index(&t3).expect("non-empty");
        // Little's law cross-check: L = λ·W.
        let little = |log: &StreamView, a: &AvailabilityAnalysis| {
            let rate = log.len() as f64 / log.window().duration().get();
            let mttr = TtrAnalysis::from_index(log).expect("non-empty").mttr_hours();
            a.mean_concurrent_repairs() / (rate * mttr)
        };
        let lines = vec![
            format!(
                "T2: {:.0}% of failures arrive on open repairs; mean {:.2} concurrent (max {})",
                a2.overlap_probability() * 100.0,
                a2.mean_concurrent_repairs(),
                a2.max_concurrent_repairs()
            ),
            format!(
                "T3: {:.0}% of failures arrive on open repairs; mean {:.2} concurrent (max {})",
                a3.overlap_probability() * 100.0,
                a3.mean_concurrent_repairs(),
                a3.max_concurrent_repairs()
            ),
        ];
        let checks = vec![
            Check::range(
                "T2 overlap probability (MTTR ~ 3.6 MTBF in flight)",
                0.9,
                a2.overlap_probability(),
                0.5,
                1.0,
            ),
            Check::range("T3 overlap probability", 0.4, a3.overlap_probability(), 0.2, 0.7),
            Check::abs("T2 Little's-law consistency (L/λW)", 1.0, little(&t2, &a2), 0.1),
            Check::abs("T3 Little's-law consistency (L/λW)", 1.0, little(&t3, &a3), 0.1),
        ];
        Experiment {
            id: "ext_overlap",
            title: "Repairs overlap: the RQ5 concurrency warning quantified",
            checks,
            lines,
        }
    }

    /// Node time-to-first-failure survival across generations.
    pub fn survival() -> Experiment {
        let (t2, t3) = standard_logs();
        let s2 = NodeSurvival::from_index(&t2).expect("nodes exist");
        let s3 = NodeSurvival::from_index(&t3).expect("nodes exist");
        let lr =
            failstats::log_rank(&node_lifetimes(&t2), &node_lifetimes(&t3)).expect("events exist");
        let lines = vec![
            format!(
                "T2: {} of {} nodes failed; S(5000 h) = {:.3}",
                s2.observed_failures(),
                t2.spec().nodes(),
                s2.survival_at(5000.0)
            ),
            format!(
                "T3: {} of {} nodes failed; S(5000 h) = {:.3}",
                s3.observed_failures(),
                t3.spec().nodes(),
                s3.survival_at(5000.0)
            ),
            format!("log-rank chi2 = {:.1}, p = {:.4}", lr.statistic, lr.p_value),
        ];
        let checks = vec![
            Check::range(
                "T2 node survival at 5000 h is below T3's (ratio)",
                0.9,
                s2.survival_at(5000.0) / s3.survival_at(5000.0),
                0.6,
                0.999,
            ),
            Check::range("log-rank separates the generations (p < 0.05)", 0.0, lr.p_value, 0.0, 0.05),
        ];
        Experiment {
            id: "ext_survival",
            title: "Node survival: newer-generation nodes fail later",
            checks,
            lines,
        }
    }

    /// Related-work claim: rack-level failure non-uniformity persists.
    pub fn racks() -> Experiment {
        let (t2, t3) = standard_logs();
        let mut lines = Vec::new();
        let mut checks = Vec::new();
        for (name, log) in [("T2", &t2), ("T3", &t3)] {
            let d = RackDistribution::from_index(log);
            let test = d.uniformity_test().expect("non-empty");
            let k = (d.shares().len() as f64 * 0.2).round().max(1.0) as usize;
            lines.push(format!(
                "{name}: chi2 = {:.0} over {} racks (p = {:.4}); top {} racks hold {:.0}%",
                test.statistic,
                d.shares().len(),
                test.p_value,
                k,
                d.top_rack_share(k) * 100.0
            ));
            checks.push(Check::range(
                format!("{name}: rack uniformity rejected (p < 0.01)"),
                0.0,
                test.p_value,
                0.0,
                0.01,
            ));
        }
        Experiment {
            id: "ext_racks",
            title: "Failures are non-uniform across racks on both systems",
            checks,
            lines,
        }
    }

    /// All extension experiments.
    pub fn all() -> Vec<Experiment> {
        vec![overlap(), survival(), racks()]
    }
}

/// The ablation studies backing the simulator's design choices.
pub mod ablations {
    use super::*;
    use failstats::fit::{select_best_family, Family};

    /// Node-selection ablation: uniform placement cannot reproduce
    /// Fig. 4's repeat-offender tail; the defective pool and the Polya
    /// urn both can, but only the pool matches the one-failure share.
    pub fn node_selection() -> Experiment {
        let make = |selection: NodeSelection| {
            let mut m = SystemModel::tsubame2();
            m.node_selection = selection;
            m
        };
        let stats = |m: SystemModel| {
            let log = Simulator::new(m, 42).generate().expect("valid model");
            let d = NodeDistribution::from_index(&StreamView::from(log));
            (
                d.fraction_with_exactly(1) * 100.0,
                d.max_failures_on_a_node() as f64,
            )
        };
        let (f1_pool, max_pool) = stats(SystemModel::tsubame2());
        let (f1_uni, max_uni) = stats(make(NodeSelection::Uniform));
        let (f1_urn, max_urn) = stats(make(NodeSelection::PolyaUrn {
            base: failsim::calib::urn::BASE,
            reinforcement: failsim::calib::urn::REINFORCEMENT,
        }));
        let lines = vec![
            format!("defective pool: {f1_pool:.1}% single-failure nodes, deepest node {max_pool}"),
            format!("uniform:        {f1_uni:.1}% single-failure nodes, deepest node {max_uni}"),
            format!("polya urn:      {f1_urn:.1}% single-failure nodes, deepest node {max_urn}"),
        ];
        let checks = vec![
            Check::abs("pool hits the ~60% single-failure anchor", 60.0, f1_pool, 6.0),
            Check::range("uniform overshoots the anchor", 75.0, f1_uni, 68.0, 100.0),
            Check::range("uniform lacks a deep tail (max <= 5)", 5.0, max_uni, 0.0, 5.0),
            Check::range("pool has a deep tail (max > 8)", 10.0, max_pool, 8.0, 100.0),
        ];
        Experiment {
            id: "ablate_node_selection",
            title: "Fig. 4 needs a defective pool, not uniform placement",
            checks,
            lines,
        }
    }

    /// Slot-skew ablation: uniform slots cannot reproduce Fig. 5.
    pub fn slot_skew() -> Experiment {
        // ~100 T3 slot involvements per log: average the ratio over
        // seeds on both arms.
        let ratio_of = |log: &StreamView| {
            let c: Vec<f64> = SlotDistribution::from_index(log)
                .shares()
                .iter()
                .map(|s| s.count as f64)
                .collect();
            (c[0] + c[3]) / (c[1] + c[2]).max(1.0)
        };
        let skewed = seed_average(SystemModel::tsubame3, 43, 8, ratio_of);
        let flat = seed_average(
            || {
                let mut m = SystemModel::tsubame3();
                m.slot_skew = SlotSkew::Uniform;
                m
            },
            43,
            8,
            ratio_of,
        );
        let lines = vec![
            format!("calibrated skew: seed-averaged outer/inner = {skewed:.2}"),
            format!("uniform slots:   seed-averaged outer/inner = {flat:.2}"),
        ];
        let checks = vec![
            Check::range("calibrated skew shows Fig. 5's imbalance", 1.9, skewed, 1.4, 2.6),
            Check::range("uniform slots stay balanced", 1.0, flat, 0.6, 1.4),
        ];
        Experiment {
            id: "ablate_slot_skew",
            title: "Fig. 5 needs calibrated slot weights",
            checks,
            lines,
        }
    }

    /// TBF-family ablation: which family fits each system's gaps best.
    pub fn tbf_family() -> Experiment {
        let (t2, t3) = standard_logs();
        let gaps = |log: &StreamView| {
            failstats::inter_arrival_times(log.times())
                .into_iter()
                .filter(|&g| g > 0.0)
                .collect::<Vec<f64>>()
        };
        let g2 = gaps(&t2);
        let g3 = gaps(&t3);
        let ranked2 = select_best_family(&g2);
        let ranked3 = select_best_family(&g3);
        let name = |r: &[failstats::fit::FittedModel]| r[0].family;
        let lines = vec![
            format!(
                "T2 best family by AIC: {} (then {})",
                ranked2[0].family,
                ranked2.iter().skip(1).map(|m| m.family.name()).collect::<Vec<_>>().join(", ")
            ),
            format!(
                "T3 best family by AIC: {} (then {})",
                ranked3[0].family,
                ranked3.iter().skip(1).map(|m| m.family.name()).collect::<Vec<_>>().join(", ")
            ),
        ];
        // T2 gaps are exponential; any family that embeds the exponential
        // (gamma/Weibull at shape ~1) may edge it out by luck, but the
        // exponential must be within a few AIC units of the best.
        let exp_gap = ranked2
            .iter()
            .find(|m| m.family == Family::Exponential)
            .map(|m| m.aic - ranked2[0].aic)
            .unwrap_or(f64::INFINITY);
        let t3_best_not_exp = f64::from(name(&ranked3) != Family::Exponential);
        let checks = vec![
            Check::range("T2: exponential within 6 AIC of best", 0.0, exp_gap, 0.0, 6.0),
            Check::range(
                "T3: best family is not exponential (gamma-shaped)",
                1.0,
                t3_best_not_exp,
                1.0,
                1.0,
            ),
        ];
        Experiment {
            id: "ablate_tbf_family",
            title: "T2 gaps are memoryless; T3 gaps need a shape parameter",
            checks,
            lines,
        }
    }

    /// Arrival-model ablation: replacing T3's gamma arrivals with
    /// exponential misses the p75 anchor.
    pub fn tbf_quantile() -> Experiment {
        let mut exp_model = SystemModel::tsubame3();
        exp_model.tbf = TbfModel::Exponential;
        let p75_exp = seed_average(move || exp_model.clone(), 43, 8, |log| {
            TbfAnalysis::from_index(log).expect("338 failures").p75_hours()
        });
        let p75_gamma = seed_average(SystemModel::tsubame3, 43, 8, |log| {
            TbfAnalysis::from_index(log).expect("338 failures").p75_hours()
        });
        let lines = vec![
            format!("gamma arrivals:       seed-averaged p75 = {p75_gamma:.1} h (paper: 93 h)"),
            format!("exponential ablation: seed-averaged p75 = {p75_exp:.1} h"),
        ];
        let checks = vec![
            Check::abs("gamma arrivals hit the 93 h anchor", 93.0, p75_gamma, 7.0),
            Check::range("exponential overshoots the anchor", 100.0, p75_exp, 96.0, 115.0),
        ];
        Experiment {
            id: "ablate_tbf_quantile",
            title: "Fig. 6's T3 p75 anchor requires gamma arrivals",
            checks,
            lines,
        }
    }

    /// All ablations.
    pub fn all() -> Vec<Experiment> {
        vec![node_selection(), slot_skew(), tbf_family(), tbf_quantile()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        for id in ALL_IDS {
            assert!(run(id).is_some(), "unknown id {id}");
        }
        assert!(run("nope").is_none());
    }

    #[test]
    fn standard_logs_are_simulated_exactly_once() {
        let (a2, a3) = standard_logs();
        let (b2, b3) = standard_logs();
        // The same allocation is shared, not an equal clone.
        assert!(Arc::ptr_eq(&a2, &b2));
        assert!(Arc::ptr_eq(&a3, &b3));
        assert_eq!(a2.len(), 897);
        assert_eq!(a3.len(), 338);
        // Exactly-once invariant on the shared store: every distinct
        // (model, seed) key was simulated once, however many experiments
        // and threads have already run in this process.
        let store = LogStore::global();
        assert_eq!(store.simulations(), store.entries());
    }

    #[test]
    fn catalog_lists_without_running_and_covers_every_id() {
        let entries = catalog();
        let ids: Vec<&str> = entries.iter().map(|e| e.0).collect();
        assert_eq!(&ids[..ALL_IDS.len()], ALL_IDS, "figures come first, in paper order");
        assert_eq!(entries.len(), ALL_IDS.len() + 4 + 3);
        // Each constructor produces the experiment its id promises.
        for (id, make) in entries {
            assert_eq!(make().id, id);
        }
    }

    #[test]
    fn seed_average_is_bit_identical_at_any_thread_count() {
        let stat = |log: &StreamView| log.len() as f64 / 100.0 + 0.1;
        let serial = seed_average_with(SystemModel::tsubame3, 9000, 4, 1, stat);
        for threads in [2, 4, 8] {
            let parallel = seed_average_with(SystemModel::tsubame3, 9000, 4, threads, stat);
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn every_experiment_reproduces() {
        for id in ALL_IDS {
            let exp = run(id).expect("known id");
            assert!(
                exp.passes(),
                "{id} failed:\n{}",
                exp.render()
            );
        }
    }

    #[test]
    fn ablations_reproduce() {
        for exp in ablations::all() {
            assert!(exp.passes(), "{} failed:\n{}", exp.id, exp.render());
        }
    }

    #[test]
    fn extensions_reproduce() {
        for exp in extensions::all() {
            assert!(exp.passes(), "{} failed:\n{}", exp.id, exp.render());
        }
    }
}
