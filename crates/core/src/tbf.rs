//! RQ4 — time between failures (Figs. 6 and 7).

use failstats::{Ecdf, Summary};
use failtypes::{Category, ComponentClass, FailureLog};

use crate::{FleetIndex, StreamView};

/// System-wide time-between-failures analysis (Fig. 6).
///
/// # Examples
///
/// ```
/// use failscope::{StreamView, TbfAnalysis};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
/// let tbf = TbfAnalysis::from_index(&StreamView::from(log)).unwrap();
/// // Fig. 6: Tsubame-2 MTBF ≈ 15 h; 75% of failures within ~20 h.
/// assert!((tbf.mtbf_hours() - 15.3).abs() < 0.1);
/// assert!((tbf.p75_hours() - 20.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TbfAnalysis {
    ecdf: Ecdf,
    mtbf_hours: f64,
    window_hours: f64,
    failures: usize,
}

impl TbfAnalysis {
    /// Computes the analysis from any [`FleetIndex`], reusing its time
    /// array; `None` for logs with fewer than two failures (no
    /// inter-arrival times exist).
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Option<Self> {
        let gaps = failstats::inter_arrival_times(index.times());
        let ecdf = Ecdf::new(gaps)?;
        let window_hours = index.window().duration().get();
        Some(TbfAnalysis {
            ecdf,
            // The paper's MTBF: observation window over failure count.
            mtbf_hours: window_hours / index.len() as f64,
            window_hours,
            failures: index.len(),
        })
    }

    /// MTBF as the paper computes it: window length / failure count.
    pub const fn mtbf_hours(&self) -> f64 {
        self.mtbf_hours
    }

    /// Mean of the observed inter-arrival gaps (close to, but not
    /// identical with, [`TbfAnalysis::mtbf_hours`]).
    pub fn mean_gap_hours(&self) -> f64 {
        self.ecdf.mean()
    }

    /// 75th percentile of the TBF distribution — Fig. 6's anchor point
    /// (20 h on Tsubame-2, 93 h on Tsubame-3).
    pub fn p75_hours(&self) -> f64 {
        self.ecdf.quantile(0.75)
    }

    /// Arbitrary TBF quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.ecdf.quantile(p)
    }

    /// The empirical CDF (Fig. 6's curve).
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }

    /// Number of failures behind the analysis.
    pub const fn failures(&self) -> usize {
        self.failures
    }

    /// Observation-window length in hours.
    pub const fn window_hours(&self) -> f64 {
        self.window_hours
    }

    /// Exact (Garwood) confidence interval for the MTBF, from the Poisson
    /// rate interval of `failures` events over the window.
    ///
    /// Returns `(lower, upper)` in hours.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `(0, 1)`.
    pub fn mtbf_ci_hours(&self, level: f64) -> (f64, f64) {
        let ci = failstats::poisson_rate_ci(self.failures as u64, self.window_hours, level)
            .expect("window is positive and level validated by the callee");
        ci.mtbf_interval()
    }
}

/// Per-component-class MTBF from any [`FleetIndex`], counting failure
/// *events* of that class (window / event count). Returns `None` when
/// the class never failed.
///
/// The paper's per-class numbers: GPU MTBF improved ~10× from Tsubame-2
/// to Tsubame-3 while the GPU count only halved; CPU MTBF improved ~3×.
pub fn class_mtbf_hours_index<V: FleetIndex + ?Sized>(
    index: &V,
    class: ComponentClass,
) -> Option<f64> {
    let count: usize = index
        .category_indices()
        .iter()
        .filter(|(category, _)| category.component_class() == class)
        .map(|(_, indices)| indices.len())
        .sum();
    (count > 0).then(|| index.window().duration().get() / count as f64)
}

/// [`class_mtbf_hours_index`], indexing the log once.
pub fn class_mtbf_hours(log: &FailureLog, class: ComponentClass) -> Option<f64> {
    class_mtbf_hours_index(&StreamView::new(log), class)
}

/// GPU MTBF from any [`FleetIndex`], counting each involved GPU
/// separately (a failure touching 3 GPUs counts three times; unknown
/// involvement counts once). Returns `None` when no GPU failures exist.
pub fn gpu_involvement_mtbf_hours_index<V: FleetIndex + ?Sized>(index: &V) -> Option<f64> {
    let count = index.gpu_involvements();
    (count > 0).then(|| index.window().duration().get() / count as f64)
}

/// [`gpu_involvement_mtbf_hours_index`], indexing the log once.
pub fn gpu_involvement_mtbf_hours(log: &FailureLog) -> Option<f64> {
    gpu_involvement_mtbf_hours_index(&StreamView::new(log))
}

/// One row of the per-category TBF table (Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryTbf {
    /// The failure category.
    pub category: Category,
    /// Box-plot summary of the inter-arrival times between consecutive
    /// failures of this category.
    pub summary: Summary,
}

/// Per-category TBF distributions from any [`FleetIndex`], reusing its
/// time-ordered category partitions; rows are sorted by ascending mean
/// TBF (the order Fig. 7 plots).
///
/// Categories with fewer than `min_events` failures are skipped — their
/// inter-arrival statistics would be noise.
pub fn per_category_tbf_index<V: FleetIndex + ?Sized>(
    index: &V,
    min_events: usize,
) -> Vec<CategoryTbf> {
    let mut out = Vec::new();
    for (&category, indices) in index.category_indices() {
        if indices.len() < min_events.max(2) {
            continue;
        }
        let times = index.category_times(category);
        let gaps = failstats::inter_arrival_times(&times);
        if let Some(summary) = Summary::from_data(&gaps) {
            out.push(CategoryTbf { category, summary });
        }
    }
    out.sort_by(|a, b| {
        a.summary
            .mean()
            .partial_cmp(&b.summary.mean())
            .expect("means are finite")
    });
    out
}

/// [`per_category_tbf_index`], indexing the log once.
pub fn per_category_tbf(log: &FailureLog, min_events: usize) -> Vec<CategoryTbf> {
    per_category_tbf_index(&StreamView::new(log), min_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::{T2Category, T3Category};

    fn t2() -> FailureLog {
        Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
    }

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn fig6_mtbf_anchors() {
        let a2 = TbfAnalysis::from_index(&StreamView::new(&t2())).unwrap();
        assert!((a2.mtbf_hours() - 15.3).abs() < 0.1);
        assert!((a2.p75_hours() - 20.0).abs() < 3.0, "T2 p75 {}", a2.p75_hours());

        let a3 = TbfAnalysis::from_index(&StreamView::new(&t3())).unwrap();
        assert!((a3.mtbf_hours() - 72.4).abs() < 0.2);
        assert!((a3.p75_hours() - 93.0).abs() < 10.0, "T3 p75 {}", a3.p75_hours());

        // More than 4x MTBF improvement across generations.
        assert!(a3.mtbf_hours() / a2.mtbf_hours() > 4.0);
    }

    #[test]
    fn mtbf_confidence_intervals_bracket_the_estimate() {
        let a2 = TbfAnalysis::from_index(&StreamView::new(&t2())).unwrap();
        let (lo, hi) = a2.mtbf_ci_hours(0.95);
        assert!(lo < a2.mtbf_hours() && a2.mtbf_hours() < hi);
        // 897 events: the interval is tight (under ±10%).
        assert!(hi / lo < 1.2, "({lo}, {hi})");

        let a3 = TbfAnalysis::from_index(&StreamView::new(&t3())).unwrap();
        let (lo3, hi3) = a3.mtbf_ci_hours(0.95);
        assert!(lo3 < a3.mtbf_hours() && a3.mtbf_hours() < hi3);
        // Fewer events -> relatively wider interval than T2's.
        assert!(hi3 / lo3 > hi / lo);
        // The generations' intervals do not overlap: the 4x improvement
        // is statistically unambiguous.
        assert!(lo3 > hi);
    }

    #[test]
    fn fig6_t3_has_longer_tail() {
        let a2 = TbfAnalysis::from_index(&StreamView::new(&t2())).unwrap();
        let a3 = TbfAnalysis::from_index(&StreamView::new(&t3())).unwrap();
        // The T3 CDF extends to much larger gaps.
        assert!(a3.quantile(0.95) > 2.0 * a2.quantile(0.95));
        assert!(a3.ecdf().max() > a2.ecdf().max());
    }

    #[test]
    fn class_mtbf_improvements() {
        let t2 = t2();
        let t3 = t3();
        let gpu2 = class_mtbf_hours(&t2, ComponentClass::Gpu).unwrap();
        let gpu3 = class_mtbf_hours(&t3, ComponentClass::Gpu).unwrap();
        // Event-level GPU MTBF: 13728/398 ≈ 34.5 vs 24456/94 ≈ 260.
        assert!((gpu2 - 34.5).abs() < 0.5, "gpu2 {gpu2}");
        assert!((gpu3 - 260.2).abs() < 1.0, "gpu3 {gpu3}");
        // Far larger improvement than the 2x reduction in GPU count.
        assert!(gpu3 / gpu2 > 5.0);

        let cpu2 = class_mtbf_hours(&t2, ComponentClass::Cpu).unwrap();
        let cpu3 = class_mtbf_hours(&t3, ComponentClass::Cpu).unwrap();
        // ~3x CPU improvement, matching the paper's relative claim.
        let ratio = cpu3 / cpu2;
        assert!((1.8..4.0).contains(&ratio), "cpu ratio {ratio}");
    }

    #[test]
    fn involvement_mtbf_is_below_event_mtbf_on_t2() {
        // Multi-GPU failures make per-GPU MTBF lower than per-event MTBF.
        let log = t2();
        let event = class_mtbf_hours(&log, ComponentClass::Gpu).unwrap();
        let involvement = gpu_involvement_mtbf_hours(&log).unwrap();
        assert!(involvement < event);
        // 13728 h / (112 + 256 + 384 + 30) ≈ 17.6 h.
        assert!((involvement - 17.55).abs() < 0.3, "{involvement}");
    }

    #[test]
    fn fig7_gpu_and_software_have_lowest_median_tbf() {
        // The most frequent categories have the shortest inter-arrivals.
        let rows = per_category_tbf(&t3(), 5);
        assert!(!rows.is_empty());
        assert_eq!(rows[0].category, Category::T3(T3Category::Software));
        assert_eq!(rows[1].category, Category::T3(T3Category::Gpu));
        // Ascending mean order.
        for w in rows.windows(2) {
            assert!(w[0].summary.mean() <= w[1].summary.mean());
        }
    }

    #[test]
    fn fig7_memory_and_cpu_have_higher_median_tbf() {
        let rows = per_category_tbf(&t2(), 5);
        let median_of = |cat: Category| {
            rows.iter()
                .find(|r| r.category == cat)
                .map(|r| r.summary.median())
        };
        let gpu = median_of(Category::T2(T2Category::Gpu)).unwrap();
        let memory = median_of(Category::T2(T2Category::Memory)).unwrap();
        let cpu = median_of(Category::T2(T2Category::Cpu)).unwrap();
        assert!(memory > 3.0 * gpu);
        assert!(cpu > 3.0 * gpu);
    }

    #[test]
    fn min_events_filters_rare_categories() {
        let rows = per_category_tbf(&t3(), 50);
        // Only Software (171) and GPU (94) have ≥ 50 events.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn degenerate_logs() {
        let empty = t3().filtered(|_| false);
        assert!(TbfAnalysis::from_index(&StreamView::new(&empty)).is_none());
        assert!(class_mtbf_hours(&empty, ComponentClass::Gpu).is_none());
        assert!(gpu_involvement_mtbf_hours(&empty).is_none());
        assert!(per_category_tbf(&empty, 2).is_empty());

        let single = t3().filtered(|r| r.id() == 0);
        assert!(TbfAnalysis::from_index(&StreamView::new(&single)).is_none());
    }
}
