//! RQ5 — time to recovery (Figs. 9 and 10).

use failstats::{Ecdf, Summary};
use failtypes::{Category, Domain, FailureLog};

use crate::{FleetIndex, StreamView};

/// System-wide time-to-recovery analysis (Fig. 9).
///
/// # Examples
///
/// ```
/// use failscope::{StreamView, TtrAnalysis};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let ttr = TtrAnalysis::from_index(&StreamView::from(log)).unwrap();
/// // Fig. 9: MTTR ≈ 55 h.
/// assert!((ttr.mttr_hours() - 55.0).abs() < 12.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TtrAnalysis {
    ecdf: Ecdf,
}

impl TtrAnalysis {
    /// Computes the analysis from any [`FleetIndex`], reusing its
    /// pre-sorted TTR sample instead of re-sorting; `None` when no
    /// failures are indexed.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Option<Self> {
        Some(TtrAnalysis {
            ecdf: Ecdf::from_sorted(index.ttrs_sorted().to_vec())?,
        })
    }

    /// Mean time to recovery.
    pub fn mttr_hours(&self) -> f64 {
        self.ecdf.mean()
    }

    /// Median time to recovery.
    pub fn median_hours(&self) -> f64 {
        self.ecdf.quantile(0.5)
    }

    /// Arbitrary TTR quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.ecdf.quantile(p)
    }

    /// Longest observed recovery.
    pub fn max_hours(&self) -> f64 {
        self.ecdf.max()
    }

    /// The empirical CDF (Fig. 9's curve).
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }
}

/// One row of the per-category TTR table (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryTtr {
    /// The failure category.
    pub category: Category,
    /// Share of all failures in this category.
    pub share_of_failures: f64,
    /// Box-plot summary of the recovery times.
    pub summary: Summary,
}

/// Per-category TTR distributions from any [`FleetIndex`], reusing its
/// time-ordered category partitions; rows are sorted by ascending mean
/// TTR (the order Fig. 10 plots). Every category with at least one
/// failure appears.
pub fn per_category_ttr_index<V: FleetIndex + ?Sized>(index: &V) -> Vec<CategoryTtr> {
    let total = index.len().max(1) as f64;
    let mut out: Vec<CategoryTtr> = index
        .category_indices()
        .keys()
        .filter_map(|&category| {
            let ttrs = index.category_ttrs(category);
            Summary::from_data(&ttrs).map(|summary| CategoryTtr {
                category,
                share_of_failures: ttrs.len() as f64 / total,
                summary,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        a.summary
            .mean()
            .partial_cmp(&b.summary.mean())
            .expect("means are finite")
    });
    out
}

/// [`per_category_ttr_index`], indexing the log once.
pub fn per_category_ttr(log: &FailureLog) -> Vec<CategoryTtr> {
    per_category_ttr_index(&StreamView::new(log))
}

/// Count-weighted mean of the per-domain TTR interquartile ranges — a
/// scalar for Fig. 10's "hardware repairs have a higher spread than
/// software repairs" claim.
pub fn domain_ttr_spread_index<V: FleetIndex + ?Sized>(index: &V, domain: Domain) -> Option<f64> {
    let rows = per_category_ttr_index(index);
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for row in rows {
        if row.category.domain() == domain {
            let n = row.summary.n() as f64;
            weighted += row.summary.iqr() * n;
            weight += n;
        }
    }
    (weight > 0.0).then(|| weighted / weight)
}

/// [`domain_ttr_spread_index`], indexing the log once.
pub fn domain_ttr_spread(log: &FailureLog, domain: Domain) -> Option<f64> {
    domain_ttr_spread_index(&StreamView::new(log), domain)
}

/// Categories that are individually rare but expensive to repair:
/// share of failures below `max_share` and maximum TTR above
/// `min_max_ttr_hours` (the paper's power-board / SSD examples).
pub fn rare_but_costly_index<V: FleetIndex + ?Sized>(
    index: &V,
    max_share: f64,
    min_max_ttr_hours: f64,
) -> Vec<CategoryTtr> {
    per_category_ttr_index(index)
        .into_iter()
        .filter(|row| row.share_of_failures <= max_share && row.summary.max() >= min_max_ttr_hours)
        .collect()
}

/// [`rare_but_costly_index`], indexing the log once.
pub fn rare_but_costly(
    log: &FailureLog,
    max_share: f64,
    min_max_ttr_hours: f64,
) -> Vec<CategoryTtr> {
    rare_but_costly_index(&StreamView::new(log), max_share, min_max_ttr_hours)
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
    fn fig9_mttr_similar_on_both_systems() {
        let a2 = TtrAnalysis::from_index(&StreamView::new(&t2())).unwrap();
        let a3 = TtrAnalysis::from_index(&StreamView::new(&t3())).unwrap();
        assert!((a2.mttr_hours() - 55.0).abs() < 10.0, "T2 {}", a2.mttr_hours());
        assert!((a3.mttr_hours() - 55.0).abs() < 10.0, "T3 {}", a3.mttr_hours());
        // The distributions are similar in shape: medians within a factor.
        let ratio = a2.median_hours() / a3.median_hours();
        assert!((0.6..1.6).contains(&ratio), "median ratio {ratio}");
    }

    #[test]
    fn fig9_mttr_comparable_to_mtbf_on_t3() {
        // RQ5 discussion: MTTR is comparable to MTBF, so repairs overlap
        // new failures.
        let log = t3();
        let view = StreamView::new(&log);
        let mttr = TtrAnalysis::from_index(&view).unwrap().mttr_hours();
        let mtbf = crate::tbf::TbfAnalysis::from_index(&view).unwrap().mtbf_hours();
        assert!(mttr > 0.5 * mtbf, "mttr {mttr} vs mtbf {mtbf}");
    }

    #[test]
    fn fig10_order_and_spread() {
        let rows = per_category_ttr(&t3());
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].summary.mean() <= w[1].summary.mean());
        }
        // Hardware repairs have higher IQR than software repairs.
        let hw = domain_ttr_spread(&t3(), Domain::Hardware).unwrap();
        let sw = domain_ttr_spread(&t3(), Domain::Software).unwrap();
        assert!(hw > sw, "hw {hw} sw {sw}");
    }

    #[test]
    fn fig10_power_board_is_rare_but_costly() {
        // Power-Board: ~1% of Tsubame-3 failures but repairs can exceed
        // 100+ hours.
        let rows = per_category_ttr(&t3());
        let pb = rows
            .iter()
            .find(|r| r.category == Category::T3(T3Category::PowerBoard))
            .unwrap();
        assert!(pb.share_of_failures < 0.02);
        assert!(pb.summary.max() > 80.0, "max {}", pb.summary.max());

        let costly = rare_but_costly(&t3(), 0.02, 80.0);
        assert!(costly.iter().any(|r| r.category == Category::T3(T3Category::PowerBoard)));
    }

    #[test]
    fn fig10_ssd_tail_on_t2() {
        // SSD: ~4% of Tsubame-2 failures, repairs reaching hundreds of
        // hours.
        let rows = per_category_ttr(&t2());
        let ssd = rows
            .iter()
            .find(|r| r.category == Category::T2(T2Category::Ssd))
            .unwrap();
        assert!((ssd.share_of_failures - 0.04).abs() < 0.005);
        assert!(ssd.summary.max() > 150.0, "max {}", ssd.summary.max());
    }

    #[test]
    fn shares_sum_to_one() {
        let rows = per_category_ttr(&t2());
        let sum: f64 = rows.iter().map(|r| r.share_of_failures).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn low_mean_does_not_imply_low_spread() {
        // Fig. 10: categories with low average TTR do not necessarily
        // have the lowest spread — verify the ordering of means and IQRs
        // differ somewhere.
        let rows = per_category_ttr(&t2());
        let mean_order: Vec<Category> = rows.iter().map(|r| r.category).collect();
        let mut iqr_keys: Vec<(f64, Category)> =
            rows.iter().map(|r| (r.summary.iqr(), r.category)).collect();
        iqr_keys.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let iqr_order: Vec<Category> = iqr_keys.into_iter().map(|(_, c)| c).collect();
        assert_ne!(mean_order, iqr_order);
    }

    #[test]
    fn degenerate_logs() {
        let empty = t3().filtered(|_| false);
        assert!(TtrAnalysis::from_index(&StreamView::new(&empty)).is_none());
        assert!(per_category_ttr(&empty).is_empty());
        assert!(domain_ttr_spread(&empty, Domain::Hardware).is_none());
        assert!(rare_but_costly(&empty, 0.1, 10.0).is_empty());
    }
}
