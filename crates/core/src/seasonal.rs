//! Figs. 11-12 — monthly (seasonal) analysis of failures and recovery
//! times, and the RQ5 question of whether failure density predicts TTR.

use failstats::Summary;
use failtypes::Month;

use crate::FleetIndex;

/// One calendar month's failures in one year.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthBucket {
    /// Calendar year.
    pub year: i32,
    /// Calendar month.
    pub month: Month,
    /// Failures that occurred in this month.
    pub failures: usize,
    /// TTR summary of those failures (`None` when the month had none).
    pub ttr: Option<Summary>,
}

/// The month-by-month view of a log (Figs. 11 and 12).
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalAnalysis {
    buckets: Vec<MonthBucket>,
}

impl SeasonalAnalysis {
    /// Buckets every failure by the `(year, month)` it occurred in,
    /// reusing the index's month-bucketed repair durations; all months
    /// the window touches appear, including failure-free ones.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let months = index.window().months();
        let buckets = months
            .into_iter()
            .zip(index.month_ttrs())
            .map(|((year, month), ttr_values)| MonthBucket {
                year,
                month,
                failures: ttr_values.len(),
                ttr: Summary::from_data(ttr_values),
            })
            .collect();
        SeasonalAnalysis { buckets }
    }

    /// The chronological `(year, month)` buckets.
    pub fn buckets(&self) -> &[MonthBucket] {
        &self.buckets
    }

    /// Failure counts per bucket in chronological order (Fig. 12's
    /// series).
    pub fn monthly_failure_counts(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.failures).collect()
    }

    /// Aggregates across years: mean TTR of all failures that occurred in
    /// each calendar month (January..December). Months with no failures
    /// yield `None`.
    pub fn mean_ttr_by_calendar_month(&self) -> [Option<f64>; 12] {
        let mut sums = [0.0; 12];
        let mut counts = [0usize; 12];
        for b in &self.buckets {
            if let Some(s) = &b.ttr {
                sums[b.month.index()] += s.mean() * s.n() as f64;
                counts[b.month.index()] += s.n();
            }
        }
        std::array::from_fn(|i| (counts[i] > 0).then(|| sums[i] / counts[i] as f64))
    }

    /// Mean TTR over the first (Jan-Jun) vs. second (Jul-Dec) half of the
    /// calendar year — Fig. 11's Tsubame-2 observation. `None` when
    /// either half has no failures.
    pub fn half_year_ttr_means(&self) -> Option<(f64, f64)> {
        let mut h = [(0.0, 0usize); 2];
        for b in &self.buckets {
            if let Some(s) = &b.ttr {
                let idx = usize::from(b.month.is_second_half());
                h[idx].0 += s.mean() * s.n() as f64;
                h[idx].1 += s.n();
            }
        }
        (h[0].1 > 0 && h[1].1 > 0)
            .then(|| (h[0].0 / h[0].1 as f64, h[1].0 / h[1].1 as f64))
    }

    /// Pearson correlation between a month's failure count and its mean
    /// TTR across the `(year, month)` buckets — the RQ5 "failure density
    /// does not predict recovery time" check. `None` with fewer than
    /// three non-empty buckets.
    pub fn density_ttr_correlation(&self) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .buckets
            .iter()
            .filter_map(|b| b.ttr.as_ref().map(|s| (b.failures as f64, s.mean())))
            .collect();
        if pairs.len() < 3 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        failstats::pearson(&xs, &ys)
    }

    /// Spearman variant of [`SeasonalAnalysis::density_ttr_correlation`].
    pub fn density_ttr_rank_correlation(&self) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .buckets
            .iter()
            .filter_map(|b| b.ttr.as_ref().map(|s| (b.failures as f64, s.mean())))
            .collect();
        if pairs.len() < 3 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        failstats::spearman(&xs, &ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failtypes::FailureLog;
    use crate::StreamView;
    use failsim::{Simulator, SystemModel};

    fn t2() -> FailureLog {
        Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
    }

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn buckets_cover_window_and_sum_to_total() {
        let log = t2();
        let s = SeasonalAnalysis::from_index(&StreamView::new(&log));
        // 2012-01 .. 2013-07 (the window ends 2013-08-01 exclusive) = 19
        // months.
        assert_eq!(s.buckets().len(), 19);
        let total: usize = s.monthly_failure_counts().iter().sum();
        assert_eq!(total, 897);
        // Chronological order.
        for w in s.buckets().windows(2) {
            assert!((w[0].year, w[0].month) < (w[1].year, w[1].month));
        }
    }

    #[test]
    fn fig12_counts_vary_month_to_month() {
        let s = SeasonalAnalysis::from_index(&StreamView::new(&t2()));
        let counts = s.monthly_failure_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(max > min, "no monthly variation at all");
    }

    #[test]
    fn fig11_t2_second_half_ttr_uplift() {
        // Average over seeds: Tsubame-2's TTR is higher in Jul-Dec.
        let deltas = failstats::par_map_ordered(8, failstats::available_threads(), |seed| {
            let log = Simulator::new(SystemModel::tsubame2(), 500 + seed as u64)
                .generate()
                .unwrap();
            let s = SeasonalAnalysis::from_index(&StreamView::new(&log));
            let (h1, h2) = s.half_year_ttr_means().unwrap();
            h2 - h1
        });
        let mean_delta = failstats::mean(&deltas).unwrap();
        assert!(mean_delta > 0.0, "T2 second-half uplift {mean_delta}");
    }

    #[test]
    fn fig11_t3_no_half_year_trend() {
        let deltas = failstats::par_map_ordered(8, failstats::available_threads(), |seed| {
            let log = Simulator::new(SystemModel::tsubame3(), 600 + seed as u64)
                .generate()
                .unwrap();
            let s = SeasonalAnalysis::from_index(&StreamView::new(&log));
            let (h1, h2) = s.half_year_ttr_means().unwrap();
            h2 - h1
        });
        let mean_delta = failstats::mean(&deltas).unwrap().abs();
        // No systematic uplift either way (band sized to TTR noise).
        assert!(mean_delta < 8.0, "T3 half-year delta {mean_delta}");
    }

    #[test]
    fn rq5_density_does_not_predict_ttr() {
        // Average |r| across seeds stays small: no correlation between a
        // month's failure count and its mean TTR.
        let rs = failstats::par_map_ordered(8, failstats::available_threads(), |seed| {
            let log = Simulator::new(SystemModel::tsubame3(), 700 + seed as u64)
                .generate()
                .unwrap();
            let s = SeasonalAnalysis::from_index(&StreamView::new(&log));
            s.density_ttr_correlation().unwrap()
        });
        let mean_abs = failstats::mean(&rs.iter().map(|r| r.abs()).collect::<Vec<_>>()).unwrap();
        assert!(mean_abs < 0.35, "mean |r| {mean_abs}");
        let mean = failstats::mean(&rs).unwrap();
        assert!(mean.abs() < 0.25, "mean r {mean}");
    }

    #[test]
    fn calendar_month_aggregation() {
        let s = SeasonalAnalysis::from_index(&StreamView::new(&t3()));
        let by_month = s.mean_ttr_by_calendar_month();
        // Every calendar month is touched by a ~33-month window.
        assert!(by_month.iter().all(|m| m.is_some()));
        for m in by_month.into_iter().flatten() {
            assert!(m > 0.0);
        }
    }

    #[test]
    fn rank_correlation_also_small() {
        let s = SeasonalAnalysis::from_index(&StreamView::new(&t3()));
        let rho = s.density_ttr_rank_correlation().unwrap();
        assert!(rho.abs() < 0.6);
    }

    #[test]
    fn degenerate_logs() {
        let empty = t3().filtered(|_| false);
        let s = SeasonalAnalysis::from_index(&StreamView::new(&empty));
        assert!(s.buckets().iter().all(|b| b.failures == 0));
        assert!(s.half_year_ttr_means().is_none());
        assert!(s.density_ttr_correlation().is_none());
        assert!(s.density_ttr_rank_correlation().is_none());
        assert!(s.mean_ttr_by_calendar_month().iter().all(|m| m.is_none()));
    }
}
