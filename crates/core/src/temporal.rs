//! Fig. 8 — temporal distribution of multi-GPU failures within nodes.
//!
//! The paper's observation: a failure in which multiple GPUs of a node
//! failed simultaneously is likely to be followed by another such failure
//! soon after. This module quantifies that with point-process burstiness
//! measures and a direct conditional-probability comparison.

use failstats::BurstinessReport;

use crate::FleetIndex;

/// Temporal-clustering analysis of multi-GPU failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiGpuTemporal {
    /// Burstiness of the multi-GPU failure sequence.
    pub report: BurstinessReport,
    /// Probability that a multi-GPU failure is followed by another one
    /// within the follow-up window.
    pub follow_up_probability: f64,
    /// The probability the same window would capture under a memoryless
    /// (exponential) arrival process with the observed mean gap — the
    /// "no clustering" baseline.
    pub poisson_baseline: f64,
}

impl MultiGpuTemporal {
    /// Computes the analysis from any [`FleetIndex`] with the given
    /// follow-up window in hours, reusing the index's multi-GPU arrival
    /// times.
    ///
    /// Returns `None` when the log has fewer than three multi-GPU
    /// failures (the paper's Tsubame-2 has hundreds).
    ///
    /// # Panics
    ///
    /// Panics if `follow_up_hours` is not positive.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V, follow_up_hours: f64) -> Option<Self> {
        Self::from_times(
            index.multi_gpu_times(),
            index.window().duration().get(),
            follow_up_hours,
        )
    }

    fn from_times(times: &[f64], horizon: f64, follow_up_hours: f64) -> Option<Self> {
        // Count windows sized to hold a handful of events on average.
        let count_window = (horizon / (times.len().max(1) as f64 / 4.0)).max(1.0);
        let report =
            failstats::burstiness_report(times, horizon, count_window, follow_up_hours)?;
        let gaps = failstats::inter_arrival_times(times);
        let mean_gap = failstats::mean(&gaps)?;
        Some(MultiGpuTemporal {
            report,
            follow_up_probability: report.short_gap_fraction,
            poisson_baseline: 1.0 - (-follow_up_hours / mean_gap).exp(),
        })
    }

    /// How much more likely a quick follow-up is than the memoryless
    /// baseline (1.0 = no clustering).
    pub fn clustering_factor(&self) -> f64 {
        if self.poisson_baseline > 0.0 {
            self.follow_up_probability / self.poisson_baseline
        } else {
            1.0
        }
    }

    /// `true` when the sequence is bursty by every measure (CV above 1,
    /// dispersion above 1, positive burstiness).
    pub fn is_clustered(&self) -> bool {
        self.report.cv > 1.0 && self.report.dispersion_index > 1.0 && self.report.burstiness > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamView;
    use failsim::{ClusteringMode, Simulator, SystemModel};

    #[test]
    fn fig8_t2_multi_gpu_failures_cluster() {
        // Average across seeds: clustering is a distributional property.
        let clustered: usize =
            failstats::par_map_ordered(10, failstats::available_threads(), |seed| {
                let log = Simulator::new(SystemModel::tsubame2(), 100 + seed as u64)
                    .generate()
                    .unwrap();
                let t = MultiGpuTemporal::from_index(&StreamView::new(&log), 96.0).unwrap();
                usize::from(t.report.cv > 1.0)
            })
            .iter()
            .sum();
        assert!(clustered >= 8, "only {clustered}/10 runs showed CV > 1");
    }

    #[test]
    fn fig8_follow_up_beats_poisson_baseline() {
        let factors = failstats::par_map_ordered(10, failstats::available_threads(), |seed| {
            let log = Simulator::new(SystemModel::tsubame2(), 200 + seed as u64)
                .generate()
                .unwrap();
            MultiGpuTemporal::from_index(&StreamView::new(&log), 96.0).unwrap().clustering_factor()
        });
        let mean = failstats::mean(&factors).unwrap();
        assert!(mean > 1.05, "mean clustering factor {mean}");
    }

    #[test]
    fn ablation_independent_assignment_is_not_clustered() {
        let mut model = SystemModel::tsubame2();
        model.clustering = ClusteringMode::Independent;
        let cvs = failstats::par_map_ordered(10, failstats::available_threads(), |seed| {
            let log = Simulator::new(model.clone(), 300 + seed as u64).generate().unwrap();
            MultiGpuTemporal::from_index(&StreamView::new(&log), 96.0).unwrap().report.cv
        });
        let mean_cv = failstats::mean(&cvs).unwrap();
        // Thinned renewal arrivals: CV stays near 1.
        assert!(
            (mean_cv - 1.0).abs() < 0.2,
            "independent assignment mean CV {mean_cv}"
        );
    }

    #[test]
    fn clustered_exceeds_independent() {
        let pairs = failstats::par_map_ordered(10, failstats::available_threads(), |seed| {
            let on = Simulator::new(SystemModel::tsubame2(), 400 + seed as u64)
                .generate()
                .unwrap();
            let mut model = SystemModel::tsubame2();
            model.clustering = ClusteringMode::Independent;
            let off = Simulator::new(model, 400 + seed as u64).generate().unwrap();
            (
                MultiGpuTemporal::from_index(&StreamView::new(&on), 96.0).unwrap().report.cv,
                MultiGpuTemporal::from_index(&StreamView::new(&off), 96.0).unwrap().report.cv,
            )
        });
        let mut sum_on = 0.0;
        let mut sum_off = 0.0;
        for (on, off) in pairs {
            sum_on += on;
            sum_off += off;
        }
        assert!(sum_on > sum_off, "on {sum_on} off {sum_off}");
    }

    #[test]
    fn t3_has_too_few_multi_gpu_failures_for_strong_claims() {
        // Tsubame-3 has only 6 multi-GPU failures; the analysis still
        // runs but the paper makes the clustering claim on Tsubame-2.
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let t = MultiGpuTemporal::from_index(&StreamView::new(&log), 96.0);
        assert!(t.is_some());
        assert_eq!(t.unwrap().report.events, 6);
    }

    #[test]
    fn empty_sequences_are_none() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let none = log.filtered(|r| !r.is_multi_gpu());
        assert!(MultiGpuTemporal::from_index(&StreamView::new(&none), 96.0).is_none());
    }
}
