//! Checkpoint-interval optimization driven by measured MTBF.
//!
//! The paper motivates checkpointing as the standard mitigation for GPU
//! failures (Section III cites GPU snapshot/CRUM/MANA). This module
//! implements the classic Young and Daly optimal-interval formulas on top
//! of an MTBF measured by [`failscope::TbfAnalysis`], plus the expected
//! waste model needed to compare plans.

use failscope::StreamView;

/// Error for invalid checkpoint-model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidCheckpointParams(&'static str);

impl std::fmt::Display for InvalidCheckpointParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid checkpoint parameters: {}", self.0)
    }
}

impl std::error::Error for InvalidCheckpointParams {}

/// A checkpointing plan for an application on a system with a known MTBF.
///
/// # Examples
///
/// ```
/// use failmitigate::CheckpointPlan;
///
/// // 15 h MTBF (Tsubame-2-like), 6-minute checkpoints.
/// let plan = CheckpointPlan::new(15.0, 0.1)?;
/// // Young: sqrt(2 · 0.1 · 15) ≈ 1.73 h.
/// assert!((plan.young_interval_hours() - 1.732).abs() < 0.01);
/// assert!(plan.efficiency(plan.daly_interval_hours()) > 0.75);
/// # Ok::<(), failmitigate::InvalidCheckpointParams>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPlan {
    mtbf_hours: f64,
    checkpoint_cost_hours: f64,
}

impl CheckpointPlan {
    /// Creates a plan from an MTBF and a per-checkpoint cost, both in
    /// hours.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite inputs, and costs at or above
    /// half the MTBF (the optimal-interval formulas lose validity there).
    pub fn new(mtbf_hours: f64, checkpoint_cost_hours: f64) -> Result<Self, InvalidCheckpointParams> {
        if mtbf_hours <= 0.0 || mtbf_hours.is_nan() || mtbf_hours.is_infinite() {
            return Err(InvalidCheckpointParams("MTBF must be positive and finite"));
        }
        if checkpoint_cost_hours <= 0.0
            || checkpoint_cost_hours.is_nan()
            || checkpoint_cost_hours.is_infinite()
        {
            return Err(InvalidCheckpointParams(
                "checkpoint cost must be positive and finite",
            ));
        }
        if checkpoint_cost_hours >= mtbf_hours / 2.0 {
            return Err(InvalidCheckpointParams(
                "checkpoint cost must be below half the MTBF",
            ));
        }
        Ok(CheckpointPlan {
            mtbf_hours,
            checkpoint_cost_hours,
        })
    }

    /// Derives the plan from a measured [`StreamView`] (a
    /// [`failscope::StreamView`], bulk-built or live).
    ///
    /// # Errors
    ///
    /// Fails when the index holds fewer than two failures (no MTBF) or
    /// the parameters are invalid for the measured MTBF.
    pub fn from_index(
        index: &StreamView,
        checkpoint_cost_hours: f64,
    ) -> Result<Self, InvalidCheckpointParams> {
        let tbf = failscope::TbfAnalysis::from_index(index)
            .ok_or(InvalidCheckpointParams("log has fewer than two failures"))?;
        Self::new(tbf.mtbf_hours(), checkpoint_cost_hours)
    }

    /// The system MTBF in hours.
    pub const fn mtbf_hours(&self) -> f64 {
        self.mtbf_hours
    }

    /// The per-checkpoint cost in hours.
    pub const fn checkpoint_cost_hours(&self) -> f64 {
        self.checkpoint_cost_hours
    }

    /// Young's optimal interval `sqrt(2 δ M)`.
    pub fn young_interval_hours(&self) -> f64 {
        (2.0 * self.checkpoint_cost_hours * self.mtbf_hours).sqrt()
    }

    /// Daly's higher-order optimal interval
    /// `sqrt(2 δ M) · [1 + ⅓ sqrt(δ/(2M)) + (δ/(2M))/9] − δ`, valid for
    /// `δ < 2M`.
    pub fn daly_interval_hours(&self) -> f64 {
        let d = self.checkpoint_cost_hours;
        let m = self.mtbf_hours;
        let base = (2.0 * d * m).sqrt();
        let ratio = (d / (2.0 * m)).sqrt();
        base * (1.0 + ratio / 3.0 + ratio * ratio / 9.0) - d
    }

    /// Expected fraction of wall-clock time doing useful work at
    /// checkpoint interval `tau` hours, under the standard first-order
    /// waste model: checkpoint overhead `δ/(τ+δ)` plus expected rework of
    /// half a segment per failure.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    pub fn efficiency(&self, tau: f64) -> f64 {
        assert!(tau > 0.0, "interval must be positive");
        let d = self.checkpoint_cost_hours;
        let m = self.mtbf_hours;
        let overhead = d / (tau + d);
        let rework = (tau + d) / (2.0 * m);
        (1.0 - overhead) * (1.0 - rework.min(1.0)).max(0.0)
    }

    /// Expected wall-clock hours to finish `work_hours` of failure-free
    /// compute at interval `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive or the efficiency collapses to
    /// zero (interval hopelessly long for the MTBF).
    pub fn expected_makespan_hours(&self, work_hours: f64, tau: f64) -> f64 {
        let eff = self.efficiency(tau);
        assert!(eff > 0.0, "efficiency is zero at this interval");
        work_hours / eff
    }
}

/// Sweeps checkpoint costs and reports the Daly interval and efficiency
/// for each — the table the `checkpoint_planner` example prints.
pub fn sweep_costs(mtbf_hours: f64, costs: &[f64]) -> Vec<(f64, f64, f64)> {
    costs
        .iter()
        .filter_map(|&cost| {
            let plan = CheckpointPlan::new(mtbf_hours, cost).ok()?;
            let tau = plan.daly_interval_hours();
            Some((cost, tau, plan.efficiency(tau)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use failscope::StreamView;
    use failsim::{Simulator, SystemModel};

    #[test]
    fn young_formula() {
        let plan = CheckpointPlan::new(50.0, 0.25).unwrap();
        assert!((plan.young_interval_hours() - 5.0).abs() < 1e-12);
        assert_eq!(plan.mtbf_hours(), 50.0);
        assert_eq!(plan.checkpoint_cost_hours(), 0.25);
    }

    #[test]
    fn daly_close_to_young_for_small_cost() {
        let plan = CheckpointPlan::new(100.0, 0.01).unwrap();
        let young = plan.young_interval_hours();
        let daly = plan.daly_interval_hours();
        assert!((daly - young).abs() / young < 0.02, "young {young} daly {daly}");
    }

    #[test]
    fn optimal_interval_roughly_maximizes_efficiency() {
        let plan = CheckpointPlan::new(72.0, 0.2).unwrap();
        let tau_opt = plan.daly_interval_hours();
        let best = plan.efficiency(tau_opt);
        // Nearby intervals are no better (allowing model error).
        for factor in [0.25, 0.5, 2.0, 4.0] {
            assert!(
                plan.efficiency(tau_opt * factor) <= best + 1e-3,
                "factor {factor}"
            );
        }
    }

    #[test]
    fn efficiency_is_sane() {
        let plan = CheckpointPlan::new(15.0, 0.1).unwrap();
        let tau = plan.daly_interval_hours();
        let eff = plan.efficiency(tau);
        assert!(eff > 0.7 && eff < 1.0, "eff {eff}");
        // Makespan inflates work by 1/eff.
        let makespan = plan.expected_makespan_hours(100.0, tau);
        assert!((makespan - 100.0 / eff).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(CheckpointPlan::new(0.0, 0.1).is_err());
        assert!(CheckpointPlan::new(-5.0, 0.1).is_err());
        assert!(CheckpointPlan::new(10.0, 0.0).is_err());
        assert!(CheckpointPlan::new(10.0, 5.0).is_err()); // >= M/2
        assert!(CheckpointPlan::new(f64::NAN, 0.1).is_err());
        assert!(CheckpointPlan::new(10.0, f64::INFINITY).is_err());
    }

    #[test]
    fn from_measured_logs() {
        let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let p2 = CheckpointPlan::from_index(&StreamView::new(&t2), 0.1).unwrap();
        let p3 = CheckpointPlan::from_index(&StreamView::new(&t3), 0.1).unwrap();
        // Higher MTBF permits longer intervals and better efficiency.
        assert!(p3.daly_interval_hours() > 2.0 * p2.daly_interval_hours());
        assert!(
            p3.efficiency(p3.daly_interval_hours()) > p2.efficiency(p2.daly_interval_hours())
        );
        // Empty log fails.
        let empty = t3.filtered(|_| false);
        assert!(CheckpointPlan::from_index(&StreamView::new(&empty), 0.1).is_err());
    }

    #[test]
    fn sweep_skips_invalid_costs() {
        let rows = sweep_costs(15.0, &[0.05, 0.1, 0.5, 100.0]);
        assert_eq!(rows.len(), 3); // 100.0 >= 15/2 dropped
        // Larger cost -> longer interval, lower efficiency.
        for w in rows.windows(2) {
            assert!(w[0].1 < w[1].1);
            assert!(w[0].2 > w[1].2);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn efficiency_rejects_zero_tau() {
        let plan = CheckpointPlan::new(10.0, 0.1).unwrap();
        let _ = plan.efficiency(0.0);
    }
}
