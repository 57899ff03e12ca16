//! Prediction-triggered proactive recovery.
//!
//! The paper closes RQ5 with: "lowering the time to recovery requires
//! designing strategies that are specific to different types of failures
//! and leveraging failure prediction to initiate recovery proactively
//! where possible". This module models a failure predictor by its
//! precision/recall and computes the MTTR reduction (and its cost in
//! wasted proactive actions) that such a strategy would deliver on a
//! measured log.

use failtypes::{Category, FailureLog};

/// A failure predictor characterized by its confusion-matrix rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predictor {
    /// Fraction of real failures the predictor flags ahead of time.
    pub recall: f64,
    /// Fraction of flagged events that are real failures.
    pub precision: f64,
}

impl Predictor {
    /// Creates a predictor; `None` unless both rates are in `(0, 1]`.
    pub fn new(recall: f64, precision: f64) -> Option<Self> {
        (recall > 0.0 && recall <= 1.0 && precision > 0.0 && precision <= 1.0)
            .then_some(Predictor { recall, precision })
    }

    /// False alarms raised per true positive.
    pub fn false_alarms_per_hit(&self) -> f64 {
        (1.0 - self.precision) / self.precision
    }
}

/// The effect of proactive recovery on one log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveOutcome {
    /// MTTR with the strategy, hours.
    pub proactive_mttr_hours: f64,
    /// MTTR without it, hours.
    pub baseline_mttr_hours: f64,
    /// Repair hours saved over the whole log.
    pub hours_saved: f64,
    /// Hours spent on false-alarm proactive actions.
    pub false_alarm_cost_hours: f64,
}

impl ProactiveOutcome {
    /// Relative MTTR reduction, `0..=1`.
    pub fn mttr_reduction(&self) -> f64 {
        1.0 - self.proactive_mttr_hours / self.baseline_mttr_hours
    }

    /// Net benefit after subtracting false-alarm cost, in hours.
    pub fn net_hours_saved(&self) -> f64 {
        self.hours_saved - self.false_alarm_cost_hours
    }
}

/// Evaluates prediction-triggered proactive recovery on a log.
///
/// For each failure, with probability `recall` the predictor flags it in
/// advance and the repair takes `proactive_ttr_hours(category)` (e.g.
/// draining the node and hot-swapping a staged spare) instead of the
/// recorded TTR — unless the recorded TTR was already faster. Each true
/// positive drags along `(1-precision)/precision` false alarms, each
/// costing `false_alarm_cost_hours`.
///
/// The expectation is computed in closed form (no sampling), so results
/// are deterministic.
///
/// Returns `None` for an empty log.
pub fn evaluate_proactive(
    log: &FailureLog,
    predictor: Predictor,
    mut proactive_ttr_hours: impl FnMut(Category) -> f64,
    false_alarm_cost_hours: f64,
) -> Option<ProactiveOutcome> {
    if log.is_empty() {
        return None;
    }
    let mut baseline_total = 0.0;
    let mut proactive_total = 0.0;
    let mut hits = 0.0;
    for rec in log.iter() {
        let ttr = rec.ttr().get();
        baseline_total += ttr;
        let fast = proactive_ttr_hours(rec.category()).max(0.0).min(ttr);
        proactive_total += predictor.recall * fast + (1.0 - predictor.recall) * ttr;
        hits += predictor.recall;
    }
    let n = log.len() as f64;
    let false_alarms = hits * predictor.false_alarms_per_hit();
    Some(ProactiveOutcome {
        proactive_mttr_hours: proactive_total / n,
        baseline_mttr_hours: baseline_total / n,
        hours_saved: baseline_total - proactive_total,
        false_alarm_cost_hours: false_alarms * false_alarm_cost_hours,
    })
}

/// A simple category-specific proactive TTR model: hardware replacements
/// drop to the staging time, software restarts to the reboot time — the
/// "strategies specific to different types of failures" the paper calls
/// for.
pub fn default_proactive_ttr(category: Category) -> f64 {
    if category.is_software() {
        2.0 // scripted restart/patch with the fix staged
    } else {
        8.0 // drain + hot-swap with the part already on site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn predictor_construction() {
        assert!(Predictor::new(0.0, 0.5).is_none());
        assert!(Predictor::new(0.5, 0.0).is_none());
        assert!(Predictor::new(1.1, 0.5).is_none());
        let p = Predictor::new(0.6, 0.8).unwrap();
        assert!((p.false_alarms_per_hit() - 0.25).abs() < 1e-12);
        let perfect = Predictor::new(1.0, 1.0).unwrap();
        assert_eq!(perfect.false_alarms_per_hit(), 0.0);
    }

    #[test]
    fn perfect_predictor_caps_mttr_at_proactive_times() {
        let log = t3();
        let p = Predictor::new(1.0, 1.0).unwrap();
        let out = evaluate_proactive(&log, p, default_proactive_ttr, 4.0).unwrap();
        // Every repair becomes at most the proactive time.
        assert!(out.proactive_mttr_hours <= 8.0);
        assert!(out.mttr_reduction() > 0.8);
        assert_eq!(out.false_alarm_cost_hours, 0.0);
        assert!(out.net_hours_saved() > 0.0);
    }

    #[test]
    fn realistic_predictor_gives_partial_reduction() {
        let log = t3();
        let p = Predictor::new(0.5, 0.8).unwrap();
        let out = evaluate_proactive(&log, p, default_proactive_ttr, 4.0).unwrap();
        // Baseline MTTR ≈ 55 h; recall 0.5 halves the improvable part.
        assert!((out.baseline_mttr_hours - 55.0).abs() < 12.0);
        let reduction = out.mttr_reduction();
        assert!(reduction > 0.35 && reduction < 0.55, "reduction {reduction}");
        assert!(out.false_alarm_cost_hours > 0.0);
        assert!(out.net_hours_saved() > 0.0);
    }

    #[test]
    fn low_precision_can_negate_the_benefit() {
        let log = t3();
        let sloppy = Predictor::new(0.5, 0.02).unwrap();
        // Expensive false alarms (e.g. draining big jobs).
        let out = evaluate_proactive(&log, sloppy, default_proactive_ttr, 40.0).unwrap();
        assert!(out.net_hours_saved() < 0.0, "net {}", out.net_hours_saved());
        // Yet MTTR itself still improves — the cost is elsewhere.
        assert!(out.mttr_reduction() > 0.0);
    }

    #[test]
    fn proactive_never_worse_than_recorded() {
        // A "proactive" time larger than the recorded TTR must not hurt.
        let log = t3();
        let p = Predictor::new(1.0, 1.0).unwrap();
        let out = evaluate_proactive(&log, p, |_| 1e6, 0.0).unwrap();
        assert!((out.proactive_mttr_hours - out.baseline_mttr_hours).abs() < 1e-9);
        assert!(out.hours_saved.abs() < 1e-6);
    }

    #[test]
    fn category_specific_strategy_beats_uniform() {
        // The paper: strategies must be failure-type specific. A uniform
        // 8 h action everywhere is worse than 2 h for software + 8 h for
        // hardware on a software-dominated log.
        let log = t3();
        let p = Predictor::new(0.7, 0.9).unwrap();
        let specific = evaluate_proactive(&log, p, default_proactive_ttr, 4.0).unwrap();
        let uniform = evaluate_proactive(&log, p, |_| 8.0, 4.0).unwrap();
        assert!(specific.proactive_mttr_hours < uniform.proactive_mttr_hours);
    }

    #[test]
    fn empty_log_is_none() {
        let empty = t3().filtered(|_| false);
        let p = Predictor::new(0.5, 0.5).unwrap();
        assert!(evaluate_proactive(&empty, p, default_proactive_ttr, 1.0).is_none());
    }
}
