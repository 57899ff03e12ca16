//! Co-location-aware node scheduling under multi-GPU failures.
//!
//! RQ3's implication: operators should "change the scheduler design when
//! co-locating multiple jobs on the same node for increased utilization".
//! For two 2-GPU jobs on 4-GPU nodes, packing them onto one node and
//! spreading them over two nodes kill the *same number of jobs in
//! expectation* — what differs is the correlation: a simultaneous
//! multi-GPU failure on a packed node can kill **both** jobs at once,
//! while spread jobs can only die together through two independent
//! events. This module quantifies that trade against the utilization
//! gain, using multi-GPU rates measured from a log (Table III).

use failscope::FleetIndex;

/// Node-level GPU failure rates relevant to co-location decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailureModel {
    /// Single-GPU failures per node-hour.
    pub single_gpu_rate: f64,
    /// Simultaneous multi-GPU failures per node-hour.
    pub multi_gpu_rate: f64,
}

impl NodeFailureModel {
    /// Creates a model; `None` for negative or non-finite rates.
    pub fn new(single_gpu_rate: f64, multi_gpu_rate: f64) -> Option<Self> {
        (single_gpu_rate >= 0.0
            && multi_gpu_rate >= 0.0
            && single_gpu_rate.is_finite()
            && multi_gpu_rate.is_finite())
        .then_some(NodeFailureModel {
            single_gpu_rate,
            multi_gpu_rate,
        })
    }

    /// Derives the rates from any measured [`FleetIndex`] (events with
    /// unknown involvement count as single).
    ///
    /// Returns `None` when the index has no GPU failures.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Option<Self> {
        let node_hours = index.window().duration().get() * index.spec().nodes() as f64;
        let mut single = 0usize;
        let mut multi = 0usize;
        for rec in index.records().iter().filter(|r| r.category().is_gpu()) {
            if rec.is_multi_gpu() {
                multi += 1;
            } else {
                single += 1;
            }
        }
        if single + multi == 0 {
            return None;
        }
        Self::new(single as f64 / node_hours, multi as f64 / node_hours)
    }

    /// Share of GPU failures that are simultaneous multi-GPU.
    pub fn multi_share(&self) -> f64 {
        let total = self.single_gpu_rate + self.multi_gpu_rate;
        if total > 0.0 {
            self.multi_gpu_rate / total
        } else {
            0.0
        }
    }
}

/// How two 2-GPU jobs are placed on 4-GPU nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Both jobs share one node (better utilization, correlated risk).
    Pack,
    /// Each job gets its own node (blast radius one job).
    Spread,
}

/// Risk profile of a placement of two 2-GPU jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColocationOutcome {
    /// The placement evaluated.
    pub placement: Placement,
    /// Expected jobs killed over the duration (ties between placements —
    /// the expectation is placement-invariant).
    pub expected_job_kills: f64,
    /// Expected *correlated double kills*: events killing both jobs at
    /// once.
    pub correlated_kills: f64,
    /// Nodes occupied.
    pub nodes_used: u32,
}

/// Evaluates one placement for `duration_hours`.
///
/// Model (multi-GPU events treated as double-GPU, the dominant mode in
/// Table III): a single-GPU failure strikes a uniformly random GPU slot;
/// a double strikes a uniformly random slot pair.
///
/// * **Pack** — all 4 slots busy. Singles kill exactly one job; a double
///   hits GPUs of both jobs with probability 4/6 (kills both) and one job
///   with probability 2/6.
/// * **Spread** — 2 of 4 slots busy per node, two nodes exposed. A single
///   hits a busy slot with probability 1/2; a double hits at least one
///   busy slot with probability 5/6 and can never kill more than the one
///   job on its node.
///
/// # Panics
///
/// Panics if `duration_hours` is negative.
pub fn evaluate_placement(
    model: NodeFailureModel,
    placement: Placement,
    duration_hours: f64,
) -> ColocationOutcome {
    assert!(duration_hours >= 0.0, "duration must be non-negative");
    let s = model.single_gpu_rate * duration_hours;
    let m = model.multi_gpu_rate * duration_hours;
    match placement {
        Placement::Pack => {
            let both = m * (4.0 / 6.0);
            let one = m * (2.0 / 6.0);
            ColocationOutcome {
                placement,
                expected_job_kills: s + one + 2.0 * both,
                correlated_kills: both,
                nodes_used: 1,
            }
        }
        Placement::Spread => {
            // Two nodes, each half-busy.
            let singles = 2.0 * s * 0.5;
            let multis = 2.0 * m * (5.0 / 6.0);
            ColocationOutcome {
                placement,
                expected_job_kills: singles + multis,
                // Both jobs dying simultaneously needs two independent
                // events at once — negligible at these rates.
                correlated_kills: 0.0,
                nodes_used: 2,
            }
        }
    }
}

/// The scheduler decision the paper's RQ3 asks for: co-locating is
/// acceptable when the correlated-kill rate it introduces stays below
/// `tolerance` expected double kills per job — dense packing on a
/// Tsubame-3-like fleet (multi-GPU failures < 8%) but not on a
/// Tsubame-2-like one (~70%).
pub fn colocation_acceptable(
    model: NodeFailureModel,
    duration_hours: f64,
    tolerance: f64,
) -> bool {
    evaluate_placement(model, Placement::Pack, duration_hours).correlated_kills <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use failscope::StreamView;
    use failsim::{Simulator, SystemModel};

    #[test]
    fn model_construction() {
        assert!(NodeFailureModel::new(-1.0, 0.0).is_none());
        assert!(NodeFailureModel::new(0.0, f64::NAN).is_none());
        let m = NodeFailureModel::new(3e-5, 1e-5).expect("valid");
        assert!((m.multi_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn expected_kills_tie_but_correlation_does_not() {
        let model = NodeFailureModel::new(1e-4, 2e-5).expect("valid");
        let pack = evaluate_placement(model, Placement::Pack, 1000.0);
        let spread = evaluate_placement(model, Placement::Spread, 1000.0);
        // Expectation is placement-invariant: s + 5m/3 both ways.
        assert!(
            (pack.expected_job_kills - spread.expected_job_kills).abs() < 1e-12,
            "pack {} spread {}",
            pack.expected_job_kills,
            spread.expected_job_kills
        );
        // The correlated-kill risk is all on the packed side.
        assert!(pack.correlated_kills > 0.0);
        assert_eq!(spread.correlated_kills, 0.0);
        assert_eq!(pack.nodes_used, 1);
        assert_eq!(spread.nodes_used, 2);
    }

    #[test]
    fn decision_flips_between_generations() {
        let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("valid");
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
        let m2 = NodeFailureModel::from_index(&StreamView::new(&t2)).expect("GPU failures");
        let m3 = NodeFailureModel::from_index(&StreamView::new(&t3)).expect("GPU failures");
        // Table III: ~70% of T2 GPU failures are multi; < 8% on T3.
        assert!(m2.multi_share() > 0.5, "T2 multi share {}", m2.multi_share());
        assert!(m3.multi_share() < 0.1, "T3 multi share {}", m3.multi_share());

        // With a tolerance calibrated between the two fleets' correlated
        // risk, packing is acceptable on T3 but not on T2.
        let duration = 168.0; // a week-long job
        let risk2 = evaluate_placement(m2, Placement::Pack, duration).correlated_kills;
        let risk3 = evaluate_placement(m3, Placement::Pack, duration).correlated_kills;
        assert!(risk2 > 10.0 * risk3, "T2 {risk2} vs T3 {risk3}");
        let tolerance = (risk2 * risk3).sqrt();
        assert!(colocation_acceptable(m3, duration, tolerance));
        assert!(!colocation_acceptable(m2, duration, tolerance));
    }

    #[test]
    fn zero_duration_zero_risk() {
        let model = NodeFailureModel::new(1e-4, 1e-5).expect("valid");
        let out = evaluate_placement(model, Placement::Pack, 0.0);
        assert_eq!(out.expected_job_kills, 0.0);
        assert_eq!(out.correlated_kills, 0.0);
        assert!(colocation_acceptable(model, 0.0, 0.0));
    }

    #[test]
    fn from_log_requires_gpu_failures() {
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("valid");
        let none = t3.filtered(|r| !r.category().is_gpu());
        assert!(NodeFailureModel::from_index(&StreamView::new(&none)).is_none());
        let m = NodeFailureModel::from_index(&StreamView::new(&t3)).expect("GPU failures");
        assert!(m.single_gpu_rate > 0.0);
    }
}
