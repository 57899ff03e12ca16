//! Repair-crew staffing.
//!
//! The RQ5 summary warns that MTTR can be cut by "more staff devoted to
//! failure monitoring, but this comes at an increased operational cost".
//! With MTTR comparable to MTBF, repairs overlap (see
//! [`failscope::AvailabilityAnalysis`]); if only `k` repair crews exist,
//! overlapping failures *queue*, inflating the effective time to
//! recovery beyond the hands-on time. This module replays a measured log
//! through a `k`-crew queue and reports the inflation, giving operators
//! the staffing/TTR trade-off curve.

use failscope::StreamView;

/// The outcome of replaying a log through a `k`-crew repair queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaffingOutcome {
    /// Crews simulated.
    pub crews: u32,
    /// Mean hands-on repair time (the log's recorded MTTR).
    pub hands_on_mttr_hours: f64,
    /// Mean effective repair time including queueing for a crew.
    pub effective_mttr_hours: f64,
    /// Mean wait for a crew.
    pub mean_wait_hours: f64,
    /// Fraction of failures that had to wait.
    pub delayed_fraction: f64,
    /// Longest wait observed.
    pub max_wait_hours: f64,
}

impl StaffingOutcome {
    /// Effective-MTTR inflation factor over the hands-on MTTR
    /// (1.0 = crews never limit repairs).
    pub fn inflation(&self) -> f64 {
        self.effective_mttr_hours / self.hands_on_mttr_hours
    }
}

/// Replays the failures of a [`StreamView`] through `crews` parallel
/// repair crews in arrival order: each failure waits until a crew frees
/// up, then occupies it for the recorded TTR.
///
/// Returns `None` for an empty index or zero crews.
pub fn simulate_staffing(index: &StreamView, crews: u32) -> Option<StaffingOutcome> {
    if index.is_empty() || crews == 0 {
        return None;
    }
    // Earliest-free-crew times; linear scan is fine for realistic crew
    // counts.
    let mut free_at = vec![0.0f64; crews as usize];
    let mut total_wait = 0.0;
    let mut total_hands_on = 0.0;
    let mut delayed = 0usize;
    let mut max_wait = 0.0f64;
    for (&arrival, &service) in index.times().iter().zip(index.ttrs()) {
        // Pick the crew that frees first.
        let (idx, &earliest) = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("times are finite"))
            .expect("at least one crew");
        let start = arrival.max(earliest);
        let wait = start - arrival;
        free_at[idx] = start + service;
        total_wait += wait;
        total_hands_on += service;
        if wait > 1e-9 {
            delayed += 1;
        }
        max_wait = max_wait.max(wait);
    }
    let n = index.len() as f64;
    Some(StaffingOutcome {
        crews,
        hands_on_mttr_hours: total_hands_on / n,
        effective_mttr_hours: (total_hands_on + total_wait) / n,
        mean_wait_hours: total_wait / n,
        delayed_fraction: delayed as f64 / n,
        max_wait_hours: max_wait,
    })
}

/// Smallest crew count whose effective-MTTR inflation stays at or below
/// `max_inflation` (e.g. `1.05` for at most 5% queueing overhead).
///
/// Returns `None` for an empty index, or if even `crew_cap` crews cannot
/// meet the target.
///
/// # Panics
///
/// Panics if `max_inflation < 1` or `crew_cap == 0`.
pub fn required_crews(index: &StreamView, max_inflation: f64, crew_cap: u32) -> Option<u32> {
    assert!(max_inflation >= 1.0, "inflation target below 1 is impossible");
    assert!(crew_cap > 0, "crew cap must be positive");
    for crews in 1..=crew_cap {
        let outcome = simulate_staffing(index, crews)?;
        if outcome.inflation() <= max_inflation {
            return Some(crews);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::{
        Category, Date, FailureLog, FailureRecord, Generation, Hours, NodeId, ObservationWindow,
        T3Category,
    };

    fn tiny_view(records: Vec<(f64, f64)>) -> StreamView {
        let window = ObservationWindow::new(
            Date::new(2020, 1, 1).unwrap(),
            Date::new(2020, 12, 31).unwrap(),
        )
        .unwrap();
        let recs = records
            .into_iter()
            .enumerate()
            .map(|(i, (t, ttr))| {
                FailureRecord::new(
                    i as u32,
                    Hours::new(t),
                    Hours::new(ttr),
                    Category::T3(T3Category::Gpu),
                    NodeId::new(i as u32 % 540),
                )
            })
            .collect();
        StreamView::from(FailureLog::new(Generation::Tsubame3, window, recs).unwrap())
    }

    #[test]
    fn single_crew_queues_overlapping_repairs() {
        // Three failures at t=0,1,2, each taking 10 h, one crew.
        let log = tiny_view(vec![(0.0, 10.0), (1.0, 10.0), (2.0, 10.0)]);
        let out = simulate_staffing(&log, 1).unwrap();
        // Waits: 0, 9, 18 → mean 9.
        assert!((out.mean_wait_hours - 9.0).abs() < 1e-9);
        assert!((out.max_wait_hours - 18.0).abs() < 1e-9);
        assert!((out.delayed_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert!((out.hands_on_mttr_hours - 10.0).abs() < 1e-9);
        assert!((out.effective_mttr_hours - 19.0).abs() < 1e-9);
        assert!((out.inflation() - 1.9).abs() < 1e-9);
    }

    #[test]
    fn enough_crews_eliminate_waiting() {
        let log = tiny_view(vec![(0.0, 10.0), (1.0, 10.0), (2.0, 10.0)]);
        let out = simulate_staffing(&log, 3).unwrap();
        assert_eq!(out.mean_wait_hours, 0.0);
        assert_eq!(out.delayed_fraction, 0.0);
        assert!((out.inflation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn required_crews_finds_the_knee() {
        let log = tiny_view(vec![(0.0, 10.0), (1.0, 10.0), (2.0, 10.0)]);
        assert_eq!(required_crews(&log, 1.0, 5), Some(3));
        assert_eq!(required_crews(&log, 2.0, 5), Some(1));
        // Impossible target under the cap.
        let heavy = tiny_view((0..20).map(|i| (i as f64, 100.0)).collect());
        assert_eq!(required_crews(&heavy, 1.0, 1), None);
    }

    #[test]
    fn t2_needs_far_more_crews_than_t3() {
        // T2 averages ~3.6 concurrent repairs; T3 ~0.75. The staffing
        // knee reflects that.
        let t2 = StreamView::from(Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap());
        let t3 = StreamView::from(Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap());
        let c2 = required_crews(&t2, 1.05, 30).unwrap();
        let c3 = required_crews(&t3, 1.05, 30).unwrap();
        assert!(c2 > c3, "T2 crews {c2} vs T3 crews {c3}");
        assert!(c2 >= 4, "T2 crews {c2}");
        assert!(c3 <= 4, "T3 crews {c3}");
    }

    #[test]
    fn inflation_decreases_monotonically_with_crews() {
        let log = StreamView::from(Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap());
        let mut prev = f64::INFINITY;
        for crews in 1..=8 {
            let out = simulate_staffing(&log, crews).unwrap();
            assert!(out.inflation() <= prev + 1e-9, "crews {crews}");
            prev = out.inflation();
        }
    }

    #[test]
    fn degenerate_inputs() {
        let log = tiny_view(vec![(0.0, 1.0)]);
        assert!(simulate_staffing(&log, 0).is_none());
        let empty = log.filtered(|_| false);
        assert!(simulate_staffing(&empty, 2).is_none());
        assert!(required_crews(&empty, 1.1, 5).is_none());
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn rejects_sub_one_inflation() {
        let log = tiny_view(vec![(0.0, 1.0)]);
        let _ = required_crews(&log, 0.9, 5);
    }
}
