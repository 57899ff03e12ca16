//! Repair overlap and availability.
//!
//! RQ5's first implication: "the MTTR is very comparable to MTBF and
//! hence, it is likely that multiple concurrent failures might impact the
//! handling/repair of previous failures". This module quantifies exactly
//! that: how many repairs run concurrently, how often a new failure lands
//! while earlier repairs are still open, and what the failures cost in
//! node availability.

use crate::FleetIndex;

/// Repair-overlap and availability metrics of one log.
///
/// # Examples
///
/// ```
/// use failscope::{AvailabilityAnalysis, StreamView};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let a = AvailabilityAnalysis::from_index(&StreamView::from(log)).unwrap();
/// // MTTR ~ 0.75 MTBF on Tsubame-3: repairs frequently overlap.
/// assert!(a.overlap_probability() > 0.3);
/// assert!(a.node_availability() > 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityAnalysis {
    failures: usize,
    window_hours: f64,
    nodes: u32,
    total_repair_hours: f64,
    overlapping_arrivals: usize,
    mean_concurrent_repairs: f64,
    max_concurrent_repairs: usize,
    busy_fraction: f64,
}

impl AvailabilityAnalysis {
    /// Computes the metrics from any [`FleetIndex`]; `None` when no
    /// failures are indexed.
    ///
    /// Exploits the index's time order twice: overlapping arrivals come
    /// from a single running maximum over earlier repair ends (`O(n)`
    /// instead of `O(n²)`), and the sweep events come from merging the
    /// pre-sorted start and end arrays instead of sorting `2n` events.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Option<Self> {
        if index.is_empty() {
            return None;
        }
        let window_hours = index.window().duration().get();
        let n = index.len();
        let starts = index.times();
        let ends = index.recoveries();

        // Records are time-sorted, so an arrival overlaps an earlier
        // repair exactly when it lands before the running max of earlier
        // repair ends.
        let mut overlapping_arrivals = 0;
        let mut max_end = f64::NEG_INFINITY;
        for i in 0..n {
            if starts[i] < max_end {
                overlapping_arrivals += 1;
            }
            max_end = max_end.max(ends[i]);
        }

        // Merge the sorted starts and sorted ends into one sweep-line
        // event sequence, with ends before starts at equal times.
        let ends_sorted = index.recoveries_sorted();
        let mut current = 0i64;
        let mut max_concurrent = 0i64;
        let mut weighted_hours = 0.0;
        let mut busy_hours = 0.0;
        let mut prev_t = 0.0;
        let (mut si, mut ei) = (0usize, 0usize);
        while si < n || ei < n {
            let take_end = ei < n && (si >= n || ends_sorted[ei] <= starts[si]);
            let (t, delta) = if take_end {
                ei += 1;
                (ends_sorted[ei - 1], -1i64)
            } else {
                si += 1;
                (starts[si - 1], 1i64)
            };
            let span = (t - prev_t).max(0.0);
            weighted_hours += current as f64 * span;
            if current > 0 {
                busy_hours += span;
            }
            current += delta;
            max_concurrent = max_concurrent.max(current);
            prev_t = t;
        }

        let total_repair_hours: f64 = (0..n).map(|i| ends[i] - starts[i]).sum();
        Some(AvailabilityAnalysis {
            failures: n,
            window_hours,
            nodes: index.spec().nodes(),
            total_repair_hours,
            overlapping_arrivals,
            mean_concurrent_repairs: weighted_hours / window_hours,
            max_concurrent_repairs: max_concurrent as usize,
            busy_fraction: busy_hours / window_hours,
        })
    }

    /// Probability that a failure arrives while at least one earlier
    /// repair is still in progress — the RQ5 overlap concern.
    pub fn overlap_probability(&self) -> f64 {
        self.overlapping_arrivals as f64 / self.failures as f64
    }

    /// Time-averaged number of repairs in progress (Little's law:
    /// arrival rate x MTTR).
    pub const fn mean_concurrent_repairs(&self) -> f64 {
        self.mean_concurrent_repairs
    }

    /// The most repairs ever in progress simultaneously.
    pub const fn max_concurrent_repairs(&self) -> usize {
        self.max_concurrent_repairs
    }

    /// Fraction of the window with at least one repair in progress.
    pub const fn repair_busy_fraction(&self) -> f64 {
        self.busy_fraction
    }

    /// Node-hours lost to repairs (each failure takes one node down for
    /// its TTR).
    pub const fn node_hours_lost(&self) -> f64 {
        self.total_repair_hours
    }

    /// System-wide node availability: `1 - lost / (nodes x window)`.
    pub fn node_availability(&self) -> f64 {
        1.0 - self.total_repair_hours / (self.nodes as f64 * self.window_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failtypes::FailureLog;
    use crate::StreamView;
    use failsim::{Simulator, SystemModel};
    use failtypes::{
        Category, Date, FailureRecord, Generation, Hours, NodeId, ObservationWindow, T3Category,
    };

    fn tiny_log(records: Vec<(f64, f64)>) -> FailureLog {
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
        FailureLog::new(Generation::Tsubame3, window, recs).unwrap()
    }

    #[test]
    fn disjoint_repairs_have_no_overlap() {
        let log = tiny_log(vec![(0.0, 10.0), (100.0, 10.0), (200.0, 10.0)]);
        let a = AvailabilityAnalysis::from_index(&StreamView::new(&log)).unwrap();
        assert_eq!(a.overlap_probability(), 0.0);
        assert_eq!(a.max_concurrent_repairs(), 1);
        assert!((a.node_hours_lost() - 30.0).abs() < 1e-9);
        let window = 365.0 * 24.0;
        assert!((a.repair_busy_fraction() - 30.0 / window).abs() < 1e-9);
        assert!((a.mean_concurrent_repairs() - 30.0 / window).abs() < 1e-9);
    }

    #[test]
    fn nested_repairs_overlap() {
        let log = tiny_log(vec![(0.0, 100.0), (10.0, 10.0), (50.0, 100.0)]);
        let a = AvailabilityAnalysis::from_index(&StreamView::new(&log)).unwrap();
        // Both later failures land inside the first repair.
        assert!((a.overlap_probability() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.max_concurrent_repairs(), 2);
    }

    #[test]
    fn little_law_on_generated_logs() {
        // Mean concurrent repairs = arrival rate x mean repair time.
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let view = StreamView::new(&log);
        let a = AvailabilityAnalysis::from_index(&view).unwrap();
        let rate = log.len() as f64 / log.window().duration().get();
        let mttr = crate::ttr::TtrAnalysis::from_index(&view).unwrap().mttr_hours();
        let expected = rate * mttr;
        assert!(
            (a.mean_concurrent_repairs() - expected).abs() < 0.1 * expected,
            "L = {} vs λW = {expected}",
            a.mean_concurrent_repairs()
        );
    }

    #[test]
    fn rq5_overlap_is_substantial_on_both_systems() {
        // MTTR ≈ MTBF (T2) and MTTR ≈ 0.75 MTBF (T3): overlap is the
        // norm, exactly the paper's warning.
        for (model, seed) in [(SystemModel::tsubame2(), 42u64), (SystemModel::tsubame3(), 43)]
        {
            let log = Simulator::new(model, seed).generate().unwrap();
            let a = AvailabilityAnalysis::from_index(&StreamView::new(&log)).unwrap();
            assert!(
                a.overlap_probability() > 0.3,
                "overlap {}",
                a.overlap_probability()
            );
            assert!(a.max_concurrent_repairs() >= 2);
        }
    }

    #[test]
    fn t2_concurrency_far_exceeds_t3() {
        // T2: ~3.5 repairs in flight on average; T3: ~0.75.
        let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let a2 = AvailabilityAnalysis::from_index(&StreamView::new(&t2)).unwrap();
        let a3 = AvailabilityAnalysis::from_index(&StreamView::new(&t3)).unwrap();
        assert!(a2.mean_concurrent_repairs() > 2.0 * a3.mean_concurrent_repairs());
    }

    #[test]
    fn availability_is_high_but_not_perfect() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let a = AvailabilityAnalysis::from_index(&StreamView::new(&log)).unwrap();
        let avail = a.node_availability();
        assert!(avail > 0.99 && avail < 1.0, "availability {avail}");
        assert!(a.node_hours_lost() > 0.0);
    }

    #[test]
    fn empty_log_is_none() {
        let log = Simulator::new(SystemModel::tsubame3(), 43)
            .generate()
            .unwrap()
            .filtered(|_| false);
        assert!(AvailabilityAnalysis::from_index(&StreamView::new(&log)).is_none());
    }
}
