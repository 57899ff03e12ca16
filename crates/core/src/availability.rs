//! Repair overlap and availability.
//!
//! RQ5's first implication: "the MTTR is very comparable to MTBF and
//! hence, it is likely that multiple concurrent failures might impact the
//! handling/repair of previous failures". This module quantifies exactly
//! that: how many repairs run concurrently, how often a new failure lands
//! while earlier repairs are still open, and what the failures cost in
//! node availability.

use crate::streamview::sorted_total;
use crate::StreamView;

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
    /// Computes the metrics from a [`StreamView`]; `None` when no
    /// failures are indexed.
    ///
    /// Each repair ends at its failure time plus its TTR, clamped to the
    /// window. Overlapping arrivals come from a running maximum of
    /// earlier ends (`O(n)`, not `O(n²)`). The sweep merges the
    /// time-ordered starts with the ends, sorted here once by the view's
    /// integer-key sort: no other reader needs them sorted, so the view
    /// does not keep them. At equal times the merge takes ends first, so
    /// a zero-length repair never counts as in progress.
    ///
    /// A min-heap of open ends would need no sort but is slower: on a
    /// bench-scale year (109,500 records, at most 851 concurrent
    /// repairs, 2-core x86-64 host) it took 10.5–12.7 ms where sorting
    /// and merging took 5.1–6.5 ms in the same runs (2.4–2.7 ms when the
    /// view kept the ends sorted). A heap also sees only the ends of
    /// repairs already started, which changes the tie rule.
    pub fn from_index(index: &StreamView) -> Option<Self> {
        if index.is_empty() {
            return None;
        }
        let window_hours = index.window().duration().get();
        let n = index.len();
        let starts = index.times();
        let ends: Vec<f64> = starts
            .iter()
            .zip(index.ttrs())
            .map(|(&t, &ttr)| (t + ttr).min(window_hours))
            .collect();

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
        let total_repair_hours: f64 = (0..n).map(|i| ends[i] - starts[i]).sum();

        // Merge the sorted starts and sorted ends into one sweep-line
        // event sequence, with ends before starts at equal times.
        let ends_sorted = sorted_total(ends);
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// The sweep by definition: all `2n` events sorted by time, ends
    /// before starts at equal times, and an arrival overlapping when
    /// any earlier record's repair ends after it.
    fn reference(index: &StreamView) -> AvailabilityAnalysis {
        let window_hours = index.window().duration().get();
        let starts = index.times();
        let ends: Vec<f64> = index
            .rows()
            .map(|r| (r.time() + r.ttr()).get().min(window_hours))
            .collect();
        let mut events: Vec<(f64, i64)> = starts.iter().map(|&t| (t, 1)).collect();
        events.extend(ends.iter().map(|&t| (t, -1)));
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut current, mut max_concurrent) = (0i64, 0i64);
        let (mut weighted_hours, mut busy_hours, mut prev_t) = (0.0, 0.0, 0.0);
        for (t, delta) in events {
            let span = (t - prev_t).max(0.0);
            weighted_hours += current as f64 * span;
            if current > 0 {
                busy_hours += span;
            }
            current += delta;
            max_concurrent = max_concurrent.max(current);
            prev_t = t;
        }
        AvailabilityAnalysis {
            failures: starts.len(),
            window_hours,
            nodes: index.spec().nodes(),
            total_repair_hours: ends.iter().zip(starts).map(|(e, s)| e - s).sum(),
            overlapping_arrivals: (0..starts.len())
                .filter(|&i| ends[..i].iter().any(|&e| e > starts[i]))
                .count(),
            mean_concurrent_repairs: weighted_hours / window_hours,
            max_concurrent_repairs: max_concurrent as usize,
            busy_fraction: busy_hours / window_hours,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // Whole-hour gaps and repairs make ties common: equal failure
        // times (gap 0), zero repairs, ends equal to later starts, and
        // ends clamped at the end of the 2020 window (8,760 h).
        #[test]
        fn the_merge_sweep_equals_sorting_every_event(
            steps in proptest::collection::vec((0u32..4, 0u32..6), 1..120),
            start in 0u32..8_700,
        ) {
            let mut t = f64::from(start);
            let mut records = Vec::with_capacity(steps.len());
            for (gap, ttr) in steps {
                t = (t + f64::from(gap)).min(8_759.0);
                let ttr = match ttr {
                    0 | 1 => 0.0,
                    5 => 100.0,
                    k => f64::from(k),
                };
                records.push((t, ttr));
            }
            let view = StreamView::new(&tiny_log(records));
            let got = AvailabilityAnalysis::from_index(&view).unwrap();
            proptest::prop_assert_eq!(format!("{got:?}"), format!("{:?}", reference(&view)));
        }
    }

    #[test]
    fn tied_zero_length_repairs_do_not_raise_the_peak() {
        // One repair open over 0..10 h, and two zero-length repairs at
        // 5 h. Ends sort before starts at equal times, so each
        // zero-length repair closes before it opens: the peak stays 1.
        let log = tiny_log(vec![(0.0, 10.0), (5.0, 0.0), (5.0, 0.0)]);
        let view = StreamView::new(&log);
        let a = AvailabilityAnalysis::from_index(&view).unwrap();
        assert_eq!(a.max_concurrent_repairs(), 1);
        assert_eq!(a, reference(&view));
        // A heap of open repair ends, popped up to each start before
        // the start's own end goes in, counts each 5 h repair beside
        // the open one and reads a peak of 2.
        let mut open = BinaryHeap::new();
        let mut peak = 0;
        for rec in log.records() {
            let (start, end) = (rec.time().get() as u64, rec.recovery_time().get() as u64);
            while open.peek().is_some_and(|&Reverse(e)| e <= start) {
                open.pop();
            }
            open.push(Reverse(end));
            peak = peak.max(open.len());
        }
        assert_eq!(peak, 2);
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
