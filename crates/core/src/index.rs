//! The shared analysis surface: the trait every analysis reads from.
//!
//! Every analysis in this crate consumes the same precomputed material —
//! time-ordered failure times, sorted repair durations, category
//! partitions, node/slot/rack tallies, month buckets, multi-GPU
//! involvements. [`crate::StreamView`] is the one index that holds them,
//! whether it was bulk-built from a finished log, fed record by record
//! from a live stream, or decoded from an on-disk snapshot. Each analysis
//! has exactly **one** constructor, `from_index`, generic over
//! [`FleetIndex`]; the trait is the seam a different storage layout
//! (such as a columnar snapshot) would implement.

use std::collections::BTreeMap;

use failtypes::{
    Category, FailureRecord, Generation, NodeId, ObservationWindow, SoftwareLocus, SystemSpec,
};

use crate::streamview::StreamView;

/// Indexed access to one fleet's failure history — what [`StreamView`]
/// precomputes, plus the system topology the spatial and mitigation
/// analyses need.
///
/// Implementations must keep the derived indexes consistent with
/// [`FleetIndex::records`]: `times()[i]` is `records()[i].time()`,
/// category partitions cover every record exactly once in time order,
/// and so on.
///
/// # Examples
///
/// ```
/// use failscope::{FleetIndex, StreamView, TbfAnalysis};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let view = StreamView::new(&log);
/// let tbf = TbfAnalysis::from_index(&view).unwrap();
/// assert!(tbf.mtbf_hours() > 70.0);
/// assert_eq!(view.len(), log.len());
/// ```
pub trait FleetIndex {
    /// The system generation (category vocabulary) of the records.
    fn generation(&self) -> Generation;

    /// The system specification (topology, peak rate) of the fleet.
    fn spec(&self) -> &SystemSpec;

    /// The observation window the failure times are offsets into.
    fn window(&self) -> ObservationWindow;

    /// The records themselves, in ascending time order.
    fn records(&self) -> &[FailureRecord];

    /// Failure times in hours, in time order.
    fn times(&self) -> &[f64];

    /// Repair durations in hours, sorted ascending.
    fn ttrs_sorted(&self) -> &[f64];

    /// Repair-completion times clamped to the window, in time order.
    fn recoveries(&self) -> &[f64];

    /// Repair-completion times clamped to the window, sorted ascending.
    fn recoveries_sorted(&self) -> &[f64];

    /// Record indices (into time order) partitioned by category; each
    /// partition preserves time order.
    fn category_indices(&self) -> &BTreeMap<Category, Vec<u32>>;

    /// Software root-locus counts over records that carry one.
    fn locus_counts(&self) -> &BTreeMap<SoftwareLocus, usize>;

    /// Failure counts per node (only failing nodes appear).
    fn node_counts(&self) -> &BTreeMap<NodeId, u64>;

    /// GPU-failure involvements per slot, indexed by slot number.
    fn slot_counts(&self) -> &[usize];

    /// Failure counts per rack, indexed by rack number.
    fn rack_counts(&self) -> &[usize];

    /// Total per-GPU involvements (a failure touching 3 GPUs counts 3;
    /// unknown involvement counts 1).
    fn gpu_involvements(&self) -> usize;

    /// Arrival times of multi-GPU failures, in time order.
    fn multi_gpu_times(&self) -> &[f64];

    /// Repair durations bucketed by the `(year, month)` the failure
    /// occurred in, aligned with `window().months()`.
    fn month_ttrs(&self) -> &[Vec<f64>];

    /// Number of failures indexed.
    fn len(&self) -> usize {
        self.times().len()
    }

    /// `true` when no failures are indexed.
    fn is_empty(&self) -> bool {
        self.times().is_empty()
    }

    /// Number of failures in one category.
    fn category_count(&self, category: Category) -> usize {
        self.category_indices().get(&category).map_or(0, Vec::len)
    }

    /// The failure times of one category, in time order.
    fn category_times(&self, category: Category) -> Vec<f64> {
        self.category_indices()
            .get(&category)
            .map_or_else(Vec::new, |idx| {
                let times = self.times();
                idx.iter().map(|&i| times[i as usize]).collect()
            })
    }

    /// The repair durations of one category, in time order.
    fn category_ttrs(&self, category: Category) -> Vec<f64> {
        self.category_indices()
            .get(&category)
            .map_or_else(Vec::new, |idx| {
                let records = self.records();
                idx.iter()
                    .map(|&i| records[i as usize].ttr().get())
                    .collect()
            })
    }
}

impl FleetIndex for StreamView {
    fn generation(&self) -> Generation {
        StreamView::generation(self)
    }

    fn spec(&self) -> &SystemSpec {
        StreamView::spec(self)
    }

    fn window(&self) -> ObservationWindow {
        StreamView::window(self)
    }

    fn records(&self) -> &[FailureRecord] {
        StreamView::records(self)
    }

    fn times(&self) -> &[f64] {
        StreamView::times(self)
    }

    fn ttrs_sorted(&self) -> &[f64] {
        StreamView::ttrs_sorted(self)
    }

    fn recoveries(&self) -> &[f64] {
        StreamView::recoveries(self)
    }

    fn recoveries_sorted(&self) -> &[f64] {
        StreamView::recoveries_sorted(self)
    }

    fn category_indices(&self) -> &BTreeMap<Category, Vec<u32>> {
        StreamView::category_indices(self)
    }

    fn locus_counts(&self) -> &BTreeMap<SoftwareLocus, usize> {
        StreamView::locus_counts(self)
    }

    fn node_counts(&self) -> &BTreeMap<NodeId, u64> {
        StreamView::node_counts(self)
    }

    fn slot_counts(&self) -> &[usize] {
        StreamView::slot_counts(self)
    }

    fn rack_counts(&self) -> &[usize] {
        StreamView::rack_counts(self)
    }

    fn gpu_involvements(&self) -> usize {
        StreamView::gpu_involvements(self)
    }

    fn multi_gpu_times(&self) -> &[f64] {
        StreamView::multi_gpu_times(self)
    }

    fn month_ttrs(&self) -> &[Vec<f64>] {
        StreamView::month_ttrs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::FailureLog;

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    /// Exercises the trait through a generic function, the way the
    /// analyses consume it.
    fn summarize<V: FleetIndex + ?Sized>(index: &V) -> (usize, usize, usize) {
        (
            index.len(),
            index.category_indices().len(),
            index.records().len(),
        )
    }

    #[test]
    fn both_views_expose_the_same_index_through_the_trait() {
        let log = t3();
        let mut sv = StreamView::empty_like(&log);
        for rec in log.iter() {
            sv.push(rec.clone()).unwrap();
        }
        let bulk = StreamView::new(&log);
        assert_eq!(summarize(&bulk), summarize(&sv));
        assert_eq!(FleetIndex::times(&bulk), FleetIndex::times(&sv));
        assert_eq!(FleetIndex::spec(&bulk), FleetIndex::spec(&sv));
        assert_eq!(FleetIndex::window(&bulk), FleetIndex::window(&sv));
        assert_eq!(FleetIndex::generation(&bulk), FleetIndex::generation(&sv));
        assert_eq!(FleetIndex::records(&bulk), FleetIndex::records(&sv));
    }

    #[test]
    fn default_methods_agree_with_inherent_ones() {
        let view = StreamView::from(t3());
        for &category in view.category_indices().keys().collect::<Vec<_>>() {
            assert_eq!(
                FleetIndex::category_times(&view, category),
                StreamView::category_times(&view, category)
            );
            assert_eq!(
                FleetIndex::category_ttrs(&view, category),
                StreamView::category_ttrs(&view, category)
            );
            assert_eq!(
                FleetIndex::category_count(&view, category),
                StreamView::category_count(&view, category)
            );
        }
        assert!(!FleetIndex::is_empty(&view));
    }
}
