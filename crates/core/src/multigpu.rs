//! RQ3 — simultaneous multi-GPU failures (Table III).

use crate::StreamView;

/// One row of Table III: how many GPU failures involved exactly `gpus`
/// GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvolvementRow {
    /// Number of GPUs involved.
    pub gpus: u8,
    /// Number of failures with that involvement.
    pub count: usize,
    /// Share among failures with known involvement.
    pub fraction: f64,
}

/// The multi-GPU involvement table of a log (Table III).
///
/// # Examples
///
/// ```
/// use failscope::{InvolvementTable, StreamView};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let table = InvolvementTable::from_index(&StreamView::from(log));
/// // Table III: >92% of Tsubame-3 GPU failures involved a single GPU,
/// // and none involved all four.
/// assert!(table.rows()[0].fraction > 0.92);
/// assert_eq!(table.count_of(4), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InvolvementTable {
    rows: Vec<InvolvementRow>,
    known: usize,
    unknown: usize,
}

impl InvolvementTable {
    /// Computes the table from a [`StreamView`]'s GPU-count histogram:
    /// O(GPUs per node).
    pub fn from_index(index: &StreamView) -> Self {
        let max_gpus = index.spec().gpus_per_node();
        let counts = index.gpu_count_histogram();
        let unknown = counts[0];
        let known: usize = counts[1..].iter().sum();
        let rows = (1..=max_gpus)
            .map(|k| InvolvementRow {
                gpus: k,
                count: counts[k as usize],
                fraction: counts[k as usize] as f64 / known.max(1) as f64,
            })
            .collect();
        InvolvementTable {
            rows,
            known,
            unknown,
        }
    }

    /// Rows for 1..=gpus-per-node GPUs involved.
    pub fn rows(&self) -> &[InvolvementRow] {
        &self.rows
    }

    /// GPU failures with known involvement.
    pub const fn known(&self) -> usize {
        self.known
    }

    /// GPU failures without involvement data.
    pub const fn unknown(&self) -> usize {
        self.unknown
    }

    /// Count of failures involving exactly `gpus` GPUs.
    pub fn count_of(&self, gpus: u8) -> usize {
        self.rows
            .iter()
            .find(|r| r.gpus == gpus)
            .map_or(0, |r| r.count)
    }

    /// Share of known-involvement failures touching more than one GPU —
    /// the headline RQ3 number (~70% on Tsubame-2, < 8% on Tsubame-3).
    pub fn multi_gpu_fraction(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.gpus >= 2)
            .map(|r| r.fraction)
            .sum()
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
    fn table3_t2_exact_counts() {
        let t = InvolvementTable::from_index(&StreamView::new(&t2()));
        assert_eq!(t.count_of(1), 112);
        assert_eq!(t.count_of(2), 128);
        assert_eq!(t.count_of(3), 128);
        assert_eq!(t.known(), 368);
        assert_eq!(t.unknown(), 30);
        // ~70% multi-GPU.
        assert!((t.multi_gpu_fraction() - 0.6956).abs() < 0.001);
    }

    #[test]
    fn table3_t3_exact_counts() {
        let t = InvolvementTable::from_index(&StreamView::new(&t3()));
        assert_eq!(t.count_of(1), 75);
        assert_eq!(t.count_of(2), 4);
        assert_eq!(t.count_of(3), 2);
        assert_eq!(t.count_of(4), 0);
        assert_eq!(t.known(), 81);
        assert_eq!(t.unknown(), 13);
        // >92% single-GPU.
        assert!(t.rows()[0].fraction > 0.92);
        assert!(t.multi_gpu_fraction() < 0.08);
    }

    #[test]
    fn fractions_sum_to_one_over_known() {
        for log in [t2(), t3()] {
            let t = InvolvementTable::from_index(&StreamView::new(&log));
            let sum: f64 = t.rows().iter().map(|r| r.fraction).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rows_cover_node_gpu_range() {
        let t = InvolvementTable::from_index(&StreamView::new(&t3()));
        assert_eq!(t.rows().len(), 4); // 4 GPUs per Tsubame-3 node
        let t = InvolvementTable::from_index(&StreamView::new(&t2()));
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    fn empty_log_table() {
        let log = t3().filtered(|_| false);
        let t = InvolvementTable::from_index(&StreamView::new(&log));
        assert_eq!(t.known(), 0);
        assert_eq!(t.unknown(), 0);
        assert_eq!(t.multi_gpu_fraction(), 0.0);
    }
}
