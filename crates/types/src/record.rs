//! Failure records and failure logs.
//!
//! A [`FailureRecord`] mirrors one line of the Tsubame logs: the time of
//! failure occurrence, the time to recovery, the failure category, and where
//! available the affected node, the set of GPU slots involved, and the
//! software root locus. A [`FailureLog`] is a validated, time-ordered
//! collection of records together with the system specification and
//! observation window they belong to.

use std::fmt;

use crate::category::Category;
use crate::error::InvalidRecordError;
use crate::software::SoftwareLocus;
use crate::system::{Generation, GpuSlot, NodeId, SystemSpec};
use crate::time::{Hours, ObservationWindow};

/// One failure event.
///
/// # Examples
///
/// ```
/// use failtypes::{Category, FailureRecord, GpuSlot, Hours, NodeId, T3Category};
///
/// let rec = FailureRecord::new(
///     7,
///     Hours::new(120.5),
///     Hours::new(48.0),
///     Category::T3(T3Category::Gpu),
///     NodeId::new(12),
/// )
/// .with_gpus([GpuSlot::new(0), GpuSlot::new(3)]);
///
/// assert!(rec.is_multi_gpu());
/// assert_eq!(rec.gpus().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    id: u32,
    time: Hours,
    ttr: Hours,
    category: Category,
    node: NodeId,
    gpus: Vec<GpuSlot>,
    locus: Option<SoftwareLocus>,
}

impl FailureRecord {
    /// Creates a record with no GPU involvement and no software root locus.
    pub fn new(id: u32, time: Hours, ttr: Hours, category: Category, node: NodeId) -> Self {
        FailureRecord {
            id,
            time,
            ttr,
            category,
            node,
            gpus: Vec::new(),
            locus: None,
        }
    }

    /// Attaches the set of GPU slots involved in this failure.
    ///
    /// Only meaningful for GPU failures; [`FailureRecord::validate`]
    /// rejects GPU involvement on other categories.
    pub fn with_gpus(mut self, gpus: impl IntoIterator<Item = GpuSlot>) -> Self {
        self.gpus = gpus.into_iter().collect();
        self
    }

    /// Attaches the software root locus (Fig. 3).
    ///
    /// Only meaningful for software-domain failures.
    pub fn with_locus(mut self, locus: SoftwareLocus) -> Self {
        self.locus = Some(locus);
        self
    }

    /// Overwrites every field in place, as
    /// `FailureRecord::new(id, time, ttr, category, node)` with `gpus`
    /// and `locus` attached would build it, but keeping the GPU slot
    /// buffer's allocation: a caller scanning many rows through one
    /// scratch record allocates nothing per row.
    #[allow(clippy::too_many_arguments)] // one per field, as `new` and its `with_` builders take them
    pub fn assign(
        &mut self,
        id: u32,
        time: Hours,
        ttr: Hours,
        category: Category,
        node: NodeId,
        gpus: &[GpuSlot],
        locus: Option<SoftwareLocus>,
    ) {
        self.id = id;
        self.time = time;
        self.ttr = ttr;
        self.category = category;
        self.node = node;
        self.gpus.clear();
        self.gpus.extend_from_slice(gpus);
        self.locus = locus;
    }

    /// Returns the stable record id within its log.
    pub const fn id(&self) -> u32 {
        self.id
    }

    /// Returns the failure time as an offset into the observation window.
    pub const fn time(&self) -> Hours {
        self.time
    }

    /// Returns the time to recovery.
    pub const fn ttr(&self) -> Hours {
        self.ttr
    }

    /// Returns the failure category.
    pub const fn category(&self) -> Category {
        self.category
    }

    /// Returns the affected node.
    pub const fn node(&self) -> NodeId {
        self.node
    }

    /// Returns the GPU slots involved (empty when unknown or not a GPU
    /// failure).
    pub fn gpus(&self) -> &[GpuSlot] {
        &self.gpus
    }

    /// Returns the software root locus, when recorded.
    pub const fn locus(&self) -> Option<SoftwareLocus> {
        self.locus
    }

    /// Returns `true` when more than one GPU was involved — the
    /// simultaneous multi-GPU failure mode RQ3 studies.
    pub fn is_multi_gpu(&self) -> bool {
        self.gpus.len() > 1
    }

    /// Returns the moment the repair completed.
    pub fn recovery_time(&self) -> Hours {
        self.time + self.ttr
    }

    /// Checks this record against the log invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: the failure time must lie in
    /// `window`, the TTR must be a valid duration, the node and every GPU
    /// slot must exist in `spec`, slots must be unique, GPU involvement is
    /// only allowed on GPU failures, a root locus only on software-domain
    /// failures, and the category vocabulary must match `generation`.
    pub fn validate(
        &self,
        generation: Generation,
        spec: &SystemSpec,
        window: ObservationWindow,
    ) -> Result<(), InvalidRecordError> {
        if !self.time.is_valid() || !window.contains(self.time) {
            return Err(InvalidRecordError::TimeOutOfWindow {
                offset: self.time.get(),
                window: window.duration().get(),
            });
        }
        if !self.ttr.is_valid() {
            return Err(InvalidRecordError::InvalidTtr {
                ttr: self.ttr.get(),
            });
        }
        match (generation, self.category) {
            (Generation::Tsubame2, Category::T2(_)) | (Generation::Tsubame3, Category::T3(_)) => {}
            _ => return Err(InvalidRecordError::CategorySystemMismatch),
        }
        if !spec.contains_node(self.node) {
            return Err(InvalidRecordError::NodeOutOfRange {
                node: self.node.index(),
                nodes: spec.nodes(),
            });
        }
        if !self.gpus.is_empty() && !self.category.is_gpu() {
            return Err(InvalidRecordError::UnexpectedGpuInvolvement);
        }
        let mut seen = [false; 256];
        for &slot in &self.gpus {
            if !spec.contains_slot(slot) {
                return Err(InvalidRecordError::SlotOutOfRange {
                    slot: slot.index(),
                    slots: spec.gpus_per_node(),
                });
            }
            let i = slot.index() as usize;
            if seen[i] {
                return Err(InvalidRecordError::DuplicateSlot { slot: slot.index() });
            }
            seen[i] = true;
        }
        if self.locus.is_some() && !self.category.is_software() {
            return Err(InvalidRecordError::UnexpectedSoftwareLocus);
        }
        Ok(())
    }
}

impl fmt::Display for FailureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} t={} {} on {} (ttr {})",
            self.id, self.time, self.category, self.node, self.ttr
        )?;
        if !self.gpus.is_empty() {
            write!(f, " gpus=[")?;
            for (i, g) in self.gpus.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", g.index())?;
            }
            write!(f, "]")?;
        }
        if let Some(l) = self.locus {
            write!(f, " locus={l}")?;
        }
        Ok(())
    }
}

/// A validated, time-ordered failure log for one system.
///
/// # Examples
///
/// ```
/// use failtypes::{
///     Category, Date, FailureLog, FailureRecord, Generation, Hours, NodeId,
///     ObservationWindow, T3Category,
/// };
///
/// let window = ObservationWindow::new(
///     Date::new(2017, 5, 9).unwrap(),
///     Date::new(2020, 2, 22).unwrap(),
/// )
/// .unwrap();
/// let records = vec![FailureRecord::new(
///     0,
///     Hours::new(10.0),
///     Hours::new(4.0),
///     Category::T3(T3Category::Software),
///     NodeId::new(3),
/// )];
/// let log = FailureLog::new(Generation::Tsubame3, window, records)?;
/// assert_eq!(log.len(), 1);
/// # Ok::<(), failtypes::InvalidRecordError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureLog {
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
    records: Vec<FailureRecord>,
}

impl FailureLog {
    /// Creates a log over the canonical system specification of
    /// `generation`, validating and time-sorting `records`.
    ///
    /// # Errors
    ///
    /// Returns the first record-invariant violation encountered; see
    /// [`FailureRecord::validate`].
    pub fn new(
        generation: Generation,
        window: ObservationWindow,
        records: Vec<FailureRecord>,
    ) -> Result<Self, InvalidRecordError> {
        Self::with_spec(generation, generation.spec(), window, records)
    }

    /// Creates a log over a custom system specification (what-if studies).
    ///
    /// The `generation` still selects the category vocabulary the records
    /// must use.
    ///
    /// # Errors
    ///
    /// Returns the first record-invariant violation encountered.
    pub fn with_spec(
        generation: Generation,
        spec: SystemSpec,
        window: ObservationWindow,
        mut records: Vec<FailureRecord>,
    ) -> Result<Self, InvalidRecordError> {
        for rec in &records {
            rec.validate(generation, &spec, window)?;
        }
        records.sort_by(|a, b| {
            a.time
                .get()
                .partial_cmp(&b.time.get())
                .expect("validated times are finite")
        });
        Ok(FailureLog {
            generation,
            spec,
            window,
            records,
        })
    }

    /// Returns the system generation (category vocabulary) of this log.
    pub const fn generation(&self) -> Generation {
        self.generation
    }

    /// Returns the system specification the log belongs to.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Returns the observation window.
    pub const fn window(&self) -> ObservationWindow {
        self.window
    }

    /// Returns the records in ascending time order.
    pub fn records(&self) -> &[FailureRecord] {
        &self.records
    }

    /// Returns the number of failures in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the log holds no failures.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, FailureRecord> {
        self.records.iter()
    }

    /// Consumes the log, yielding its records in ascending time order.
    pub fn into_records(self) -> Vec<FailureRecord> {
        self.records
    }

    /// Returns a new log containing only records satisfying `keep`.
    ///
    /// The window and specification carry over, so rates computed on the
    /// filtered log still refer to the full observation period — exactly
    /// how the paper computes per-category MTBF.
    pub fn filtered(&self, mut keep: impl FnMut(&FailureRecord) -> bool) -> FailureLog {
        FailureLog {
            generation: self.generation,
            spec: self.spec.clone(),
            window: self.window,
            records: self.records.iter().filter(|r| keep(r)).cloned().collect(),
        }
    }

    /// Returns the records of GPU hardware failures.
    pub fn gpu_records(&self) -> impl Iterator<Item = &FailureRecord> {
        self.records.iter().filter(|r| r.category().is_gpu())
    }

    /// Returns the per-record failure times, ascending.
    pub fn times(&self) -> impl Iterator<Item = Hours> + '_ {
        self.records.iter().map(|r| r.time())
    }
}

impl<'a> IntoIterator for &'a FailureLog {
    type Item = &'a FailureRecord;
    type IntoIter = std::slice::Iter<'a, FailureRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl fmt::Display for FailureLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failure log: {} failures over {}",
            self.generation,
            self.records.len(),
            self.window
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{T2Category, T3Category};
    use crate::time::Date;

    fn t3_window() -> ObservationWindow {
        ObservationWindow::new(
            Date::new(2017, 5, 9).unwrap(),
            Date::new(2020, 2, 22).unwrap(),
        )
        .unwrap()
    }

    fn gpu_record(id: u32, time: f64) -> FailureRecord {
        FailureRecord::new(
            id,
            Hours::new(time),
            Hours::new(10.0),
            Category::T3(T3Category::Gpu),
            NodeId::new(1),
        )
    }

    #[test]
    fn record_accessors() {
        let rec = gpu_record(3, 5.0)
            .with_gpus([GpuSlot::new(1), GpuSlot::new(2)])
            .clone();
        assert_eq!(rec.id(), 3);
        assert_eq!(rec.time(), Hours::new(5.0));
        assert_eq!(rec.ttr(), Hours::new(10.0));
        assert_eq!(rec.node(), NodeId::new(1));
        assert_eq!(rec.recovery_time(), Hours::new(15.0));
        assert!(rec.is_multi_gpu());
        assert_eq!(rec.locus(), None);
    }

    #[test]
    fn single_gpu_is_not_multi() {
        let rec = gpu_record(0, 5.0).with_gpus([GpuSlot::new(0)]);
        assert!(!rec.is_multi_gpu());
        let rec = gpu_record(0, 5.0);
        assert!(!rec.is_multi_gpu());
    }

    #[test]
    fn validate_accepts_good_record() {
        let rec = gpu_record(0, 5.0).with_gpus([GpuSlot::new(0), GpuSlot::new(3)]);
        assert!(rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .is_ok());
    }

    #[test]
    fn validate_rejects_time_outside_window() {
        let rec = gpu_record(0, -1.0);
        let err = rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .unwrap_err();
        assert!(matches!(err, InvalidRecordError::TimeOutOfWindow { .. }));
        let rec = gpu_record(0, 1e9);
        assert!(rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .is_err());
    }

    #[test]
    fn validate_rejects_bad_ttr() {
        let rec = FailureRecord::new(
            0,
            Hours::new(5.0),
            Hours::new(-2.0),
            Category::T3(T3Category::Gpu),
            NodeId::new(0),
        );
        let err = rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .unwrap_err();
        assert!(matches!(err, InvalidRecordError::InvalidTtr { .. }));
    }

    #[test]
    fn validate_rejects_wrong_vocabulary() {
        let rec = FailureRecord::new(
            0,
            Hours::new(5.0),
            Hours::new(2.0),
            Category::T2(T2Category::Gpu),
            NodeId::new(0),
        );
        let err = rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .unwrap_err();
        assert_eq!(err, InvalidRecordError::CategorySystemMismatch);
    }

    #[test]
    fn validate_rejects_node_and_slot_out_of_range() {
        let rec = gpu_record(0, 5.0);
        let rec = FailureRecord::new(
            rec.id(),
            rec.time(),
            rec.ttr(),
            rec.category(),
            NodeId::new(100_000),
        );
        assert!(matches!(
            rec.validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
                .unwrap_err(),
            InvalidRecordError::NodeOutOfRange { .. }
        ));

        let rec = gpu_record(0, 5.0).with_gpus([GpuSlot::new(4)]);
        assert!(matches!(
            rec.validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
                .unwrap_err(),
            InvalidRecordError::SlotOutOfRange { .. }
        ));
    }

    #[test]
    fn validate_rejects_duplicate_slots() {
        let rec = gpu_record(0, 5.0).with_gpus([GpuSlot::new(2), GpuSlot::new(2)]);
        assert_eq!(
            rec.validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
                .unwrap_err(),
            InvalidRecordError::DuplicateSlot { slot: 2 }
        );
    }

    #[test]
    fn validate_rejects_misplaced_metadata() {
        let rec = FailureRecord::new(
            0,
            Hours::new(5.0),
            Hours::new(1.0),
            Category::T3(T3Category::Memory),
            NodeId::new(0),
        )
        .with_gpus([GpuSlot::new(0)]);
        assert_eq!(
            rec.validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
                .unwrap_err(),
            InvalidRecordError::UnexpectedGpuInvolvement
        );

        let rec = FailureRecord::new(
            0,
            Hours::new(5.0),
            Hours::new(1.0),
            Category::T3(T3Category::Memory),
            NodeId::new(0),
        )
        .with_locus(SoftwareLocus::KernelPanic);
        assert_eq!(
            rec.validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
                .unwrap_err(),
            InvalidRecordError::UnexpectedSoftwareLocus
        );
    }

    #[test]
    fn locus_allowed_on_software_categories() {
        let rec = FailureRecord::new(
            0,
            Hours::new(5.0),
            Hours::new(1.0),
            Category::T3(T3Category::Software),
            NodeId::new(0),
        )
        .with_locus(SoftwareLocus::GpuDriverProblem);
        assert!(rec
            .validate(Generation::Tsubame3, &SystemSpec::tsubame3(), t3_window())
            .is_ok());
    }

    #[test]
    fn log_sorts_records_by_time() {
        let records = vec![gpu_record(0, 50.0), gpu_record(1, 10.0), gpu_record(2, 30.0)];
        let log = FailureLog::new(Generation::Tsubame3, t3_window(), records).unwrap();
        let times: Vec<f64> = log.times().map(Hours::get).collect();
        assert_eq!(times, vec![10.0, 30.0, 50.0]);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn log_rejects_bad_records() {
        let records = vec![gpu_record(0, 50.0), gpu_record(1, -1.0)];
        assert!(FailureLog::new(Generation::Tsubame3, t3_window(), records).is_err());
    }

    #[test]
    fn empty_log_is_fine() {
        let log = FailureLog::new(Generation::Tsubame3, t3_window(), Vec::new()).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn filtered_keeps_window_and_spec() {
        let records = vec![
            gpu_record(0, 10.0),
            FailureRecord::new(
                1,
                Hours::new(20.0),
                Hours::new(1.0),
                Category::T3(T3Category::Software),
                NodeId::new(0),
            ),
        ];
        let log = FailureLog::new(Generation::Tsubame3, t3_window(), records).unwrap();
        let gpus = log.filtered(|r| r.category().is_gpu());
        assert_eq!(gpus.len(), 1);
        assert_eq!(gpus.window(), log.window());
        assert_eq!(gpus.spec(), log.spec());
        assert_eq!(log.gpu_records().count(), 1);
    }

    #[test]
    fn log_iteration_and_display() {
        let records = vec![gpu_record(0, 10.0)];
        let log = FailureLog::new(Generation::Tsubame3, t3_window(), records).unwrap();
        let collected: Vec<_> = (&log).into_iter().collect();
        assert_eq!(collected.len(), 1);
        assert!(log.to_string().contains("Tsubame-3"));
        assert!(log.to_string().contains("1 failures"));
    }

    #[test]
    fn record_display_mentions_gpus_and_locus() {
        let rec = gpu_record(5, 1.0).with_gpus([GpuSlot::new(0), GpuSlot::new(2)]);
        let text = rec.to_string();
        assert!(text.contains("gpus=[0,2]"), "{text}");
        let rec = FailureRecord::new(
            6,
            Hours::new(2.0),
            Hours::new(1.0),
            Category::T3(T3Category::Software),
            NodeId::new(0),
        )
        .with_locus(SoftwareLocus::UnknownCause);
        assert!(rec.to_string().contains("locus=UnknownCause"));
    }

    #[test]
    fn custom_spec_logs() {
        let spec = SystemSpec::builder("Test").nodes(2).gpus_per_node(8).build().unwrap();
        let rec = gpu_record(0, 5.0).with_gpus([GpuSlot::new(7)]);
        let log =
            FailureLog::with_spec(Generation::Tsubame3, spec, t3_window(), vec![rec]).unwrap();
        assert_eq!(log.spec().gpus_per_node(), 8);
    }
}
