//! The fleet index: [`StreamView`], the one implementation of
//! [`FleetIndex`](crate::FleetIndex).
//!
//! A [`StreamView`] holds every index the analyses consume — time-ordered
//! times, sorted repair durations, category partitions, node/slot/rack
//! counts, month buckets — and is built one of two ways:
//!
//! * **in bulk** from a finished, validated [`FailureLog`]
//!   (`StreamView::from(log)`): one pass over the records, then one sort
//!   per order statistic. Reports, comparisons, and experiments use this.
//! * **incrementally**, one record at a time ([`StreamView::push`]) or a
//!   chunk at a time ([`StreamView::extend`]), as a live stream or an
//!   appended log tail delivers them. `failwatch` and snapshot extension
//!   use this.
//!
//! Both paths update the non-sorted indexes through the same per-record
//! helper, so they differ only in when the order statistics are sorted;
//! the result is equal under `PartialEq` whichever way a log arrives.
//!
//! # Cost model
//!
//! The incremental write path is amortized O(1) per record and
//! allocation-free in the steady state. Every index except the two order
//! statistics is a plain append (`Vec::push` / `BTreeMap` bump). The sorted repair and
//! recovery arrays use a *deferred-merge* design ([`SortedRun`]): new
//! values append to a small unsorted tail, and the tail is merged into
//! the main sorted run only when
//!
//! * the tail outgrows an adaptive threshold (`max(64, run_len / 8)`),
//!   in which case `push` sorts the tail and merges it **in place** with
//!   a backward two-pointer pass — since the threshold grows linearly
//!   with the run, total merge work over an n-record stream is O(n),
//!   i.e. amortized O(1) per record on top of the O(log tail) sort
//!   share (amortized O(log n) per record all in); or
//! * a reader actually asks for the materialized array
//!   ([`StreamView::ttrs_sorted`] and friends, including every
//!   [`FleetIndex`](crate::FleetIndex) consumer), in which case the
//!   read pays one bounded merge — O(run + tail) — whose result is
//!   cached until the next write, so summary refreshes between ingest
//!   bursts cost one merge, not one per access.
//!
//! The old design kept the arrays always-sorted with binary-search
//! `Vec::insert`, an O(n) memmove per record and O(n²) over the stream
//! — fine for the paper's 1,235-record field logs, ruinous at the
//! production event rates the streaming subsystem targets.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use failtrace::Collector;
use failtypes::{
    Category, FailureLog, FailureRecord, Generation, InvalidRecordError, Month, NodeId,
    ObservationWindow, SoftwareLocus, SystemSpec,
};

/// Error from [`StreamView::push`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamViewError {
    /// The record's failure time precedes the previously pushed record;
    /// streams must deliver records in time order.
    OutOfOrder {
        /// Time of the previously pushed record, hours.
        prev: f64,
        /// Time of the rejected record, hours.
        time: f64,
    },
    /// The record violates a log invariant for this system.
    Invalid(InvalidRecordError),
}

impl fmt::Display for StreamViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamViewError::OutOfOrder { prev, time } => write!(
                f,
                "out-of-order record: time {time} h after a record at {prev} h"
            ),
            StreamViewError::Invalid(e) => write!(f, "invalid record: {e}"),
        }
    }
}

impl Error for StreamViewError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamViewError::Invalid(e) => Some(e),
            StreamViewError::OutOfOrder { .. } => None,
        }
    }
}

impl From<InvalidRecordError> for StreamViewError {
    fn from(e: InvalidRecordError) -> Self {
        StreamViewError::Invalid(e)
    }
}

impl From<StreamViewError> for failtypes::Error {
    fn from(e: StreamViewError) -> Self {
        failtypes::Error::other("stream state error", e)
    }
}

/// Tail appends below this length never trigger an eager merge, so tiny
/// streams behave like a plain sorted `Vec`.
const MERGE_FLOOR: usize = 64;

/// An ascending order statistic maintained by deferred merging: a
/// sorted main `run`, a small unsorted `tail` of recent appends, and a
/// lazily materialized `run ∪ tail` cache for `&self` readers.
///
/// Invariants: `run` is always sorted ascending; `merged`, when set,
/// holds the sorted union of `run` and `tail` (writers take it back
/// into `run` before touching either part, so it is never stale).
#[derive(Debug, Default)]
struct SortedRun {
    run: Vec<f64>,
    tail: Vec<f64>,
    merged: OnceLock<Vec<f64>>,
}

impl Clone for SortedRun {
    fn clone(&self) -> Self {
        // Clone through the materialized form: the clone starts with an
        // empty tail and no cache, which keeps the invariants local.
        SortedRun {
            run: self.as_slice().to_vec(),
            tail: Vec::new(),
            merged: OnceLock::new(),
        }
    }
}

impl PartialEq for SortedRun {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl SortedRun {
    /// Wraps an already-sorted vector as the main run (no tail, no
    /// cache) — the zero-copy path for persisted or bulk-sorted order
    /// statistics. The caller guarantees ascending order.
    fn from_sorted(run: Vec<f64>) -> Self {
        debug_assert!(run.windows(2).all(|w| w[0] <= w[1]));
        SortedRun {
            run,
            tail: Vec::new(),
            merged: OnceLock::new(),
        }
    }

    /// Appends one value — O(1) amortized. Eagerly merges once the tail
    /// passes the adaptive threshold, keeping reads bounded.
    fn push(&mut self, x: f64) {
        self.promote();
        // Fast path: values arriving in ascending order (clamped
        // recoveries late in a stream, pre-sorted replays) extend the
        // run directly and never touch the tail.
        if self.tail.is_empty() && self.run.last().is_none_or(|&last| last <= x) {
            self.run.push(x);
            return;
        }
        self.tail.push(x);
        if self.tail.len() >= MERGE_FLOOR.max(self.run.len() / 8) {
            self.merge_in_place();
        }
    }

    /// Takes a previously materialized cache back as the main run, so
    /// read work is never repeated by the writer.
    fn promote(&mut self) {
        if let Some(full) = self.merged.take() {
            self.run = full;
            self.tail.clear();
        }
    }

    /// Forces the pending tail into the run now (writer-side, in
    /// place); readers after this are zero-cost slices.
    fn materialize(&mut self) {
        self.promote();
        if !self.tail.is_empty() {
            self.merge_in_place();
        }
    }

    /// Sorts the tail and merges it into `run` with one backward pass —
    /// no scratch allocation beyond the run's own growth.
    fn merge_in_place(&mut self) {
        self.tail.sort_unstable_by(f64::total_cmp);
        let n = self.run.len();
        let t = self.tail.len();
        self.run.resize(n + t, 0.0);
        let (mut i, mut j) = (n, t);
        for k in (0..n + t).rev() {
            if j == 0 {
                break; // run[..i] is already in place
            }
            if i > 0 && self.run[i - 1] > self.tail[j - 1] {
                self.run[k] = self.run[i - 1];
                i -= 1;
            } else {
                self.run[k] = self.tail[j - 1];
                j -= 1;
            }
        }
        self.tail.clear();
    }

    /// The full sorted array. Zero-cost when no appends are pending;
    /// otherwise pays one merge into a cache shared by later readers
    /// (writes invalidate it via [`SortedRun::promote`]).
    fn as_slice(&self) -> &[f64] {
        if self.tail.is_empty() {
            return &self.run;
        }
        self.merged.get_or_init(|| {
            let mut tail = self.tail.clone();
            tail.sort_unstable_by(f64::total_cmp);
            let mut full = Vec::with_capacity(self.run.len() + tail.len());
            let (mut i, mut j) = (0, 0);
            while i < self.run.len() && j < tail.len() {
                if self.run[i] <= tail[j] {
                    full.push(self.run[i]);
                    i += 1;
                } else {
                    full.push(tail[j]);
                    j += 1;
                }
            }
            full.extend_from_slice(&self.run[i..]);
            full.extend_from_slice(&tail[j..]);
            full
        })
    }
}

/// Shared indexes over one fleet's failure history, built in bulk from a
/// log or incrementally from a record stream (see the module docs).
///
/// # Examples
///
/// ```
/// use failscope::StreamView;
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let mut streamed = StreamView::empty_like(&log);
/// streamed.extend(log.records().to_vec()).unwrap();
/// let bulk = StreamView::from(log);
/// assert_eq!(streamed, bulk);
/// assert_eq!(streamed.month_ttrs(), bulk.month_ttrs());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamView {
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
    months: Vec<(i32, Month)>,
    /// Months index of the last pushed record; time order makes the
    /// bucket index monotone, so each push scans forward from here.
    month_cursor: usize,
    records: Vec<FailureRecord>,
    times: Vec<f64>,
    ttrs_sorted: SortedRun,
    recoveries: Vec<f64>,
    recoveries_sorted: SortedRun,
    category_indices: BTreeMap<Category, Vec<u32>>,
    locus_counts: BTreeMap<SoftwareLocus, usize>,
    node_counts: BTreeMap<NodeId, u64>,
    slot_counts: Vec<usize>,
    rack_counts: Vec<usize>,
    gpu_involvements: usize,
    multi_gpu_times: Vec<f64>,
    month_ttrs: Vec<Vec<f64>>,
}

/// The persisted payload of a [`StreamView`] — exactly the state a
/// `failindex` snapshot stores on disk, with the cheaply re-derivable
/// arrays left out.
///
/// `times` and `recoveries` are reconstructed from the records in one
/// pass, and the month buckets from `month_counts`: records arrive in
/// time order, so each month's repair durations are a contiguous run of
/// the record sequence and per-month *counts* fully determine the
/// bucketing. [`StreamView::from_parts`] performs the reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewParts {
    /// The system generation.
    pub generation: Generation,
    /// The system spec.
    pub spec: SystemSpec,
    /// The observation window.
    pub window: ObservationWindow,
    /// Records in time order.
    pub records: Vec<FailureRecord>,
    /// Repair durations sorted ascending (one per record).
    pub ttrs_sorted: Vec<f64>,
    /// Window-clamped recovery times sorted ascending (one per record).
    pub recoveries_sorted: Vec<f64>,
    /// Record indices partitioned by category.
    pub category_indices: BTreeMap<Category, Vec<u32>>,
    /// Software root-locus counts.
    pub locus_counts: BTreeMap<SoftwareLocus, usize>,
    /// Failure counts per node.
    pub node_counts: BTreeMap<NodeId, u64>,
    /// GPU-failure involvements per slot.
    pub slot_counts: Vec<usize>,
    /// Failure counts per rack.
    pub rack_counts: Vec<usize>,
    /// Total per-GPU involvements.
    pub gpu_involvements: usize,
    /// Arrival times of multi-GPU failures.
    pub multi_gpu_times: Vec<f64>,
    /// Records per `window.months()` bucket, in month order.
    pub month_counts: Vec<usize>,
}

impl From<FailureLog> for StreamView {
    /// Indexes a finished log in bulk: one pass over the records, then
    /// one sort per order statistic. A [`FailureLog`] is already
    /// validated and time-sorted, so no record is re-validated.
    fn from(log: FailureLog) -> Self {
        let (generation, spec, window) = (log.generation(), log.spec().clone(), log.window());
        StreamView::from_records(generation, spec, window, log.into_records())
    }
}

impl StreamView {
    /// Indexes `log` in bulk, cloning its records — the borrowing form of
    /// `StreamView::from(log)`.
    pub fn new(log: &FailureLog) -> Self {
        log.clone().into()
    }

    /// The bulk build behind [`StreamView::from`] and
    /// [`StreamView::filtered`]: `records` must be valid for the system
    /// and in time order.
    fn from_records(
        generation: Generation,
        spec: SystemSpec,
        window: ObservationWindow,
        records: Vec<FailureRecord>,
    ) -> Self {
        let mut view = StreamView::empty(generation, spec, window);
        view.times.reserve(records.len());
        view.recoveries.reserve(records.len());
        let mut ttrs = Vec::with_capacity(records.len());
        for rec in &records {
            ttrs.push(view.index_record(rec).0);
        }
        ttrs.sort_unstable_by(f64::total_cmp);
        let mut recoveries_sorted = view.recoveries.clone();
        recoveries_sorted.sort_unstable_by(f64::total_cmp);
        view.ttrs_sorted = SortedRun::from_sorted(ttrs);
        view.recoveries_sorted = SortedRun::from_sorted(recoveries_sorted);
        view.records = records;
        view
    }

    /// An empty view for a system described by `spec` over `window`.
    pub fn empty(generation: Generation, spec: SystemSpec, window: ObservationWindow) -> Self {
        let months = window.months();
        let slots = spec.gpus_per_node() as usize;
        let racks = spec.racks() as usize;
        StreamView {
            generation,
            spec,
            window,
            month_ttrs: vec![Vec::new(); months.len()],
            months,
            month_cursor: 0,
            records: Vec::new(),
            times: Vec::new(),
            ttrs_sorted: SortedRun::default(),
            recoveries: Vec::new(),
            recoveries_sorted: SortedRun::default(),
            category_indices: BTreeMap::new(),
            locus_counts: BTreeMap::new(),
            node_counts: BTreeMap::new(),
            slot_counts: vec![0; slots],
            rack_counts: vec![0; racks],
            gpu_involvements: 0,
            multi_gpu_times: Vec::new(),
        }
    }

    /// An empty view shaped like `log` (same generation, spec, window),
    /// ready to [`push`](StreamView::push) its records.
    pub fn empty_like(log: &FailureLog) -> Self {
        StreamView::empty(log.generation(), log.spec().clone(), log.window())
    }

    /// Records this view on `trace` as the index a query renders from:
    /// one `index.logview` span (items = records) and every repair
    /// duration in the `index.ttr_hours` histogram.
    pub fn trace_index(&self, trace: &Collector) {
        trace.span("index.logview").add_items(self.len() as u64);
        for &ttr in self.ttrs_sorted() {
            trace.observe_hours("index.ttr_hours", ttr);
        }
    }

    /// Decomposes the view into the persistable [`ViewParts`] payload,
    /// materializing the sorted arrays. The inverse of
    /// [`StreamView::from_parts`].
    pub fn into_parts(mut self) -> ViewParts {
        self.materialize();
        ViewParts {
            generation: self.generation,
            spec: self.spec,
            window: self.window,
            records: self.records,
            ttrs_sorted: self.ttrs_sorted.run,
            recoveries_sorted: self.recoveries_sorted.run,
            category_indices: self.category_indices,
            locus_counts: self.locus_counts,
            node_counts: self.node_counts,
            slot_counts: self.slot_counts,
            rack_counts: self.rack_counts,
            gpu_involvements: self.gpu_involvements,
            multi_gpu_times: self.multi_gpu_times,
            month_counts: self.month_ttrs.iter().map(Vec::len).collect(),
        }
    }

    /// Reassembles a view from persisted [`ViewParts`], re-deriving the
    /// arrays the payload omits (`times`, `recoveries`, the per-month
    /// buckets) in O(n) — no sorting, no re-validation of individual
    /// records (the caller vouches for the payload, e.g. via a
    /// checksum). In debug builds the result is additionally asserted
    /// equal to a full per-record rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`failtypes::Error::Run`] when the payload's shapes are
    /// inconsistent (array lengths not matching the record count, month
    /// buckets not matching the window, tallies not matching the spec)
    /// — the signal for a snapshot loader to fall back to a cold parse.
    pub fn from_parts(parts: ViewParts) -> Result<Self, failtypes::Error> {
        let ViewParts {
            generation,
            spec,
            window,
            records,
            ttrs_sorted,
            recoveries_sorted,
            category_indices,
            locus_counts,
            node_counts,
            slot_counts,
            rack_counts,
            gpu_involvements,
            multi_gpu_times,
            month_counts,
        } = parts;
        let n = records.len();
        let months = window.months();
        let shape_err = |what: &str| {
            failtypes::Error::run(format!("inconsistent snapshot payload: {what}"))
        };
        if ttrs_sorted.len() != n || recoveries_sorted.len() != n {
            return Err(shape_err("sorted arrays do not match the record count"));
        }
        if month_counts.len() != months.len() {
            return Err(shape_err("month buckets do not match the window"));
        }
        if month_counts.iter().sum::<usize>() != n {
            return Err(shape_err("month bucket totals do not match the record count"));
        }
        if slot_counts.len() != spec.gpus_per_node() as usize
            || rack_counts.len() != spec.racks() as usize
        {
            return Err(shape_err("per-slot/per-rack tallies do not match the spec"));
        }
        if category_indices.values().map(Vec::len).sum::<usize>() != n {
            return Err(shape_err("category partitions do not match the record count"));
        }
        let ascending = |xs: &[f64]| xs.windows(2).all(|w| w[0] <= w[1]);
        if !ascending(&ttrs_sorted) || !ascending(&recoveries_sorted) {
            return Err(shape_err("sorted arrays are not in ascending order"));
        }

        let window_hours = window.duration().get();
        let times: Vec<f64> = records.iter().map(|r| r.time().get()).collect();
        let recoveries: Vec<f64> = records
            .iter()
            .map(|r| r.recovery_time().get().min(window_hours))
            .collect();
        // Time order makes each month bucket a contiguous run of the
        // record sequence, so the stored counts slice it back apart.
        let mut month_ttrs: Vec<Vec<f64>> = Vec::with_capacity(months.len());
        let mut offset = 0usize;
        for &count in &month_counts {
            month_ttrs.push(
                records[offset..offset + count]
                    .iter()
                    .map(|r| r.ttr().get())
                    .collect(),
            );
            offset += count;
        }
        let month_cursor = month_counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0);

        let view = StreamView {
            generation,
            spec,
            window,
            months,
            month_cursor,
            times,
            ttrs_sorted: SortedRun::from_sorted(ttrs_sorted),
            recoveries,
            recoveries_sorted: SortedRun::from_sorted(recoveries_sorted),
            category_indices,
            locus_counts,
            node_counts,
            slot_counts,
            rack_counts,
            gpu_involvements,
            multi_gpu_times,
            month_ttrs,
            records,
        };
        #[cfg(debug_assertions)]
        {
            let mut rebuilt =
                StreamView::empty(view.generation, view.spec.clone(), view.window);
            for rec in view.records.iter().cloned() {
                rebuilt
                    .push(rec)
                    .map_err(|e| shape_err(&format!("records do not revalidate: {e}")))?;
            }
            debug_assert!(
                rebuilt == view,
                "from_parts diverged from a per-record rebuild"
            );
        }
        Ok(view)
    }

    /// Validates and incorporates one record, updating every index.
    ///
    /// Amortized O(1): every index update is an append; the sorted
    /// arrays defer their merge work (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`StreamViewError::Invalid`] if the record violates an
    /// invariant, [`StreamViewError::OutOfOrder`] if its time precedes
    /// the last pushed record. The view is unchanged on error.
    pub fn push(&mut self, rec: FailureRecord) -> Result<(), StreamViewError> {
        rec.validate(self.generation, &self.spec, self.window)?;
        let time = rec.time().get();
        if let Some(&prev) = self.times.last() {
            if time < prev {
                return Err(StreamViewError::OutOfOrder { prev, time });
            }
        }

        let (ttr, recovery) = self.index_record(&rec);
        self.ttrs_sorted.push(ttr);
        self.recoveries_sorted.push(recovery);
        self.records.push(rec);
        Ok(())
    }

    /// Folds one record into every index except the records themselves
    /// and the two sorted order statistics — the per-record work shared
    /// by [`StreamView::push`] and the bulk build. Returns the record's
    /// repair duration and window-clamped recovery time. The record must
    /// be valid and no earlier than the last one indexed.
    fn index_record(&mut self, rec: &FailureRecord) -> (f64, f64) {
        let i = self.times.len() as u32;
        let time = rec.time().get();
        let ttr = rec.ttr().get();
        let recovery = rec.recovery_time().get().min(self.window.duration().get());
        self.times.push(time);
        self.recoveries.push(recovery);
        self.category_indices
            .entry(rec.category())
            .or_default()
            .push(i);
        if let Some(locus) = rec.locus() {
            *self.locus_counts.entry(locus).or_insert(0) += 1;
        }
        *self.node_counts.entry(rec.node()).or_insert(0) += 1;
        self.rack_counts[self.spec.rack_of(rec.node()).index() as usize] += 1;
        if rec.category().is_gpu() {
            self.gpu_involvements += rec.gpus().len().max(1);
            for slot in rec.gpus() {
                if (slot.index() as usize) < self.slot_counts.len() {
                    self.slot_counts[slot.index() as usize] += 1;
                }
            }
            if rec.is_multi_gpu() {
                self.multi_gpu_times.push(time);
            }
        }
        // Time order makes the month bucket monotone: scan forward from
        // the cursor instead of from the start of the window.
        let ym = self.window.date_of(rec.time()).year_month();
        if let Some(off) = self.months[self.month_cursor..].iter().position(|&m| m == ym) {
            self.month_cursor += off;
            self.month_ttrs[self.month_cursor].push(ttr);
        }
        (ttr, recovery)
    }

    /// Validates and incorporates a whole chunk of records in time
    /// order, the batched mirror of [`StreamView::push`]. Returns the
    /// number of records accepted.
    ///
    /// The resulting view is identical to pushing each record
    /// individually; batching exists so sources can hand over whole
    /// chunks without per-record call overhead.
    ///
    /// # Errors
    ///
    /// As [`StreamView::push`]; records before the offending one remain
    /// incorporated (callers needing atomicity should validate the
    /// whole chunk first).
    pub fn extend<I>(&mut self, records: I) -> Result<usize, StreamViewError>
    where
        I: IntoIterator<Item = FailureRecord>,
    {
        let mut accepted = 0;
        for rec in records {
            self.push(rec)?;
            accepted += 1;
        }
        Ok(accepted)
    }

    /// Forces any deferred sorted-array merge work now, so subsequent
    /// reads of [`ttrs_sorted`](StreamView::ttrs_sorted) /
    /// [`recoveries_sorted`](StreamView::recoveries_sorted) are
    /// zero-cost slices. Useful right before handing the view to a
    /// batch of analyses (the watch loop calls this at refresh
    /// boundaries); never required for correctness.
    pub fn materialize(&mut self) {
        self.ttrs_sorted.materialize();
        self.recoveries_sorted.materialize();
    }

    /// Snapshots the accumulated records as a validated [`FailureLog`],
    /// so any batch analysis can run on the live state.
    pub fn to_log(&self) -> FailureLog {
        FailureLog::with_spec(
            self.generation,
            self.spec.clone(),
            self.window,
            self.records.clone(),
        )
        .expect("pushed records were validated")
    }

    /// Rebuilds the view keeping only the records `keep` accepts,
    /// re-deriving every index from scratch so the result is
    /// indistinguishable from a view that only ever ingested the
    /// matching records. This is how a `--where` predicate composes
    /// with persisted (always unfiltered) index snapshots: decode the
    /// snapshot, then filter the decoded view.
    ///
    /// Records are visited in ingest order, so the filtered view's
    /// record order — and therefore any report rendered from it — is
    /// byte-identical to a cold filtered parse of the same log.
    pub fn filtered(&self, mut keep: impl FnMut(&FailureRecord) -> bool) -> StreamView {
        let kept = self.records.iter().filter(|r| keep(r)).cloned().collect();
        StreamView::from_records(self.generation, self.spec.clone(), self.window, kept)
    }

    /// The system generation this view is indexed for.
    pub const fn generation(&self) -> Generation {
        self.generation
    }

    /// The system spec this view is indexed for.
    pub const fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The observation window.
    pub const fn window(&self) -> ObservationWindow {
        self.window
    }

    /// The accumulated records, in arrival (time) order.
    pub fn records(&self) -> &[FailureRecord] {
        &self.records
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Failure times in hours, in arrival order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Repair durations in hours, sorted ascending.
    ///
    /// Zero-cost when no appends are pending; otherwise the first call
    /// after a write pays one bounded merge (see the module docs).
    pub fn ttrs_sorted(&self) -> &[f64] {
        self.ttrs_sorted.as_slice()
    }

    /// Repair-completion times clamped to the window, in arrival order.
    pub fn recoveries(&self) -> &[f64] {
        &self.recoveries
    }

    /// Repair-completion times clamped to the window, sorted ascending.
    ///
    /// Same read cost model as [`ttrs_sorted`](StreamView::ttrs_sorted).
    pub fn recoveries_sorted(&self) -> &[f64] {
        self.recoveries_sorted.as_slice()
    }

    /// Record indices partitioned by category, each in time order.
    pub fn category_indices(&self) -> &BTreeMap<Category, Vec<u32>> {
        &self.category_indices
    }

    /// Number of failures in one category.
    pub fn category_count(&self, category: Category) -> usize {
        self.category_indices.get(&category).map_or(0, Vec::len)
    }

    /// The failure times of one category, in time order.
    pub fn category_times(&self, category: Category) -> Vec<f64> {
        self.category_indices
            .get(&category)
            .map_or_else(Vec::new, |idx| {
                idx.iter().map(|&i| self.times[i as usize]).collect()
            })
    }

    /// The repair durations of one category, in time order.
    pub fn category_ttrs(&self, category: Category) -> Vec<f64> {
        self.category_indices
            .get(&category)
            .map_or_else(Vec::new, |idx| {
                idx.iter()
                    .map(|&i| self.records[i as usize].ttr().get())
                    .collect()
            })
    }

    /// Software root-locus counts over records that carry one.
    pub fn locus_counts(&self) -> &BTreeMap<SoftwareLocus, usize> {
        &self.locus_counts
    }

    /// Failure counts per node (only failing nodes appear).
    pub fn node_counts(&self) -> &BTreeMap<NodeId, u64> {
        &self.node_counts
    }

    /// GPU-failure involvements per slot, indexed by slot number.
    pub fn slot_counts(&self) -> &[usize] {
        &self.slot_counts
    }

    /// Failure counts per rack, indexed by rack number.
    pub fn rack_counts(&self) -> &[usize] {
        &self.rack_counts
    }

    /// Total per-GPU involvements (a failure touching 3 GPUs counts 3;
    /// unknown involvement counts 1).
    pub const fn gpu_involvements(&self) -> usize {
        self.gpu_involvements
    }

    /// Arrival times of multi-GPU failures, in time order.
    pub fn multi_gpu_times(&self) -> &[f64] {
        &self.multi_gpu_times
    }

    /// Repair durations bucketed by the `(year, month)` of the failure,
    /// aligned with `window.months()`.
    pub fn month_ttrs(&self) -> &[Vec<f64>] {
        &self.month_ttrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::Hours;

    fn feed(log: &FailureLog) -> StreamView {
        let mut sv = StreamView::empty_like(log);
        sv.extend(log.records().to_vec()).unwrap();
        sv
    }

    #[test]
    fn filtered_rebuild_matches_a_filter_first_ingest() {
        let log = Simulator::new(SystemModel::tsubame3(), 17).generate().unwrap();
        let full = feed(&log);
        let keep = |r: &FailureRecord| r.category().is_gpu() && r.ttr().get() > 24.0;
        let filtered = full.filtered(keep);
        // Oracle: a view that only ever saw the matching records.
        let mut oracle = StreamView::empty_like(&log);
        oracle
            .extend(log.records().iter().filter(|r| keep(r)).cloned())
            .unwrap();
        assert!(!filtered.is_empty() && filtered.len() < full.len());
        assert_eq!(filtered, oracle);
        assert_eq!(filtered.to_log(), oracle.to_log());
        // And against the bulk build of the equivalently filtered log.
        let sub = faillog::from_str(&faillog::to_string(&filtered.to_log()).unwrap()).unwrap();
        assert_eq!(filtered, StreamView::from(sub));
    }

    #[test]
    fn matches_batch_view_on_every_index() {
        for (model, seed) in [
            (SystemModel::tsubame2(), 42),
            (SystemModel::tsubame3(), 43),
        ] {
            let log = Simulator::new(model, seed).generate().unwrap();
            assert_eq!(feed(&log), StreamView::from(log));
        }
    }

    #[test]
    fn indexes_are_consistent_with_the_log() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = StreamView::new(&log);
        assert_eq!(view.len(), log.len());
        assert_eq!(view.times().len(), 897);
        // Category partitions cover every record exactly once.
        let total: usize = view.category_indices().values().map(Vec::len).sum();
        assert_eq!(total, log.len());
        // Node counts sum to the record count.
        let nodes: u64 = view.node_counts().values().sum();
        assert_eq!(nodes as usize, log.len());
        // Rack counts sum to the record count.
        assert_eq!(view.rack_counts().iter().sum::<usize>(), log.len());
        // Month buckets cover every record (the window spans all times).
        assert_eq!(
            view.month_ttrs().iter().map(Vec::len).sum::<usize>(),
            log.len()
        );
        // Sorted arrays are sorted and complete.
        assert_eq!(view.ttrs_sorted().len(), log.len());
        assert!(view.ttrs_sorted().windows(2).all(|w| w[0] <= w[1]));
        assert!(view.recoveries_sorted().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn partitions_preserve_time_order() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = StreamView::from(log);
        for indices in view.category_indices().values() {
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
        }
        for times in view
            .category_indices()
            .keys()
            .map(|&c| view.category_times(c))
        {
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn empty_log_view() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = StreamView::from(log.filtered(|_| false));
        assert!(view.is_empty());
        assert!(view.category_indices().is_empty());
        assert!(view.multi_gpu_times().is_empty());
        assert_eq!(view.gpu_involvements(), 0);
        assert_eq!(view, StreamView::empty_like(&log));
    }

    #[test]
    fn sorted_run_deferred_merge_equals_incremental_insert() {
        // Interleave reads and writes so every SortedRun path runs: the
        // ascending fast path, tail appends, eager in-place merges, the
        // lazy read-side merge cache, and promotion back into the run.
        let mut run = SortedRun::default();
        let mut reference = Vec::new();
        let mut x = 0.5f64;
        for i in 0..2000 {
            x = (x * 997.0 + 0.1).rem_euclid(513.0); // deterministic scatter
            run.push(x);
            let pos = reference.partition_point(|&y: &f64| y <= x);
            reference.insert(pos, x);
            if i % 37 == 0 {
                assert_eq!(run.as_slice(), reference.as_slice(), "at push {i}");
            }
        }
        assert_eq!(run.as_slice(), reference.as_slice());
        run.materialize();
        assert_eq!(run.as_slice(), reference.as_slice());
        // Ascending fast path after materialization.
        run.push(1e9);
        reference.push(1e9);
        assert_eq!(run.as_slice(), reference.as_slice());
        // Clones compare equal whatever their internal layout.
        let cloned = run.clone();
        assert_eq!(cloned, run);
        assert_eq!(cloned.as_slice(), reference.as_slice());
    }

    #[test]
    fn extend_in_chunks_equals_per_record_push() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let mut chunked = StreamView::empty_like(&log);
        for chunk in log.records().chunks(7) {
            let accepted = chunked.extend(chunk.to_vec()).unwrap();
            assert_eq!(accepted, chunk.len());
        }
        assert_eq!(chunked, feed(&log));
        assert_eq!(chunked, StreamView::from(log));
    }

    #[test]
    fn reads_between_writes_stay_consistent() {
        // Alternating reads and writes exercises the lazy merge cache
        // and its promotion; every intermediate read must equal the
        // bulk build over the same prefix.
        let log = Simulator::new(SystemModel::tsubame3(), 7).generate().unwrap();
        let mut sv = StreamView::empty_like(&log);
        for (i, rec) in log.records().iter().enumerate() {
            sv.push(rec.clone()).unwrap();
            if i % 97 == 0 {
                let prefix = FailureLog::new(
                    log.generation(),
                    log.window(),
                    log.records()[..=i].to_vec(),
                )
                .unwrap();
                assert_eq!(sv.ttrs_sorted(), StreamView::from(prefix).ttrs_sorted());
            }
        }
    }

    #[test]
    fn snapshot_log_equals_source_log() {
        let log = Simulator::new(SystemModel::tsubame3(), 7).generate().unwrap();
        let sv = feed(&log);
        assert_eq!(sv.to_log(), log);
    }

    #[test]
    fn rejects_out_of_order_and_invalid_records() {
        let log = Simulator::new(SystemModel::tsubame3(), 7).generate().unwrap();
        let mut sv = StreamView::empty_like(&log);
        sv.push(log.records()[5].clone()).unwrap();
        let err = sv.push(log.records()[0].clone()).unwrap_err();
        assert!(matches!(err, StreamViewError::OutOfOrder { .. }), "{err}");
        assert_eq!(sv.len(), 1, "view unchanged on error");

        let mut bad = log.records()[6].clone();
        bad = FailureRecord::new(
            bad.id(),
            Hours::new(-1.0),
            bad.ttr(),
            bad.category(),
            bad.node(),
        );
        let err = sv.push(bad).unwrap_err();
        assert!(matches!(err, StreamViewError::Invalid(_)), "{err}");
        assert!(err.source().is_some());
        assert_eq!(sv.len(), 1);
    }

    #[test]
    fn parts_roundtrip_preserves_every_index_and_extends() {
        for (model, seed) in [
            (SystemModel::tsubame2(), 42),
            (SystemModel::tsubame3(), 43),
        ] {
            let log = Simulator::new(model, seed).generate().unwrap();
            let sv = feed(&log);
            let parts = sv.clone().into_parts();
            assert_eq!(parts.records.len(), log.len());
            assert_eq!(parts.month_counts.iter().sum::<usize>(), log.len());
            let restored = StreamView::from_parts(parts).unwrap();
            assert_eq!(restored, sv);
            assert_eq!(restored, StreamView::from(log));
        }
    }

    #[test]
    fn from_parts_extends_like_a_live_view() {
        // Restore from a prefix, extend with the rest: identical to one
        // continuous stream (the snapshot prefix-extension invariant).
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let cut = log.len() / 2;
        let mut prefix = StreamView::empty_like(&log);
        prefix.extend(log.records()[..cut].to_vec()).unwrap();
        let mut restored = StreamView::from_parts(prefix.into_parts()).unwrap();
        restored.extend(log.records()[cut..].to_vec()).unwrap();
        assert_eq!(restored, feed(&log));
    }

    #[test]
    fn from_parts_rejects_inconsistent_shapes() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let good = feed(&log).into_parts();
        let mut dropped_ttr = good.clone();
        dropped_ttr.ttrs_sorted.pop();
        let mut bad_months = good.clone();
        bad_months.month_counts.pop();
        let mut bad_month_total = good.clone();
        if let Some(first) = bad_month_total.month_counts.first_mut() {
            *first += 1;
        }
        let mut bad_slots = good.clone();
        bad_slots.slot_counts.push(0);
        let mut unsorted = good.clone();
        unsorted.ttrs_sorted.reverse();
        let mut bad_partition = good.clone();
        bad_partition.category_indices.values_mut().next().unwrap().pop();
        for parts in [
            dropped_ttr,
            bad_months,
            bad_month_total,
            bad_slots,
            unsorted,
            bad_partition,
        ] {
            let err = StreamView::from_parts(parts).unwrap_err();
            assert!(err.to_string().contains("snapshot payload"), "{err}");
        }
        assert!(StreamView::from_parts(good).is_ok());
    }

    #[test]
    fn equal_times_are_accepted() {
        let log = Simulator::new(SystemModel::tsubame3(), 7).generate().unwrap();
        let mut sv = StreamView::empty_like(&log);
        let rec = log.records()[0].clone();
        sv.push(rec.clone()).unwrap();
        let dup = FailureRecord::new(
            rec.id() + 1,
            rec.time(),
            rec.ttr(),
            rec.category(),
            rec.node(),
        );
        sv.push(dup).unwrap();
        assert_eq!(sv.len(), 2);
    }
}
