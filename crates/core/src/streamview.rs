//! The fleet index: [`StreamView`], the one input every analysis reads.
//!
//! A [`StreamView`] stores its records as columns, one entry per record
//! in arrival (time) order: id, time, repair duration, a category code
//! into a palette of the categories in order of first arrival, node,
//! software locus, and the GPU slots, concatenated into one slot column
//! with a per-record end offset. These are the columns a `.fsidx`
//! snapshot stores, so a snapshot load moves them in
//! ([`StreamView::decode_body`]) and assembles no record. A reader takes
//! a column directly ([`StreamView::times`], [`StreamView::ttrs`],
//! [`StreamView::slot_involvements`], ...) or a row through
//! [`RecordRef`] ([`StreamView::rows`], [`StreamView::row`]), which
//! reads the fields of a [`FailureRecord`] in place and makes an owned
//! one only on [`RecordRef::to_record`].
//!
//! Beside the columns the view holds every index the analyses consume —
//! two sorted order statistics (repair durations and inter-arrival
//! gaps), a count per category, a dense tally per node of the spec,
//! slot counts, a histogram of GPU failures by GPUs involved, and month
//! buckets: each month's repair durations are one contiguous run of the
//! TTR column, kept as a count beside an exact sum. Each fact is held
//! once: the per-rack counts and the GPU-involvement total are sums of
//! the node tallies and the slot counts, read on demand, and a
//! per-category sample ([`StreamView::by_category`]) is grouped from the
//! code column by the reader that wants it. It is built one of two ways:
//!
//! * **in bulk** from a finished, validated [`FailureLog`]
//!   (`StreamView::from(log)`): one pass writes each record's columns
//!   and indexes, then one sort per order statistic, deferred to its
//!   first read (or write), so a view that is only filtered never sorts.
//!   Reports, comparisons, and experiments use this.
//! * **incrementally**, one record at a time ([`StreamView::push`]) or a
//!   chunk at a time ([`StreamView::extend`]), as a live stream or an
//!   appended log tail delivers them. `failwatch` and snapshot extension
//!   use this.
//! * **by gathering** the rows a filter keeps from another view
//!   ([`StreamView::filtered_by`], [`StreamView::filtered`]): each
//!   column is copied at its exact size, then the bulk build's finish.
//!
//! All three derive the indexes beyond the columns through the same
//! per-row helper — which finds a row's month bucket by comparing its
//! day offset with precomputed month starts, not by a calendar
//! conversion — so they differ only in when the order statistics are
//! sorted; the result is equal under `PartialEq` whichever way a log
//! arrives.
//!
//! # Cost model
//!
//! The incremental write path is amortized O(1) per record and
//! allocation-free in the steady state. Every index except the two
//! order statistics is a plain append or bump (a column `Vec::push`, a
//! category or locus count, the record's [`NodeTally`] and GPU-count
//! slot, an [`ExactSum`] add). That includes the exact sum of every repair
//! duration and the month buckets, each of which keeps an exact TTR sum
//! beside its record count, so the MTTR, a monthly MTTR, or a
//! trailing-window TTR sample or slot share (a slice of the TTR or slot
//! column) is an O(1) or O(window) read. The sums are exact and rounded
//! once per read, so the bulk build and [`StreamView::decode_body`]
//! (which take the TTR total as the merge of the month sums) and `push`
//! (which adds each repair to both) agree on every mean whatever order
//! they add the values in. The per-node tallies make the per-node
//! analyses (Fig. 4 occupancy, time to first failure) O(nodes) reads.
//! The sorted repair and gap arrays are [`SortedRun`]s, which never
//! merge on a write:
//!
//! * **a push appends** the value to the run's unsorted values (the
//!   ones a bulk build also defers) — O(1), no compare;
//! * **a tick settles** the repair run ([`StreamView::materialize`],
//!   which the watch loop calls before every summary): it sorts the
//!   values pushed since the last tick and merges them into a sorted
//!   *tail*, and merges the tail into the main sorted run once the tail
//!   reaches `max(64, run / 8)`. Both merges run **in place**, backward,
//!   galloping to each value's slot and moving the values above it with
//!   one block copy, so a tick of `t` values costs O(t log t) to sort
//!   plus a memmove of at most the tail, and the run's memmove comes
//!   once per eighth of growth (amortized O(1) moves per record);
//! * **a summary reads by rank**: [`StreamView::ttr_quantile`] finds the
//!   two order statistics of a type-7 quantile by a binary search over
//!   run ∪ tail, O(log n), merging nothing. The MTTR is the exact sum's
//!   O(1) mean, so no figure a tick reads needs the values in order;
//! * **a batch reader merges once**: [`StreamView::ttrs_sorted`] or
//!   [`StreamView::gaps_sorted`] (every analysis's `from_index`, a
//!   snapshot save) sorts what is unsorted and merges run, tail and
//!   those values into a cache kept until the next write, which takes
//!   the cache back as its run. The gap run is only ever sorted here:
//!   no summary or drift check reads it, so a watch never sorts its
//!   gaps, and a `--index auto` save sorts them once at the end.
//!
//! Every merge and rank compare is in [`f64::total_cmp`] order, the
//! order [`sorted_total`] sorts in, so `-0.0` and `+0.0` (both valid
//! repair durations) keep their bits whichever path reads them.
//!
//! The old design kept the arrays always-sorted with binary-search
//! `Vec::insert`, an O(n) memmove per record and O(n²) over the stream
//! — fine for the paper's 1,235-record field logs, ruinous at the
//! production event rates the streaming subsystem targets.
//!
//! A sorted array lives in the view only when more than one reader
//! needs it kept sorted: the repair run backs the TTR CDF, the watch
//! quantiles, the drift detector's KS sample and the trace histogram;
//! the gap run backs the TBF CDF, which the TBF section, the PEP and the
//! checkpoint plan read. Window-clamped repair ends have one reader,
//! [`AvailabilityAnalysis`](crate::AvailabilityAnalysis), which sorts
//! them itself.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use failfilter::{slot_range, Columns, CompiledPredicate, RowMask};
use failstats::ExactSum;
use failtrace::Collector;
use failtypes::{
    days_in_month, Category, Date, Domain, FailureLog, FailureRecord, Generation, GpuSlot, Hours,
    InvalidRecordError, NodeId, ObservationWindow, SoftwareLocus, SystemSpec,
};

mod snapshot;

pub use snapshot::FORMAT_VERSION;

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

/// The settled tail merges into the run once it holds this many values
/// (or an eighth of the run, whichever is more), so tiny streams behave
/// like a plain sorted `Vec`.
const MERGE_FLOOR: usize = 64;

/// Why a [`SortedRun`]'s lock is never poisoned: its holder only sorts
/// `f64` keys, which cannot panic.
const SORT_NEVER_PANICS: &str = "sorting f64 keys cannot panic while the lock is held";

/// An ascending order statistic in three parts: a sorted main `run`, a
/// sorted `tail` of recently settled values, the `unsorted` values
/// appended since the last settle (or a bulk build's, not yet sorted),
/// and a lazily materialized cache of their sorted union for `&self`
/// readers. Every order is [`f64::total_cmp`]'s, the one
/// [`sorted_total`] sorts in.
///
/// Invariants: `run` and `tail` are always sorted; `merged`, when set,
/// holds the sorted union of `run`, `tail` and the values `unsorted`
/// held (writers take it back into `run` before touching any part, so
/// it is never stale). The first reader takes `unsorted` under its lock
/// and sets `merged` before releasing it, so a view sorted on read never
/// holds its values in both orders.
#[derive(Debug, Default)]
struct SortedRun {
    run: Vec<f64>,
    tail: Vec<f64>,
    merged: OnceLock<Vec<f64>>,
    unsorted: Mutex<Vec<f64>>,
}

impl Clone for SortedRun {
    fn clone(&self) -> Self {
        // Clone through the materialized form: the clone starts with an
        // empty tail and no cache, which keeps the invariants local.
        SortedRun::from_sorted(self.as_slice().to_vec())
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
            ..SortedRun::default()
        }
    }

    /// Holds a bulk build's `values` unsorted: the first read or settle
    /// sorts them, so a view nobody reads this statistic of (the
    /// unfiltered view a `--where` report filters) never pays the sort.
    fn deferred(values: Vec<f64>) -> Self {
        SortedRun {
            unsorted: Mutex::new(values),
            ..SortedRun::default()
        }
    }

    /// Appends one value to the unsorted ones — O(1) amortized, with no
    /// compare: sorting waits for the next settle or read.
    fn push(&mut self, x: f64) {
        self.promote();
        self.unsorted.get_mut().expect(SORT_NEVER_PANICS).push(x);
    }

    /// Takes a previously materialized cache back as the main run, so
    /// read work is never repeated by the writer.
    fn promote(&mut self) {
        if let Some(full) = self.merged.take() {
            self.run = full;
            self.tail.clear();
        }
    }

    /// Settles the unsorted values (writer-side, in place): sorts them
    /// and merges them into the tail, then merges the tail into the run
    /// once it reaches `max(MERGE_FLOOR, run / 8)` values. Afterwards no
    /// value is unsorted, so [`SortedRun::quantile`] reads by rank.
    fn materialize(&mut self) {
        self.promote();
        let unsorted = self.unsorted.get_mut().expect(SORT_NEVER_PANICS);
        if unsorted.is_empty() {
            return;
        }
        let pending = sorted_total(std::mem::take(unsorted));
        merge_into(&mut self.tail, &pending);
        // Hand the allocation back for the next appends.
        *unsorted = pending;
        unsorted.clear();
        if self.tail.len() >= MERGE_FLOOR.max(self.run.len() / 8) {
            merge_into(&mut self.run, &self.tail);
            self.tail.clear();
        }
    }

    /// The type-7 `p`-quantile of the values, equal bit for bit to
    /// [`failstats::quantile_sorted`] of [`SortedRun::as_slice`]. With
    /// nothing unsorted it reads the two order statistics by rank over
    /// `run` ∪ `tail` in O(log n) and merges nothing; otherwise it reads
    /// the merged slice.
    fn quantile(&self, p: f64) -> Option<f64> {
        let settled = self.merged.get().is_none()
            && self.unsorted.lock().expect(SORT_NEVER_PANICS).is_empty();
        if !settled {
            return failstats::quantile_sorted(self.as_slice(), p);
        }
        let (run, tail) = (self.run.as_slice(), self.tail.as_slice());
        failstats::quantile_by(run.len() + tail.len(), p, |k| nth_of_union(run, tail, k))
    }

    /// The full sorted array. Zero-cost when nothing is pending;
    /// otherwise pays one merge into a cache shared by later readers
    /// (writes invalidate it via [`SortedRun::promote`]).
    fn as_slice(&self) -> &[f64] {
        if let Some(full) = self.merged.get() {
            return full;
        }
        let mut unsorted = self.unsorted.lock().expect(SORT_NEVER_PANICS);
        // Re-checked under the lock: a reader that took the unsorted
        // values set the cache before releasing it.
        if let Some(full) = self.merged.get() {
            return full;
        }
        if self.tail.is_empty() && unsorted.is_empty() {
            return &self.run;
        }
        let pending = sorted_total(std::mem::take(&mut *unsorted));
        self.merged.get_or_init(|| {
            if self.run.is_empty() && self.tail.is_empty() {
                return pending;
            }
            let mut full = Vec::with_capacity(self.run.len() + self.tail.len() + pending.len());
            full.extend_from_slice(&self.run);
            merge_into(&mut full, &self.tail);
            merge_into(&mut full, &pending);
            full
        })
    }
}

/// Merges the sorted `tail` into the sorted `run` in place, with one
/// backward pass and no scratch allocation beyond the run's own growth.
///
/// Tail values are placed largest first. Each finds its slot in the
/// still-unmerged run prefix by galloping down from the prefix's end
/// (steps of 1, 2, 4, ...) and then binary-searching the last step, so
/// a slot `d` values down costs O(log d) compares. The run values above
/// the slot move up in one `copy_within`, and the tail value drops in
/// below them. Every run value moves at most once, as part of a block
/// copy: a merge costs O(t log(n/t)) compares plus one memmove of the
/// displaced run suffix.
///
/// Both slices are in [`f64::total_cmp`] order, and so is the result:
/// a run value equal to a tail value stays below it (only a strictly
/// greater one moves up), and `-0.0` sorts below `+0.0`.
fn merge_into(run: &mut Vec<f64>, tail: &[f64]) {
    if tail.is_empty() {
        return;
    }
    let n = run.len();
    run.resize(n + tail.len(), 0.0);
    // run[..hi] is the unmerged prefix; everything above the slot of the
    // value just placed is final.
    let mut hi = n;
    for (j, &x) in tail.iter().enumerate().rev() {
        // Invariant: run[upper..hi] > x.
        let (mut upper, mut step) = (hi, 1);
        while upper >= step && run[upper - step].total_cmp(&x).is_gt() {
            upper -= step;
            step *= 2;
        }
        let lower = upper.saturating_sub(step);
        let slot = lower + run[lower..upper].partition_point(|y| y.total_cmp(&x).is_le());
        run.copy_within(slot..hi, slot + j + 1);
        run[slot + j] = x;
        hi = slot;
    }
}

/// The value of rank `k` (0-based) in the sorted union of the sorted
/// slices `a` and `b`, in [`f64::total_cmp`] order: a binary search for
/// how many of the `k + 1` smallest come from `a`, O(log min(a, b)).
/// Requires `k < a.len() + b.len()`.
fn nth_of_union(a: &[f64], b: &[f64], k: usize) -> f64 {
    let need = k + 1;
    // The `need` smallest are a[..i] and b[..need - i], for the least
    // `i` at which a's next value is not below the last one taken from
    // `b`: as `i` grows, a[i] rises and b[need - i - 1] falls.
    let (mut lo, mut hi) = (need.saturating_sub(b.len()), need.min(a.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if a[i].total_cmp(&b[need - i - 1]).is_lt() {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, need - lo);
    match (i.checked_sub(1).map(|i| a[i]), j.checked_sub(1).map(|j| b[j])) {
        (Some(x), Some(y)) if x.total_cmp(&y).is_ge() => x,
        (_, Some(y)) => y,
        (Some(x), None) => x,
        (None, None) => unreachable!("rank {k} lies in the union"),
    }
}

/// Sorts `xs` ascending in [`f64::total_cmp`] order, bit for bit.
///
/// Each value maps to a `u64` key whose unsigned order is `total_cmp`'s
/// (a negative value's bits all flipped, a positive value's sign bit
/// set), the keys sort as plain integers, and the map is inverted. The
/// map is a bijection on bit patterns, so two keys are equal exactly
/// when the two values have the same bits, and the output is the one
/// `sort_unstable_by(f64::total_cmp)` produces, NaN payloads and signed
/// zeros included. Both conversions reuse the vector's allocation.
pub(crate) fn sorted_total(xs: Vec<f64>) -> Vec<f64> {
    const SIGN: u64 = 1 << 63;
    let mut keys: Vec<u64> = xs
        .into_iter()
        .map(|x| {
            let bits = x.to_bits();
            if bits & SIGN == 0 {
                bits | SIGN
            } else {
                !bits
            }
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| f64::from_bits(if key & SIGN == 0 { !key } else { key & !SIGN }))
        .collect()
}

/// Renumbers `codes`, which index `palette`, so that the new palette
/// lists the categories in order of first arrival and holds only those
/// some code uses, as a push or a bulk build meets them. Returns the new
/// palette and its per-code counts, or `None` (with `codes` partly
/// renumbered) when a code lies outside `palette`.
fn first_arrival_palette(
    codes: &mut [u8],
    palette: &[Category],
) -> Option<(Vec<Category>, Vec<usize>)> {
    let mut renumbered: [Option<u8>; 256] = [None; 256];
    let mut arrived = Vec::with_capacity(palette.len());
    let mut counts: Vec<usize> = Vec::with_capacity(palette.len());
    for code in codes {
        let slot = &mut renumbered[usize::from(*code)];
        let new = match *slot {
            Some(new) => new,
            None => {
                arrived.push(*palette.get(usize::from(*code))?);
                counts.push(0);
                *slot.insert((arrived.len() - 1) as u8)
            }
        };
        counts[usize::from(new)] += 1;
        *code = new;
    }
    Some((arrived, counts))
}

/// The first day of each of `window.months()` as a
/// [`day_of`](ObservationWindow::day_of) offset, plus the first day of
/// the month after the last: bucket `k` holds the records whose day lies
/// in `starts[k]..starts[k + 1]`. The first entry is negative when the
/// window starts mid-month.
fn month_starts(window: ObservationWindow) -> Vec<i64> {
    let origin = window.start().days_from_epoch();
    let months = window.months();
    let mut starts: Vec<i64> = months
        .iter()
        .map(|&(year, month)| {
            let first = Date::new(year, month.number(), 1).expect("the first of a month is a date");
            first.days_from_epoch() - origin
        })
        .collect();
    let (&(year, month), &last) = months
        .last()
        .zip(starts.last())
        .expect("a window overlaps at least one month");
    starts.push(last + i64::from(days_in_month(year, month.number())));
    starts
}

/// The bucket of a record on `day`, searched forward from bucket `from`
/// (time order makes the bucket monotone); `None` when the day lies
/// outside buckets `from..`.
fn month_bucket(starts: &[i64], from: usize, day: i64) -> Option<usize> {
    let months = starts.len() - 1;
    let mut k = from;
    while k + 1 < months && starts[k + 1] <= day {
        k += 1;
    }
    (starts[k] <= day && day < starts[k + 1]).then_some(k)
}

/// The month buckets of the repair durations. Records arrive in time
/// order, so each month's durations are one contiguous run of the TTR
/// column: a bucket is its record count beside its exact running sum,
/// so a bucket's mean reads the same as [`failstats::mean`] of the
/// bucket in O(1).
#[derive(Debug, Clone, PartialEq)]
struct MonthBuckets {
    counts: Vec<usize>,
    sums: Vec<ExactSum>,
}

impl MonthBuckets {
    fn new(months: usize) -> Self {
        MonthBuckets {
            counts: vec![0; months],
            sums: vec![ExactSum::new(); months],
        }
    }

    fn push(&mut self, month: usize, ttr: f64) {
        self.counts[month] += 1;
        self.sums[month].add(ttr);
    }

    /// The exact sum of every bucket's values: the TTR total of a view
    /// built in bulk, where every record lies in one bucket.
    fn total(&self) -> ExactSum {
        let mut total = ExactSum::new();
        for sum in &self.sums {
            total.merge(sum);
        }
        total
    }
}

/// One node's failure tallies, kept by [`StreamView`] for every node of
/// the spec so per-node analyses (Fig. 4, time to first failure) read
/// nodes, not records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTally {
    /// Failures on the node.
    pub failures: u32,
    /// Of those, failures in the hardware domain.
    pub hardware: u32,
    /// Of those, failures in the software domain.
    pub software: u32,
    /// Time of the node's first failure, hours; `0.0` while it has none.
    pub first_failure: f64,
}

impl NodeTally {
    /// Counts one failure at `time` on this node. Records arrive in time
    /// order, so the first one counted is the node's first failure.
    fn add(&mut self, time: f64, category: Category) {
        if self.failures == 0 {
            self.first_failure = time;
        }
        self.failures += 1;
        match category.domain() {
            Domain::Hardware => self.hardware += 1,
            Domain::Software => self.software += 1,
            Domain::Unknown => {}
        }
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
/// assert!(streamed.month_ttrs().eq(bulk.month_ttrs()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamView {
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
    /// [`month_starts`] of the window: each record's month bucket is
    /// found by comparing its day with these, no calendar conversion.
    month_starts: Vec<i64>,
    /// Month bucket of the last pushed record; time order makes the
    /// bucket index monotone, so each push scans forward from here.
    month_cursor: usize,
    // The record columns, one entry per record in arrival order.
    ids: Vec<u32>,
    times: Vec<f64>,
    ttrs: Vec<f64>,
    /// Each record's category, as an index into `palette`.
    codes: Vec<u8>,
    /// The categories the records carry, in order of first arrival,
    /// each used by at least one record.
    palette: Vec<Category>,
    /// Records per palette code: `category_counts[k]` records carry
    /// `palette[k]`.
    category_counts: Vec<usize>,
    nodes: Vec<u32>,
    loci: Vec<Option<SoftwareLocus>>,
    /// Each record's end offset into `slot_involvements`: record `i`'s
    /// GPU slots are `slot_involvements[slot_ends[i - 1]..slot_ends[i]]`.
    slot_ends: Vec<u32>,
    /// The slot of every GPU involvement, in arrival order (one byte
    /// each): the records' slot column, which trailing-window slot
    /// reads slice directly.
    slot_involvements: Vec<GpuSlot>,
    ttrs_sorted: SortedRun,
    /// The exact sum of every repair duration: the MTTR in O(1).
    ttr_sum: ExactSum,
    /// Inter-arrival gaps (`time - previous time`, one per record after
    /// the first), sorted ascending.
    gaps_sorted: SortedRun,
    locus_counts: BTreeMap<SoftwareLocus, usize>,
    /// One tally per node of the spec, indexed by node id.
    node_tallies: Vec<NodeTally>,
    slot_counts: Vec<usize>,
    /// GPU-category records by number of GPUs involved, indexed
    /// `0..=gpus_per_node`; slot 0 counts unknown involvement.
    gpu_count_histogram: Vec<usize>,
    multi_gpu_times: Vec<f64>,
    month_buckets: MonthBuckets,
}

impl From<FailureLog> for StreamView {
    /// Indexes a finished log in bulk: one pass over the records, then
    /// one sort per order statistic. A [`FailureLog`] is already
    /// validated and time-sorted, so no record is re-validated. Each
    /// record is freed as soon as its columns are written.
    fn from(log: FailureLog) -> Self {
        let (generation, spec, window) = (log.generation(), log.spec().clone(), log.window());
        StreamView::bulk(generation, spec, window, log.into_records().into_iter())
    }
}

impl StreamView {
    /// Indexes `log` in bulk, reading its records in place — the
    /// borrowing form of `StreamView::from(log)`, with the same result.
    pub fn new(log: &FailureLog) -> Self {
        let (generation, spec, window) = (log.generation(), log.spec().clone(), log.window());
        StreamView::bulk(generation, spec, window, log.records().iter())
    }

    /// The bulk build behind [`StreamView::new`] and `From<FailureLog>`:
    /// `records` must be valid for the system and in time order.
    fn bulk<R: Borrow<FailureRecord>>(
        generation: Generation,
        spec: SystemSpec,
        window: ObservationWindow,
        records: impl ExactSizeIterator<Item = R>,
    ) -> Self {
        let mut view = StreamView::empty(generation, spec, window);
        let n = records.len();
        view.ids.reserve(n);
        view.times.reserve(n);
        view.ttrs.reserve(n);
        view.codes.reserve(n);
        view.nodes.reserve(n);
        view.loci.reserve(n);
        view.slot_ends.reserve(n);
        for rec in records {
            view.append(rec.borrow());
        }
        view.finish_bulk()
    }

    /// An empty view for a system described by `spec` over `window`.
    pub fn empty(generation: Generation, spec: SystemSpec, window: ObservationWindow) -> Self {
        let slots = spec.gpus_per_node() as usize;
        let nodes = spec.nodes() as usize;
        StreamView {
            generation,
            spec,
            window,
            month_buckets: MonthBuckets::new(window.month_count()),
            month_starts: month_starts(window),
            month_cursor: 0,
            ids: Vec::new(),
            times: Vec::new(),
            ttrs: Vec::new(),
            codes: Vec::new(),
            palette: Vec::new(),
            category_counts: Vec::new(),
            nodes: Vec::new(),
            loci: Vec::new(),
            slot_ends: Vec::new(),
            slot_involvements: Vec::new(),
            ttrs_sorted: SortedRun::default(),
            ttr_sum: ExactSum::new(),
            gaps_sorted: SortedRun::default(),
            locus_counts: BTreeMap::new(),
            node_tallies: vec![NodeTally::default(); nodes],
            slot_counts: vec![0; slots],
            gpu_count_histogram: vec![0; slots + 1],
            multi_gpu_times: Vec::new(),
        }
    }

    /// An empty view shaped like `log` (same generation, spec, window),
    /// ready to [`push`](StreamView::push) its records.
    pub fn empty_like(log: &FailureLog) -> Self {
        StreamView::empty(log.generation(), log.spec().clone(), log.window())
    }

    /// Completes a bulk build whose records were all
    /// [appended](StreamView::append): the TTR total is the merge of the
    /// month sums (every valid record lies in one bucket), and each order
    /// statistic is sorted on its first read, so a view that is only
    /// filtered never sorts.
    fn finish_bulk(mut self) -> Self {
        self.ttr_sum = self.month_buckets.total();
        self.ttrs_sorted = SortedRun::deferred(self.ttrs.clone());
        self.gaps_sorted = SortedRun::deferred(failstats::inter_arrival_times(&self.times));
        self
    }

    /// Records this view on `trace` as the index a query renders from:
    /// one `index.logview` span (items = records) and every repair
    /// duration in the `index.ttr_hours` histogram.
    pub fn trace_index(&self, trace: &Collector) {
        trace.span("index.logview").add_items(self.len() as u64);
        trace.observe_sorted_hours("index.ttr_hours", self.ttrs_sorted());
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
            self.gaps_sorted.push(time - prev);
        }
        let ttr = self.append(&rec);
        self.ttr_sum.add(ttr);
        self.ttrs_sorted.push(ttr);
        Ok(())
    }

    /// Writes one record into the columns and folds it into every index
    /// (its category count and month sum included) except the two
    /// sorted order statistics and the TTR total — the per-record work
    /// shared by [`StreamView::push`] and [`StreamView::bulk`]. Returns
    /// the record's repair duration. The record must be valid and no
    /// earlier than the last one appended.
    fn append(&mut self, rec: &FailureRecord) -> f64 {
        let category = rec.category();
        let code = self.palette.iter().position(|&c| c == category).unwrap_or_else(|| {
            self.palette.push(category);
            self.category_counts.push(0);
            self.palette.len() - 1
        });
        self.category_counts[code] += 1;
        self.codes.push(u8::try_from(code).expect("categories are a closed set of under 256"));
        self.ids.push(rec.id());
        self.times.push(rec.time().get());
        self.ttrs.push(rec.ttr().get());
        self.nodes.push(rec.node().index());
        self.loci.push(rec.locus());
        self.slot_involvements.extend_from_slice(rec.gpus());
        self.slot_ends.push(
            u32::try_from(self.slot_involvements.len()).expect("under 2^32 GPU involvements"),
        );
        self.index_row(self.len() - 1);
        rec.ttr().get()
    }

    /// Folds the row `row`, already written into the columns, into the
    /// locus counts, its node's tally, the GPU indexes and its month
    /// bucket: the indexes [`StreamView::append`] and
    /// [`StreamView::gather`] derive from the columns, one row at a
    /// time in row order.
    fn index_row(&mut self, row: usize) {
        let time = self.times[row];
        let category = self.palette[usize::from(self.codes[row])];
        if let Some(locus) = self.loci[row] {
            *self.locus_counts.entry(locus).or_insert(0) += 1;
        }
        self.node_tallies[self.nodes[row] as usize].add(time, category);
        if category.is_gpu() {
            let gpus = &self.slot_involvements[slot_range(&self.slot_ends, row)];
            // An involvement wider than the histogram is not counted.
            if let Some(count) = self.gpu_count_histogram.get_mut(gpus.len()) {
                *count += 1;
            }
            for slot in gpus {
                if let Some(count) = self.slot_counts.get_mut(slot.index() as usize) {
                    *count += 1;
                }
            }
            if gpus.len() > 1 {
                self.multi_gpu_times.push(time);
            }
        }
        let day = self.window.day_of(Hours::new(time));
        let month = month_bucket(&self.month_starts, self.month_cursor, day)
            .expect("a valid record lies in a month of its window");
        self.month_cursor = month;
        self.month_buckets.push(month, self.ttrs[row]);
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

    /// Settles the repair durations pushed since the last call: sorts
    /// them and merges them into the TTR run's sorted tail (and the tail
    /// into the run once it outgrows its threshold), so
    /// [`ttr_quantile`](StreamView::ttr_quantile) reads by rank and
    /// merges nothing. The watch loop calls this before every summary;
    /// never required for correctness.
    ///
    /// [`gaps_sorted`](StreamView::gaps_sorted) is left unsorted until
    /// its first read: no summary or drift check reads it, so a watch
    /// never sorts its gaps, and a snapshot save sorts them once.
    pub fn materialize(&mut self) {
        self.ttrs_sorted.materialize();
    }

    /// Snapshots the accumulated records as a validated [`FailureLog`],
    /// so any batch analysis can run on the live state.
    pub fn to_log(&self) -> FailureLog {
        FailureLog::with_spec(
            self.generation,
            self.spec.clone(),
            self.window,
            self.rows().map(RecordRef::to_record).collect(),
        )
        .expect("pushed records were validated")
    }

    /// Rebuilds the view keeping only the records `keep` accepts — the
    /// closure form of [`StreamView::filtered_by`], with the same
    /// result. Each row is refilled into one scratch record for `keep`
    /// to read (its slot buffer reused, its locus reset), so the scan
    /// allocates nothing per row; the rows kept are then gathered as
    /// `filtered_by` gathers them.
    pub fn filtered(&self, mut keep: impl FnMut(&FailureRecord) -> bool) -> StreamView {
        let mut scratch = None;
        self.gather(&RowMask::from_fn(self.len(), |row| {
            let rec = scratch.get_or_insert_with(|| self.row(row).to_record());
            self.row(row).write_to(rec);
            keep(rec)
        }))
    }

    /// Rebuilds the view keeping only the records `pred` matches,
    /// re-deriving every index so the result is indistinguishable from
    /// a view that only ever ingested the matching records. This is how
    /// a `--where` predicate composes with persisted (always
    /// unfiltered) index snapshots and with a cold parse: load the
    /// unfiltered view, then filter it.
    ///
    /// The predicate is evaluated over the columns
    /// ([`CompiledPredicate::select`]): each leaf is resolved once for
    /// the view. The kept rows are gathered column by column, in ingest
    /// order, so the filtered view's row order — and therefore any
    /// report rendered from it — is byte-identical to a cold filtered
    /// parse of the same log.
    pub fn filtered_by(&self, pred: &CompiledPredicate) -> StreamView {
        self.gather(&pred.select(&Columns {
            spec: &self.spec,
            window: self.window,
            times: &self.times,
            ttrs: &self.ttrs,
            codes: &self.codes,
            palette: &self.palette,
            nodes: &self.nodes,
            slot_ends: &self.slot_ends,
            slots: &self.slot_involvements,
            month_counts: &self.month_buckets.counts,
        }))
    }

    /// A view of the rows in `keep`: each column gathered at its exact
    /// size, the palette renumbered in first-arrival order, the other
    /// indexes derived row by row ([`StreamView::index_row`]), then the
    /// bulk build's finish.
    fn gather(&self, keep: &RowMask) -> StreamView {
        fn column<T: Copy>(values: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&row| values[row as usize]).collect()
        }
        let kept = keep.count();
        let mut rows: Vec<u32> = Vec::with_capacity(kept);
        rows.extend(keep.rows().map(|row| row as u32));
        let mut view = StreamView::empty(self.generation, self.spec.clone(), self.window);
        view.ids = column(&self.ids, &rows);
        view.times = column(&self.times, &rows);
        view.ttrs = column(&self.ttrs, &rows);
        view.codes = column(&self.codes, &rows);
        (view.palette, view.category_counts) = first_arrival_palette(&mut view.codes, &self.palette)
            .expect("a view's codes index its palette");
        view.nodes = column(&self.nodes, &rows);
        view.loci = column(&self.loci, &rows);
        let slots = |&row: &u32| &self.slot_involvements[slot_range(&self.slot_ends, row as usize)];
        let mut end = 0u32;
        view.slot_ends = rows
            .iter()
            .map(|row| {
                // At most the source's involvements, which fit a u32.
                end += slots(row).len() as u32;
                end
            })
            .collect();
        view.slot_involvements = Vec::with_capacity(end as usize);
        view.slot_involvements.extend(rows.iter().flat_map(slots));
        for row in 0..kept {
            view.index_row(row);
        }
        view.finish_bulk()
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

    /// Every record, in arrival (time) order, read in place.
    pub fn rows(&self) -> impl DoubleEndedIterator<Item = RecordRef<'_>> + ExactSizeIterator {
        (0..self.len()).map(move |row| RecordRef { view: self, row })
    }

    /// The record at `row` (its index in arrival order), read in place.
    ///
    /// # Panics
    ///
    /// When `row` is not below [`len`](StreamView::len).
    pub fn row(&self, row: usize) -> RecordRef<'_> {
        assert!(row < self.len(), "row {row} of a {}-record view", self.len());
        RecordRef { view: self, row }
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Record ids, in arrival order: the view's id column.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Failure times in hours, in arrival order: the view's time column.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Repair durations in hours, in arrival order: the view's TTR
    /// column.
    pub fn ttrs(&self) -> &[f64] {
        &self.ttrs
    }

    /// Each record's node id, in arrival order: the view's node column.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Each record's software root locus, in arrival order: the view's
    /// locus column.
    pub fn loci(&self) -> &[Option<SoftwareLocus>] {
        &self.loci
    }

    /// How many GPU slots each record names, in arrival order; the slots
    /// themselves are [`slot_involvements`](StreamView::slot_involvements).
    pub fn gpu_counts(&self) -> impl ExactSizeIterator<Item = u8> + '_ {
        let mut start = 0;
        self.slot_ends.iter().map(move |&end| {
            let count = (end - start) as u8;
            start = end;
            count
        })
    }

    /// Repair durations in hours, sorted ascending.
    ///
    /// Zero-cost when no appends are pending; otherwise the first call
    /// after a write pays one bounded merge (see the module docs).
    pub fn ttrs_sorted(&self) -> &[f64] {
        self.ttrs_sorted.as_slice()
    }

    /// The type-7 `p`-quantile of the repair durations, equal bit for bit
    /// to [`failstats::quantile_sorted`] of
    /// [`ttrs_sorted`](StreamView::ttrs_sorted). After
    /// [`materialize`](StreamView::materialize) it reads two order
    /// statistics by rank in O(log n) without merging; with values
    /// pushed since, it reads the merged slice. `None` for an empty view.
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    pub fn ttr_quantile(&self, p: f64) -> Option<f64> {
        self.ttrs_sorted.quantile(p)
    }

    /// The exact sum of every repair duration — added to by each
    /// [`push`](StreamView::push), the merge of the month sums after a
    /// bulk build: its [`mean`](ExactSum::mean) is the MTTR, equal to
    /// [`failstats::mean`] of [`ttrs_sorted`](StreamView::ttrs_sorted)
    /// at O(1) per read, whichever way the view was built.
    pub const fn ttr_sum(&self) -> &ExactSum {
        &self.ttr_sum
    }

    /// The categories the records carry, in order of first arrival: the
    /// palette [`category_codes`](StreamView::category_codes) indexes.
    pub fn category_palette(&self) -> &[Category] {
        &self.palette
    }

    /// Each record's category as an index into
    /// [`category_palette`](StreamView::category_palette), in arrival
    /// order: the view's category column.
    pub fn category_codes(&self) -> &[u8] {
        &self.codes
    }

    /// Failures per category, in [`Category`] order; every category with
    /// at least one failure appears.
    pub fn category_counts(&self) -> Vec<(Category, usize)> {
        let mut counts: Vec<(Category, usize)> =
            self.palette.iter().copied().zip(self.category_counts.iter().copied()).collect();
        counts.sort_unstable_by_key(|&(category, _)| category);
        counts
    }

    /// The entries of a per-record `column` (such as
    /// [`times`](StreamView::times) or [`ttrs`](StreamView::ttrs))
    /// grouped by the records' category, in [`Category`] order, each
    /// group in arrival order: one pass over the code column.
    ///
    /// # Panics
    ///
    /// When `column` does not hold one entry per record.
    pub fn by_category(&self, column: &[f64]) -> Vec<(Category, Vec<f64>)> {
        assert_eq!(column.len(), self.len(), "a column holds one entry per record");
        let mut groups: Vec<(Category, Vec<f64>)> = self
            .palette
            .iter()
            .zip(&self.category_counts)
            .map(|(&category, &count)| (category, Vec::with_capacity(count)))
            .collect();
        for (&code, &x) in self.codes.iter().zip(column) {
            groups[usize::from(code)].1.push(x);
        }
        groups.sort_unstable_by_key(|&(category, _)| category);
        groups
    }

    /// Software root-locus counts over records that carry one.
    pub fn locus_counts(&self) -> &BTreeMap<SoftwareLocus, usize> {
        &self.locus_counts
    }

    /// Inter-arrival gaps in hours — `time - previous time` for every
    /// record after the first — sorted ascending: the sample of the TBF
    /// distribution (Fig. 6).
    ///
    /// Same read cost model as [`ttrs_sorted`](StreamView::ttrs_sorted).
    pub fn gaps_sorted(&self) -> &[f64] {
        self.gaps_sorted.as_slice()
    }

    /// Per-node failure tallies, indexed by node id: one entry for every
    /// node of the spec, failing or not.
    pub fn node_tallies(&self) -> &[NodeTally] {
        &self.node_tallies
    }

    /// GPU-category failures by the number of GPUs they involve, indexed
    /// `0..=gpus_per_node`: entry `k` counts failures touching exactly
    /// `k` GPUs, entry 0 those with unknown involvement.
    pub fn gpu_count_histogram(&self) -> &[usize] {
        &self.gpu_count_histogram
    }

    /// GPU-failure involvements per slot, indexed by slot number.
    pub fn slot_counts(&self) -> &[usize] {
        &self.slot_counts
    }

    /// Failure counts per rack, indexed by rack number: the node tallies
    /// summed over each rack's nodes, in O(nodes).
    pub fn rack_counts(&self) -> Vec<usize> {
        self.node_tallies
            .chunks(self.spec.nodes_per_rack() as usize)
            .map(|rack| rack.iter().map(|tally| tally.failures as usize).sum())
            .collect()
    }

    /// Total per-GPU involvements (a failure touching 3 GPUs counts 3;
    /// unknown involvement counts 1): the slot counts plus the GPU
    /// failures of unknown involvement.
    pub fn gpu_involvements(&self) -> usize {
        self.slot_counts.iter().sum::<usize>() + self.gpu_count_histogram[0]
    }

    /// The slot of every GPU involvement, in arrival order (a failure
    /// touching slots 0 and 3 appends both, in its listed order): the
    /// view's slot column.
    pub fn slot_involvements(&self) -> &[GpuSlot] {
        &self.slot_involvements
    }

    /// Arrival times of multi-GPU failures, in time order.
    pub fn multi_gpu_times(&self) -> &[f64] {
        &self.multi_gpu_times
    }

    /// Repair durations bucketed by the `(year, month)` of the failure,
    /// aligned with `window.months()`: each bucket is a run of the TTR
    /// column, in arrival order.
    pub fn month_ttrs(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        let mut start = 0;
        self.month_buckets.counts.iter().map(move |&count| {
            start += count;
            &self.ttrs[start - count..start]
        })
    }

    /// Records per [`month_ttrs`](StreamView::month_ttrs) bucket.
    pub fn month_counts(&self) -> &[usize] {
        &self.month_buckets.counts
    }

    /// The exact sum of each [`month_ttrs`](StreamView::month_ttrs)
    /// bucket, kept as records arrive: a bucket's
    /// [`mean`](ExactSum::mean) equals [`failstats::mean`] of the bucket,
    /// at O(1) per read.
    pub fn month_ttr_sums(&self) -> &[ExactSum] {
        &self.month_buckets.sums
    }
}

/// One record of a [`StreamView`], read in place from its columns: the
/// accessors of [`FailureRecord`], with
/// [`to_record`](RecordRef::to_record) for an owned copy.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    view: &'a StreamView,
    row: usize,
}

impl<'a> RecordRef<'a> {
    /// The stable record id within its log.
    pub fn id(self) -> u32 {
        self.view.ids[self.row]
    }

    /// The failure time as an offset into the observation window.
    pub fn time(self) -> Hours {
        Hours::new(self.view.times[self.row])
    }

    /// The time to recovery.
    pub fn ttr(self) -> Hours {
        Hours::new(self.view.ttrs[self.row])
    }

    /// The failure category.
    pub fn category(self) -> Category {
        self.view.palette[usize::from(self.view.codes[self.row])]
    }

    /// The affected node.
    pub fn node(self) -> NodeId {
        NodeId::new(self.view.nodes[self.row])
    }

    /// The GPU slots involved (empty when unknown or not a GPU failure).
    pub fn gpus(self) -> &'a [GpuSlot] {
        &self.view.slot_involvements[slot_range(&self.view.slot_ends, self.row)]
    }

    /// The software root locus, when recorded.
    pub fn locus(self) -> Option<SoftwareLocus> {
        self.view.loci[self.row]
    }

    /// The record as an owned [`FailureRecord`].
    pub fn to_record(self) -> FailureRecord {
        let rec = FailureRecord::new(self.id(), self.time(), self.ttr(), self.category(), self.node())
            .with_gpus(self.gpus().iter().copied());
        match self.locus() {
            Some(locus) => rec.with_locus(locus),
            None => rec,
        }
    }

    /// Overwrites `rec` with this record, reusing its slot buffer.
    fn write_to(self, rec: &mut FailureRecord) {
        rec.assign(
            self.id(),
            self.time(),
            self.ttr(),
            self.category(),
            self.node(),
            self.gpus(),
            self.locus(),
        );
    }
}

impl fmt::Debug for RecordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordRef")
            .field("row", &self.row)
            .field("record", &self.to_record())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};

    /// The bit patterns of `xs`, so `-0.0` and `+0.0` compare unequal.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn feed(log: &FailureLog) -> StreamView {
        let mut sv = StreamView::empty_like(log);
        sv.extend(log.records().to_vec()).unwrap();
        sv
    }

    /// `view` saved to a snapshot body and loaded back.
    fn restored(view: &StreamView) -> StreamView {
        let body = view.encode_body();
        let mut r = faillog::ByteReader::new(&body[..], body.len() as u64);
        StreamView::decode_body(&mut r).expect("an encoded view decodes")
    }

    /// Asserts that the two sorted arrays, the per-node tallies, the
    /// GPU-count histogram, the category counts and groupings, the rack
    /// counts and the GPU-involvement total of `view` equal oracles
    /// computed by walking its records.
    fn assert_derived_indexes_match_the_records(view: &StreamView, what: &str) {
        let records: Vec<FailureRecord> = view.rows().map(RecordRef::to_record).collect();
        let sorted = |mut xs: Vec<f64>| {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let gaps = failstats::inter_arrival_times(view.times());
        assert_eq!(bits(view.gaps_sorted()), sorted(gaps), "{what}: gaps");
        let ttrs = records.iter().map(|r| r.ttr().get()).collect();
        assert_eq!(bits(view.ttrs_sorted()), sorted(ttrs), "{what}: ttrs");

        let mut tallies = vec![NodeTally::default(); view.spec().nodes() as usize];
        let mut histogram = vec![0usize; view.spec().gpus_per_node() as usize + 1];
        let mut racks = vec![0usize; view.spec().racks() as usize];
        let mut involvements = 0;
        let mut times_by: BTreeMap<Category, Vec<f64>> = BTreeMap::new();
        let mut ttrs_by: BTreeMap<Category, Vec<f64>> = BTreeMap::new();
        for rec in &records {
            racks[view.spec().rack_of(rec.node()).index() as usize] += 1;
            times_by.entry(rec.category()).or_default().push(rec.time().get());
            ttrs_by.entry(rec.category()).or_default().push(rec.ttr().get());
            let tally = &mut tallies[rec.node().index() as usize];
            if tally.failures == 0 {
                tally.first_failure = rec.time().get();
            }
            tally.failures += 1;
            match rec.category().domain() {
                Domain::Hardware => tally.hardware += 1,
                Domain::Software => tally.software += 1,
                Domain::Unknown => {}
            }
            if rec.category().is_gpu() {
                histogram[rec.gpus().len()] += 1;
                involvements += rec.gpus().len().max(1);
            }
        }
        assert_eq!(view.node_tallies(), tallies.as_slice(), "{what}: node tallies");
        assert_eq!(view.gpu_count_histogram(), histogram.as_slice(), "{what}: gpu counts");
        assert_eq!(view.rack_counts(), racks, "{what}: rack counts");
        assert_eq!(view.gpu_involvements(), involvements, "{what}: gpu involvements");
        let counts: Vec<(Category, usize)> = times_by.iter().map(|(&c, xs)| (c, xs.len())).collect();
        assert_eq!(view.category_counts(), counts, "{what}: category counts");
        let walked = |groups: &BTreeMap<Category, Vec<f64>>| {
            groups.iter().map(|(&c, xs)| (c, bits(xs))).collect::<Vec<_>>()
        };
        let read = |column: &[f64]| {
            view.by_category(column).into_iter().map(|(c, xs)| (c, bits(&xs))).collect::<Vec<_>>()
        };
        assert_eq!(read(view.times()), walked(&times_by), "{what}: times by category");
        assert_eq!(read(view.ttrs()), walked(&ttrs_by), "{what}: ttrs by category");
    }

    #[test]
    fn derived_indexes_match_record_walks_on_every_build_path() {
        for (model, seed) in [
            (SystemModel::tsubame2(), 42),
            (SystemModel::tsubame3(), 43),
        ] {
            let log = Simulator::new(model, seed).generate().unwrap();
            let bulk = StreamView::new(&log);
            assert_derived_indexes_match_the_records(&bulk, "bulk");
            assert!(!bulk.gaps_sorted().is_empty());
            assert_derived_indexes_match_the_records(&feed(&log), "push");

            let mut chunked = StreamView::empty_like(&log);
            for chunk in log.records().chunks(7) {
                chunked.extend(chunk.to_vec()).unwrap();
            }
            assert_derived_indexes_match_the_records(&chunked, "extend");

            assert_derived_indexes_match_the_records(&restored(&chunked), "decode_body");

            let cut = log.len() / 3;
            let mut prefix = StreamView::empty_like(&log);
            prefix.extend(log.records()[..cut].to_vec()).unwrap();
            let mut grown = restored(&prefix);
            grown.extend(log.records()[cut..].to_vec()).unwrap();
            assert_derived_indexes_match_the_records(&grown, "prefix + extend");
            assert_eq!(grown, bulk);

            let filtered = bulk.filtered(|r| r.category().is_gpu() || r.ttr().get() > 24.0);
            assert!(filtered.len() < bulk.len());
            assert_derived_indexes_match_the_records(&filtered, "filtered");
        }
    }

    #[test]
    fn materialize_leaves_the_gap_tail_pending_but_a_snapshot_stores_it_merged() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let mut sv = feed(&log);
        sv.materialize();
        assert!(sv.ttrs_sorted.unsorted.lock().unwrap().is_empty());
        assert!(sv.ttrs_sorted.merged.get().is_none(), "a settle merges no cache");
        let mut settled = [sv.ttrs_sorted.run.clone(), sv.ttrs_sorted.tail.clone()].concat();
        settled = sorted_total(settled);
        let gaps = &sv.gaps_sorted;
        assert!(gaps.run.is_empty() && gaps.tail.is_empty(), "pushed gaps are never settled");
        assert_eq!(gaps.unsorted.lock().unwrap().len(), log.len() - 1);
        let expected = StreamView::new(&log);
        assert_eq!(bits(&settled), bits(expected.ttrs_sorted()));
        let loaded = restored(&sv);
        assert!(loaded.gaps_sorted.tail.is_empty());
        assert!(loaded.gaps_sorted.unsorted.lock().unwrap().is_empty());
        assert_eq!(bits(&loaded.gaps_sorted.run), bits(expected.gaps_sorted()));
        assert_eq!(bits(sv.gaps_sorted()), bits(expected.gaps_sorted()));
    }

    mod columns {
        use super::*;
        use failtypes::{T2Category, T3Category};
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::strategy::Just;
        use proptest::test_runner::TestRng;

        /// One generated row: hours to the previous record in steps of
        /// 1.5 (0 ties them), the repair in quarter hours, a category
        /// pick, a node pick, a GPU-slot mask and rotation, and a locus
        /// pick (one past `SoftwareLocus::ALL` or beyond: no locus).
        type Row = (u8, u16, usize, u32, u8, u8, usize);

        fn row() -> impl Strategy<Value = Row> {
            (0u8..=30, 0u16..400, 0usize..64, any::<u32>(), 0u8..16, any::<u8>(), 0usize..24)
        }

        /// A valid log of `rows` over a window that starts mid-month and
        /// spans a leap day: GPU records name 0..=`gpus_per_node`
        /// distinct slots in a rotated order, software records a locus
        /// or none.
        fn log_of(t3: bool, rows: &[Row]) -> FailureLog {
            let generation = if t3 { Generation::Tsubame3 } else { Generation::Tsubame2 };
            let categories: Vec<Category> = if t3 {
                T3Category::ALL.iter().map(|&c| Category::T3(c)).collect()
            } else {
                T2Category::ALL.iter().map(|&c| Category::T2(c)).collect()
            };
            let spec = generation.spec();
            let date = |y, m, d| Date::new(y, m, d).unwrap();
            let window = ObservationWindow::new(date(2019, 12, 15), date(2020, 3, 10)).unwrap();
            let mut time = 0.0;
            let records = rows
                .iter()
                .enumerate()
                .map(|(id, &(step, ttr, category, node, mask, turn, locus))| {
                    time += f64::from(step) * 1.5;
                    let category = categories[category % categories.len()];
                    let node = NodeId::new(node % spec.nodes());
                    let ttr = Hours::new(f64::from(ttr) * 0.25);
                    let mut rec = FailureRecord::new(id as u32, Hours::new(time), ttr, category, node);
                    if category.is_gpu() {
                        let mut slots: Vec<GpuSlot> = (0..spec.gpus_per_node())
                            .filter(|&s| mask >> s & 1 == 1)
                            .map(GpuSlot::new)
                            .collect();
                        if !slots.is_empty() {
                            let turn = usize::from(turn) % slots.len();
                            slots.rotate_left(turn);
                        }
                        rec = rec.with_gpus(slots);
                    }
                    match SoftwareLocus::ALL.get(locus) {
                        Some(&locus) if category.is_software() => rec.with_locus(locus),
                        _ => rec,
                    }
                })
                .collect();
            FailureLog::with_spec(generation, spec, window, records).unwrap()
        }

        /// `view` with its palette listed in reverse and the codes and
        /// counts renumbered to match: the same records, as a snapshot
        /// written in another palette order carries them.
        fn reversed_palette(mut view: StreamView) -> StreamView {
            let last = view.palette.len().saturating_sub(1) as u8;
            view.palette.reverse();
            view.category_counts.reverse();
            view.codes.iter_mut().for_each(|code| *code = last - *code);
            view
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            // The bulk, pushed and persisted-and-restored views of one
            // log are equal, their rows read back as the log's records,
            // and filtering each equals ingesting only the kept records.
            // The predicate reads the slots and the locus, so a scratch
            // record whose slots or locus leaked from an earlier row
            // keeps the wrong rows or stores the wrong columns.
            #[test]
            fn every_build_path_holds_the_same_columns(
                t3 in any::<bool>(),
                rows in vec(row(), 0..40),
            ) {
                let log = log_of(t3, &rows);
                let bulk = StreamView::new(&log);
                let mut pushed = StreamView::empty_like(&log);
                pushed.extend(log.records().to_vec()).unwrap();
                prop_assert_eq!(&pushed, &bulk);
                let loaded = restored(&pushed);
                prop_assert_eq!(&loaded, &bulk);
                let reordered = restored(&reversed_palette(bulk.clone()));
                prop_assert_eq!(&reordered, &bulk);

                let keep = |r: &FailureRecord| {
                    r.gpus().len() == 1 || (r.locus().is_none() && r.ttr().get() < 40.0)
                };
                let mut oracle = StreamView::empty_like(&log);
                oracle
                    .extend(log.records().iter().filter(|r| keep(r)).cloned())
                    .unwrap();
                for (view, what) in [(&bulk, "bulk"), (&pushed, "push"), (&loaded, "decode_body")] {
                    let records: Vec<FailureRecord> = view.rows().map(RecordRef::to_record).collect();
                    prop_assert_eq!(records.as_slice(), log.records());
                    for (i, rec) in log.records().iter().enumerate() {
                        prop_assert_eq!(&view.row(i).to_record(), rec);
                    }
                    assert_derived_indexes_match_the_records(view, what);
                    prop_assert_eq!(&view.filtered(keep), &oracle);
                }
                assert_derived_indexes_match_the_records(&bulk.filtered(keep), "filtered");
                assert_derived_indexes_match_the_records(&reordered, "reversed palette");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // The column evaluation keeps exactly the rows the per-record
            // `matches` keeps, and its view equals both the closure
            // filter's and a view that only ever ingested the kept
            // records (palette order and month cursor included).
            #[test]
            fn column_filter_equals_the_per_record_filter(
                (log, expr) in (any::<bool>(), vec(row(), 0..40)).prop_flat_map(|(t3, rows)| {
                    let log = log_of(t3, &rows);
                    let expressions = Expressions::over(&log);
                    (Just(log), expressions)
                }),
            ) {
                let bulk = StreamView::new(&log);
                let loaded = restored(&reversed_palette(bulk.clone()));
                // Every row and no row, besides the generated expression.
                for expr in [expr.as_str(), "ttr >= 0", "!(ttr >= 0)"] {
                    let pred = failfilter::compile(expr).expect("generated expressions compile");
                    let (spec, window) = (log.spec(), log.window());
                    let mut oracle = StreamView::empty_like(&log);
                    oracle
                        .extend(log.records().iter().filter(|r| pred.matches(r, spec, window)).cloned())
                        .unwrap();
                    for view in [&bulk, &loaded] {
                        prop_assert_eq!(&view.filtered_by(&pred), &oracle, "{}", expr);
                        let closure = view.filtered(|r| pred.matches(r, spec, window));
                        prop_assert_eq!(&closure, &oracle, "{}", expr);
                    }
                }
            }
        }

        /// Random `--where` expressions over every field and operator for
        /// one log: leaves under `&&`, `||` and `!`, sometimes inside a
        /// top-level `time` window (what `--since`/`--until` desugar
        /// to). Most `time`, `ttr`, `recovery` and `node`
        /// values are the log's own, so `==` and the bounds of `<=` and
        /// `>=` meet ties; the dates lie before and inside the window.
        struct Expressions {
            times: Vec<String>,
            ttrs: Vec<String>,
            recoveries: Vec<String>,
            nodes: Vec<String>,
        }

        impl Expressions {
            fn over(log: &FailureLog) -> Expressions {
                let values = |field: fn(&FailureRecord) -> String, extra: &[&str]| {
                    let mut values: Vec<String> = log.records().iter().map(field).collect();
                    values.extend(extra.iter().map(|&v| v.to_owned()));
                    values
                };
                Expressions {
                    times: values(|r| r.time().get().to_string(), &["-5", "0", "1.5", "600.5"]),
                    ttrs: values(|r| r.ttr().get().to_string(), &["0", "24", "24.25"]),
                    recoveries: values(|r| r.recovery_time().get().to_string(), &["100"]),
                    nodes: values(|r| r.node().index().to_string(), &["0", "300"]),
                }
            }

            /// A leaf, or below `depth` levels of `&&`, `||` and `!`.
            fn tree(&self, rng: &mut TestRng, depth: u32) -> String {
                match if depth == 0 { 0 } else { rng.below(5) } {
                    0 | 1 => self.leaf(rng),
                    2 => format!("({}) && ({})", self.tree(rng, depth - 1), self.tree(rng, depth - 1)),
                    3 => format!("({}) || ({})", self.tree(rng, depth - 1), self.tree(rng, depth - 1)),
                    _ => format!("!({})", self.tree(rng, depth - 1)),
                }
            }

            /// One leaf over any field with any of its operators.
            fn leaf(&self, rng: &mut TestRng) -> String {
                const CATEGORIES: &[&str] = &[
                    "gpu", "software", "hardware", "unknown", "memory", "\"System Board\"",
                    "\"Omni-Path\"",
                ];
                const TEXT: &[&str] = &[
                    "node ~ \"rack1\"",
                    "node ~ \"node1\"",
                    "node ~ \"k2/node7\"",
                    "rack ~ \"rack1\"",
                    "rack ~ \"2\"",
                    "category ~ \"gp\"",
                    "category ~ \"o\"",
                ];
                const DATES: &[&str] = &["\"2019-12-01\"", "\"2019-12-20\"", "\"2020-01-01\""];
                let fixed = |values: &[&str]| values.iter().map(|&v| v.to_owned()).collect::<Vec<_>>();
                let numeric: [(&str, Vec<String>); 8] = [
                    ("time", self.times.clone()),
                    ("ttr", self.ttrs.clone()),
                    ("recovery", self.recoveries.clone()),
                    ("node", self.nodes.clone()),
                    ("rack", fixed(&["0", "3", "7", "20"])),
                    ("slot", fixed(&["0", "1", "2", "3"])),
                    ("gpus", fixed(&["0", "1", "2", "4"])),
                    ("month", fixed(&["1", "2", "3", "12"])),
                ];
                let set = |rng: &mut TestRng, values: &[String]| {
                    let n = 1 + rng.below(3);
                    (0..n).map(|_| pick(rng, values)).collect::<Vec<_>>().join(", ")
                };
                let cmp = |rng: &mut TestRng| pick(rng, &["==", "!=", "<", "<=", ">", ">="]);
                match rng.below(5) {
                    0 => format!("category {} {}", pick(rng, &["==", "!="]), pick(rng, CATEGORIES)),
                    1 => format!("category in ({})", set(rng, &fixed(CATEGORIES))),
                    2 => pick(rng, TEXT).to_owned(),
                    3 => format!("time {} {}", cmp(rng), pick(rng, DATES)),
                    _ => {
                        let (field, values) = &numeric[rng.below(8) as usize];
                        if rng.below(4) == 0 {
                            format!("{field} in ({})", set(rng, values))
                        } else {
                            format!("{field} {} {}", cmp(rng), pick(rng, values))
                        }
                    }
                }
            }
        }

        impl Strategy for Expressions {
            type Value = String;

            fn generate(&self, rng: &mut TestRng) -> String {
                let tree = self.tree(rng, 3);
                let bound = |rng: &mut TestRng| rng.flip().then(|| pick(rng, &self.times));
                match (bound(rng), bound(rng)) {
                    (None, None) => tree,
                    (Some(t), None) => format!("time >= {t} && ({tree})"),
                    (None, Some(u)) => format!("({tree}) && time < {u}"),
                    (Some(t), Some(u)) => format!("time >= {t} && ({tree}) && time < {u}"),
                }
            }
        }

        fn pick<S: AsRef<str>>(rng: &mut TestRng, values: &[S]) -> String {
            values[rng.below(values.len() as u64) as usize].as_ref().to_owned()
        }
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
        // Category counts cover every record exactly once.
        let total: usize = view.category_counts().iter().map(|&(_, count)| count).sum();
        assert_eq!(total, log.len());
        // Node tallies cover every node and sum to the record count.
        assert_eq!(view.node_tallies().len(), log.spec().nodes() as usize);
        let nodes: u32 = view.node_tallies().iter().map(|t| t.failures).sum();
        assert_eq!(nodes as usize, log.len());
        // Rack counts sum to the record count.
        assert_eq!(view.rack_counts().iter().sum::<usize>(), log.len());
        // Month buckets cover every record (the window spans all times).
        assert_eq!(view.month_ttrs().map(<[f64]>::len).sum::<usize>(), log.len());
        // Sorted arrays are sorted and complete.
        assert_eq!(view.ttrs_sorted().len(), log.len());
        assert!(view.ttrs_sorted().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn partitions_preserve_time_order() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = StreamView::from(log);
        let groups = view.by_category(view.times());
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "groups in category order");
        for (_, times) in &groups {
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
        // Each group lists its rows in arrival order.
        let rows: Vec<f64> = (0..view.len()).map(|row| row as f64).collect();
        for (_, rows) in view.by_category(&rows) {
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_log_view() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = StreamView::from(log.filtered(|_| false));
        assert!(view.is_empty());
        assert!(view.category_counts().is_empty());
        assert!(view.by_category(view.ttrs()).is_empty());
        assert!(view.multi_gpu_times().is_empty());
        assert_eq!(view.gpu_involvements(), 0);
        assert_eq!(view, StreamView::empty_like(&log));
    }

    #[test]
    fn sorted_run_deferred_merge_equals_incremental_insert() {
        // Interleave reads, settles and writes so every SortedRun path
        // runs: unsorted appends, settles into the tail, tail merges into
        // the run, the lazy read-side merge cache, and promotion back
        // into the run.
        let mut run = SortedRun::default();
        let mut reference = Vec::new();
        let mut x = 0.5f64;
        let mut tail_merges = 0;
        for i in 0..2000 {
            x = (x * 997.0 + 0.1).rem_euclid(513.0); // deterministic scatter
            run.push(x);
            let pos = reference.partition_point(|&y: &f64| y <= x);
            reference.insert(pos, x);
            if i % 37 == 0 {
                assert_eq!(bits(run.as_slice()), bits(&reference), "at push {i}");
            }
            if i % 23 == 0 {
                let before = run.run.len();
                run.materialize();
                tail_merges += usize::from(run.run.len() > before);
                assert!(run.unsorted.lock().unwrap().is_empty());
                assert!(run.tail.len() < MERGE_FLOOR.max(run.run.len() / 8));
                let settled = sorted_total([run.run.clone(), run.tail.clone()].concat());
                assert_eq!(bits(&settled), bits(&reference), "settled at push {i}");
            }
        }
        assert!(tail_merges > 1, "the tail merged into the run {tail_merges} time(s)");
        assert_eq!(bits(run.as_slice()), bits(&reference));
        run.materialize();
        assert_eq!(bits(run.as_slice()), bits(&reference));
        // An ascending append after a settle.
        run.push(1e9);
        reference.push(1e9);
        assert_eq!(bits(run.as_slice()), bits(&reference));
        // Clones compare equal whatever their internal layout.
        let cloned = run.clone();
        assert_eq!(cloned, run);
        assert_eq!(cloned.as_slice(), reference.as_slice());
    }

    #[test]
    fn deferred_bulk_values_sort_on_first_read_or_write() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 389) % 257) as f64 * 0.5).collect();
        let mut reference = values.clone();
        reference.sort_by(f64::total_cmp);

        // A read sorts into the cache and keeps no unsorted copy; a
        // later write takes the cache back as the run.
        let mut read_first = SortedRun::deferred(values.clone());
        assert_eq!(bits(read_first.as_slice()), bits(&reference));
        assert!(read_first.unsorted.lock().unwrap().is_empty());
        read_first.push(3.25);
        assert_eq!(bits(&read_first.run), bits(&reference));
        // A write appends behind the deferred values, still unsorted;
        // the settle sorts them all through the tail into the run.
        let mut write_first = SortedRun::deferred(values);
        write_first.push(3.25);
        assert!(write_first.run.is_empty() && write_first.tail.is_empty());
        assert_eq!(write_first.unsorted.lock().unwrap().len(), 501);
        let pos = reference.partition_point(|&y| y <= 3.25);
        reference.insert(pos, 3.25);
        for run in [&mut read_first, &mut write_first] {
            run.materialize();
            assert!(run.unsorted.lock().unwrap().is_empty());
            let settled = sorted_total([run.run.clone(), run.tail.clone()].concat());
            assert_eq!(bits(&settled), bits(&reference));
            assert_eq!(bits(run.as_slice()), bits(&reference));
        }
        // 501 settled values outgrow an empty run's tail threshold; one
        // more value on a 500-value run stays in the tail.
        assert!(write_first.tail.is_empty() && bits(&write_first.run) == bits(&reference));
        assert_eq!(read_first.tail, [3.25]);
        assert_eq!(read_first, write_first);
        assert_eq!(SortedRun::deferred(Vec::new()).as_slice(), &[] as &[f64]);

        // Readers racing for the first read all see the sorted union.
        let shared = SortedRun::deferred(reference.iter().rev().copied().collect());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    assert_eq!(shared.as_slice(), reference.as_slice());
                });
            }
        });
    }

    mod merge {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Sorts `tail` and merges it into the sorted `run` through
        /// `merge_into`.
        fn merged(mut run: Vec<f64>, tail: Vec<f64>) -> Vec<f64> {
            merge_into(&mut run, &sorted_total(tail));
            run
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // The block-copy merge equals sorting the concatenation,
            // bit for bit. Values come from a small integer range so
            // ties between and within run and tail are common.
            #[test]
            fn block_copy_merge_equals_sorting_the_concatenation(
                run in vec(0u32..24, 0..400),
                pool in vec(0u32..24, 1..120),
                placement in 0u8..3,
                length in 0u8..3,
                scale in 0.125f64..4.0,
            ) {
                let mut run: Vec<f64> = run.into_iter().map(|v| f64::from(v) * scale).collect();
                run.sort_unstable_by(f64::total_cmp);
                let threshold = MERGE_FLOOR.max(run.len() / 8);
                let len = match length {
                    0 => 1,
                    1 => threshold,
                    _ => pool.len(),
                };
                // 0: interleaved with the run; 1: entirely below it;
                // 2: entirely above it.
                let shift = match placement {
                    0 => 0.0,
                    1 => -100.0,
                    _ => 100.0,
                };
                let tail: Vec<f64> = pool
                    .iter()
                    .cycle()
                    .take(len)
                    .map(|&v| f64::from(v) * scale + shift)
                    .collect();
                let mut expected = run.clone();
                expected.extend_from_slice(&tail);
                expected.sort_unstable_by(f64::total_cmp);
                let got = merged(run, tail);
                prop_assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        #[test]
        fn merge_edge_cases() {
            assert_eq!(merged(Vec::new(), vec![3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
            assert_eq!(merged(vec![1.0, 2.0], vec![2.0]), [1.0, 2.0, 2.0]);
            assert_eq!(merged(vec![1.0, 2.0], vec![0.5]), [0.5, 1.0, 2.0]);
            assert_eq!(merged(vec![1.0, 2.0], vec![9.0, 9.0]), [1.0, 2.0, 9.0, 9.0]);
            assert_eq!(merged(vec![2.0; 3], vec![2.0; 2]), [2.0; 5]);
        }
    }

    mod rank {
        use super::*;
        use failtypes::T3Category;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// One step of an interleaving over a pushed view.
        #[derive(Debug, Clone)]
        enum Step {
            /// Push one record per `(time step, TTR pick)`.
            Push(Vec<(u8, u8)>),
            /// Settle the TTR run, as a watch tick does.
            Materialize,
            /// Read both sorted arrays through their accessors.
            Read,
        }

        /// Pushes, settles and reads in the ratio 4 : 2 : 1.
        fn step() -> impl Strategy<Value = Step> {
            (0u8..7, vec((0u8..3, 0u8..6), 1..40)).prop_map(|(kind, picks)| match kind {
                0..=3 => Step::Push(picks),
                4 | 5 => Step::Materialize,
                _ => Step::Read,
            })
        }

        /// A TTR on a small grid holding both signed zeros, so ties and
        /// `-0.0`/`+0.0` neighbours are common.
        fn grid_ttr(pick: u8) -> f64 {
            match pick {
                0 => -0.0,
                1 => 0.0,
                k => f64::from(k - 1),
            }
        }

        /// Whether `xs` ascends in `total_cmp` order.
        fn ascending_total(xs: &[f64]) -> bool {
            xs.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le())
        }

        /// The values `run` holds, sorted, read from its parts so the
        /// check sets no cache (a cached read would hand the next write
        /// its whole array as the run and empty the tail).
        fn held(run: &SortedRun) -> Vec<f64> {
            if let Some(full) = run.merged.get() {
                return full.clone();
            }
            assert!(ascending_total(&run.run) && ascending_total(&run.tail));
            let unsorted = run.unsorted.lock().unwrap().clone();
            sorted_total([run.run.clone(), run.tail.clone(), unsorted].concat())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // After every step of an interleaving of pushes, settles and
            // reads, each sorted array holds the sorted column, and the
            // TTR quantile read by rank equals `quantile_sorted` of the
            // sorted column bit for bit, at the fixed and random `p`.
            #[test]
            fn rank_quantiles_equal_the_sorted_column_at_every_step(
                steps in vec(step(), 1..30),
                random_p in vec(0.0f64..=1.0, 1..4),
            ) {
                let generation = Generation::Tsubame3;
                let date = |y, m, d| Date::new(y, m, d).unwrap();
                let window = ObservationWindow::new(date(2020, 1, 1), date(2021, 1, 1)).unwrap();
                let mut view = StreamView::empty(generation, generation.spec(), window);
                let category = Category::T3(T3Category::ALL[0]);
                let ps: Vec<f64> = [0.0, 0.1, 0.5, 0.9, 1.0].into_iter().chain(random_p).collect();
                let mut time = 0.0;
                for step in steps {
                    match step {
                        Step::Push(picks) => {
                            for (dt, pick) in picks {
                                time += f64::from(dt);
                                let id = view.len() as u32;
                                let ttr = Hours::new(grid_ttr(pick));
                                let node = NodeId::new(id % 8);
                                let time = Hours::new(time);
                                let rec = FailureRecord::new(id, time, ttr, category, node);
                                view.push(rec).unwrap();
                            }
                        }
                        Step::Materialize => view.materialize(),
                        Step::Read => {
                            for &p in &ps {
                                let by_rank = view.ttr_quantile(p).map(f64::to_bits);
                                let sorted = failstats::quantile_sorted(view.ttrs_sorted(), p)
                                    .map(f64::to_bits);
                                let (a, b) = (by_rank, sorted);
                                prop_assert!(a == b, "p = {}: {:?} vs {:?}", p, a, b);
                            }
                            let ttrs = sorted_total(view.ttrs().to_vec());
                            let gaps = sorted_total(failstats::inter_arrival_times(view.times()));
                            prop_assert_eq!(bits(view.ttrs_sorted()), bits(&ttrs));
                            prop_assert_eq!(bits(view.gaps_sorted()), bits(&gaps));
                        }
                    }
                    let ttrs = sorted_total(view.ttrs().to_vec());
                    let gaps = sorted_total(failstats::inter_arrival_times(view.times()));
                    prop_assert_eq!(bits(&held(&view.ttrs_sorted)), bits(&ttrs));
                    prop_assert_eq!(bits(&held(&view.gaps_sorted)), bits(&gaps));
                    // A settled run reads by rank; an unsettled one would
                    // merge into the cache, so it is read only in `Read`.
                    // The type-7 interpolation turns a `-0.0` order
                    // statistic into `+0.0` (`-0.0 + 0.0`) whenever two
                    // or more values are held, so the order statistics
                    // are checked themselves, every rank of them.
                    let run = &view.ttrs_sorted;
                    if run.merged.get().is_none() && run.unsorted.lock().unwrap().is_empty() {
                        for (k, x) in ttrs.iter().enumerate() {
                            let nth = nth_of_union(&run.run, &run.tail, k);
                            let same = nth.to_bits() == x.to_bits();
                            prop_assert!(same, "rank {}: {} vs {}", k, nth, x);
                        }
                        for &p in &ps {
                            let by_rank = view.ttr_quantile(p).map(f64::to_bits);
                            let sorted = failstats::quantile_sorted(&ttrs, p).map(f64::to_bits);
                            let (a, b) = (by_rank, sorted);
                            prop_assert!(a == b, "p = {}: {:?} vs {:?}", p, a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integer_day_buckets_match_calendar_dates() {
        let date = |y, m, d| Date::new(y, m, d).unwrap();
        for window in [
            // Starts mid-month and spans 2012-02-29.
            ObservationWindow::new(date(2012, 1, 7), date(2013, 8, 1)).unwrap(),
            // Dec -> Jan, then a leap day, ending mid-month.
            ObservationWindow::new(date(2019, 12, 15), date(2020, 3, 10)).unwrap(),
            // Starts on the first and ends on a month boundary.
            ObservationWindow::new(date(2020, 2, 1), date(2020, 3, 1)).unwrap(),
            ObservationWindow::new(date(2017, 5, 9), date(2020, 2, 22)).unwrap(),
        ] {
            let months = window.months();
            let starts = month_starts(window);
            assert_eq!(starts.len(), months.len() + 1);
            let days = window.duration().get() as i64 / 24;
            let mut cursor = 0;
            for k in 0..days {
                let midnight = 24.0 * k as f64;
                let mut times = vec![midnight, midnight + 12.0, midnight + 23.999_999];
                if k > 0 {
                    times.insert(0, f64::from_bits(midnight.to_bits() - 1));
                }
                for t in times {
                    let offset = Hours::new(t);
                    assert_eq!(
                        window.date_of(offset),
                        window.start().plus_hours(offset),
                        "{window}: t = {t:?}"
                    );
                    let expected = months
                        .iter()
                        .position(|&m| m == window.date_of(offset).year_month());
                    let day = window.day_of(offset);
                    assert_eq!(month_bucket(&starts, 0, day), expected, "{window}: t = {t:?}");
                    // Searched forward from the previous record's bucket,
                    // as pushes in time order do.
                    let found = month_bucket(&starts, cursor, day);
                    assert_eq!(found, expected, "{window}: t = {t:?} from {cursor}");
                    cursor = found.unwrap();
                }
            }
            // Days outside the window's months have no bucket.
            assert_eq!(month_bucket(&starts, 0, starts[0] - 1), None);
            assert_eq!(month_bucket(&starts, 0, starts[months.len()]), None);
        }
    }

    /// The bits of `xs` sorted by `sort_unstable_by(f64::total_cmp)`
    /// and by [`sorted_total`].
    fn both_sorts(xs: Vec<f64>) -> (Vec<u64>, Vec<u64>) {
        let mut expected = xs.clone();
        expected.sort_unstable_by(f64::total_cmp);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        (bits(sorted_total(xs)), bits(expected))
    }

    #[test]
    fn key_sort_equals_total_cmp_sort_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(0xffff_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            24.0,
        ];
        let mut xs: Vec<f64> = specials.iter().cycle().take(specials.len() * 3).copied().collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            xs.push(f64::from_bits(state));
        }
        let (got, expected) = both_sorts(xs);
        assert_eq!(got, expected);
        let (got, expected) = both_sorts(Vec::new());
        assert_eq!(got, expected);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn key_sort_equals_total_cmp_sort_on_arbitrary_bits(
            bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
            small in proptest::collection::vec(0u8..8, 0..200),
        ) {
            // Raw bit patterns, plus a few values repeated many times.
            let mut xs: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            xs.extend(small.into_iter().map(|v| [0.0, -0.0, 1.5, f64::NAN][usize::from(v % 4)]));
            let (got, expected) = both_sorts(xs);
            proptest::prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn traced_ttr_histogram_equals_observing_each_repair() {
        // Records whose repair durations include both signed zeros.
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let records = log
            .records()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let ttr = match i % 5 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => r.ttr().get(),
                };
                FailureRecord::new(r.id(), r.time(), Hours::new(ttr), r.category(), r.node())
            })
            .collect();
        let log = FailureLog::with_spec(log.generation(), log.spec().clone(), log.window(), records)
            .unwrap();
        for view in [StreamView::new(&log), StreamView::new(&log.filtered(|r| r.ttr().get() == 0.0))] {
            let bulk = Collector::new();
            view.trace_index(&bulk);
            let looped = Collector::new();
            looped.span("index.logview").add_items(view.len() as u64);
            for &ttr in view.ttrs_sorted() {
                looped.observe_hours("index.ttr_hours", ttr);
            }
            assert_eq!(bulk.export(), looped.export());
        }
    }

    #[test]
    fn month_sums_equal_summing_each_bucket() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let mut chunked = StreamView::empty_like(&log);
        for chunk in log.records().chunks(7) {
            chunked.extend(chunk.to_vec()).unwrap();
        }
        let loaded = restored(&chunked);
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        for view in [StreamView::new(&log), chunked, loaded] {
            let sums = view.month_ttr_sums();
            assert_eq!(sums.len(), view.month_ttrs().len());
            for (bucket, sum) in view.month_ttrs().zip(sums) {
                assert_eq!(sum.count() as usize, bucket.len());
                assert_eq!(bits(sum.mean()), bits(failstats::mean(bucket)));
            }
            // The running total is the mean of the sorted TTRs, and of
            // every bucket's values together.
            let ttrs = view.ttrs_sorted();
            assert_eq!(bits(view.ttr_sum().mean()), bits(failstats::mean(ttrs)));
            let mut merged = ExactSum::new();
            sums.iter().for_each(|sum| merged.merge(sum));
            assert_eq!(&merged, view.ttr_sum());
        }
    }

    #[test]
    fn slot_involvements_list_every_gpu_slot_in_arrival_order() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let expected: Vec<GpuSlot> = log
            .records()
            .iter()
            .flat_map(|r| r.gpus().iter().copied())
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(feed(&log).slot_involvements(), expected.as_slice());
        assert_eq!(StreamView::new(&log).slot_involvements(), expected.as_slice());
        assert_eq!(expected.len(), StreamView::new(&log).slot_counts().iter().sum::<usize>());
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

    /// A view saved to a snapshot body and loaded back holds every index
    /// of the view saved and of a bulk build.
    #[test]
    fn parts_roundtrip_preserves_every_index_and_extends() {
        for (model, seed) in [
            (SystemModel::tsubame2(), 42),
            (SystemModel::tsubame3(), 43),
        ] {
            let log = Simulator::new(model, seed).generate().unwrap();
            let sv = feed(&log);
            let loaded = restored(&sv);
            assert_eq!(loaded.len(), log.len());
            assert_eq!(loaded.month_counts().iter().sum::<usize>(), log.len());
            assert_eq!(loaded, sv);
            assert_eq!(loaded, StreamView::from(log));
        }
    }

    #[test]
    fn a_loaded_snapshot_extends_like_a_live_view() {
        // Restore from a prefix, extend with the rest: identical to one
        // continuous stream (the snapshot prefix-extension invariant).
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let cut = log.len() / 2;
        let mut prefix = StreamView::empty_like(&log);
        prefix.extend(log.records()[..cut].to_vec()).unwrap();
        let mut loaded = restored(&prefix);
        loaded.extend(log.records()[cut..].to_vec()).unwrap();
        assert_eq!(loaded, feed(&log));
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
