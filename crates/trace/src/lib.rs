//! Deterministic structured tracing and metrics for the failscope
//! pipeline.
//!
//! A [`Collector`] is a cheap, clonable handle onto a shared metric
//! registry. Pipeline stages record three kinds of instruments into it:
//!
//! * **counters** — monotonic `u64` totals ([`Collector::incr`]), e.g.
//!   `parse.records` or `watch.alerts_raised`;
//! * **spans** — RAII stage timers ([`Collector::span`]) accumulating
//!   call counts, item counts, and wall time per stage name;
//! * **histograms** — fixed log-spaced duration buckets
//!   ([`Collector::observe_hours`]), e.g. the TTR distribution seen
//!   while indexing a log.
//!
//! # Determinism
//!
//! The default export ([`Collector::export`]) is **byte-identical at
//! any thread count**: every exported field is either a commutative
//! `u64` accumulation (counter values, span call/item counts, bucket
//! tallies) or an order-independent reduction (histogram min/max), and
//! instruments are emitted in a canonical order — counters, then
//! histograms, then spans, each sorted by stage name — with sequential
//! ids assigned after sorting. Wall-clock time is deliberately absent;
//! benchmarks that want it use [`Collector::export_timed`] /
//! [`Collector::to_json`] with `timed = true`, which add a `wall_ms`
//! field to spans and are *not* reproducible byte for byte.
//!
//! # Trace schema
//!
//! [`Collector::export`] emits one NDJSON line per instrument:
//!
//! ```json
//! {"kind":"counter","id":0,"stage":"parse.records","value":897}
//! {"kind":"hist","id":1,"stage":"index.ttr_hours","count":897,"min":0.2,"max":912.4,"buckets":[{"le":0.25,"n":3},...,{"le":null,"n":1}]}
//! {"kind":"span","id":2,"stage":"sim.generate","calls":1,"items":897}
//! ```
//!
//! # Examples
//!
//! ```
//! use failtrace::Collector;
//!
//! let trace = Collector::new();
//! {
//!     let mut span = trace.span("sim.generate");
//!     span.add_items(897);
//! }
//! trace.incr("sim.records_generated", 897);
//! trace.observe_hours("index.ttr_hours", 12.5);
//!
//! assert_eq!(trace.counter("sim.records_generated"), 897);
//! let ndjson = trace.export();
//! assert!(ndjson.lines().count() == 3);
//! assert!(ndjson.contains(r#""kind":"span","id":2,"stage":"sim.generate""#));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use failtypes::JsonValue;

/// Upper bucket bounds, in hours, for every duration histogram: a fixed
/// log-spaced ladder from 15 minutes to 30 days, plus an implicit
/// overflow bucket (`le: null`). One shared scheme keeps histograms
/// mergeable and the export schema stable.
pub const DURATION_BUCKET_BOUNDS_HOURS: [f64; 10] =
    [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 24.0, 72.0, 168.0, 720.0];

/// Accumulated statistics for one span stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the stage ran.
    pub calls: u64,
    /// Total items processed across all calls (records, sections, ...).
    pub items: u64,
    /// Total wall time across all calls, nanoseconds. Excluded from the
    /// deterministic export.
    pub wall_ns: u64,
}

/// A fixed-bucket duration histogram over
/// [`DURATION_BUCKET_BOUNDS_HOURS`].
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    /// Tally per bound, plus one trailing overflow bucket.
    buckets: [u64; DURATION_BUCKET_BOUNDS_HOURS.len() + 1],
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; DURATION_BUCKET_BOUNDS_HOURS.len() + 1],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, hours: f64) {
        let slot = DURATION_BUCKET_BOUNDS_HOURS
            .iter()
            .position(|&le| hours <= le)
            .unwrap_or(DURATION_BUCKET_BOUNDS_HOURS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.min = self.min.min(hours);
        self.max = self.max.max(hours);
    }

    /// [`Histogram::observe`] of every value of `sorted`, in order, with
    /// each bucket counted by binary search. `sorted` must be in
    /// [`f64::total_cmp`] order: NaNs then sit only at its two ends
    /// (negative ones first, positive ones last), and `x <= le` holds
    /// on a prefix of the rest.
    fn observe_sorted(&mut self, sorted: &[f64]) {
        let lo = sorted.partition_point(|x| x.is_nan() && x.is_sign_negative());
        let hi = sorted.len() - sorted[lo..].iter().rev().take_while(|x| x.is_nan()).count();
        let numbers = &sorted[lo..hi];
        let mut below = 0;
        for (slot, &le) in DURATION_BUCKET_BOUNDS_HOURS.iter().enumerate() {
            let upto = numbers.partition_point(|&x| x <= le);
            self.buckets[slot] += (upto - below) as u64;
            below = upto;
        }
        // NaN compares false with every bound, so it overflows.
        self.buckets[DURATION_BUCKET_BOUNDS_HOURS.len()] +=
            (numbers.len() - below + lo + (sorted.len() - hi)) as u64;
        self.count += sorted.len() as u64;
        for &x in sorted {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }
}

/// Applies `update` to the instrument `stage` in `map`, creating it
/// with `new` first when missing. The key is looked up by `&str`, and
/// copied into an owned `String` only on that first insert, so
/// recording into an existing instrument never allocates.
fn record<V>(
    map: &mut BTreeMap<String, V>,
    stage: &str,
    new: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(stage) {
        Some(value) => update(value),
        None => {
            let mut value = new();
            update(&mut value);
            map.insert(stage.to_string(), value);
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
    hists: BTreeMap<String, Histogram>,
}

/// A thread-safe metric registry handle. Cloning is cheap and every
/// clone records into the same registry, so one collector can be
/// threaded through an entire pipeline run.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Registry>>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Adds `by` to the monotonic counter `stage`, creating it at zero.
    pub fn incr(&self, stage: &str, by: u64) {
        self.with_registry(|reg| record(&mut reg.counters, stage, || 0, |n| *n += by));
    }

    /// The current value of counter `stage` (zero if never incremented).
    pub fn counter(&self, stage: &str) -> u64 {
        self.with_registry(|reg| reg.counters.get(stage).copied().unwrap_or(0))
    }

    /// Records one duration observation, in hours, into the fixed-bucket
    /// histogram `stage`.
    pub fn observe_hours(&self, stage: &str, hours: f64) {
        self.with_registry(|reg| {
            record(&mut reg.hists, stage, Histogram::new, |h| h.observe(hours));
        });
    }

    /// Records every value of `sorted` into histogram `stage`, exactly
    /// as calling [`observe_hours`](Collector::observe_hours) on each in
    /// turn would, under one lock and one lookup. `sorted` must be
    /// ascending in [`f64::total_cmp`] order (a view's sorted order
    /// statistics are); buckets are then counted by binary search.
    pub fn observe_sorted_hours(&self, stage: &str, sorted: &[f64]) {
        debug_assert!(sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        self.with_registry(|reg| {
            record(&mut reg.hists, stage, Histogram::new, |h| h.observe_sorted(sorted));
        });
    }

    /// Opens an RAII span for `stage`; the span records one call (plus
    /// any [`Span::add_items`] item counts and the elapsed wall time)
    /// when dropped.
    #[must_use = "a span records only when dropped; binding it to `_` drops immediately"]
    pub fn span(&self, stage: &str) -> Span {
        Span {
            collector: self.clone(),
            stage: stage.to_string(),
            items: 0,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `stage` and returns its result.
    pub fn time<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(stage);
        f()
    }

    /// Accumulated statistics for span `stage`, if it ever ran.
    pub fn span_stats(&self, stage: &str) -> Option<SpanStats> {
        self.with_registry(|reg| reg.spans.get(stage).copied())
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.with_registry(|reg| {
            reg.counters.is_empty() && reg.spans.is_empty() && reg.hists.is_empty()
        })
    }

    fn record_span(&self, stage: &str, items: u64, wall_ns: u64) {
        self.with_registry(|reg| {
            record(&mut reg.spans, stage, SpanStats::default, |stats| {
                stats.calls += 1;
                stats.items += items;
                stats.wall_ns += wall_ns;
            });
        });
    }

    /// All instruments as JSON lines, in canonical order: counters,
    /// then histograms, then spans, each sorted by stage name, with
    /// sequential ids. With `timed = false` the lines contain no
    /// wall-clock fields and are byte-identical at any thread count.
    fn lines(&self, timed: bool) -> Vec<JsonValue> {
        self.with_registry(|reg| {
            let mut out = Vec::new();
            let mut id = 0u64;
            for (stage, value) in &reg.counters {
                out.push(
                    JsonValue::object()
                        .field("kind", "counter")
                        .field("id", id)
                        .field("stage", stage.as_str())
                        .field("value", *value)
                        .build(),
                );
                id += 1;
            }
            for (stage, hist) in &reg.hists {
                let buckets: Vec<JsonValue> = hist
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let le = DURATION_BUCKET_BOUNDS_HOURS
                            .get(i)
                            .map_or(JsonValue::Null, |&b| JsonValue::Num(b));
                        JsonValue::object().field("le", le).field("n", n).build()
                    })
                    .collect();
                out.push(
                    JsonValue::object()
                        .field("kind", "hist")
                        .field("id", id)
                        .field("stage", stage.as_str())
                        .field("count", hist.count)
                        .field("min", hist.min)
                        .field("max", hist.max)
                        .field("buckets", JsonValue::Array(buckets))
                        .build(),
                );
                id += 1;
            }
            for (stage, stats) in &reg.spans {
                let mut line = JsonValue::object()
                    .field("kind", "span")
                    .field("id", id)
                    .field("stage", stage.as_str())
                    .field("calls", stats.calls)
                    .field("items", stats.items);
                if timed {
                    line = line.field("wall_ms", stats.wall_ns as f64 / 1e6);
                }
                out.push(line.build());
                id += 1;
            }
            out
        })
    }

    /// The deterministic NDJSON export: one line per instrument, no
    /// wall-clock fields, byte-identical at any thread count. See the
    /// crate docs for the schema.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for line in self.lines(false) {
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// Like [`Collector::export`] but spans carry a `wall_ms` field.
    /// Intended for benchmarks; **not** reproducible byte for byte.
    pub fn export_timed(&self) -> String {
        let mut out = String::new();
        for line in self.lines(true) {
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// The whole registry as one JSON value
    /// (`{"counters":[...],"hists":[...],"spans":[...]}`), for embedding
    /// in reports and bench summaries. Deterministic unless `timed`.
    pub fn to_json(&self, timed: bool) -> JsonValue {
        let lines = self.lines(timed);
        let pick = |kind: &str| -> Vec<JsonValue> {
            lines
                .iter()
                .filter(|line| match line {
                    JsonValue::Object(pairs) => pairs
                        .iter()
                        .any(|(k, v)| k == "kind" && *v == JsonValue::Str(kind.to_string())),
                    _ => false,
                })
                .cloned()
                .collect()
        };
        JsonValue::object()
            .field("counters", JsonValue::Array(pick("counter")))
            .field("hists", JsonValue::Array(pick("hist")))
            .field("spans", JsonValue::Array(pick("span")))
            .build()
    }

    /// Folds every instrument recorded in `other` into this collector:
    /// counters and span call/item/wall tallies add, histogram buckets
    /// merge element-wise with min/max reduced. Used to replay the
    /// instruments of a cached pipeline stage (e.g. a memoized log
    /// parse) into a fresh query trace so the export stays identical to
    /// an uncached run.
    pub fn merge_from(&self, other: &Collector) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let snapshot = other.with_registry(|reg| {
            (
                reg.counters.clone(),
                reg.hists.clone(),
                reg.spans.clone(),
            )
        });
        self.with_registry(|reg| {
            for (stage, value) in snapshot.0 {
                *reg.counters.entry(stage).or_insert(0) += value;
            }
            for (stage, hist) in snapshot.1 {
                let own = reg.hists.entry(stage).or_insert_with(Histogram::new);
                for (slot, n) in hist.buckets.iter().enumerate() {
                    own.buckets[slot] += n;
                }
                own.count += hist.count;
                own.min = own.min.min(hist.min);
                own.max = own.max.max(hist.max);
            }
            for (stage, stats) in snapshot.2 {
                let own = reg.spans.entry(stage).or_default();
                own.calls += stats.calls;
                own.items += stats.items;
                own.wall_ns += stats.wall_ns;
            }
        });
    }

    /// A short human-readable rendering, one indented line per
    /// instrument in export order. Deterministic; used by the `metrics`
    /// report section.
    pub fn render_text(&self) -> String {
        self.with_registry(|reg| {
            let mut out = String::new();
            for (stage, value) in &reg.counters {
                out.push_str(&format!("  counter {stage} = {value}\n"));
            }
            for (stage, hist) in &reg.hists {
                out.push_str(&format!(
                    "  hist    {stage}: n={} min={:.3} max={:.3} h\n",
                    hist.count, hist.min, hist.max
                ));
            }
            for (stage, stats) in &reg.spans {
                out.push_str(&format!(
                    "  span    {stage}: calls={} items={}\n",
                    stats.calls, stats.items
                ));
            }
            out
        })
    }
}

/// An open stage timer returned by [`Collector::span`]. Records its
/// call, item count, and wall time into the collector when dropped.
#[derive(Debug)]
pub struct Span {
    collector: Collector,
    stage: String,
    items: u64,
    start: Instant,
}

impl Span {
    /// Adds `n` processed items to this span's tally.
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.collector.record_span(&self.stage, self.items, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let trace = Collector::new();
        assert!(trace.is_empty());
        trace.incr("parse.records", 3);
        trace.incr("parse.records", 4);
        assert_eq!(trace.counter("parse.records"), 7);
        assert_eq!(trace.counter("never"), 0);
        assert!(!trace.is_empty());
    }

    #[test]
    fn spans_record_calls_items_and_wall_time_on_drop() {
        let trace = Collector::new();
        {
            let mut span = trace.span("index.logview");
            span.add_items(10);
            span.add_items(5);
        }
        trace.time("index.logview", || ());
        let stats = trace.span_stats("index.logview").unwrap();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.items, 15);
        assert!(trace.span_stats("other").is_none());
    }

    #[test]
    fn histogram_buckets_cover_bounds_and_overflow() {
        let trace = Collector::new();
        for hours in [0.1, 0.25, 0.26, 8.0, 1000.0] {
            trace.observe_hours("ttr", hours);
        }
        let export = trace.export();
        assert!(export.contains(r#""count":5"#));
        assert!(export.contains(r#""min":0.1"#));
        assert!(export.contains(r#""max":1000"#));
        // 0.1 and 0.25 land in the first bucket, 1000 h overflows.
        assert!(export.contains(r#"{"le":0.25,"n":2}"#));
        assert!(export.contains(r#"{"le":null,"n":1}"#));
    }

    #[test]
    fn export_is_id_ordered_and_free_of_wall_clock() {
        let trace = Collector::new();
        trace.time("z.span", || ());
        trace.incr("b.counter", 1);
        trace.observe_hours("m.hist", 1.0);
        trace.incr("a.counter", 2);
        let export = trace.export();
        let lines: Vec<&str> = export.lines().collect();
        assert_eq!(lines.len(), 4);
        // Canonical order: counters sorted, then hists, then spans.
        assert!(lines[0].contains(r#""id":0,"stage":"a.counter""#));
        assert!(lines[1].contains(r#""id":1,"stage":"b.counter""#));
        assert!(lines[2].contains(r#""id":2,"stage":"m.hist""#));
        assert!(lines[3].contains(r#""id":3,"stage":"z.span""#));
        assert!(!export.contains("wall_ms"));
        assert!(trace.export_timed().contains("wall_ms"));
    }

    #[test]
    fn export_is_identical_across_interleavings() {
        let runs: Vec<String> = (0..2)
            .map(|rev| {
                let trace = Collector::new();
                let order: Vec<u64> = if rev == 0 {
                    (0..8).collect()
                } else {
                    (0..8).rev().collect()
                };
                for i in order {
                    trace.incr("records", i);
                    trace.observe_hours("ttr", i as f64);
                    let mut span = trace.span("stage");
                    span.add_items(i);
                }
                trace.export()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn shared_handle_records_from_many_threads() {
        let trace = Collector::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = trace.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        handle.incr("watch.records_ingested", 1);
                    }
                });
            }
        });
        assert_eq!(trace.counter("watch.records_ingested"), 400);
    }

    #[test]
    fn merge_from_replays_instruments_identically() {
        let original = Collector::new();
        original.incr("parse.records", 42);
        original.observe_hours("ttr", 0.2);
        original.observe_hours("ttr", 1000.0);
        {
            let mut span = original.span("parse.chunks");
            span.add_items(7);
        }

        // Merging into an empty collector reproduces the export exactly.
        let replayed = Collector::new();
        replayed.merge_from(&original);
        assert_eq!(replayed.export(), original.export());

        // Merging into a non-empty collector accumulates.
        let busy = Collector::new();
        busy.incr("parse.records", 8);
        busy.observe_hours("ttr", 4.0);
        busy.merge_from(&original);
        assert_eq!(busy.counter("parse.records"), 50);
        let export = busy.export();
        assert!(export.contains(r#""count":3"#));
        assert!(export.contains(r#""min":0.2"#));
        assert!(export.contains(r#""max":1000"#));
        assert_eq!(busy.span_stats("parse.chunks").unwrap().items, 7);

        // Self-merge is a no-op, not a double count.
        let double = original.clone();
        double.merge_from(&original);
        assert_eq!(original.counter("parse.records"), 42);
    }

    #[test]
    fn to_json_groups_by_kind() {
        let trace = Collector::new();
        trace.incr("c", 1);
        trace.time("s", || ());
        let json = trace.to_json(false).render();
        assert!(json.starts_with(r#"{"counters":[{"kind":"counter""#));
        assert!(json.contains(r#""spans":[{"kind":"span""#));
        assert!(json.contains(r#""hists":[]"#));
    }

    #[test]
    fn render_text_lists_every_instrument() {
        let trace = Collector::new();
        trace.incr("parse.records", 9);
        trace.observe_hours("ttr", 2.0);
        trace.time("render", || ());
        let text = trace.render_text();
        assert!(text.contains("counter parse.records = 9"));
        assert!(text.contains("hist    ttr: n=1"));
        assert!(text.contains("span    render: calls=1 items=0"));
    }

    /// Values in `f64::total_cmp` order covering every case the bulk
    /// histogram special-cases: NaNs of both signs and several
    /// payloads, infinities, signed zeros, subnormals, and each bucket
    /// bound exactly and one ulp either side.
    fn awkward_sorted() -> Vec<f64> {
        let mut xs = vec![
            -f64::NAN,
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0002),
        ];
        for le in DURATION_BUCKET_BOUNDS_HOURS {
            xs.extend([le, f64::from_bits(le.to_bits() - 1), f64::from_bits(le.to_bits() + 1)]);
        }
        xs.sort_unstable_by(f64::total_cmp);
        xs
    }

    #[test]
    fn bulk_histogram_exports_what_per_observation_calls_export() {
        let xs = awkward_sorted();
        for (seed, cut) in [(None, xs.len()), (Some(5.0), 7), (Some(-0.0), 0), (Some(0.0), 3)] {
            let (looped, bulk) = (Collector::new(), Collector::new());
            for trace in [&looped, &bulk] {
                if let Some(first) = seed {
                    trace.observe_hours("ttr", first);
                }
            }
            for &x in &xs[..cut] {
                looped.observe_hours("ttr", x);
            }
            bulk.observe_sorted_hours("ttr", &xs[..cut]);
            assert_eq!(bulk.export(), looped.export(), "seed {seed:?}, cut {cut}");
            assert_eq!(bulk.render_text(), looped.render_text());
        }
        // Only zeros of both signs: `f64::min`/`max` may return either
        // zero on a tie, so the bulk call must fold in the same order.
        let zeros = [-0.0, -0.0, 0.0, 0.0];
        let (looped, bulk) = (Collector::new(), Collector::new());
        zeros.iter().for_each(|&x| looped.observe_hours("ttr", x));
        bulk.observe_sorted_hours("ttr", &zeros);
        assert_eq!(bulk.export(), looped.export());
    }

    #[test]
    fn recording_into_existing_instruments_exports_the_same_bytes() {
        // Every recording method, first on a missing instrument (which
        // inserts it) and then repeatedly on the existing one.
        let trace = Collector::new();
        for i in 0..3u32 {
            trace.incr("parse.records", 10);
            trace.incr("a.first", u64::from(i));
            trace.observe_hours("index.ttr_hours", f64::from(i) * 30.0);
            trace.observe_sorted_hours("index.ttr_hours", &[0.1, 2.0]);
            let mut span = trace.span("log.parse");
            span.add_items(7);
        }
        assert_eq!(
            trace.export(),
            concat!(
                r#"{"kind":"counter","id":0,"stage":"a.first","value":3}"#,
                "\n",
                r#"{"kind":"counter","id":1,"stage":"parse.records","value":30}"#,
                "\n",
                r#"{"kind":"hist","id":2,"stage":"index.ttr_hours","count":9,"min":0,"max":60,"buckets":[{"le":0.25,"n":4},{"le":0.5,"n":0},{"le":1,"n":0},{"le":2,"n":3},{"le":4,"n":0},{"le":8,"n":0},{"le":24,"n":0},{"le":72,"n":2},{"le":168,"n":0},{"le":720,"n":0},{"le":null,"n":0}]}"#,
                "\n",
                r#"{"kind":"span","id":3,"stage":"log.parse","calls":3,"items":21}"#,
                "\n",
            )
        );
    }
}
