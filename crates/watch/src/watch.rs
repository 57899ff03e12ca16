//! The watch loop: pull events from a source, feed the online state,
//! stream alerts, and render periodic summaries.
//!
//! Output is line-oriented so it can be piped: alerts are NDJSON
//! objects written the moment a drift check fires them, summaries are
//! `#`-prefixed text blocks (or NDJSON section lines with
//! [`WatchConfig::json_summaries`]) refreshed every `refresh_every`
//! records (and once at end of stream). Drift checks run at the same
//! refresh ticks, just before each summary. Summaries dispatch through
//! the typed [`WATCH_SECTIONS`] registry and render on the calling
//! thread: the four sections take tens of microseconds together, less
//! than spawning a worker would cost.

use std::fmt::{self, Write as _};
use std::io::Write;
use std::thread;
use std::time::Duration;

use failfilter::CompiledPredicate;
use failtrace::Collector;
use failtypes::{Alert, FailureRecord, JsonValue, Month};

use crate::drift::DriftDetector;
use crate::ingest::{ChunkEnd, EventSource};
use crate::state::{StateConfig, WatchState};

/// Sleep between polls when a followed source is idle.
const IDLE_SLEEP: Duration = Duration::from_millis(200);

/// Most records pulled per [`EventSource::next_chunk`] call. Each pull
/// is also clipped to the next refresh tick and the `max_records`
/// bound. Drift checks run at refresh ticks, not per pull, so this size
/// changes how often the source is called and nothing else.
const INGEST_CHUNK: usize = 256;

/// One streaming summary section: a stable machine id, a human title,
/// and paired JSON/text renderers over the online [`WatchState`] — the
/// streaming mirror of `failscope::Section`.
#[derive(Debug, Clone, Copy)]
pub struct WatchSection {
    /// Stable identifier — the `--sections` / JSON `"id"` vocabulary.
    pub id: &'static str,
    /// Human-readable title, carried on every JSON line.
    pub title: &'static str,
    /// Structured renderer (`null` when the state is empty).
    pub json: fn(&WatchState) -> JsonValue,
    /// Plain-text renderer (one `#`-prefixed summary block line).
    pub text: fn(&WatchState) -> String,
}

/// The summary sections in print order.
pub const WATCH_SECTIONS: &[WatchSection] = &[
    WatchSection {
        id: "overview",
        title: "Stream overview",
        json: json_overview,
        text: overview_section,
    },
    WatchSection {
        id: "categories",
        title: "Category mix",
        json: json_categories,
        text: category_section,
    },
    WatchSection {
        id: "slots",
        title: "GPU slots",
        json: json_slots,
        text: slot_section,
    },
    WatchSection {
        id: "months",
        title: "Monthly repair times",
        json: json_months,
        text: month_section,
    },
];

/// Tuning for the watch loop itself (the trailing window is configured
/// on [`StateConfig`]; drift thresholds are fixed constants of
/// [`crate::DriftDetector`]).
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Online-state tuning (the trailing window).
    pub state: StateConfig,
    /// Records between summary refreshes. The drift detector runs at
    /// the same ticks (every `refresh_every` ingested records) and once
    /// more when the run stops if records arrived after the last tick,
    /// so the alert stream is a function of the records, this cadence
    /// and [`filter`](WatchConfig::filter) alone: how the source splits
    /// its delivery changes nothing. The price in follow mode is that an
    /// alert can wait up to `refresh_every` records for its tick.
    pub refresh_every: usize,
    /// Stop after this many *consecutive* idle polls (`None` = follow
    /// forever; the CLI uses a bound so smoke tests terminate).
    pub max_idle_polls: Option<u64>,
    /// Stop after ingesting this many records (`None` = run to EOF).
    pub max_records: Option<usize>,
    /// Emit summaries as NDJSON section lines instead of `#` text.
    pub json_summaries: bool,
    /// Summary sections to render, in order (defaults to all of
    /// [`WATCH_SECTIONS`]).
    pub summary_sections: Vec<&'static WatchSection>,
    /// `--where` scope for the whole watch: records failing the
    /// predicate are dropped as each chunk is pulled, before they reach
    /// the online state, so the detector, summaries, and record bounds
    /// all see only matching records. NDJSON alerts raised under a
    /// filter carry its expression in a `"filter"` field.
    pub filter: Option<CompiledPredicate>,
    /// Optional trace collector; when set, the loop records the
    /// `watch.records_ingested` and `watch.alerts_raised` counters as it
    /// runs.
    pub trace: Option<Collector>,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            state: StateConfig::default(),
            refresh_every: 100,
            max_idle_polls: None,
            max_records: None,
            json_summaries: false,
            summary_sections: WATCH_SECTIONS.iter().collect(),
            filter: None,
            trace: None,
        }
    }
}

impl WatchConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> WatchConfigBuilder {
        WatchConfigBuilder::default()
    }
}

/// Validating builder for [`WatchConfig`].
///
/// [`build`](WatchConfigBuilder::build) rejects loop parameters the run
/// cannot honour (a zero refresh cadence) with a
/// [`failtypes::Error::Config`] naming the offending knob.
///
/// # Examples
///
/// ```
/// use failwatch::WatchConfig;
///
/// let config = WatchConfig::builder().max_records(25).refresh_every(50).build()?;
/// assert_eq!(config.max_records, Some(25));
/// assert!(WatchConfig::builder().refresh_every(0).build().is_err());
/// # Ok::<(), failtypes::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct WatchConfigBuilder {
    config: WatchConfig,
}

impl WatchConfigBuilder {
    /// Online-state tuning (see [`StateConfig::builder`]).
    #[must_use]
    pub fn state(mut self, state: StateConfig) -> Self {
        self.config.state = state;
        self
    }

    /// Records between summary refreshes.
    #[must_use]
    pub fn refresh_every(mut self, records: usize) -> Self {
        self.config.refresh_every = records;
        self
    }

    /// Stop after this many consecutive idle polls.
    #[must_use]
    pub fn max_idle_polls(mut self, polls: u64) -> Self {
        self.config.max_idle_polls = Some(polls);
        self
    }

    /// Stop after ingesting this many records.
    #[must_use]
    pub fn max_records(mut self, records: usize) -> Self {
        self.config.max_records = Some(records);
        self
    }

    /// Emit summaries as NDJSON section lines instead of `#` text.
    #[must_use]
    pub fn json_summaries(mut self, json: bool) -> Self {
        self.config.json_summaries = json;
        self
    }

    /// Summary sections to render, in order.
    #[must_use]
    pub fn summary_sections(mut self, sections: Vec<&'static WatchSection>) -> Self {
        self.config.summary_sections = sections;
        self
    }

    /// Scope the watch to records matching a compiled `--where`
    /// predicate (see [`WatchConfig::filter`]).
    #[must_use]
    pub fn filter(mut self, filter: CompiledPredicate) -> Self {
        self.config.filter = Some(filter);
        self
    }

    /// Attach a trace collector (see [`WatchConfig::trace`]).
    #[must_use]
    pub fn trace(mut self, trace: Collector) -> Self {
        self.config.trace = Some(trace);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`failtypes::Error::Config`] (target `watch loop`) when the
    /// refresh cadence is zero, or no summary section is selected.
    pub fn build(self) -> failtypes::Result<WatchConfig> {
        let c = &self.config;
        if c.refresh_every == 0 {
            return Err(failtypes::Error::config(
                "watch loop",
                "summary refresh cadence must be at least 1 record",
            ));
        }
        if c.summary_sections.is_empty() {
            return Err(failtypes::Error::config(
                "watch loop",
                "at least one summary section must be selected",
            ));
        }
        Ok(self.config)
    }
}

/// What a finished watch run observed.
#[derive(Debug)]
pub struct WatchOutcome {
    /// Records ingested.
    pub records: usize,
    /// Every alert fired, in order.
    pub alerts: Vec<Alert>,
    /// The final online state.
    pub state: WatchState,
}

/// Runs the watch loop over `source` until EOF (or the configured
/// record/idle bounds), writing NDJSON alerts and periodic summaries to
/// `out`.
///
/// `detector` is optional: without a baseline the loop still maintains
/// the full online state and summaries, it just cannot alert. It runs
/// at every refresh tick and once when the run stops (EOF, the record
/// bound or the idle bound) if records arrived after the last tick; see
/// [`WatchConfig::refresh_every`].
///
/// # Errors
///
/// Fails on stream parse errors, record validation/order errors, or
/// write failures on `out`.
pub fn run(
    source: &mut dyn EventSource,
    mut detector: Option<DriftDetector>,
    config: &WatchConfig,
    out: &mut dyn Write,
) -> failtypes::Result<WatchOutcome> {
    let mut state = WatchState::new(
        source.generation(),
        source.spec().clone(),
        source.window(),
        config.state.clone(),
    );
    // In JSON mode the whole stream is machine-readable NDJSON (alerts
    // plus section lines), so the `#` banner/footer lines are skipped.
    if !config.json_summaries {
        writeln!(out, "# failwatch: {}", source.describe())?;
        if let Some(det) = &detector {
            writeln!(out, "# baseline: {}", det.baseline().name)?;
        }
        if let Some(pred) = &config.filter {
            writeln!(out, "# filter: {}", pred.source())?;
        }
    }
    // Predicate evaluation needs the source's system context.
    let filter_spec = source.spec().clone();
    let filter_window = source.window();
    let mut alerts = Vec::new();
    let mut records = 0usize;
    let mut idle_polls = 0u64;
    let refresh = config.refresh_every.max(1);
    // One reusable chunk buffer for the whole run; records move from
    // the source through it into the state without cloning.
    let mut chunk: Vec<FailureRecord> = Vec::with_capacity(INGEST_CHUNK);

    loop {
        // Clip the chunk to the next refresh tick and the record bound
        // so both are honoured exactly, as per-record ingestion did.
        let mut limit = INGEST_CHUNK.min(refresh - records % refresh);
        if let Some(max) = config.max_records {
            if records >= max {
                break;
            }
            limit = limit.min(max - records);
        }
        chunk.clear();
        let end = source.next_chunk(limit, &mut chunk)?;

        // The idle counter tracks the *source*: a pull that produced
        // records resets it even when the filter drops them all.
        if !chunk.is_empty() {
            idle_polls = 0;
        }
        if let Some(pred) = &config.filter {
            let pulled = chunk.len();
            chunk.retain(|r| pred.matches(r, &filter_spec, filter_window));
            if let Some(trace) = &config.trace {
                trace.incr("filter.records_in", pulled as u64);
                trace.incr("filter.records_kept", chunk.len() as u64);
            }
        }

        let mut tick = false;
        if !chunk.is_empty() {
            let ingested = state.ingest_batch(chunk.drain(..))?;
            records += ingested;
            if let Some(trace) = &config.trace {
                trace.incr("watch.records_ingested", ingested as u64);
            }
            tick = records.is_multiple_of(refresh);
        }
        if end == ChunkEnd::Idle {
            idle_polls += 1;
        }
        let stop = match end {
            ChunkEnd::More => false,
            ChunkEnd::Idle => config.max_idle_polls.is_some_and(|max| idle_polls >= max),
            ChunkEnd::Eof => true,
        } || config.max_records.is_some_and(|max| records >= max);

        // Drift checks run at refresh ticks, which fall on record
        // counts, never on where a pull happened to end; records that
        // arrived after the last tick are checked when the run stops.
        // Alerts are edge-triggered, so a check of an unchanged state
        // fires nothing.
        if tick || (stop && !records.is_multiple_of(refresh)) {
            if let Some(det) = &mut detector {
                for alert in det.evaluate(&state) {
                    let filter_tag = config.filter.as_ref().map(CompiledPredicate::source);
                    writeln!(out, "{}", alert.to_ndjson_with(filter_tag))?;
                    if let Some(trace) = &config.trace {
                        trace.incr("watch.alerts_raised", 1);
                    }
                    alerts.push(alert);
                }
            }
        }
        if tick {
            state.materialize();
            out.write_all(config_summary(&state, config).as_bytes())?;
        }
        if stop {
            break;
        }
        if end == ChunkEnd::Idle {
            thread::sleep(IDLE_SLEEP);
        }
    }

    state.materialize();
    out.write_all(config_summary(&state, config).as_bytes())?;
    if !config.json_summaries {
        writeln!(
            out,
            "# watch done: {records} records, {} alert(s)",
            alerts.len()
        )?;
    }
    Ok(WatchOutcome {
        records,
        alerts,
        state,
    })
}

/// Renders the configured summary.
fn config_summary(state: &WatchState, config: &WatchConfig) -> String {
    render_summary_sections(state, &config.summary_sections, 1, config.json_summaries)
}

/// Renders the full periodic summary block as text, on the calling
/// thread; `threads` is ignored (see [`render_summary_sections`]).
pub fn render_summary(state: &WatchState, threads: usize) -> String {
    let sections: Vec<&WatchSection> = WATCH_SECTIONS.iter().collect();
    render_summary_sections(state, &sections, threads, false)
}

/// Renders a summary section selection, either as the `#`-prefixed text
/// block or as NDJSON `{"id","title","data"}` lines, on the calling
/// thread. `threads` is ignored, so the output is the same at any
/// value: the four sections take microseconds together, less than
/// spawning a worker costs (1,095 renders took ~65 ms at 2 threads
/// against ~10 ms at 1 on a 2-core host).
///
/// An empty state renders as `"# summary: no records yet\n"` in text
/// mode and as one `"data":null` line per section in JSON mode.
pub fn render_summary_sections(
    state: &WatchState,
    sections: &[&WatchSection],
    _threads: usize,
    json: bool,
) -> String {
    if state.is_empty() && !json {
        return String::from("# summary: no records yet\n");
    }
    let mut out = String::new();
    for section in sections {
        if json {
            let data = if state.is_empty() {
                JsonValue::Null
            } else {
                (section.json)(state)
            };
            out.push_str(&failscope::json_section_line(section.id, section.title, data));
        } else {
            out.push_str(&(section.text)(state));
        }
    }
    out
}

fn json_overview(state: &WatchState) -> JsonValue {
    JsonValue::object()
        .field("stream_hours", state.stream_time())
        .field("records", state.len())
        // Every figure is read exactly from the view; the field stays
        // for v1 consumers.
        .field("exact", true)
        .field("mtbf_hours", state.mtbf_hours())
        .field("mean_gap_hours", state.mean_gap_hours())
        .field("rate_per_hour", state.rate_per_hour())
        .field("mttr_hours", state.mttr_hours())
        .field("ttr_p50_hours", state.ttr_quantile(0.5))
        .field("ttr_p90_hours", state.ttr_quantile(0.9))
        .field("window_records", state.window_len())
        .field("window_mttr_hours", state.window_ttr_mean())
        .build()
}

fn json_categories(state: &WatchState) -> JsonValue {
    let view = state.view();
    let n = view.len().max(1);
    JsonValue::Array(
        view.category_counts()
            .into_iter()
            .map(|(category, count)| {
                JsonValue::object()
                    .field("category", category.label())
                    .field("count", count)
                    .field("fraction", count as f64 / n as f64)
                    .field("ewma_ttr_hours", state.ewma_ttr(category))
                    .build()
            })
            .collect(),
    )
}

fn json_slots(state: &WatchState) -> JsonValue {
    let counts = state.view().slot_counts();
    let (window_shares, involvements) = state.window_slot_shares();
    JsonValue::object()
        .field(
            "slots",
            JsonValue::Array(
                counts
                    .iter()
                    .enumerate()
                    .map(|(slot, &count)| {
                        JsonValue::object()
                            .field("slot", slot)
                            .field("count", count)
                            .field(
                                "window_share",
                                window_shares.get(slot).copied().unwrap_or(0.0),
                            )
                            .build()
                    })
                    .collect(),
            ),
        )
        .field("window_involvements", involvements)
        .field("multi_gpu_total", state.view().multi_gpu_times().len())
        .build()
}

fn json_months(state: &WatchState) -> JsonValue {
    JsonValue::Array(
        filled_months(state)
            .map(|((year, month), n, mttr)| {
                JsonValue::object()
                    .field("year", year)
                    .field("month", month.number())
                    .field("n", n)
                    .field("mttr_hours", mttr)
                    .build()
            })
            .collect(),
    )
}

/// Every non-empty month bucket in month order, as `((year, month),
/// records, mean TTR)`. The mean reads the view's exact running bucket
/// sum, so no read re-adds a bucket.
fn filled_months(
    state: &WatchState,
) -> impl DoubleEndedIterator<Item = ((i32, Month), usize, f64)> + '_ {
    let view = state.view();
    let months = view.window().months();
    view.month_counts()
        .iter()
        .zip(view.month_ttr_sums())
        .zip(months)
        .filter_map(|((&count, sum), ym)| Some((ym, count, sum.mean()?)))
}

/// An optional figure as a summary prints it: two decimals, or `n/a`.
struct Opt(Option<f64>);

impl fmt::Display for Opt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v:.2}"),
            None => f.write_str("n/a"),
        }
    }
}

// Each text section writes into one `String` sized for its usual
// length; `write!` into a `String` cannot fail.

fn overview_section(state: &WatchState) -> String {
    let mut s = String::with_capacity(192);
    let _ = write!(
        s,
        "# summary @ {:.1} h: {} records (exact)\n\
         #   mtbf {} h | mean gap {} h | rate {}/h\n\
         #   mttr {} h (p50 {}, p90 {}) | window({}) mttr {} h\n",
        state.stream_time().unwrap_or(0.0),
        state.len(),
        Opt(state.mtbf_hours()),
        Opt(state.mean_gap_hours()),
        Opt(state.rate_per_hour()),
        Opt(state.mttr_hours()),
        Opt(state.ttr_quantile(0.5)),
        Opt(state.ttr_quantile(0.9)),
        state.window_len(),
        Opt(state.window_ttr_mean()),
    );
    s
}

fn category_section(state: &WatchState) -> String {
    let view = state.view();
    let n = view.len().max(1);
    let counts = view.category_counts();
    let mut s = String::with_capacity(16 + 48 * counts.len());
    s.push_str("#   categories:");
    for (category, count) in counts {
        let _ = write!(
            s,
            " {category} {count} ({:.0}%, ewma ttr {} h)",
            count as f64 * 100.0 / n as f64,
            Opt(state.ewma_ttr(category)),
        );
    }
    s.push('\n');
    s
}

fn slot_section(state: &WatchState) -> String {
    let counts = state.view().slot_counts();
    let (window_shares, involvements) = state.window_slot_shares();
    let mut s = String::with_capacity(64 + 20 * counts.len());
    s.push_str("#   gpu slots:");
    for (slot, &count) in counts.iter().enumerate() {
        let share = window_shares.get(slot).copied().unwrap_or(0.0);
        let _ = write!(s, " {slot}:{count} (win {:.0}%)", share * 100.0);
    }
    let _ = writeln!(
        s,
        " | window involvements {involvements} | multi-gpu total {}",
        state.view().multi_gpu_times().len()
    );
    s
}

fn month_section(state: &WatchState) -> String {
    // Show the most recent non-empty buckets (up to four).
    let mut recent: Vec<_> = filled_months(state).rev().take(4).collect();
    recent.reverse();
    let mut s = String::with_capacity(16 + 32 * recent.len());
    s.push_str("#   months:");
    for ((year, month), n, mean) in &recent {
        let _ = write!(s, " {year}-{month} n={n} mttr {mean:.1}");
    }
    if recent.is_empty() {
        s.push_str(" none");
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::Baseline;
    use crate::ingest::SimSource;
    use failsim::{ReplayClock, SystemModel};
    use failtypes::{AlertKind, FailureLog, Generation, ObservationWindow, SystemSpec};
    use std::collections::VecDeque;

    fn watch_sim(
        seed: u64,
        inject: Option<(f64, f64)>,
        config: &WatchConfig,
    ) -> (WatchOutcome, String) {
        let mut src =
            SimSource::new(SystemModel::tsubame3(), seed, ReplayClock::unpaced()).unwrap();
        if let Some((factor, from)) = inject {
            src = src.with_mttr_injection(factor, from);
        }
        let baseline = Baseline::from_model(SystemModel::tsubame3(), 1).unwrap();
        let detector = DriftDetector::new(baseline);
        let mut buf = Vec::new();
        let outcome = run(&mut src, Some(detector), config, &mut buf).unwrap();
        (outcome, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn injected_regression_alerts_and_streams_ndjson() {
        let (outcome, output) = watch_sim(1, Some((5.0, 0.5)), &WatchConfig::default());
        assert!(
            outcome
                .alerts
                .iter()
                .any(|a| a.kind == AlertKind::MttrRegression),
            "no regression alert: {:?}",
            outcome.alerts
        );
        assert!(output.contains("\"kind\":\"mttr_regression\""));
        assert!(output.contains("# watch done:"));
        assert_eq!(outcome.records, outcome.state.len());
    }

    #[test]
    fn summary_is_byte_identical_across_thread_counts() {
        let (_, state) = {
            let (outcome, _) = watch_sim(7, None, &WatchConfig::default());
            (outcome.records, outcome.state)
        };
        let serial = render_summary(&state, 1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, render_summary(&state, threads), "threads={threads}");
        }
        assert!(serial.contains("# summary @"));
        assert!(serial.contains("categories:"));
    }

    #[test]
    fn max_records_bounds_the_run() {
        let config = WatchConfig::builder().max_records(25).build().unwrap();
        let (outcome, _) = watch_sim(1, None, &config);
        assert_eq!(outcome.records, 25);
    }

    #[test]
    fn records_after_the_last_tick_are_checked_when_the_run_stops() {
        // No tick falls inside these runs, so the stop (EOF, then the
        // record bound) is their only drift check.
        let far = WatchConfig::builder().refresh_every(100_000);
        for config in [far.clone(), far.max_records(300)] {
            let (outcome, output) = watch_sim(1, Some((5.0, 0.1)), &config.build().unwrap());
            assert!(
                outcome
                    .alerts
                    .iter()
                    .any(|a| a.kind == AlertKind::MttrRegression),
                "{output}"
            );
            let alert_at = output.find("\"kind\":\"mttr_regression\"").unwrap();
            assert!(alert_at < output.find("# summary @").unwrap(), "{output}");
        }
    }

    /// One step of a [`SplitSource`] delivery plan.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Hand over up to this many records, then end the pull.
        Records(usize),
        /// End the pull with [`ChunkEnd::Idle`], as a followed file
        /// does when it has nothing new.
        Idle,
    }

    /// Replays one record stream in the pulls its plan dictates. Short
    /// pulls end with [`ChunkEnd::More`]; once the plan is spent, each
    /// pull fills to the loop's limit, so an empty plan is the single
    /// unsplit delivery.
    struct SplitSource {
        records: VecDeque<FailureRecord>,
        plan: VecDeque<Step>,
        spec: SystemSpec,
        window: ObservationWindow,
        generation: Generation,
    }

    impl SplitSource {
        fn new(log: &FailureLog, plan: Vec<Step>) -> Self {
            SplitSource {
                records: log.records().iter().cloned().collect(),
                plan: plan.into(),
                spec: log.spec().clone(),
                window: log.window(),
                generation: log.generation(),
            }
        }
    }

    impl EventSource for SplitSource {
        fn generation(&self) -> Generation {
            self.generation
        }

        fn spec(&self) -> &SystemSpec {
            &self.spec
        }

        fn window(&self) -> ObservationWindow {
            self.window
        }

        fn next_chunk(
            &mut self,
            max: usize,
            out: &mut Vec<FailureRecord>,
        ) -> failtypes::Result<ChunkEnd> {
            let take = match self.plan.front_mut() {
                Some(Step::Idle) => {
                    self.plan.pop_front();
                    return Ok(ChunkEnd::Idle);
                }
                Some(Step::Records(n)) => {
                    let take = (*n).min(max);
                    *n -= take;
                    if *n == 0 {
                        self.plan.pop_front();
                    }
                    take
                }
                None => max,
            };
            let take = take.min(self.records.len());
            out.extend(self.records.drain(..take));
            Ok(if self.records.is_empty() {
                ChunkEnd::Eof
            } else {
                ChunkEnd::More
            })
        }

        fn describe(&self) -> String {
            String::from("split replay")
        }
    }

    /// Splits a stream of `len` records into pulls of the cycled
    /// `sizes`, with an idle pull after pull `at % pulls` for each `at`
    /// in `idles`.
    fn split_plan(len: usize, sizes: &[usize], idles: &[usize]) -> Vec<Step> {
        let mut pulls = Vec::new();
        let mut covered = 0;
        for &size in sizes.iter().cycle() {
            if covered >= len {
                break;
            }
            pulls.push(size);
            covered += size;
        }
        let mut plan = Vec::new();
        for (i, &size) in pulls.iter().enumerate() {
            plan.push(Step::Records(size));
            let idle = idles.iter().filter(|&&at| at % pulls.len() == i);
            plan.extend(idle.map(|_| Step::Idle));
        }
        plan
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // The alert stream is a function of the records, the refresh
        // cadence and the filter: however the source splits its
        // delivery (short pulls, idle polls), the loop writes the same
        // bytes and ends with the same alerts and state as one unsplit
        // delivery, with and without `--where`, and honours a record
        // bound exactly. Every idle poll sleeps, so a case carries at
        // most two of them, in one of its three runs.
        #[test]
        fn source_chunking_never_changes_the_output(
            seed in 1u64..4,
            refresh in 5usize..150,
            sizes in proptest::collection::vec(1usize..200, 1..24),
            idles in proptest::collection::vec(0usize..1000, 0..=2),
            idle_run in 0usize..3,
            max_records in 1usize..700,
        ) {
            let mut src = SimSource::new(SystemModel::tsubame3(), seed, ReplayClock::unpaced())
                .unwrap()
                .with_mttr_injection(5.0, 0.5);
            let mut records = Vec::new();
            let end = src.next_chunk(usize::MAX, &mut records).unwrap();
            proptest::prop_assert_eq!(end, ChunkEnd::Eof);
            let log = FailureLog::new(src.generation(), src.window(), records).unwrap();
            let baseline = Baseline::from_model(SystemModel::tsubame3(), 1).unwrap();
            let gpu_only = failfilter::compile("category == gpu").unwrap();
            let configs = [
                WatchConfig::builder().refresh_every(refresh).build().unwrap(),
                WatchConfig::builder()
                    .refresh_every(refresh)
                    .filter(gpu_only)
                    .build()
                    .unwrap(),
                WatchConfig::builder()
                    .refresh_every(refresh)
                    .max_records(max_records)
                    .build()
                    .unwrap(),
            ];
            for (i, config) in configs.iter().enumerate() {
                let idles: &[usize] = if i == idle_run { &idles } else { &[] };
                let mut outputs = Vec::new();
                for plan in [Vec::new(), split_plan(log.len(), &sizes, idles)] {
                    let detector = DriftDetector::new(baseline.clone());
                    let mut buf = Vec::new();
                    let outcome =
                        run(&mut SplitSource::new(&log, plan), Some(detector), config, &mut buf)
                            .unwrap();
                    outputs.push((String::from_utf8(buf).unwrap(), outcome));
                }
                let (whole_out, whole) = &outputs[0];
                let (split_out, split) = &outputs[1];
                proptest::prop_assert_eq!(split_out, whole_out, "config {}", i);
                proptest::prop_assert_eq!(&split.alerts, &whole.alerts);
                proptest::prop_assert_eq!(&split.state, &whole.state);
                proptest::prop_assert_eq!(split.records, whole.records);
                if config.max_records.is_some() {
                    proptest::prop_assert_eq!(whole.records, max_records.min(log.len()));
                }
            }
        }
    }

    #[test]
    fn whole_stream_output_is_deterministic() {
        let config = WatchConfig::default();
        let (_, out_a) = watch_sim(3, Some((4.0, 0.6)), &config);
        let (_, out_b) = watch_sim(3, Some((4.0, 0.6)), &config);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn empty_summary_renders() {
        let log = failsim::Simulator::new(SystemModel::tsubame3(), 1)
            .generate()
            .unwrap();
        let state = WatchState::for_log(&log, StateConfig::default());
        assert_eq!(render_summary(&state, 4), "# summary: no records yet\n");
        // JSON mode still emits one line per section, with null data.
        let sections: Vec<&WatchSection> = WATCH_SECTIONS.iter().collect();
        let json = render_summary_sections(&state, &sections, 2, true);
        assert_eq!(json.lines().count(), WATCH_SECTIONS.len());
        assert!(json.starts_with(r#"{"id":"overview","title":"Stream overview","data":null}"#));
    }

    #[test]
    fn json_summaries_are_thread_identical_ndjson() {
        let (outcome, _) = watch_sim(7, None, &WatchConfig::default());
        let sections: Vec<&WatchSection> = WATCH_SECTIONS.iter().collect();
        let serial = render_summary_sections(&outcome.state, &sections, 1, true);
        for threads in [2, 4, 8] {
            assert_eq!(
                serial,
                render_summary_sections(&outcome.state, &sections, threads, true),
                "threads={threads}"
            );
        }
        let lines: Vec<&str> = serial.lines().collect();
        assert_eq!(lines.len(), WATCH_SECTIONS.len());
        for (line, section) in lines.iter().zip(WATCH_SECTIONS) {
            assert!(line.starts_with(&format!(r#"{{"id":"{}","#, section.id)), "{line}");
        }
        assert!(serial.contains(r#""mtbf_hours":"#));
    }

    #[test]
    fn watch_section_selection() {
        let select = |spec| failscope::select_by_id(WATCH_SECTIONS, |s| s.id, spec);
        let picked = select("slots, overview").expect("valid ids");
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].id, "slots");
        assert_eq!(picked[1].id, "overview");
        let known = "(known: overview, categories, slots, months)";
        let err = select("overview,bogus").unwrap_err().to_string();
        assert_eq!(err, format!("unknown section `bogus` {known}"));
        let err = select(" , ").unwrap_err().to_string();
        assert_eq!(err, format!("no sections selected {known}"));

        let (outcome, _) = watch_sim(7, None, &WatchConfig::default());
        let text = render_summary_sections(&outcome.state, &picked, 2, false);
        assert!(text.contains("gpu slots:"));
        assert!(text.contains("# summary @"));
        assert!(!text.contains("categories:"));
    }

    #[test]
    fn builders_reject_degenerate_configurations() {
        assert!(WatchConfig::builder().build().is_ok());
        for bad in [
            WatchConfig::builder().refresh_every(0).build(),
            WatchConfig::builder().summary_sections(Vec::new()).build(),
        ] {
            let err = bad.unwrap_err();
            assert!(matches!(err, failtypes::Error::Config { .. }), "{err}");
            assert!(err.to_string().starts_with("invalid watch loop configuration:"));
        }
        assert!(StateConfig::builder().window(0).build().is_err());
    }

    #[test]
    fn filter_scopes_the_state_and_tags_alerts() {
        let pred = failfilter::compile("category == gpu").unwrap();
        let trace = Collector::new();
        let config = WatchConfig::builder()
            .filter(pred.clone())
            .trace(trace.clone())
            .build()
            .unwrap();
        let (outcome, output) = watch_sim(1, Some((5.0, 0.1)), &config);
        // The detector and state only ever saw matching records.
        assert!(outcome.records > 0);
        assert!(outcome
            .state
            .view()
            .rows()
            .all(|r| r.category().is_gpu()));
        assert!(output.contains("# filter: category == gpu"), "{output}");
        for alert in &outcome.alerts {
            assert!(output.contains(&alert.to_ndjson_with(Some("category == gpu"))));
        }
        // The pushdown counters tally the whole stream.
        let records_in = trace.counter("filter.records_in");
        let kept = trace.counter("filter.records_kept");
        assert_eq!(kept, outcome.records as u64);
        assert!(records_in > kept);
        // Unfiltered run sees the full stream.
        let (full, _) = watch_sim(1, Some((5.0, 0.1)), &WatchConfig::default());
        assert_eq!(records_in, full.records as u64);
    }

    #[test]
    fn match_all_filter_only_adds_the_banner_and_alert_tags() {
        let pred = failfilter::compile("ttr >= 0").unwrap();
        let config = WatchConfig::builder().filter(pred).build().unwrap();
        let (filtered, out_f) = watch_sim(3, Some((4.0, 0.6)), &config);
        let (plain, out_p) = watch_sim(3, Some((4.0, 0.6)), &WatchConfig::default());
        assert_eq!(filtered.records, plain.records);
        assert_eq!(filtered.alerts, plain.alerts);
        assert_eq!(filtered.state, plain.state);
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("# filter:"))
                .map(|l| l.replace(",\"filter\":\"ttr >= 0\"}", "}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&out_f), strip(&out_p));
        assert_ne!(out_f, out_p);
    }

    #[test]
    fn json_mode_suppresses_the_filter_banner() {
        let pred = failfilter::compile("ttr >= 0").unwrap();
        let config = WatchConfig::builder()
            .filter(pred)
            .json_summaries(true)
            .build()
            .unwrap();
        let (_, output) = watch_sim(1, None, &config);
        assert!(output.lines().all(|l| l.starts_with('{')), "{output}");
    }

    #[test]
    fn traced_run_counts_records_and_alerts() {
        let trace = Collector::new();
        let config = WatchConfig::builder()
            .max_records(120)
            .trace(trace.clone())
            .build()
            .unwrap();
        let (outcome, _) = watch_sim(1, Some((5.0, 0.1)), &config);
        assert_eq!(trace.counter("watch.records_ingested"), outcome.records as u64);
        assert_eq!(trace.counter("watch.alerts_raised"), outcome.alerts.len() as u64);
    }

    #[test]
    fn json_summary_config_streams_ndjson_sections() {
        let config = WatchConfig::builder().json_summaries(true).build().unwrap();
        let (outcome, output) = watch_sim(1, None, &config);
        assert!(outcome.records > 0);
        assert!(output.contains(r#"{"id":"overview","title":"Stream overview","data":{"#));
        // JSON mode is pure NDJSON: no `#` banner/summary/footer lines.
        assert!(output.lines().all(|l| l.starts_with('{')), "{output}");
    }
}
