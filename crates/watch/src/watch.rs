//! The watch loop: pull events from a source, feed the online state,
//! stream alerts, and render periodic summaries.
//!
//! Output is line-oriented so it can be piped: alerts are NDJSON
//! objects written the moment they fire, summaries are `#`-prefixed
//! text blocks (or NDJSON section lines with
//! [`WatchConfig::json_summaries`]) refreshed every `refresh_every`
//! records (and once at end of stream). Summaries dispatch through the
//! typed [`WATCH_SECTIONS`] registry and render via
//! [`failstats::par_map_ordered`], so the output is byte-identical at
//! any thread count — the same guarantee the batch report pipeline
//! makes.

use std::io::Write;
use std::thread;
use std::time::Duration;

use failfilter::CompiledPredicate;
use failstats::par_map_ordered;
use failtrace::Collector;
use failtypes::{Alert, FailureRecord, JsonValue};

use crate::drift::DriftDetector;
use crate::ingest::{ChunkEnd, EventSource};
use crate::state::{StateConfig, WatchState};

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

/// Looks up one watch section by its stable id.
pub fn watch_section_by_id(id: &str) -> Option<&'static WatchSection> {
    WATCH_SECTIONS.iter().find(|s| s.id == id)
}

/// Resolves a comma-separated id list (e.g. `"overview,slots"`) against
/// the watch registry, preserving the requested order.
///
/// # Errors
///
/// Rejects unknown or empty selections with a
/// [`failtypes::Error::Args`] naming the known vocabulary.
pub fn select_watch_sections(spec: &str) -> failtypes::Result<Vec<&'static WatchSection>> {
    let known = || {
        WATCH_SECTIONS
            .iter()
            .map(|s| s.id)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = Vec::new();
    for id in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match watch_section_by_id(id) {
            Some(section) => out.push(section),
            None => {
                return Err(failtypes::Error::args(format!(
                    "unknown section `{id}` (known: {})",
                    known()
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(failtypes::Error::args(format!(
            "no sections selected (known: {})",
            known()
        )));
    }
    Ok(out)
}

/// Tuning for the watch loop itself (state and drift thresholds are
/// configured on [`StateConfig`] / [`crate::DriftConfig`]).
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Online-state tuning (the trailing window).
    pub state: StateConfig,
    /// Records between summary refreshes.
    pub refresh_every: usize,
    /// Largest record chunk pulled from the source per
    /// [`EventSource::next_chunk`] call. Chunks are additionally
    /// clipped to the next refresh tick and the `max_records` bound, so
    /// summaries and record limits are honoured exactly; drift checks
    /// run once per chunk (partial chunks are flushed on idle/EOF, so
    /// chunking never delays follow-mode delivery or alerting on a
    /// stalled stream).
    pub ingest_chunk: usize,
    /// Sleep between polls when a followed source is idle.
    pub idle_sleep_ms: u64,
    /// Stop after this many *consecutive* idle polls (`None` = follow
    /// forever; the CLI uses a bound so smoke tests terminate).
    pub max_idle_polls: Option<u64>,
    /// Stop after ingesting this many records (`None` = run to EOF).
    pub max_records: Option<usize>,
    /// Worker threads for summary rendering (1 = serial; any value
    /// produces byte-identical output).
    pub threads: usize,
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
            ingest_chunk: 256,
            idle_sleep_ms: 200,
            max_idle_polls: None,
            max_records: None,
            threads: 1,
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
/// cannot honour (a zero refresh cadence or zero worker threads) with a
/// [`failtypes::Error::Config`] naming the offending knob.
///
/// # Examples
///
/// ```
/// use failwatch::WatchConfig;
///
/// let config = WatchConfig::builder().max_records(25).threads(4).build()?;
/// assert_eq!(config.max_records, Some(25));
/// assert!(WatchConfig::builder().threads(0).build().is_err());
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

    /// Largest record chunk per source pull (see
    /// [`WatchConfig::ingest_chunk`]).
    #[must_use]
    pub fn ingest_chunk(mut self, records: usize) -> Self {
        self.config.ingest_chunk = records;
        self
    }

    /// Sleep between polls when a followed source is idle.
    #[must_use]
    pub fn idle_sleep_ms(mut self, millis: u64) -> Self {
        self.config.idle_sleep_ms = millis;
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

    /// Worker threads for summary rendering.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
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
    /// refresh cadence or thread count is zero, or no summary section
    /// is selected.
    pub fn build(self) -> failtypes::Result<WatchConfig> {
        let c = &self.config;
        if c.refresh_every == 0 {
            return Err(failtypes::Error::config(
                "watch loop",
                "summary refresh cadence must be at least 1 record",
            ));
        }
        if c.ingest_chunk == 0 {
            return Err(failtypes::Error::config(
                "watch loop",
                "ingest chunk must hold at least 1 record",
            ));
        }
        if c.threads == 0 {
            return Err(failtypes::Error::config(
                "watch loop",
                "summary rendering needs at least 1 worker thread",
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
/// the full online state and summaries, it just cannot alert.
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
    let mut chunk: Vec<FailureRecord> = Vec::with_capacity(config.ingest_chunk.max(1));

    loop {
        // Clip the chunk to the next refresh tick and the record bound
        // so both are honoured exactly, as per-record ingestion did.
        let mut limit = config.ingest_chunk.max(1);
        limit = limit.min(refresh - records % refresh);
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

        if !chunk.is_empty() {
            let ingested = state.ingest_batch(chunk.drain(..))?;
            records += ingested;
            if let Some(trace) = &config.trace {
                trace.incr("watch.records_ingested", ingested as u64);
            }
            // Drift checks run once per chunk — the chunk boundary is
            // where the trailing windows have genuinely new content.
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
            if records.is_multiple_of(refresh) {
                state.materialize();
                out.write_all(config_summary(&state, config).as_bytes())?;
            }
            if config.max_records.is_some_and(|max| records >= max) {
                break;
            }
        }

        match end {
            ChunkEnd::More => {}
            ChunkEnd::Idle => {
                idle_polls += 1;
                if config.max_idle_polls.is_some_and(|max| idle_polls >= max) {
                    break;
                }
                thread::sleep(Duration::from_millis(config.idle_sleep_ms));
            }
            ChunkEnd::Eof => break,
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

fn config_summary(state: &WatchState, config: &WatchConfig) -> String {
    render_summary_sections(
        state,
        &config.summary_sections,
        config.threads,
        config.json_summaries,
    )
}

/// Renders the full periodic summary block as text — byte-identical at
/// any `threads` value.
pub fn render_summary(state: &WatchState, threads: usize) -> String {
    let sections: Vec<&WatchSection> = WATCH_SECTIONS.iter().collect();
    render_summary_sections(state, &sections, threads, false)
}

/// Renders a summary section selection via [`par_map_ordered`] (so the
/// output is byte-identical at any `threads` value), either as the
/// `#`-prefixed text block or as NDJSON `{"id","title","data"}` lines.
///
/// An empty state renders as `"# summary: no records yet\n"` in text
/// mode and as one `"data":null` line per section in JSON mode.
pub fn render_summary_sections(
    state: &WatchState,
    sections: &[&WatchSection],
    threads: usize,
    json: bool,
) -> String {
    if state.is_empty() && !json {
        return String::from("# summary: no records yet\n");
    }
    par_map_ordered(sections.len(), threads, |i| {
        let section = sections[i];
        if json {
            let data = if state.is_empty() {
                JsonValue::Null
            } else {
                (section.json)(state)
            };
            let mut line = JsonValue::object()
                .field("id", section.id)
                .field("title", section.title)
                .field("data", data)
                .build()
                .render();
            line.push('\n');
            line
        } else {
            (section.text)(state)
        }
    })
    .concat()
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
        view.category_indices()
            .iter()
            .map(|(&category, idx)| {
                JsonValue::object()
                    .field("category", category.label())
                    .field("count", idx.len())
                    .field("fraction", idx.len() as f64 / n as f64)
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
    let view = state.view();
    let months = view.window().months();
    JsonValue::Array(
        view.month_ttrs()
            .iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(i, bucket)| {
                let (year, month) = months[i];
                JsonValue::object()
                    .field("year", year)
                    .field("month", month.number())
                    .field("n", bucket.len())
                    .field(
                        "mttr_hours",
                        bucket.iter().sum::<f64>() / bucket.len() as f64,
                    )
                    .build()
            })
            .collect(),
    )
}

fn fmt_opt(value: Option<f64>) -> String {
    value.map_or_else(|| String::from("n/a"), |v| format!("{v:.2}"))
}

fn overview_section(state: &WatchState) -> String {
    let mut s = format!(
        "# summary @ {:.1} h: {} records (exact)\n",
        state.stream_time().unwrap_or(0.0),
        state.len()
    );
    s.push_str(&format!(
        "#   mtbf {} h | mean gap {} h | rate {}/h\n",
        fmt_opt(state.mtbf_hours()),
        fmt_opt(state.mean_gap_hours()),
        fmt_opt(state.rate_per_hour()),
    ));
    s.push_str(&format!(
        "#   mttr {} h (p50 {}, p90 {}) | window({}) mttr {} h\n",
        fmt_opt(state.mttr_hours()),
        fmt_opt(state.ttr_quantile(0.5)),
        fmt_opt(state.ttr_quantile(0.9)),
        state.window_len(),
        fmt_opt(state.window_ttr_mean()),
    ));
    s
}

fn category_section(state: &WatchState) -> String {
    let view = state.view();
    let n = view.len().max(1);
    let mut s = String::from("#   categories:");
    for (&category, idx) in view.category_indices() {
        s.push_str(&format!(
            " {category} {} ({:.0}%, ewma ttr {} h)",
            idx.len(),
            idx.len() as f64 * 100.0 / n as f64,
            fmt_opt(state.ewma_ttr(category)),
        ));
    }
    s.push('\n');
    s
}

fn slot_section(state: &WatchState) -> String {
    let counts = state.view().slot_counts();
    let (window_shares, involvements) = state.window_slot_shares();
    let mut s = String::from("#   gpu slots:");
    for (slot, &count) in counts.iter().enumerate() {
        let share = window_shares.get(slot).copied().unwrap_or(0.0);
        s.push_str(&format!(" {slot}:{count} (win {:.0}%)", share * 100.0));
    }
    s.push_str(&format!(
        " | window involvements {involvements} | multi-gpu total {}\n",
        state.view().multi_gpu_times().len()
    ));
    s
}

fn month_section(state: &WatchState) -> String {
    let view = state.view();
    let months = view.window().months();
    let buckets = view.month_ttrs();
    // Show the most recent non-empty buckets (up to four).
    let filled: Vec<(usize, &Vec<f64>)> = buckets
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect();
    let mut s = String::from("#   months:");
    for &(i, bucket) in filled.iter().rev().take(4).rev() {
        let (year, month) = months[i];
        let mean = bucket.iter().sum::<f64>() / bucket.len() as f64;
        s.push_str(&format!(
            " {year}-{month} n={} mttr {mean:.1}",
            bucket.len()
        ));
    }
    if filled.is_empty() {
        s.push_str(" none");
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{Baseline, DriftConfig};
    use crate::ingest::SimSource;
    use failsim::{ReplayClock, SystemModel};
    use failtypes::AlertKind;

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
        let detector = DriftDetector::new(baseline, DriftConfig::default());
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
    fn chunk_size_preserves_bounds_and_final_state() {
        // max_records is honoured exactly at any chunk size (chunks are
        // clipped to the bound, never overshooting).
        for chunk in [1, 7, 64, 1024] {
            let config = WatchConfig::builder()
                .ingest_chunk(chunk)
                .max_records(25)
                .build()
                .unwrap();
            let (outcome, _) = watch_sim(1, None, &config);
            assert_eq!(outcome.records, 25, "chunk={chunk}");
        }
        // The final online state of a full replay is identical at any
        // chunk size — chunking changes when drift checks run, never
        // what was ingested. ingest_chunk(1) is the per-record path.
        let base = {
            let config = WatchConfig::builder().ingest_chunk(1).build().unwrap();
            watch_sim(7, None, &config).0.state
        };
        for chunk in [3, 100, 4096] {
            let config = WatchConfig::builder().ingest_chunk(chunk).build().unwrap();
            let state = watch_sim(7, None, &config).0.state;
            assert_eq!(state, base, "chunk={chunk}");
        }
    }

    #[test]
    fn whole_stream_output_is_deterministic() {
        let config_a = WatchConfig::builder().threads(1).build().unwrap();
        let config_b = WatchConfig::builder().threads(6).build().unwrap();
        let (_, out_a) = watch_sim(3, Some((4.0, 0.6)), &config_a);
        let (_, out_b) = watch_sim(3, Some((4.0, 0.6)), &config_b);
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
        let picked = select_watch_sections("slots, overview").expect("valid ids");
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].id, "slots");
        assert_eq!(picked[1].id, "overview");
        assert!(select_watch_sections("bogus").is_err());
        assert!(select_watch_sections("").is_err());

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
            WatchConfig::builder().ingest_chunk(0).build(),
            WatchConfig::builder().threads(0).build(),
            WatchConfig::builder().summary_sections(Vec::new()).build(),
        ] {
            let err = bad.unwrap_err();
            assert!(matches!(err, failtypes::Error::Config { .. }), "{err}");
            assert!(err.to_string().starts_with("invalid watch loop configuration:"));
        }
        assert!(StateConfig::builder().window(0).build().is_err());
        let drift = crate::DriftConfig::builder();
        assert!(drift.clone().ks_alpha(1.0).build().is_err());
        assert!(drift.clone().mttr_ratio(0.9).build().is_err());
        assert!(drift.clone().burst_window_hours(0.0).build().is_err());
        assert!(drift.min_window(5).build().is_ok());
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
            .records()
            .iter()
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
