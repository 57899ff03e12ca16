//! The traced phase: per-layer attribution.
//!
//! It never overlaps an end-to-end phase. It calls each crate's public
//! functions on the same inputs, wrapping every call in a span the
//! benchmark owns, and repeats the whole set of calls until the run's
//! duration is spent (at least [`MIN_REPS`] times). A layer's figure is
//! the median over repetitions of its summed span self time. Each
//! user-facing path is printed as its total, the self time of each
//! layer it crosses, and an `*_unattributed` residual, so the rows add
//! up to the total.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use failapi::{QueryEngine, QueryRequest, QuerySource, WatchRequest};
use failindex::{Freshness, IndexMode, IndexedLoad};
use failscope::{LogView, SectionCtx, SECTIONS};
use failtrace::Collector;
use failwatch::{StateConfig, WatchState};

use crate::cli::WHERE;
use crate::inputs::{self, Workdir};
use crate::process::Failctl;
use crate::reference;
use crate::stats;
use crate::{Metric, Outcome, Res, Tally};

/// Fewest repetitions of the traced calls per run.
const MIN_REPS: usize = 3;
/// Calls per span for operations too short to time one at a time.
const BATCH: u32 = 200;
/// `failctl` processes per span for the process floor.
const FLOOR_BATCH: u32 = 10;
/// Records between watch summaries (the `failctl watch` default).
const REFRESH: usize = 100;

/// Per-layer metrics measured directly from spans: the metric name, its
/// unit, and the calls each span covers. The span name is the metric
/// name without its unit suffix.
const MEASURED: &[(&str, &str, u32)] = &[
    ("faillog.read_input_ms", "ms", 1),
    ("faillog.inflate_ms", "ms", 1),
    ("faillog.parse_ms", "ms", 1),
    ("failfilter.compile_us", "us", BATCH),
    ("failfilter.pushdown_parse_ms", "ms", 1),
    ("failfilter.view_filter_ms", "ms", 1),
    ("failscope.logview_ms", "ms", 1),
    ("failscope.render_text_ms", "ms", 1),
    ("failscope.render.header_ms", "ms", 1),
    ("failscope.render.categories_ms", "ms", 1),
    ("failscope.render.spatial_ms", "ms", 1),
    ("failscope.render.involvement_ms", "ms", 1),
    ("failscope.render.tbf_ms", "ms", 1),
    ("failscope.render.ttr_ms", "ms", 1),
    ("failscope.render.availability_ms", "ms", 1),
    ("failscope.render.survival_ms", "ms", 1),
    ("failscope.render.seasonal_ms", "ms", 1),
    ("failscope.render_warm_ms", "ms", 1),
    ("failscope.render_json_ms", "ms", 1),
    ("failscope.compare_ms", "ms", 1),
    ("failindex.fingerprint_ms", "ms", 1),
    ("failindex.fingerprint_small_us", "us", BATCH),
    ("failindex.probe_ms", "ms", 1),
    ("failindex.decode_ms", "ms", 1),
    ("failindex.open_exact_ms", "ms", 1),
    ("failindex.save_ms", "ms", 1),
    ("failapi.execute_cold_ms", "ms", 1),
    ("failapi.execute_warm_ms", "ms", 1),
    ("failapi.execute_hit_year_ms", "ms", 1),
    ("failapi.execute_hit_small_us", "us", BATCH),
    ("failapi.wire_parse_request_us", "us", BATCH),
    ("failapi.wire_encode_ok_us", "us", BATCH),
    ("failapi.wire_parse_response_us", "us", BATCH),
    ("failserver.ping_rtt_us", "us", BATCH),
    ("failserver.hit_rtt_us", "us", BATCH),
    ("failwatch.ingest_ms", "ms", 1),
    ("failwatch.summary_ms", "ms", 1),
    ("failwatch.run_ms", "ms", 1),
    ("failctl.process_floor_ms", "ms", FLOOR_BATCH),
    ("failctl.report_cold_ms", "ms", 1),
];

/// Each user-facing path: its total and the layers it crosses, whose
/// difference is the named residual. A layer listed twice is crossed
/// twice: a cold query fingerprints its file once for the render-cache
/// key and again for the parsed-log cache key.
const PATHS: &[(&str, &str, &[&str])] = &[
    (
        "failapi.cold_unattributed_ms",
        "failapi.execute_cold_ms",
        &[
            "failindex.fingerprint_ms",
            "failindex.fingerprint_ms",
            "faillog.read_input_ms",
            "faillog.parse_ms",
            "failscope.logview_ms",
            "failscope.render_text_ms",
        ],
    ),
    (
        "failapi.warm_unattributed_ms",
        "failapi.execute_warm_ms",
        &[
            "failindex.fingerprint_ms",
            "failindex.probe_ms",
            "failindex.open_exact_ms",
            "failscope.render_warm_ms",
        ],
    ),
    (
        "failapi.hit_unattributed_ms",
        "failapi.execute_hit_year_ms",
        &["failindex.fingerprint_ms", "failindex.probe_ms"],
    ),
    (
        "failserver.hit_unattributed_us",
        "failserver.hit_rtt_us",
        &[
            "failserver.ping_rtt_us",
            "failapi.execute_hit_small_us",
            "failapi.wire_parse_request_us",
            "failapi.wire_encode_ok_us",
            "failapi.wire_parse_response_us",
        ],
    ),
    (
        "failwatch.unattributed_ms",
        "failwatch.run_ms",
        &[
            "faillog.inflate_ms",
            "failwatch.ingest_ms",
            "failwatch.summary_ms",
        ],
    ),
    (
        "failctl.cold_overhead_ms",
        "failctl.report_cold_ms",
        &["failapi.execute_cold_ms"],
    ),
];

/// One recorded span. Times are nanoseconds since the phase started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    path: &'static str,
    parent: Option<usize>,
    rep: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the phase ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, path: &'static str) {
        let span = Span {
            name,
            path,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: self.ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    fn exit(&mut self) {
        let end = self.ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = end;
    }

    fn span<R>(&mut self, name: &'static str, path: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, path);
        let out = f();
        self.exit();
        out
    }

    /// Summed self time (duration minus child spans) of every span
    /// named `name` in repetition `rep`, in ns.
    fn self_ns(&self, name: &str, rep: usize) -> u64 {
        let mut total: i128 = 0;
        for s in self.spans.iter().filter(|s| s.rep == rep) {
            let dur = i128::from(s.end_ns - s.start_ns);
            if s.name == name {
                total += dur;
            }
            if s.parent.is_some_and(|p| self.spans[p].name == name) {
                total -= dur;
            }
        }
        total.max(0) as u64
    }

    fn ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = failtypes::JsonValue::object()
                .field("id", id)
                .field("name", s.name)
                .field("path", s.path)
                .field("parent", s.parent)
                .field("rep", s.rep)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .build();
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

fn ensure(ok: bool, what: &str) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("traced phase: {what} gave an unexpected result"))
    }
}

/// Calls `f` `n` times and returns the last result.
fn repeat<R>(n: u32, mut f: impl FnMut() -> R) -> R {
    let mut last = f();
    for _ in 1..n {
        last = f();
    }
    last
}

/// Runs the traced phase on this seed's inputs for `seconds`, writing
/// the spans to `spans_out` when given.
pub fn run(dir: &Workdir, seed: u64, seconds: f64, spans_out: Option<&str>) -> Res<Outcome> {
    let year_a = inputs::year_a(dir, seed)?;
    let year_b = inputs::year_b(dir, seed)?;
    let fleet = inputs::fleet(dir, seed)?;
    let failctl = Failctl::locate()?;
    // The worker count every CLI and faild query uses by default.
    let threads = failapi::QueryOptions::default().threads;
    let plain = year_a.plain.as_str();
    let gz_raw = std::fs::read(&year_a.gz).map_err(|e| e.to_string())?;
    let text_b = year_b.stages[0].clone();
    let log_b = faillog::from_str_with(&text_b, &faillog::ParseOptions::default())
        .map_err(|e| e.to_string())?;
    let small = fleet[0].0.as_str();
    let snapshot = failindex::snapshot_path(plain);
    let all: Vec<_> = SECTIONS.iter().collect();
    let nine: Vec<_> = SECTIONS
        .iter()
        .filter(|s| s.id != failscope::METRICS_SECTION_ID)
        .collect();
    let tbf_ttr = failscope::select_sections("tbf,ttr").map_err(|e| e.to_string())?;

    let cold_req = QueryRequest::report(QuerySource::file(plain)).index(IndexMode::Off);
    let warm_req = QueryRequest::report(QuerySource::file(plain)).index(IndexMode::Require);
    let hit_req = QueryRequest::report(QuerySource::file(plain)).index(IndexMode::Auto);
    let small_req = QueryRequest::report(QuerySource::file(small)).sections("header");
    let cold_ref = reference::query(&cold_req)?;
    let warm_ref = reference::query(&warm_req)?;
    let hit_ref = reference::query(&hit_req)?;
    let small_ref = reference::query(&small_req)?;
    let watch_ref = reference::watch(&year_a.gz)?;
    let cold_args: Vec<String> = ["report", plain, "--index", "off"]
        .map(String::from)
        .to_vec();
    let floor_args: Vec<String> = ["report", small, "--sections", "header"]
        .map(String::from)
        .to_vec();

    let engine_year = QueryEngine::new();
    let engine_small = QueryEngine::new();
    for (engine, req) in [(&engine_year, &hit_req), (&engine_small, &small_req)] {
        engine.execute(req).map_err(|e| e.to_string())?;
    }
    let small_line = failapi::wire::encode_query(1, &small_req);
    let ok_line = failapi::wire::encode_ok(1, "report", true, &small_ref);
    let ping_line = failapi::wire::encode_simple(1, "ping");
    let (faild, _) = failctl.serve()?;
    let mut conn = faild.connect()?;
    for _ in 0..2 {
        conn.roundtrip(&small_line).map_err(|e| e.to_string())?;
    }

    let mut tally = Tally::default();
    let mut t = Tracer::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reps = 0;
    let mut kept_ratio = Vec::new();
    let mut snapshot_bytes = 0u64;
    while reps < MIN_REPS || start.elapsed() < budget {
        t.rep = reps;
        // The cold report path.
        let out = t.span("failapi.execute_cold", "cold", || {
            QueryEngine::new().execute(&cold_req)
        });
        tally.record(
            out.map_err(|e| e.to_string())
                .and_then(|o| reference::check_stdout(&o.output, &cold_ref)),
        );
        let (text, _) = t
            .span("faillog.read_input", "cold", || faillog::read_input(plain))
            .map_err(|e| e.to_string())?;
        let log = t
            .span("faillog.parse", "cold", || {
                faillog::from_str_with(&text, &faillog::ParseOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let view = t.span("failscope.logview", "cold", || LogView::new(&log));
        let collector = Collector::new();
        let ctx = SectionCtx::with_trace(&view, &collector);
        let rendered = t.span("failscope.render_text", "cold", || {
            failscope::render_text_sections(&all, &ctx, threads)
        });
        ensure(!rendered.is_empty(), "render_text_sections")?;
        let plain_ctx = SectionCtx::new(&view);
        for section in &nine {
            let name = section_span(section.id);
            let text = t.span(name, "render", || (section.text)(&plain_ctx));
            std::hint::black_box(text);
        }

        // The warm report path and the cached hit on the year.
        let out = t.span("failapi.execute_warm", "warm", || {
            QueryEngine::new().execute(&warm_req)
        });
        tally.record(
            out.map_err(|e| e.to_string())
                .and_then(|o| reference::check_stdout(&o.output, &warm_ref)),
        );
        let source = t.span("failindex.fingerprint", "warm", || {
            std::fs::read(plain).map(|raw| failindex::SourceInfo::of_bytes(&raw))
        });
        let source = source.map_err(|e| e.to_string())?;
        let fresh = t.span("failindex.probe", "warm", || failindex::probe(plain));
        ensure(matches!(fresh, Ok(Freshness::Exact)), "probe")?;
        let opened = t.span("failindex.open_exact", "warm", || {
            failindex::open_indexed(plain, None)
        });
        let warm_view = match opened {
            Ok(IndexedLoad::Exact(snap)) => snap.into_view(),
            _ => return Err("traced phase: the year's snapshot is not exact".into()),
        };
        let warm_trace = Collector::new();
        let warm_ctx = SectionCtx::with_trace(&warm_view, &warm_trace);
        let rendered = t.span("failscope.render_warm", "warm", || {
            failscope::render_text_sections(&all, &warm_ctx, threads)
        });
        ensure(!rendered.is_empty(), "render_text_sections")?;
        let out = t.span("failapi.execute_hit_year", "hit", || {
            engine_year.execute(&hit_req)
        });
        tally.record(out.map_err(|e| e.to_string()).and_then(|o| {
            ensure(o.cached, "cached year query")?;
            reference::check_stdout(&o.output, &hit_ref)
        }));

        // Filtering: compile, pushdown into the parser, and the
        // snapshot-view filter of a warm `--where` report.
        let pred = t
            .span("failfilter.compile", "filter", || {
                repeat(BATCH, || failfilter::compile(WHERE))
            })
            .map_err(|e| e.to_string())?;
        let opts = faillog::ParseOptions::default().filter(pred.clone());
        let filtered_log = t
            .span("failfilter.pushdown_parse", "filter", || {
                faillog::from_str_with(&text_b, &opts)
            })
            .map_err(|e| e.to_string())?;
        ensure(filtered_log.len() < log_b.len(), "pushdown parse")?;
        let decoded = t
            .span("failindex.decode", "filter", || failindex::load(&snapshot))
            .map_err(|e| e.to_string())?
            .into_view();
        let (spec, window) = (decoded.spec().clone(), decoded.window());
        let kept = t.span("failfilter.view_filter", "filter", || {
            decoded.filtered(|r| pred.matches(r, &spec, window))
        });
        kept_ratio.push(kept.len() as f64 / decoded.len() as f64);
        let json = t.span("failscope.render_json", "filter", || {
            failscope::render_json_sections(&tbf_ttr, &SectionCtx::new(&kept), threads)
        });
        ensure(json.lines().count() == 2, "render_json_sections")?;

        // Comparison rendering and snapshot writing.
        let compared = t.span("failscope.compare", "compare", || {
            failscope::render_comparison_threaded(&year_a.log, &log_b, threads)
        });
        ensure(!compared.is_empty(), "render_comparison_threaded")?;
        let scratch = dir.file("traced.fsidx");
        snapshot_bytes = t
            .span("failindex.save", "index", || {
                failindex::save(&scratch, &view, source)
            })
            .map_err(|e| e.to_string())?;

        // One small cached query: in-process, over the wire, and the
        // wire codec pieces on their own.
        let out = t.span("failapi.execute_hit_small", "server", || {
            repeat(BATCH, || engine_small.execute(&small_req))
        });
        tally.record(
            out.map_err(|e| e.to_string())
                .and_then(|o| reference::check_stdout(&o.output, &small_ref)),
        );
        let small_source = t.span("failindex.fingerprint_small", "server", || {
            repeat(BATCH, || {
                std::fs::read(small).map(|raw| failindex::SourceInfo::of_bytes(&raw))
            })
        });
        small_source.map_err(|e| e.to_string())?;
        let (_, parsed) = t.span("failapi.wire_parse_request", "server", || {
            repeat(BATCH, || failapi::wire::parse_request(&small_line))
        });
        ensure(parsed.is_ok(), "parse_request")?;
        let encoded = t.span("failapi.wire_encode_ok", "server", || {
            repeat(BATCH, || {
                failapi::wire::encode_ok(1, "report", true, std::hint::black_box(&small_ref))
            })
        });
        ensure(encoded == ok_line, "encode_ok")?;
        let decoded_reply = t.span("failapi.wire_parse_response", "server", || {
            repeat(BATCH, || failapi::wire::parse_response(&ok_line))
        });
        ensure(
            decoded_reply.is_ok_and(|r| r.output == small_ref),
            "parse_response",
        )?;
        let pong = t.span("failserver.ping_rtt", "server", || {
            repeat(BATCH, || conn.roundtrip(&ping_line))
        });
        tally.record(
            pong.map_err(|e| e.to_string())
                .and_then(|r| ensure(r.output == "pong\n", "ping")),
        );
        let hit = t.span("failserver.hit_rtt", "server", || {
            repeat(BATCH, || conn.roundtrip(&small_line))
        });
        tally.record(hit.map_err(|e| e.to_string()).and_then(|r| {
            ensure(r.cached, "cached small query")?;
            reference::check_stdout(&r.output, &small_ref)
        }));

        // The watch path: the whole replay, then its pieces.
        let mut sink = Vec::new();
        let ran = t.span("failwatch.run", "watch", || {
            failapi::watch::run(&WatchRequest::new(year_a.gz.as_str()), &mut sink)
        });
        tally
            .record(ran.map_err(|e| e.to_string()).and_then(|_| {
                reference::check_stdout(&String::from_utf8_lossy(&sink), &watch_ref)
            }));
        let inflated = t.span("faillog.inflate", "watch", || {
            faillog::gzip_decompress(&gz_raw)
        })?;
        ensure(inflated.len() == year_a.text.len(), "gzip_decompress")?;
        replay_steps(&mut t, &year_a.log, threads)?;

        // The CLI floor and the cold report as a process.
        let floor = t.span("failctl.process_floor", "cli", || {
            repeat(FLOOR_BATCH, || failctl.run(&floor_args))
        });
        tally.record(floor.and_then(|(_, out)| reference::check_stdout(&out, &small_ref)));
        let cold = t.span("failctl.report_cold", "cli", || failctl.run(&cold_args));
        tally.record(cold.and_then(|(_, out)| reference::check_stdout(&out, &cold_ref)));
        reps += 1;
    }
    let wall_ns = t.ns();
    drop(conn);
    faild.shutdown()?;

    let mut metrics = Vec::new();
    for &(name, unit, calls) in MEASURED {
        let span = name.rsplit_once('_').map_or(name, |(base, _)| base);
        let per_ns = if unit == "us" { 1e3 } else { 1e6 };
        let per_rep: Vec<f64> = (0..reps)
            .map(|rep| t.self_ns(span, rep) as f64 / per_ns / f64::from(calls))
            .collect();
        metrics.push(Metric::new(name, unit, stats::median(&per_rep), reps));
    }
    let value = |metrics: &[Metric], name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut table = String::new();
    for &(residual, total, layers) in PATHS {
        let whole = value(&metrics, total);
        let parts: f64 = layers.iter().map(|l| value(&metrics, l)).sum();
        let _ = writeln!(table, "path {total} = {whole:.3}");
        for layer in layers {
            let _ = writeln!(table, "  {layer:<36} {:>10.3}", value(&metrics, layer));
        }
        let _ = writeln!(table, "  {residual:<36} {:>10.3}", whole - parts);
        metrics.push(Metric::new(
            residual,
            if residual.ends_with("_us") {
                "us"
            } else {
                "ms"
            },
            whole - parts,
            reps,
        ));
    }
    print!("{table}");
    metrics.push(Metric::new(
        "failfilter.kept_ratio",
        "ratio",
        stats::median(&kept_ratio),
        reps,
    ));
    metrics.push(Metric::new(
        "failindex.snapshot_bytes",
        "bytes",
        snapshot_bytes as f64,
        reps,
    ));
    let overhead = span_cost_ns() * t.spans.len() as f64 / wall_ns as f64 * 100.0;
    metrics.push(Metric::new(
        "loadbench.span_overhead_pct",
        "%",
        overhead,
        t.spans.len(),
    ));
    if let Some(path) = spans_out {
        std::fs::write(path, t.ndjson()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("info: wrote {} spans to {path}", t.spans.len());
    }
    Ok(Outcome { tally, metrics })
}

/// A watch replay's ingest and summary work, step by step as
/// `failctl watch` does it: ingest one refresh period of records, then
/// render the summary.
fn replay_steps(t: &mut Tracer, log: &failtypes::FailureLog, threads: usize) -> Res<()> {
    let mut state = WatchState::for_log(log, StateConfig::default());
    t.enter("failwatch.replay", "watch");
    for chunk in log.records().chunks(REFRESH) {
        let batch = chunk.to_vec();
        t.span("failwatch.ingest", "watch", || state.ingest_batch(batch))
            .map_err(|e| e.to_string())?;
        let summary = t.span("failwatch.summary", "watch", || {
            state.materialize();
            failwatch::render_summary(&state, threads)
        });
        std::hint::black_box(summary);
    }
    t.exit();
    Ok(())
}

/// The span name of one analysis section's render metric.
fn section_span(id: &str) -> &'static str {
    MEASURED
        .iter()
        .find_map(|(name, _, _)| {
            let span = name.strip_suffix("_ms")?;
            (span.strip_prefix("failscope.render.")? == id).then_some(span)
        })
        .expect("every analysis section has a render metric")
}

/// The cost of recording one span, in ns.
fn span_cost_ns() -> f64 {
    const N: u32 = 10_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", "calibrate", || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}
