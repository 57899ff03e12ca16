//! Regenerates the paper's tables and figures and prints paper-vs-measured
//! comparisons.
//!
//! Usage:
//!
//! ```sh
//! cargo run -p failbench --bin repro -- all             # every experiment
//! cargo run -p failbench --bin repro -- fig6 fig9       # specific ones
//! cargo run -p failbench --bin repro -- ablations       # design ablations
//! cargo run -p failbench --bin repro -- list            # list ids (runs nothing)
//! cargo run -p failbench --bin repro -- all --threads 4 # bounded worker pool
//! cargo run -p failbench --bin repro -- bench           # serial-vs-parallel timing
//! ```
//!
//! Experiments run on a worker pool (default: all host cores; bound it
//! with `--threads N`). Results are collected in declaration order and
//! every log comes from the shared, seeded
//! [`LogStore`], so the output is byte-identical
//! to a serial run at any thread count.
//!
//! `bench` times a cold serial pass against a cold parallel pass over
//! the full catalog, verifies the outputs match byte for byte, and
//! writes `BENCH_pipeline.json` (override the path with `--json PATH`).
//!
//! Exits non-zero when any requested experiment fails its checks.

use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use failapi::{wire, OutputFormat, QueryEngine, QueryRequest, QuerySource};
use failbench::experiments;
use failbench::runner::{self, CatalogEntry};
use failbench::LogStore;
use failscope::{SectionCtx, StreamView};
use failserver::client::Connection;
use failserver::{Endpoint, ServerConfig};
use failsim::{Simulator, SystemModel};
use failtrace::Collector;
use failtypes::JsonValue;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut threads = 0usize; // 0 = host parallelism
    let mut json_path = String::from("BENCH_pipeline.json");
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => usage("--threads needs a positive integer"),
            },
            "--json" => match iter.next() {
                Some(path) => json_path = path.clone(),
                None => usage("--json needs a path"),
            },
            "--help" | "-h" => usage(""),
            _ => args.push(arg.clone()),
        }
    }
    if args.is_empty() {
        usage("no experiments requested");
    }
    if threads > 0 {
        runner::set_threads(threads);
    }

    let catalog = experiments::catalog();
    if args.iter().any(|a| a == "list") {
        for (id, _) in &catalog {
            println!("{id}");
        }
        return;
    }
    if args.iter().any(|a| a == "bench") {
        bench(&catalog, &json_path);
        return;
    }

    let mut selected: Vec<CatalogEntry> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => selected.extend(&catalog),
            "ablations" => {
                selected.extend(catalog.iter().filter(|e| e.0.starts_with("ablate_")));
            }
            "extensions" => {
                selected.extend(catalog.iter().filter(|e| e.0.starts_with("ext_")));
            }
            id => match catalog.iter().find(|e| e.0 == id) {
                Some(entry) => selected.push(*entry),
                None => {
                    eprintln!("unknown experiment `{id}`; try `repro list`");
                    std::process::exit(2);
                }
            },
        }
    }
    let mut seen = Vec::new();
    selected.retain(|(id, _)| {
        let fresh = !seen.contains(id);
        seen.push(*id);
        fresh
    });

    let results = runner::run_catalog(&selected);
    let mut failed = 0;
    for exp in &results {
        println!("{}", exp.render());
        if !exp.passes() {
            failed += 1;
        }
    }
    println!(
        "{} of {} experiments reproduced",
        results.len() - failed,
        results.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Times a cold serial pass vs. a cold parallel pass over the whole
/// catalog and records the comparison as JSON.
fn bench(catalog: &[CatalogEntry], json_path: &str) {
    let store = LogStore::global();
    let threads = runner::threads();

    store.clear();
    let start = Instant::now();
    let serial = runner::run_catalog_with(catalog, 1);
    let serial_seconds = start.elapsed().as_secs_f64();
    let serial_sims = store.simulations();

    store.clear();
    let start = Instant::now();
    let parallel = runner::run_catalog_with(catalog, threads);
    let parallel_seconds = start.elapsed().as_secs_f64();

    let identical = serial.len() == parallel.len()
        && serial
            .iter()
            .zip(&parallel)
            .all(|(s, p)| s.render() == p.render());
    let speedup = serial_seconds / parallel_seconds.max(f64::MIN_POSITIVE);

    println!("pipeline bench: {} experiments", catalog.len());
    println!("  logs simulated per pass: {serial_sims} (exactly once each)");
    println!("  serial   (1 thread):  {serial_seconds:.3} s");
    println!("  parallel ({threads} threads): {parallel_seconds:.3} s");
    println!("  speedup: {speedup:.2}x, outputs identical: {identical}");

    // Per-section render timings over the canonical Tsubame-2 log,
    // driven by the same registry the report pipeline dispatches on. The
    // whole pass runs under a trace collector, whose timed export is
    // folded into the JSON artifact below.
    let collector = Collector::new();
    let section_log = Simulator::new(SystemModel::tsubame2(), 42)
        .generate_traced(Some(&collector))
        .expect("calibrated model simulates");
    let view = StreamView::new(&section_log);
    view.trace_index(&collector);
    let ctx = SectionCtx::with_trace(&view, &collector);
    let mut section_rows = Vec::new();
    println!("  per-section render (best of 5, canonical T2):");
    for section in failscope::SECTIONS {
        let text_seconds = best_of(5, || {
            std::hint::black_box((section.text)(&ctx));
        });
        let json_seconds = best_of(5, || {
            std::hint::black_box((section.json)(&ctx).render());
        });
        println!(
            "    {:<12} text {:>8.1} us | json {:>8.1} us",
            section.id,
            text_seconds * 1e6,
            json_seconds * 1e6
        );
        section_rows.push(
            JsonValue::object()
                .field("id", section.id)
                .field("text_seconds", text_seconds)
                .field("json_seconds", json_seconds)
                .build(),
        );
    }

    // Parse-path bench: serialize a ~110k-record synthetic year once,
    // then time the serial chunked parser, the parallel chunked parser,
    // and the transparent-gzip ingest path over the same bytes. The
    // parallel output is verified byte-identical to serial before any
    // rate is reported; `parse_records_per_second` (the parallel plain-
    // text rate) is the figure scripts/verify.sh gates on.
    const PARSE_REPS: usize = 5;
    let parse_log = {
        let model = failsim::ScenarioBuilder::new("bench-scale")
            .nodes(1408)
            .gpus_per_node(4)
            .system_mtbf_hours(0.08)
            .window_days(365)
            .build()
            .expect("scaled scenario parameters are valid");
        Simulator::new(model, 42)
            .generate()
            .expect("scaled scenario simulates")
    };
    let parse_records = parse_log.len();
    let parse_text = faillog::to_string(&parse_log).expect("serializes");
    let parse_gzip = faillog::gzip_compress(parse_text.as_bytes());
    let serial_opts = faillog::ParseOptions::serial();
    let parallel_opts = faillog::ParseOptions::default();
    let serial_reparse = faillog::from_str_with(&parse_text, &serial_opts).expect("parses");
    let parallel_reparse = faillog::from_str_with(&parse_text, &parallel_opts).expect("parses");
    let parse_identical = faillog::to_string(&serial_reparse).expect("serializes")
        == faillog::to_string(&parallel_reparse).expect("serializes");
    drop((serial_reparse, parallel_reparse));
    let parse_serial_seconds = best_of(PARSE_REPS, || {
        std::hint::black_box(faillog::from_str_with(&parse_text, &serial_opts).expect("parses"));
    });
    let parse_parallel_seconds = best_of(PARSE_REPS, || {
        std::hint::black_box(faillog::from_str_with(&parse_text, &parallel_opts).expect("parses"));
    });
    let parse_gzip_seconds = best_of(PARSE_REPS, || {
        let inflated = faillog::gzip_decompress(&parse_gzip).expect("inflates");
        let text = String::from_utf8(inflated).expect("log text is UTF-8");
        std::hint::black_box(faillog::from_str_with(&text, &parallel_opts).expect("parses"));
    });
    let parse_serial_rate = parse_records as f64 / parse_serial_seconds.max(f64::MIN_POSITIVE);
    let parse_parallel_rate =
        parse_records as f64 / parse_parallel_seconds.max(f64::MIN_POSITIVE);
    let parse_gzip_rate = parse_records as f64 / parse_gzip_seconds.max(f64::MIN_POSITIVE);
    let parse_speedup = parse_serial_seconds / parse_parallel_seconds.max(f64::MIN_POSITIVE);
    println!(
        "  parse bench: {parse_records} records ({} bytes plain, {} gzip)",
        parse_text.len(),
        parse_gzip.len()
    );
    println!(
        "    serial   (1 thread):  {:.1} ms | {:.0} rec/s",
        parse_serial_seconds * 1e3,
        parse_serial_rate
    );
    println!(
        "    parallel ({} threads): {:.1} ms | {:.0} rec/s | speedup {parse_speedup:.2}x",
        parallel_opts.threads,
        parse_parallel_seconds * 1e3,
        parse_parallel_rate
    );
    println!(
        "    gzip     ({} threads): {:.1} ms | {:.0} rec/s | identical: {parse_identical}",
        parallel_opts.threads,
        parse_gzip_seconds * 1e3,
        parse_gzip_rate
    );
    let parse_json = JsonValue::object()
        .field("records", parse_records)
        .field("bytes", parse_text.len())
        .field("gzip_bytes", parse_gzip.len())
        .field("threads", parallel_opts.threads)
        .field("serial_seconds", parse_serial_seconds)
        .field("parallel_seconds", parse_parallel_seconds)
        .field("gzip_seconds", parse_gzip_seconds)
        .field("serial_records_per_second", parse_serial_rate as u64)
        .field("parallel_records_per_second", parse_parallel_rate as u64)
        .field("gzip_records_per_second", parse_gzip_rate as u64)
        .field("speedup", parse_speedup)
        .field("identical_output", parse_identical)
        .build();

    // Filter-pushdown bench: the same scaled year parsed with a
    // representative predicate pushed into the chunked parser. The
    // filtered parse is verified identical to the post-hoc filter of an
    // unfiltered parse before any rate is reported;
    // `filter_records_per_second` (input records the filtered parser
    // consumes per second) is the figure scripts/verify.sh gates on —
    // the pushdown must stay within 15% of plain parse throughput.
    const FILTER_EXPR: &str = "category == gpu && ttr > 24";
    let filter_pred = failfilter::compile(FILTER_EXPR).expect("bench predicate compiles");
    let filter_opts = faillog::ParseOptions::default().filter(filter_pred.clone());
    let filtered_parse = faillog::from_str_with(&parse_text, &filter_opts).expect("parses");
    let filter_kept = filtered_parse.len();
    let filter_identical = {
        let full = faillog::from_str_with(&parse_text, &parallel_opts).expect("parses");
        let (spec, window) = (full.spec().clone(), full.window());
        filtered_parse == full.filtered(|r| filter_pred.matches(r, &spec, window))
    };
    drop(filtered_parse);
    let filter_seconds = best_of(PARSE_REPS, || {
        std::hint::black_box(faillog::from_str_with(&parse_text, &filter_opts).expect("parses"));
    });
    let filter_rate = parse_records as f64 / filter_seconds.max(f64::MIN_POSITIVE);
    let filter_overhead = filter_seconds / parse_parallel_seconds.max(f64::MIN_POSITIVE);
    println!(
        "  filter bench: `{FILTER_EXPR}` kept {filter_kept} of {parse_records} records"
    );
    println!(
        "    filtered ({} threads): {:.1} ms | {:.0} rec/s | {:.2}x unfiltered | identical: {filter_identical}",
        parallel_opts.threads,
        filter_seconds * 1e3,
        filter_rate,
        filter_overhead
    );
    let filter_json = JsonValue::object()
        .field("expression", FILTER_EXPR)
        .field("records_in", parse_records)
        .field("records_kept", filter_kept)
        .field("threads", parallel_opts.threads)
        .field("filtered_seconds", filter_seconds)
        .field("unfiltered_seconds", parse_parallel_seconds)
        .field("filtered_records_per_second", filter_rate as u64)
        .field("overhead", filter_overhead)
        .field("identical_output", filter_identical)
        .build();

    // Snapshot-path bench: persist the same scaled year's index as a
    // `.fsidx` snapshot, then time the cold path (parse + build the
    // index) against the warm path (validate + decode the snapshot),
    // and the same comparison end-to-end through the nine analysis
    // sections. Warm output is verified byte-identical to cold before
    // any speedup is reported; the render stage is shared by both
    // sides, so the load-stage speedup is what `.fsidx` actually buys
    // (and what scripts/verify.sh gates on).
    const ANALYSIS_SECTIONS: &str =
        "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";
    let idx_dir = std::env::temp_dir().join("failbench-index-bench");
    std::fs::create_dir_all(&idx_dir).expect("temp dir");
    let idx_path = idx_dir.join("year.fslog");
    std::fs::write(&idx_path, &parse_text).expect("writes bench log");
    let parse_view = StreamView::from(parse_log);
    let snapshot_bytes = failindex::save(
        failindex::snapshot_path(&idx_path),
        &parse_view,
        failindex::SourceInfo::of_bytes(parse_text.as_bytes()),
    )
    .expect("saves snapshot");
    let idx_sections = failscope::select_sections(ANALYSIS_SECTIONS).expect("valid sections");
    let open_warm = || match failindex::open_indexed(&idx_path, None).expect("opens") {
        failindex::IndexedLoad::Exact(snap) => snap,
        other => panic!("bench snapshot must hit exactly, got {other:?}"),
    };
    let cold_render =
        failscope::render_text_sections(&idx_sections, &SectionCtx::new(&parse_view), threads);
    drop(parse_view);
    let warm_render = {
        let snap = open_warm();
        failscope::render_text_sections(&idx_sections, &SectionCtx::new(snap.view()), threads)
    };
    let index_identical = warm_render == cold_render;
    let cold_load_seconds = best_of(PARSE_REPS, || {
        let log = faillog::load(&idx_path).expect("parses");
        std::hint::black_box(StreamView::from(log));
    });
    let warm_load_seconds = best_of(PARSE_REPS, || {
        std::hint::black_box(open_warm());
    });
    let cold_report_seconds = best_of(PARSE_REPS, || {
        let view = StreamView::from(faillog::load(&idx_path).expect("parses"));
        std::hint::black_box(failscope::render_text_sections(
            &idx_sections,
            &SectionCtx::new(&view),
            threads,
        ));
    });
    let warm_report_seconds = best_of(PARSE_REPS, || {
        let snap = open_warm();
        std::hint::black_box(failscope::render_text_sections(
            &idx_sections,
            &SectionCtx::new(snap.view()),
            threads,
        ));
    });
    std::fs::remove_dir_all(&idx_dir).ok();
    let index_load_speedup = cold_load_seconds / warm_load_seconds.max(f64::MIN_POSITIVE);
    let index_report_speedup = cold_report_seconds / warm_report_seconds.max(f64::MIN_POSITIVE);
    println!(
        "  index bench: {parse_records} records ({} bytes log, {snapshot_bytes} bytes .fsidx)",
        parse_text.len()
    );
    println!(
        "    load   cold {:.1} ms | warm {:.1} ms | speedup {index_load_speedup:.2}x",
        cold_load_seconds * 1e3,
        warm_load_seconds * 1e3
    );
    println!(
        "    report cold {:.1} ms | warm {:.1} ms | speedup {index_report_speedup:.2}x | identical: {index_identical}",
        cold_report_seconds * 1e3,
        warm_report_seconds * 1e3
    );
    let index_json = JsonValue::object()
        .field("records", parse_records)
        .field("log_bytes", parse_text.len())
        .field("snapshot_bytes", snapshot_bytes)
        .field("threads", threads)
        .field("cold_load_seconds", cold_load_seconds)
        .field("warm_load_seconds", warm_load_seconds)
        .field("load_speedup", index_load_speedup)
        .field("cold_report_seconds", cold_report_seconds)
        .field("warm_report_seconds", warm_report_seconds)
        .field("report_speedup", index_report_speedup)
        .field("identical_output", index_identical)
        .build();

    // Query-server bench: start `faild` in-process on a loopback TCP
    // socket, replay a mixed report/compare workload from four
    // concurrent clients, and check every response byte-identical to
    // the local `failapi` path (the path the CLI itself routes
    // through), cold and warm. `server_queries_per_second` (the warm
    // concurrent rate) is the figure scripts/verify.sh gates on; the
    // graceful shutdown must persist a `.fsidx` snapshot for each log
    // the server cold-parsed.
    const SERVER_CLIENTS: usize = 4;
    const SERVER_WARM_QUERIES_PER_CLIENT: usize = 64;
    let srv_dir = std::env::temp_dir().join("failbench-server-bench");
    std::fs::create_dir_all(&srv_dir).expect("temp dir");
    let srv_t2 = srv_dir.join("tsubame2.fslog");
    let srv_t3 = srv_dir.join("tsubame3.fslog");
    let t3_log = Simulator::new(SystemModel::tsubame3(), 42)
        .generate()
        .expect("calibrated model simulates");
    faillog::save(srv_t2.to_str().expect("utf-8 path"), &section_log).expect("writes bench log");
    faillog::save(srv_t3.to_str().expect("utf-8 path"), &t3_log).expect("writes bench log");
    let server_records = section_log.len() + t3_log.len();
    let srv_requests: Vec<QueryRequest> = vec![
        QueryRequest::report(QuerySource::file(srv_t2.to_str().expect("utf-8 path")))
            .sections(ANALYSIS_SECTIONS),
        QueryRequest::report(QuerySource::file(srv_t3.to_str().expect("utf-8 path")))
            .sections(ANALYSIS_SECTIONS)
            .format(OutputFormat::Json),
        QueryRequest::report(QuerySource::file(srv_t2.to_str().expect("utf-8 path")))
            .sections("tbf,ttr")
            .where_expr("category == gpu && ttr > 24"),
        QueryRequest::compare(
            srv_t2.to_str().expect("utf-8 path"),
            srv_t3.to_str().expect("utf-8 path"),
        ),
    ];
    let srv_expected: Vec<String> = srv_requests
        .iter()
        .map(|req| QueryEngine::new().execute(req).expect("local query").output)
        .collect();

    let (srv_tx, srv_rx) = mpsc::channel();
    let srv_handle = thread::spawn(move || {
        failserver::serve(
            ServerConfig {
                endpoint: Endpoint::tcp("127.0.0.1:0"),
                max_inflight: SERVER_CLIENTS,
            },
            move |bound| {
                srv_tx.send(bound.clone()).expect("report bound endpoint");
            },
        )
    });
    let srv_bound = srv_rx.recv().expect("server binds");

    let mut server_identical = true;
    let cold_start = Instant::now();
    {
        let mut conn = Connection::connect(&srv_bound).expect("connects");
        for (i, req) in srv_requests.iter().enumerate() {
            let resp = conn
                .roundtrip(&wire::encode_query(i as u64, req))
                .expect("cold roundtrip");
            server_identical &= resp.output == srv_expected[i];
        }
    }
    let server_cold_seconds = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    thread::scope(|s| {
        let clients: Vec<_> = (0..SERVER_CLIENTS)
            .map(|client| {
                let (bound, requests, expected) = (&srv_bound, &srv_requests, &srv_expected);
                s.spawn(move || {
                    let mut conn = Connection::connect(bound).expect("connects");
                    let mut identical = true;
                    // Stagger the walk so the four clients hit
                    // different requests at the same moment.
                    for step in 0..SERVER_WARM_QUERIES_PER_CLIENT {
                        let i = (step + client) % requests.len();
                        let resp = conn
                            .roundtrip(&wire::encode_query(i as u64, &requests[i]))
                            .expect("warm roundtrip");
                        identical &= resp.output == expected[i];
                    }
                    identical
                })
            })
            .collect();
        for client in clients {
            server_identical &= client.join().expect("client thread");
        }
    });
    let server_warm_seconds = warm_start.elapsed().as_secs_f64();
    let server_warm_queries = SERVER_CLIENTS * SERVER_WARM_QUERIES_PER_CLIENT;
    let server_rate = server_warm_queries as f64 / server_warm_seconds.max(f64::MIN_POSITIVE);

    // Connection-scaling tier: 64 concurrently-open connections each
    // replaying warm queries. The reactor multiplexes every socket on
    // one event-loop thread, so the open-connection count should move
    // per-query latency (queueing) but not correctness or collapse
    // throughput; p50/p99 per-query latency make the queueing visible.
    const SCALE_CLIENTS: usize = 64;
    const SCALE_QUERIES_PER_CLIENT: usize = 8;
    let scale_start = Instant::now();
    let mut scale_latencies: Vec<f64> = thread::scope(|s| {
        let clients: Vec<_> = (0..SCALE_CLIENTS)
            .map(|client| {
                let (bound, requests, expected) = (&srv_bound, &srv_requests, &srv_expected);
                s.spawn(move || {
                    let mut conn = Connection::connect(bound).expect("connects");
                    let mut latencies = Vec::with_capacity(SCALE_QUERIES_PER_CLIENT);
                    let mut identical = true;
                    for step in 0..SCALE_QUERIES_PER_CLIENT {
                        let i = (step + client) % requests.len();
                        let one = Instant::now();
                        let resp = conn
                            .roundtrip(&wire::encode_query(i as u64, &requests[i]))
                            .expect("scaled roundtrip");
                        latencies.push(one.elapsed().as_secs_f64());
                        identical &= resp.output == expected[i];
                    }
                    (latencies, identical)
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| {
                let (latencies, identical) = client.join().expect("scaled client thread");
                server_identical &= identical;
                latencies
            })
            .collect()
    });
    let scale_seconds = scale_start.elapsed().as_secs_f64();
    let scale_queries = SCALE_CLIENTS * SCALE_QUERIES_PER_CLIENT;
    let scale_rate = scale_queries as f64 / scale_seconds.max(f64::MIN_POSITIVE);
    scale_latencies.sort_by(|a, b| a.total_cmp(b));
    let percentile = |q: f64| -> f64 {
        let idx = ((scale_latencies.len() - 1) as f64 * q).round() as usize;
        scale_latencies[idx]
    };
    let (scale_p50, scale_p99) = (percentile(0.50), percentile(0.99));

    {
        let mut conn = Connection::connect(&srv_bound).expect("connects");
        conn.roundtrip(&wire::encode_simple(0, "shutdown"))
            .expect("shutdown roundtrip");
    }
    let server_snapshots = srv_handle
        .join()
        .expect("server thread")
        .expect("server shuts down cleanly")
        .snapshots_persisted;
    std::fs::remove_dir_all(&srv_dir).ok();
    println!(
        "  server bench: {SERVER_CLIENTS} clients x {SERVER_WARM_QUERIES_PER_CLIENT} warm queries over 2 logs ({server_records} records)"
    );
    println!(
        "    cold {:.1} ms ({} queries) | warm {:.1} ms | {:.0} queries/s | snapshots persisted: {server_snapshots} | identical: {server_identical}",
        server_cold_seconds * 1e3,
        srv_requests.len(),
        server_warm_seconds * 1e3,
        server_rate
    );
    println!(
        "    scaled: {SCALE_CLIENTS} connections x {SCALE_QUERIES_PER_CLIENT} warm queries | {:.0} queries/s | p50 {:.2} ms | p99 {:.2} ms",
        scale_rate,
        scale_p50 * 1e3,
        scale_p99 * 1e3
    );
    let server_json = JsonValue::object()
        .field("logs", 2u64)
        .field("records", server_records)
        .field("clients", SERVER_CLIENTS)
        .field("cold_queries", srv_requests.len())
        .field("warm_queries", server_warm_queries)
        .field("cold_seconds", server_cold_seconds)
        .field("warm_seconds", server_warm_seconds)
        .field("queries_per_second", server_rate as u64)
        .field("scale_connections", SCALE_CLIENTS)
        .field("scale_queries", scale_queries)
        .field("scale_seconds", scale_seconds)
        .field("scale_queries_per_second", scale_rate as u64)
        .field("scale_p50_ms", scale_p50 * 1e3)
        .field("scale_p99_ms", scale_p99 * 1e3)
        .field("snapshots_persisted", server_snapshots)
        .field("identical_output", server_identical)
        .build();

    let mut json = JsonValue::object()
        .field("experiments", catalog.len())
        // The serial pass always runs on 1 thread and the parallel pass
        // on `parallel_threads` workers; `detected_cores` is what the
        // host reports, so a ~1x speedup on a 1-core machine is
        // self-explanatory in the artifact.
        .field("detected_cores", failstats::available_threads())
        .field("serial_threads", 1)
        .field("parallel_threads", threads)
        .field("logs_simulated", serial_sims)
        .field("serial_seconds", serial_seconds)
        .field("parallel_seconds", parallel_seconds)
        .field("speedup", speedup)
        .field("identical_output", identical)
        .field("parse", parse_json)
        .field("parse_records_per_second", parse_parallel_rate as u64)
        .field("filter", filter_json)
        .field("filter_records_per_second", filter_rate as u64)
        .field("index", index_json)
        .field("index_load_speedup_x100", (index_load_speedup * 100.0) as u64)
        .field("index_report_speedup_x100", (index_report_speedup * 100.0) as u64)
        .field("server", server_json)
        .field("server_queries_per_second", server_rate as u64)
        .field("server_scaled_queries_per_second", scale_rate as u64)
        .field("sections", JsonValue::Array(section_rows))
        .field("trace", collector.to_json(true))
        .build()
        .render();
    json.push('\n');
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("  wrote {json_path}"),
        Err(err) => {
            eprintln!("failed to write {json_path}: {err}");
            std::process::exit(1);
        }
    }
    if !identical {
        eprintln!("parallel output diverged from serial");
        std::process::exit(1);
    }
    if !parse_identical {
        eprintln!("parallel parse diverged from serial");
        std::process::exit(1);
    }
    if !filter_identical {
        eprintln!("filtered parse diverged from the post-hoc filter");
        std::process::exit(1);
    }
    if !index_identical {
        eprintln!("warm snapshot report diverged from the cold parse");
        std::process::exit(1);
    }
    if !server_identical {
        eprintln!("server responses diverged from the local query path");
        std::process::exit(1);
    }
    if server_snapshots != 2 {
        eprintln!("server shutdown persisted {server_snapshots} snapshots, expected 2");
        std::process::exit(1);
    }
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: repro [--threads N] [--json PATH] \
         [all | ablations | extensions | list | bench | <id>...]"
    );
    eprintln!(
        "ids: {}",
        experiments::catalog()
            .iter()
            .map(|e| e.0)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}
