//! End-to-end tests for `faild`, the query server: concurrent clients
//! get byte-identical output to the local `failapi` path (which is the
//! CLI path), the render cache invalidates when a log grows, malformed
//! requests come back as typed error envelopes, and a graceful shutdown
//! persists `.fsidx` snapshots for every log the server cold-parsed.

use std::sync::mpsc;
use std::thread;

use failapi::{wire, OutputFormat, QueryEngine, QueryRequest, QuerySource, WatchRequest};
use failserver::client::Connection;
use failserver::{Endpoint, ServeSummary, ServerConfig};
use failsim::{Simulator, SystemModel};
use failtypes::Result;

const ANALYSIS: &str =
    "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failsuite-server");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write_log(name: &str, model: SystemModel) -> String {
    let path = temp_path(name);
    let log = Simulator::new(model, 42).generate().expect("simulates");
    faillog::save(path.to_str().unwrap(), &log).expect("saves");
    path.to_str().unwrap().to_string()
}

/// Starts `faild` on a fresh endpoint in a background thread and
/// returns the bound endpoint plus the join handle for its summary.
fn start_server(
    endpoint: Endpoint,
    max_inflight: usize,
) -> (Endpoint, thread::JoinHandle<Result<ServeSummary>>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        failserver::serve(
            ServerConfig {
                endpoint,
                max_inflight,
            },
            move |bound| {
                tx.send(bound.clone()).expect("report bound endpoint");
            },
        )
    });
    let bound = rx.recv().expect("server binds");
    (bound, handle)
}

/// What the CLI would print for this request: the same
/// `failapi::QueryEngine` path `failctl report`/`compare` route
/// through, executed cold in-process.
fn local(req: &QueryRequest) -> String {
    QueryEngine::new().execute(req).expect("local query").output
}

#[test]
fn concurrent_clients_get_cli_identical_output_warm_and_cold() {
    let t2 = write_log("fleet-t2.fslog", SystemModel::tsubame2());
    let t3 = write_log("fleet-t3.fslog", SystemModel::tsubame3());
    let (bound, handle) = start_server(Endpoint::tcp("127.0.0.1:0"), 4);

    // A mixed workload over both canonical seed logs, every --threads
    // value 1..=4, text and JSON, filtered and not. The expected bytes
    // come from the local engine — i.e. the CLI's own execution path.
    let mut requests: Vec<QueryRequest> = Vec::new();
    for threads in 1..=4 {
        requests.push(
            QueryRequest::report(QuerySource::file(&t2))
                .sections(ANALYSIS)
                .threads(threads),
        );
        requests.push(
            QueryRequest::report(QuerySource::file(&t3))
                .sections(ANALYSIS)
                .format(OutputFormat::Json)
                .threads(threads),
        );
        requests.push(
            QueryRequest::report(QuerySource::file(&t2))
                .sections("tbf,ttr")
                .where_expr("category == gpu && ttr > 24")
                .threads(threads),
        );
        requests.push(QueryRequest::compare(&t2, &t3).threads(threads));
        requests.push(
            QueryRequest::report(QuerySource::model("tsubame2", 42))
                .sections(ANALYSIS)
                .threads(threads),
        );
    }
    let expected: Vec<String> = requests.iter().map(local).collect();

    thread::scope(|s| {
        for client in 0..4 {
            let (bound, requests, expected) = (&bound, &requests, &expected);
            s.spawn(move || {
                let mut conn = Connection::connect(bound).expect("connects");
                // Stagger the walk so the four clients hit different
                // requests at the same moment (cold and warm mixed).
                for step in 0..requests.len() {
                    let i = (step + client * 7) % requests.len();
                    let line = wire::encode_query(i as u64, &requests[i]);
                    let resp = conn.roundtrip(&line).expect("roundtrips");
                    assert_eq!(resp.id, i as u64);
                    assert_eq!(
                        resp.output, expected[i],
                        "client {client} request {i} must match the CLI byte-for-byte"
                    );
                }
            });
        }
    });

    // Warm repeat: the identical request is answered from the render
    // cache, still byte-identical.
    let mut conn = Connection::connect(&bound).expect("connects");
    let line = wire::encode_query(99, &requests[0]);
    let warm = conn.roundtrip(&line).expect("roundtrips");
    assert!(warm.cached, "repeat of a served query must be a cache hit");
    assert_eq!(warm.output, expected[0]);
    // A different thread count is the same query: determinism says the
    // bytes cannot differ, so the cache key ignores it.
    let line = wire::encode_query(100, &requests[0].clone().threads(3));
    let warm3 = conn.roundtrip(&line).expect("roundtrips");
    assert!(warm3.cached);
    assert_eq!(warm3.output, expected[0]);

    // Watch over the protocol: one buffered response, identical to the
    // local run, including the v1 header line.
    let mut watch = WatchRequest::new("sim:tsubame3");
    watch.max_records = Some("50".to_string());
    watch.format = OutputFormat::Json;
    let mut local_watch = Vec::new();
    failapi::watch::run(&watch, &mut local_watch).expect("local watch");
    let resp = conn
        .roundtrip(&wire::encode_watch(101, &watch))
        .expect("roundtrips");
    assert_eq!(resp.output, String::from_utf8(local_watch).unwrap());
    assert!(resp.output.starts_with("{\"v\":1,\"kind\":\"watch\"}\n"));

    // The live metrics export reflects the run and stays NDJSON.
    let resp = conn
        .roundtrip(&wire::encode_simple(102, "metrics"))
        .expect("roundtrips");
    assert!(resp.output.contains("cache.hits"), "{}", resp.output);
    assert!(resp.output.contains("server.requests"), "{}", resp.output);

    let resp = conn
        .roundtrip(&wire::encode_simple(103, "shutdown"))
        .expect("roundtrips");
    assert_eq!(resp.output, "faild: shutting down\n");
    let summary = handle.join().expect("joins").expect("serves");
    assert!(summary.connections >= 5, "{summary:?}");
    assert!(summary.requests >= requests.len() as u64, "{summary:?}");

    // Graceful shutdown persisted a snapshot for each cold-parsed,
    // unfiltered file log; both now serve warm.
    assert_eq!(summary.snapshots_persisted, 2, "{summary:?}");
    for path in [&t2, &t3] {
        assert!(
            matches!(failindex::probe(path).expect("probes"), failindex::Freshness::Exact),
            "{path} must have an exact snapshot after shutdown"
        );
        std::fs::remove_file(format!("{path}.fsidx")).expect("cleanup");
        std::fs::remove_file(path).expect("cleanup");
    }
}

#[test]
fn render_cache_invalidates_when_the_log_grows() {
    let path = temp_path("grow.fslog");
    let p = path.to_str().unwrap();
    let log = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("simulates");
    let text = faillog::to_string(&log).expect("serializes");
    let cut = text[..text.len() / 2].rfind('\n').expect("has lines") + 1;
    std::fs::write(&path, &text[..cut]).expect("write prefix");

    let socket = temp_path("grow.sock");
    let _ = std::fs::remove_file(&socket);
    let (bound, handle) = start_server(Endpoint::unix(&socket), 2);
    let mut conn = Connection::connect(&bound).expect("connects");

    let req = QueryRequest::report(QuerySource::file(p)).sections(ANALYSIS);
    let first = conn
        .roundtrip(&wire::encode_query(1, &req))
        .expect("roundtrips");
    assert!(!first.cached);
    assert_eq!(first.output, local(&req));
    let repeat = conn
        .roundtrip(&wire::encode_query(2, &req))
        .expect("roundtrips");
    assert!(repeat.cached, "unchanged log must be served from cache");
    assert_eq!(repeat.output, first.output);

    // Prefix-extend the log on disk: the fingerprint in the cache key
    // changes, so the server re-reads instead of serving stale bytes.
    std::fs::write(&path, &text).expect("write full");
    let grown = conn
        .roundtrip(&wire::encode_query(3, &req))
        .expect("roundtrips");
    assert!(!grown.cached, "growth must invalidate the render cache");
    assert_ne!(grown.output, first.output, "growth must change the report");
    assert_eq!(grown.output, local(&req), "regrown output must match a cold CLI run");

    let resp = conn
        .roundtrip(&wire::encode_simple(4, "shutdown"))
        .expect("roundtrips");
    assert_eq!(resp.output, "faild: shutting down\n");
    let summary = handle.join().expect("joins").expect("serves");
    assert_eq!(summary.snapshots_persisted, 1, "{summary:?}");
    assert!(
        matches!(failindex::probe(p).expect("probes"), failindex::Freshness::Exact),
        "the persisted snapshot must cover the grown log"
    );
    assert!(!socket.exists(), "unix socket must be removed on shutdown");

    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(format!("{p}.fsidx")).expect("cleanup");
}

#[test]
fn malformed_requests_come_back_as_typed_error_envelopes() {
    let (bound, handle) = start_server(Endpoint::tcp("127.0.0.1:0"), 2);
    let mut conn = Connection::connect(&bound).expect("connects");

    let args_cases = [
        ("this is not json", "request is not valid JSON"),
        ("[1,2,3]", "request must be a JSON object"),
        (r#"{"id":1,"cmd":"ping"}"#, "missing \"v\":1"),
        (
            r#"{"v":2,"id":1,"cmd":"ping"}"#,
            "unsupported protocol version 2 (this server speaks v1)",
        ),
        (r#"{"v":1,"cmd":"ping"}"#, "missing \"id\""),
        (r#"{"v":1,"id":1}"#, "missing \"cmd\""),
        (r#"{"v":1,"id":1,"cmd":"frobnicate"}"#, "unknown cmd \"frobnicate\""),
        (
            r#"{"v":1,"id":1,"cmd":"ping","extra":true}"#,
            "unknown field \"extra\" for cmd \"ping\"",
        ),
        (r#"{"v":1,"id":1,"cmd":"report"}"#, "report needs \"log\" or \"model\""),
        (
            r#"{"v":1,"id":1,"cmd":"report","log":"a","model":"tsubame2"}"#,
            "pass either \"log\" or \"model\", not both",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"compare","old":"a"}"#,
            "missing field \"new\"",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"report","log":"a","format":"yaml"}"#,
            "unknown --format `yaml`",
        ),
        // Every query parses at one chunk size; the retired knob is
        // rejected like any other unknown field.
        (
            r#"{"v":1,"id":1,"cmd":"report","log":"a","parse_chunk":64}"#,
            "unknown field \"parse_chunk\" for cmd \"report\"",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"compare","old":"a","new":"b","parse_chunk":64}"#,
            "unknown field \"parse_chunk\" for cmd \"compare\"",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"watch","source":"a.fslog","parse_chunk":"64"}"#,
            "unknown field \"parse_chunk\" for cmd \"watch\"",
        ),
        // Drift checks run at refresh ticks whatever the ingest
        // batching, so watch's retired batch size is unknown too.
        (
            r#"{"v":1,"id":1,"cmd":"watch","source":"a.fslog","chunk":"64"}"#,
            "unknown field \"chunk\" for cmd \"watch\"",
        ),
    ];
    for (line, want) in args_cases {
        let err = conn.roundtrip(line).expect_err("must be rejected");
        assert_eq!(err.kind(), "args", "{line}");
        assert!(err.to_string().contains(want), "{line} gave: {err}");
    }

    // Execution failures keep their own kind (not "args").
    let err = conn
        .roundtrip(r#"{"v":1,"id":1,"cmd":"report","log":"/no/such/file.fslog"}"#)
        .expect_err("must fail");
    assert_eq!(err.kind(), "run");
    assert!(err.to_string().contains("/no/such/file.fslog"), "{err}");
    let err = conn
        .roundtrip(r#"{"v":1,"id":1,"cmd":"report","model":"cray"}"#)
        .expect_err("must fail");
    assert!(err.to_string().contains("unknown model `cray`"), "{err}");

    // The connection survives every rejection.
    let resp = conn
        .roundtrip(&wire::encode_simple(50, "ping"))
        .expect("roundtrips");
    assert_eq!(resp.output, "pong\n");

    conn.roundtrip(&wire::encode_simple(51, "shutdown")).expect("shuts down");
    let summary = handle.join().expect("joins").expect("serves");
    assert_eq!(summary.snapshots_persisted, 0, "{summary:?}");
}

/// The v1 compat pin: the JSON report is exactly the version header
/// line plus the pre-existing `{id,title,data}` section rows, byte for
/// byte, so protocol consumers and pre-header consumers read the same
/// section bytes.
#[test]
fn json_v1_header_prefixes_unchanged_section_rows() {
    let p = write_log("compat.fslog", SystemModel::tsubame3());
    let req = QueryRequest::report(QuerySource::file(&p))
        .sections(ANALYSIS)
        .format(OutputFormat::Json)
        .threads(2);
    let out = local(&req);

    // Render the same sections directly with the pre-server renderer.
    let view = failscope::StreamView::from(faillog::load(&p).expect("loads"));
    let trace = failtrace::Collector::new();
    let sections = failscope::select_sections(ANALYSIS).expect("selects");
    let rows = failscope::render_json_sections(
        &sections,
        &failscope::SectionCtx::with_trace(&view, &trace),
        2,
    );

    let (header, body) = out.split_once('\n').expect("has header line");
    assert_eq!(header, r#"{"v":1,"kind":"report"}"#);
    assert_eq!(body, rows, "section rows must be byte-identical to the renderer's");
    for line in body.lines() {
        assert!(line.starts_with(r#"{"id":""#), "{line}");
    }
    std::fs::remove_file(&p).expect("cleanup");
}
