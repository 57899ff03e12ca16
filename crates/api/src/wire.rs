//! The versioned NDJSON protocol spoken over the `faild` socket.
//!
//! One request per line, one response per line, both JSON objects
//! carrying `"v":1`. Both the server and the `failctl query` client use
//! this codec, so the two cannot drift.
//!
//! # Request grammar
//!
//! ```json
//! {"v":1,"id":7,"cmd":"report","log":"fleet.fslog","sections":["tbf","ttr"],"where":"category == gpu","format":"json"}
//! {"v":1,"id":8,"cmd":"report","model":"tsubame2","seed":42}
//! {"v":1,"id":9,"cmd":"compare","old":"t2.fslog","new":"t3.fslog","until":"1000"}
//! {"v":1,"id":10,"cmd":"watch","source":"sim:tsubame3","max_records":50,"format":"json"}
//! {"v":1,"id":11,"cmd":"metrics"}
//! {"v":1,"id":12,"cmd":"logs"}
//! {"v":1,"id":13,"cmd":"evict","log":"fleet.fslog"}
//! {"v":1,"id":14,"cmd":"ping"}
//! {"v":1,"id":15,"cmd":"shutdown"}
//! ```
//!
//! Unknown fields are rejected (typo protection, exactly like the
//! CLI's unknown-flag rejection). `sections` accepts an array of
//! section ids or the CLI's comma-joined string form.
//!
//! # Response grammar
//!
//! ```json
//! {"v":1,"id":7,"ok":true,"cmd":"report","cached":false,"output":"..."}
//! {"v":1,"id":7,"ok":false,"error":{"kind":"args","message":"unknown section `bogus` ..."}}
//! ```
//!
//! `output` holds the exact bytes the equivalent CLI invocation prints;
//! `error.kind` is [`failtypes::Error::kind`], the stable
//! machine-readable variant tag: `args` for a rejected request, `run`
//! (or a narrower tag such as `io` or `row`) for a failed execution,
//! and `internal` when the query panicked inside the server.

use failtypes::{Error, JsonValue, Result};

use crate::request::{parse_format, parse_index, OutputFormat, QueryCmd, QueryRequest, QuerySource};
use crate::watch::WatchRequest;

/// The protocol version this codec speaks.
pub const PROTOCOL_VERSION: i64 = 1;

/// A decoded request command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A report or comparison query for the engine.
    Query(QueryRequest),
    /// A bounded watch stream, buffered into one response.
    Watch(WatchRequest),
    /// The server's live trace-collector export.
    Metrics,
    /// The multi-fleet catalog: every log the engine has memoized.
    Logs,
    /// Drop one source's memoized state (parsed logs, dependent render
    /// entries, pending dirty snapshot).
    Evict(QuerySource),
    /// Liveness check.
    Ping,
    /// Graceful shutdown (drain, persist dirty snapshots, exit).
    Shutdown,
}

impl Command {
    /// The wire name of the command (echoed in responses).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Query(req) => match req.cmd {
                QueryCmd::Report(_) => "report",
                QueryCmd::Compare { .. } => "compare",
            },
            Command::Watch(_) => "watch",
            Command::Metrics => "metrics",
            Command::Logs => "logs",
            Command::Evict(_) => "evict",
            Command::Ping => "ping",
            Command::Shutdown => "shutdown",
        }
    }
}

/// A decoded success response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the command name.
    pub cmd: String,
    /// Whether the server answered from its render cache.
    pub cached: bool,
    /// The exact bytes the equivalent CLI invocation prints.
    pub output: String,
}

/// Parses one request line. Returns the request id (0 when it could
/// not be recovered) alongside the decoded command or the typed error
/// to send back.
pub fn parse_request(line: &str) -> (u64, Result<Command>) {
    let doc = match JsonValue::parse(line) {
        Ok(doc) => doc,
        Err(e) => return (0, Err(Error::args(format!("request is not valid JSON: {e}")))),
    };
    let Some(obj) = doc.as_object() else {
        return (0, Err(Error::args("request must be a JSON object")));
    };
    // Recover the id early so even otherwise-malformed requests get a
    // correlated error envelope.
    let id = doc
        .get("id")
        .and_then(JsonValue::as_i64)
        .and_then(|i| u64::try_from(i).ok())
        .unwrap_or(0);
    (id, parse_command(&doc, obj))
}

fn parse_command(doc: &JsonValue, obj: &[(String, JsonValue)]) -> Result<Command> {
    match doc.get("v").and_then(JsonValue::as_i64) {
        Some(PROTOCOL_VERSION) => {}
        Some(v) => {
            return Err(Error::args(format!(
                "unsupported protocol version {v} (this server speaks v{PROTOCOL_VERSION})"
            )))
        }
        None => return Err(Error::args("request is missing \"v\":1")),
    }
    if doc
        .get("id")
        .map(|v| v.as_i64().is_none_or(|i| i < 0))
        .unwrap_or(true)
    {
        return Err(Error::args(
            "request is missing \"id\" (a non-negative integer)",
        ));
    }
    let Some(cmd) = doc.get("cmd").and_then(JsonValue::as_str) else {
        return Err(Error::args("request is missing \"cmd\""));
    };
    let check_fields = |allowed: &[&str]| -> Result<()> {
        for (key, _) in obj {
            if !allowed.contains(&key.as_str()) {
                return Err(Error::args(format!(
                    "unknown field \"{key}\" for cmd \"{cmd}\""
                )));
            }
        }
        Ok(())
    };
    match cmd {
        "report" => {
            check_fields(&[
                "v", "id", "cmd", "log", "model", "seed", "sections", "where", "since", "until",
                "format", "threads", "index",
            ])?;
            let source = parse_source(doc, "report")?;
            let mut req = QueryRequest::report(source);
            req.opts = parse_options(doc, req.opts)?;
            if let Some(spec) = parse_sections(doc)? {
                req.opts.sections = Some(spec);
            }
            Ok(Command::Query(req))
        }
        "compare" => {
            check_fields(&[
                "v", "id", "cmd", "old", "new", "where", "since", "until", "format", "threads",
                "index",
            ])?;
            let old = require_str(doc, "old")?;
            let new = require_str(doc, "new")?;
            let mut req = QueryRequest::compare(old, new);
            req.opts = parse_options(doc, req.opts)?;
            Ok(Command::Query(req))
        }
        "watch" => {
            check_fields(&[
                "v",
                "id",
                "cmd",
                "source",
                "seed",
                "accel",
                "inject_mttr",
                "baseline",
                "window",
                "refresh",
                "max_records",
                "max_idle",
                "where",
                "format",
                "sections",
                "index",
            ])?;
            let mut req = WatchRequest::new(require_str(doc, "source")?);
            req.seed = raw_field(doc, "seed")?;
            req.accel = raw_field(doc, "accel")?;
            req.inject_mttr = raw_field(doc, "inject_mttr")?;
            req.baseline = raw_field(doc, "baseline")?;
            req.window = raw_field(doc, "window")?;
            req.refresh = raw_field(doc, "refresh")?;
            req.max_records = raw_field(doc, "max_records")?;
            req.max_idle = raw_field(doc, "max_idle")?;
            req.where_expr = opt_string(doc, "where")?;
            req.sections = parse_sections(doc)?;
            req.format = parse_format(opt_string(doc, "format")?.as_deref())?;
            req.index = parse_index(opt_string(doc, "index")?.as_deref())?;
            Ok(Command::Watch(req))
        }
        "metrics" => {
            check_fields(&["v", "id", "cmd"])?;
            Ok(Command::Metrics)
        }
        "logs" => {
            check_fields(&["v", "id", "cmd"])?;
            Ok(Command::Logs)
        }
        "evict" => {
            check_fields(&["v", "id", "cmd", "log", "model", "seed"])?;
            Ok(Command::Evict(parse_source(doc, "evict")?))
        }
        "ping" => {
            check_fields(&["v", "id", "cmd"])?;
            Ok(Command::Ping)
        }
        "shutdown" => {
            check_fields(&["v", "id", "cmd"])?;
            Ok(Command::Shutdown)
        }
        other => Err(Error::args(format!(
            "unknown cmd \"{other}\" (use report, compare, watch, logs, evict, metrics, ping, or shutdown)"
        ))),
    }
}

fn parse_source(doc: &JsonValue, cmd: &str) -> Result<QuerySource> {
    let log = opt_string(doc, "log")?;
    let model = opt_string(doc, "model")?;
    let seed = opt_u64(doc, "seed")?;
    match (log, model) {
        (Some(_), Some(_)) => Err(Error::args("pass either \"log\" or \"model\", not both")),
        (Some(path), None) => {
            if let Some(seed) = seed {
                return Err(Error::args(format!(
                    "\"seed\" {seed} only applies with \"model\""
                )));
            }
            Ok(QuerySource::File(path))
        }
        (None, Some(name)) => Ok(QuerySource::Model {
            name,
            seed: seed.unwrap_or(42),
        }),
        (None, None) => Err(Error::args(format!("{cmd} needs \"log\" or \"model\""))),
    }
}

fn parse_options(
    doc: &JsonValue,
    mut opts: crate::request::QueryOptions,
) -> Result<crate::request::QueryOptions> {
    opts.where_expr = opt_string(doc, "where")?;
    opts.since = opt_string(doc, "since")?;
    opts.until = opt_string(doc, "until")?;
    opts.format = parse_format(opt_string(doc, "format")?.as_deref())?;
    opts.index = parse_index(opt_string(doc, "index")?.as_deref())?;
    if let Some(threads) = opt_u64(doc, "threads")? {
        opts.threads = usize::try_from(threads)
            .map_err(|_| Error::args(format!("invalid value `{threads}` for --threads")))?;
    }
    Ok(opts)
}

/// `sections` accepts `["tbf","ttr"]` or the CLI's `"tbf,ttr"`.
fn parse_sections(doc: &JsonValue) -> Result<Option<String>> {
    match doc.get("sections") {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(spec)) => Ok(Some(spec.clone())),
        Some(JsonValue::Array(items)) => {
            let mut ids = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(id) => ids.push(id.to_string()),
                    None => {
                        return Err(Error::args(
                            "field \"sections\" must be an array of section-id strings",
                        ))
                    }
                }
            }
            Ok(Some(ids.join(",")))
        }
        Some(_) => Err(Error::args(
            "field \"sections\" must be an array of section-id strings",
        )),
    }
}

fn require_str(doc: &JsonValue, key: &str) -> Result<String> {
    opt_string(doc, key)?
        .ok_or_else(|| Error::args(format!("missing field \"{key}\"")))
}

fn opt_string(doc: &JsonValue, key: &str) -> Result<Option<String>> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(Error::args(format!("field \"{key}\" must be a string"))),
    }
}

fn opt_u64(doc: &JsonValue, key: &str) -> Result<Option<u64>> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .map(Some)
            .ok_or_else(|| {
                Error::args(format!("field \"{key}\" must be a non-negative integer"))
            }),
    }
}

/// A raw-string field: accepts a JSON string or number and keeps its
/// canonical textual form (watch diagnostics quote values verbatim).
fn raw_field(doc: &JsonValue, key: &str) -> Result<Option<String>> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(v @ (JsonValue::Int(_) | JsonValue::Num(_))) => Ok(Some(v.render())),
        Some(_) => Err(Error::args(format!(
            "field \"{key}\" must be a string or number"
        ))),
    }
}

/// Encodes a report/compare query as one request line (no trailing
/// newline).
pub fn encode_query(id: u64, req: &QueryRequest) -> String {
    let opts = &req.opts;
    let mut b = JsonValue::object().field("v", PROTOCOL_VERSION).field("id", id);
    match &req.cmd {
        QueryCmd::Report(QuerySource::File(path)) => {
            b = b.field("cmd", "report").field("log", path.as_str());
        }
        QueryCmd::Report(QuerySource::Model { name, seed }) => {
            b = b
                .field("cmd", "report")
                .field("model", name.as_str())
                .field("seed", *seed);
        }
        QueryCmd::Compare { old, new } => {
            b = b
                .field("cmd", "compare")
                .field("old", old.as_str())
                .field("new", new.as_str());
        }
    }
    if let Some(spec) = &opts.sections {
        b = b.field("sections", spec.as_str());
    }
    for (key, value) in [
        ("where", &opts.where_expr),
        ("since", &opts.since),
        ("until", &opts.until),
    ] {
        if let Some(value) = value {
            b = b.field(key, value.as_str());
        }
    }
    if opts.format != OutputFormat::Text {
        b = b.field("format", opts.format.name());
    }
    if let Some(mode) = opts.index {
        b = b.field("index", mode.to_string());
    }
    b.field("threads", opts.threads as u64).build().render()
}

/// Encodes a watch query as one request line (no trailing newline).
pub fn encode_watch(id: u64, req: &WatchRequest) -> String {
    let mut b = JsonValue::object()
        .field("v", PROTOCOL_VERSION)
        .field("id", id)
        .field("cmd", "watch")
        .field("source", req.source.as_str());
    for (key, value) in [
        ("seed", &req.seed),
        ("accel", &req.accel),
        ("inject_mttr", &req.inject_mttr),
        ("baseline", &req.baseline),
        ("window", &req.window),
        ("refresh", &req.refresh),
        ("max_records", &req.max_records),
        ("max_idle", &req.max_idle),
        ("where", &req.where_expr),
        ("sections", &req.sections),
    ] {
        if let Some(value) = value {
            b = b.field(key, value.as_str());
        }
    }
    if req.format != OutputFormat::Text {
        b = b.field("format", req.format.name());
    }
    if let Some(mode) = req.index {
        b = b.field("index", mode.to_string());
    }
    b.build().render()
}

/// Encodes an `evict` command targeting one catalog source.
pub fn encode_evict(id: u64, source: &QuerySource) -> String {
    let mut b = JsonValue::object()
        .field("v", PROTOCOL_VERSION)
        .field("id", id)
        .field("cmd", "evict");
    match source {
        QuerySource::File(path) => b = b.field("log", path.as_str()),
        QuerySource::Model { name, seed } => {
            b = b.field("model", name.as_str()).field("seed", *seed);
        }
    }
    b.build().render()
}

/// Encodes a field-less command (`metrics`, `logs`, `ping`,
/// `shutdown`).
pub fn encode_simple(id: u64, cmd: &str) -> String {
    JsonValue::object()
        .field("v", PROTOCOL_VERSION)
        .field("id", id)
        .field("cmd", cmd)
        .build()
        .render()
}

/// Encodes a success response line.
pub fn encode_ok(id: u64, cmd: &str, cached: bool, output: &str) -> String {
    JsonValue::object()
        .field("v", PROTOCOL_VERSION)
        .field("id", id)
        .field("ok", true)
        .field("cmd", cmd)
        .field("cached", cached)
        .field("output", output)
        .build()
        .render()
}

/// Encodes a typed error envelope from any pipeline error.
pub fn encode_err(id: u64, error: &Error) -> String {
    JsonValue::object()
        .field("v", PROTOCOL_VERSION)
        .field("id", id)
        .field("ok", false)
        .field(
            "error",
            JsonValue::object()
                .field("kind", error.kind())
                .field("message", error.to_string())
                .build(),
        )
        .build()
        .render()
}

/// Decodes a response line. An error envelope becomes `Err` with the
/// original message (argument errors keep their `args` kind so exit
/// codes match the CLI).
pub fn parse_response(line: &str) -> Result<Response> {
    let doc = JsonValue::parse(line)
        .map_err(|e| Error::run(format!("response is not valid JSON: {e}")))?;
    match doc.get("v").and_then(JsonValue::as_i64) {
        Some(PROTOCOL_VERSION) => {}
        _ => return Err(Error::run("response is missing \"v\":1")),
    }
    let id = doc
        .get("id")
        .and_then(JsonValue::as_i64)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| Error::run("response is missing \"id\""))?;
    match doc.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(Response {
            id,
            cmd: doc
                .get("cmd")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            cached: doc
                .get("cached")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            output: doc
                .get("output")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| Error::run("response is missing \"output\""))?
                .to_string(),
        }),
        Some(false) => {
            let error = doc.get("error");
            let kind = error
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str)
                .unwrap_or("other");
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified server error");
            Err(match kind {
                "args" => Error::args(message),
                _ => Error::run(message),
            })
        }
        None => Err(Error::run("response is missing \"ok\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_request_round_trips() {
        let req = QueryRequest::report(QuerySource::file("fleet.fslog"))
            .sections("tbf,ttr")
            .where_expr("category == gpu")
            .format(OutputFormat::Json)
            .threads(4);
        let line = encode_query(7, &req);
        assert!(line.starts_with(r#"{"v":1,"id":7,"cmd":"report","log":"fleet.fslog""#));
        let (id, cmd) = parse_request(&line);
        assert_eq!(id, 7);
        assert_eq!(cmd.unwrap(), Command::Query(req));
    }

    #[test]
    fn model_compare_and_watch_round_trip() {
        let req = QueryRequest::report(QuerySource::model("tsubame2", 43));
        let (_, cmd) = parse_request(&encode_query(1, &req));
        assert_eq!(cmd.unwrap(), Command::Query(req));

        let req = QueryRequest::compare("a.fslog", "b.fslog").until("1000");
        let (_, cmd) = parse_request(&encode_query(2, &req));
        assert_eq!(cmd.unwrap(), Command::Query(req));

        let mut watch = WatchRequest::new("sim:tsubame3");
        watch.max_records = Some("50".to_string());
        watch.format = OutputFormat::Json;
        let (_, cmd) = parse_request(&encode_watch(3, &watch));
        assert_eq!(cmd.unwrap(), Command::Watch(watch));

        for simple in ["metrics", "logs", "ping", "shutdown"] {
            let (_, cmd) = parse_request(&encode_simple(4, simple));
            assert_eq!(cmd.unwrap().name(), simple);
        }
    }

    #[test]
    fn evict_round_trips_both_source_forms() {
        let file = QuerySource::file("fleet.fslog");
        let (_, cmd) = parse_request(&encode_evict(5, &file));
        assert_eq!(cmd.unwrap(), Command::Evict(file));

        let model = QuerySource::model("tsubame2", 7);
        let (_, cmd) = parse_request(&encode_evict(6, &model));
        assert_eq!(cmd.unwrap(), Command::Evict(model));

        let (_, cmd) = parse_request(r#"{"v":1,"id":1,"cmd":"evict"}"#);
        let err = cmd.unwrap_err();
        assert_eq!(err.kind(), "args");
        assert!(err.to_string().contains("evict needs \"log\" or \"model\""));
    }

    #[test]
    fn sections_accept_array_or_string() {
        let (_, cmd) = parse_request(
            r#"{"v":1,"id":1,"cmd":"report","log":"x","sections":["tbf","ttr"]}"#,
        );
        let Command::Query(req) = cmd.unwrap() else {
            panic!("expected query")
        };
        assert_eq!(req.opts.sections.as_deref(), Some("tbf,ttr"));
    }

    #[test]
    fn watch_raw_fields_accept_numbers() {
        let (_, cmd) = parse_request(
            r#"{"v":1,"id":1,"cmd":"watch","source":"sim:tsubame3","max_records":50,"seed":7}"#,
        );
        let Command::Watch(req) = cmd.unwrap() else {
            panic!("expected watch")
        };
        assert_eq!(req.max_records.as_deref(), Some("50"));
        assert_eq!(req.seed.as_deref(), Some("7"));
    }

    #[test]
    fn watch_rejects_a_threads_field() {
        // Watch summaries render on the calling thread, so `threads` is
        // an unknown field on `watch` (it stays valid on report/compare).
        for threads in ["4", "\"4\""] {
            let line = format!(
                r#"{{"v":1,"id":1,"cmd":"watch","source":"sim:tsubame3","threads":{threads}}}"#
            );
            let err = parse_request(&line).1.unwrap_err();
            assert_eq!(err.kind(), "args");
            assert!(
                err.to_string().contains("unknown field \"threads\" for cmd \"watch\""),
                "{err}"
            );
        }
        let (_, report) =
            parse_request(r#"{"v":1,"id":1,"cmd":"report","log":"a","threads":4}"#);
        assert!(report.is_ok());
    }

    #[test]
    fn malformed_requests_are_typed_args_errors() {
        let cases = [
            ("not json at all", "request is not valid JSON"),
            ("[1,2,3]", "request must be a JSON object"),
            (r#"{"id":1,"cmd":"ping"}"#, "missing \"v\":1"),
            (r#"{"v":2,"id":1,"cmd":"ping"}"#, "unsupported protocol version 2"),
            (r#"{"v":1,"cmd":"ping"}"#, "missing \"id\""),
            (r#"{"v":1,"id":1}"#, "missing \"cmd\""),
            (r#"{"v":1,"id":1,"cmd":"frobnicate"}"#, "unknown cmd \"frobnicate\""),
            (r#"{"v":1,"id":1,"cmd":"ping","extra":true}"#, "unknown field \"extra\""),
            (r#"{"v":1,"id":1,"cmd":"report"}"#, "report needs \"log\" or \"model\""),
            (
                r#"{"v":1,"id":1,"cmd":"report","log":"a","model":"tsubame2"}"#,
                "not both",
            ),
            (
                r#"{"v":1,"id":1,"cmd":"report","log":"a","seed":7}"#,
                "only applies with \"model\"",
            ),
            (
                r#"{"v":1,"id":1,"cmd":"report","log":"a","threads":-2}"#,
                "field \"threads\" must be a non-negative integer",
            ),
            (r#"{"v":1,"id":1,"cmd":"compare","old":"a"}"#, "missing field \"new\""),
        ];
        for (line, want) in cases {
            let (_, cmd) = parse_request(line);
            let err = cmd.unwrap_err();
            assert_eq!(err.kind(), "args", "{line}");
            assert!(err.to_string().contains(want), "{line} gave {err}");
        }
        // The id is still recovered from malformed-but-parseable lines.
        let (id, cmd) = parse_request(r#"{"v":1,"id":9,"cmd":"nope"}"#);
        assert_eq!(id, 9);
        assert!(cmd.is_err());
    }

    #[test]
    fn responses_round_trip_including_errors() {
        let ok = encode_ok(5, "report", true, "line one\nline two\n");
        let resp = parse_response(&ok).unwrap();
        assert_eq!(resp.id, 5);
        assert_eq!(resp.cmd, "report");
        assert!(resp.cached);
        assert_eq!(resp.output, "line one\nline two\n");

        let err_line = encode_err(6, &Error::args("unknown section `bogus`"));
        assert!(err_line.contains(r#""kind":"args""#), "{err_line}");
        let err = parse_response(&err_line).unwrap_err();
        assert_eq!(err.kind(), "args");
        assert!(err.to_string().contains("unknown section `bogus`"));
    }
}
