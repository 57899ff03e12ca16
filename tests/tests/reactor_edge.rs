//! Connection edge cases for the `faild` reactor: requests that arrive
//! one byte at a time (slowloris), many requests pipelined into a
//! single TCP segment, clients that vanish mid-response, hundreds of
//! idle connections held open while others query, and the multi-fleet
//! catalog (`logs`/`evict`) round trip. Every response body must stay
//! byte-identical to the local engine — the CLI's own execution path —
//! no matter how the bytes were framed on the wire.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use failapi::{wire, OutputFormat, QueryEngine, QueryRequest, QuerySource};
use failserver::client::Connection;
use failserver::{Endpoint, ServeSummary, ServerConfig};
use failsim::{Simulator, SystemModel};
use failtypes::Result;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failsuite-reactor");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write_log(name: &str, model: SystemModel) -> String {
    let path = temp_path(name);
    let log = Simulator::new(model, 42).generate().expect("simulates");
    faillog::save(path.to_str().unwrap(), &log).expect("saves");
    path.to_str().unwrap().to_string()
}

fn start_server(max_inflight: usize) -> (String, thread::JoinHandle<Result<ServeSummary>>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        failserver::serve(
            ServerConfig {
                endpoint: Endpoint::tcp("127.0.0.1:0"),
                max_inflight,
            },
            move |bound| {
                tx.send(bound.clone()).expect("report bound endpoint");
            },
        )
    });
    let bound = rx.recv().expect("server binds");
    let addr = match bound {
        Endpoint::Tcp(addr) => addr,
        other => panic!("expected tcp endpoint, got {other}"),
    };
    (addr, handle)
}

fn local(req: &QueryRequest) -> String {
    QueryEngine::new().execute(req).expect("local query").output
}

fn shut_down(addr: &str, handle: thread::JoinHandle<Result<ServeSummary>>) -> ServeSummary {
    let endpoint = Endpoint::tcp(addr);
    let mut conn = Connection::connect(&endpoint).expect("connects for shutdown");
    let resp = conn
        .roundtrip(&wire::encode_simple(99, "shutdown"))
        .expect("shutdown");
    assert_eq!(resp.output, "faild: shutting down\n");
    handle.join().expect("server thread").expect("serve result")
}

/// One response line read from a raw socket, decoded.
fn read_response(reader: &mut BufReader<TcpStream>) -> wire::Response {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reads response");
    assert!(n > 0, "server closed the connection unexpectedly");
    wire::parse_response(line.trim_end()).expect("well-formed response")
}

#[test]
fn slowloris_partial_frames_still_answer_byte_identically() {
    let log = write_log("slow.fslog", SystemModel::tsubame2());
    let (addr, handle) = start_server(2);

    let req = QueryRequest::report(QuerySource::file(&log)).sections("header,categories");
    let want = local(&req);

    // Sixteen connections, each dripping its request ONE byte at a
    // time, advanced round-robin so every connection holds a partial
    // frame at once: the reactor must buffer them all indefinitely
    // without burning CPU or timing anyone out.
    const DRIPPERS: usize = 16;
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..DRIPPERS)
        .map(|_| {
            let stream = TcpStream::connect(&addr).expect("connects");
            let writer = stream.try_clone().expect("clones");
            (writer, BufReader::new(stream))
        })
        .collect();
    let lines: Vec<Vec<u8>> = (0..DRIPPERS)
        .map(|i| format!("{}\n", wire::encode_query(i as u64, &req)).into_bytes())
        .collect();
    let longest = lines.iter().map(Vec::len).max().unwrap();
    for pos in 0..longest {
        for (i, (writer, _)) in conns.iter_mut().enumerate() {
            if let Some(&byte) = lines[i].get(pos) {
                writer.write_all(&[byte]).expect("writes byte");
                writer.flush().expect("flushes");
            }
        }
        if pos % 64 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
    }
    for (i, (writer, reader)) in conns.iter_mut().enumerate() {
        let resp = read_response(reader);
        assert_eq!(resp.id, i as u64);
        assert_eq!(resp.output, want);
        // Each connection is still healthy for a normally-framed request.
        writer
            .write_all(format!("{}\n", wire::encode_simple(100, "ping")).as_bytes())
            .expect("writes ping");
        assert_eq!(read_response(reader).output, "pong\n");
    }

    shut_down(&addr, handle);
}

#[test]
fn client_deadline_expires_with_a_reasoned_error_when_the_server_hangs() {
    // A "server" that accepts and then never says anything.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = thread::spawn(move || listener.accept().map(|(s, _)| s));

    let endpoint = Endpoint::tcp(&addr);
    let mut conn = Connection::connect(&endpoint).expect("connects");
    conn.set_deadline(Some(Duration::from_millis(100)))
        .expect("sets deadline");
    let err = conn
        .roundtrip(&wire::encode_simple(1, "ping"))
        .expect_err("a mute server must trip the deadline");
    let msg = err.to_string();
    assert!(msg.contains("no response from faild within"), "{msg}");
    assert!(msg.contains("100ms"), "{msg}");
    drop(hold.join());
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let t2 = write_log("pipe-t2.fslog", SystemModel::tsubame2());
    let t3 = write_log("pipe-t3.fslog", SystemModel::tsubame3());
    let (addr, handle) = start_server(4);

    // Mixed cheap and expensive queries: even with four workers racing,
    // responses must come back in request order on this connection.
    let reqs: Vec<QueryRequest> = vec![
        QueryRequest::report(QuerySource::file(&t2)).sections("header,categories,tbf"),
        QueryRequest::report(QuerySource::file(&t3))
            .sections("header,availability")
            .format(OutputFormat::Json),
        QueryRequest::compare(&t2, &t3),
        QueryRequest::report(QuerySource::file(&t2)).sections("header,categories,tbf"),
    ];
    let want: Vec<String> = reqs.iter().map(local).collect();
    let mut segment = String::new();
    for (i, req) in reqs.iter().enumerate() {
        segment.push_str(&wire::encode_query(i as u64 + 1, req));
        segment.push('\n');
    }
    segment.push_str(&wire::encode_simple(50, "ping"));
    segment.push('\n');

    let stream = TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    // One write call: all five requests land in the same segment(s)
    // and the reactor must split, execute, and reorder completions.
    writer.write_all(segment.as_bytes()).expect("writes batch");
    writer.flush().expect("flushes");

    for (i, want) in want.iter().enumerate() {
        let resp = read_response(&mut reader);
        assert_eq!(resp.id, i as u64 + 1, "responses must keep request order");
        assert_eq!(&resp.output, want);
    }
    assert_eq!(read_response(&mut reader).output, "pong\n");

    shut_down(&addr, handle);
}

#[test]
fn client_disconnect_mid_response_does_not_disturb_others() {
    let log = write_log("gone.fslog", SystemModel::tsubame2());
    let (addr, handle) = start_server(2);

    let req = QueryRequest::report(QuerySource::file(&log))
        .sections("header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal")
        .format(OutputFormat::Json);
    let want = local(&req);

    // Fire a large query and slam the connection shut without reading a
    // byte of the response; the server's write hits a dead peer.
    {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream
            .write_all(format!("{}\n", wire::encode_query(1, &req)).as_bytes())
            .expect("writes");
        stream.flush().expect("flushes");
        // drop: RST or FIN while the response is queued or in flight
    }

    // A well-behaved client connected afterwards gets full service.
    let endpoint = Endpoint::tcp(&addr);
    let mut conn = Connection::connect(&endpoint).expect("connects");
    let resp = conn
        .roundtrip(&wire::encode_query(2, &req))
        .expect("query after abandoner");
    assert_eq!(resp.output, want);

    let summary = shut_down(&addr, handle);
    assert!(summary.connections >= 3, "summary: {summary:?}");
}

#[test]
fn hundreds_of_idle_connections_cost_nothing_and_interleave_queries() {
    let log = write_log("idle.fslog", SystemModel::tsubame3());
    let (addr, handle) = start_server(4);

    let req = QueryRequest::report(QuerySource::file(&log)).sections("header,tbf");
    let want = local(&req);

    // 512 connections held open with no traffic at all. The reactor
    // must keep them parked (no per-connection threads, no timeouts)
    // while interleaved queries on other connections stay snappy.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(512);
    let endpoint = Endpoint::tcp(&addr);
    for i in 0..512 {
        idle.push(TcpStream::connect(&addr).expect("idle connect"));
        if i % 128 == 64 {
            let mut conn = Connection::connect(&endpoint).expect("connects");
            let resp = conn.roundtrip(&wire::encode_query(1, &req)).expect("query");
            assert_eq!(resp.output, want);
        }
    }

    // A late idler can still speak: pick one mid-pack and query on it.
    let stream = idle.swap_remove(256);
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{}\n", wire::encode_query(3, &req)).as_bytes())
        .expect("writes");
    writer.flush().expect("flushes");
    assert_eq!(read_response(&mut reader).output, want);

    drop(idle);
    let summary = shut_down(&addr, handle);
    assert!(summary.connections >= 513, "summary: {summary:?}");
}

#[test]
fn catalog_lists_and_evicts_cached_logs_over_the_wire() {
    let t2 = write_log("cat-t2.fslog", SystemModel::tsubame2());
    let t3 = write_log("cat-t3.fslog", SystemModel::tsubame3());
    let (addr, handle) = start_server(2);
    let endpoint = Endpoint::tcp(&addr);
    let mut conn = Connection::connect(&endpoint).expect("connects");

    // An empty server has an empty catalog.
    let resp = conn.roundtrip(&wire::encode_simple(1, "logs")).expect("logs");
    assert_eq!(resp.output, "faild: 0 cached logs\n");

    let req2 = QueryRequest::report(QuerySource::file(&t2)).sections("header,categories");
    let req3 = QueryRequest::report(QuerySource::file(&t3)).sections("header,categories");
    assert!(!conn.roundtrip(&wire::encode_query(2, &req2)).expect("t2").cached);
    assert!(conn.roundtrip(&wire::encode_query(3, &req2)).expect("t2 warm").cached);
    assert!(!conn.roundtrip(&wire::encode_query(4, &req3)).expect("t3").cached);

    // The catalog names both sources with fingerprint and cache state.
    let resp = conn.roundtrip(&wire::encode_simple(5, "logs")).expect("logs");
    assert!(resp.output.starts_with("faild: 2 cached logs\n"), "{}", resp.output);
    for path in [&t2, &t3] {
        assert!(resp.output.contains(path.as_str()), "{}", resp.output);
    }
    assert!(resp.output.contains("records="), "{}", resp.output);
    assert!(resp.output.contains("crc32="), "{}", resp.output);
    assert!(resp.output.contains("renders=1"), "{}", resp.output);

    // Evicting one source drops its parsed log and render entries...
    let resp = conn
        .roundtrip(&wire::encode_evict(6, &QuerySource::file(&t2)))
        .expect("evict");
    assert!(resp.output.contains("evicted"), "{}", resp.output);
    assert!(resp.output.contains(t2.as_str()), "{}", resp.output);
    assert!(resp.output.contains("logs=1"), "{}", resp.output);
    assert!(resp.output.contains("renders=1"), "{}", resp.output);

    // ...so the same query runs cold again while the survivor stays warm.
    assert!(!conn.roundtrip(&wire::encode_query(7, &req2)).expect("t2 cold").cached);
    assert!(conn.roundtrip(&wire::encode_query(8, &req3)).expect("t3 warm").cached);

    // Evicting something never loaded says so instead of erroring.
    let resp = conn
        .roundtrip(&wire::encode_evict(9, &QuerySource::file("/no/such.fslog")))
        .expect("evict miss");
    assert!(resp.output.contains("nothing cached"), "{}", resp.output);

    // The one cache counter family shows up in metrics; the retired
    // duplicate family does not.
    let resp = conn
        .roundtrip(&wire::encode_simple(10, "metrics"))
        .expect("metrics");
    for counter in ["cache.hits", "cache.misses"] {
        assert!(resp.output.contains(counter), "missing {counter}:\n{}", resp.output);
    }
    assert!(!resp.output.contains("engine.render_cache"), "{}", resp.output);

    shut_down(&addr, handle);
}

#[test]
fn oversized_request_line_is_rejected_then_connection_closes() {
    let (addr, handle) = start_server(1);

    let stream = TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    // 9 MiB of 'x' with no newline: past the 8 MiB frame cap the server
    // must answer with a typed error and hang up rather than buffer
    // unbounded garbage.
    let blob = vec![b'x'; 9 * 1024 * 1024];
    // The peer may reset once the server stops reading; either the
    // write fails or the error line comes back — both are acceptable,
    // but if a line arrives it must be the typed oversize error.
    let _ = writer.write_all(&blob);
    let _ = writer.flush();
    let mut line = String::new();
    if reader.read_line(&mut line).is_ok() && !line.is_empty() {
        let err = wire::parse_response(line.trim_end()).expect_err("oversize is an error");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // After the error line the server closes the connection.
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty(), "connection should close after oversize error");
    }

    shut_down(&addr, handle);
}
