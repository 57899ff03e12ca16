//! The event loop `faild` serves from: one reactor thread multiplexing
//! every connection, plus a bounded worker pool executing queries.
//!
//! # Structure
//!
//! The reactor owns the listener and all client sockets, every one
//! non-blocking, registered with the [`crate::sys::Poller`]
//! (level-triggered epoll on Linux). Each connection is a small state
//! machine:
//!
//! * **read side** — bytes accumulate in `read_buf`; the frame splitter
//!   carves complete NDJSON lines off the front (tracking a scan offset
//!   so dripped bytes are never rescanned) and dispatches each request.
//! * **execution** — `report`/`compare`/`watch`/`logs` go to the worker
//!   pool (`max_inflight` threads, so the pool *is* the execution
//!   bound); `metrics`, `evict`, `ping`, and `shutdown` are cheap and
//!   answered inline on the loop. A job that panics is answered with an
//!   `internal` error envelope and counted as `server.worker_panics`;
//!   its worker survives, so the connection's later replies still flow.
//! * **write side** — responses are emitted strictly in request order
//!   (a per-connection sequence number orders out-of-order worker
//!   completions), appended to `write_buf`, and flushed as far as the
//!   socket allows; partial writes resume when the poller reports the
//!   socket writable again.
//!
//! Workers hand finished responses back through a completion list and
//! wake the loop by writing one byte to a self-pipe (a `UnixStream`
//! pair — the portable cousin of `eventfd`).
//!
//! # Backpressure
//!
//! A connection whose un-flushed response backlog exceeds
//! [`HIGH_WATER`] stops being read (its `EPOLLIN` interest is dropped)
//! until the backlog drains below [`LOW_WATER`]; a client that sends
//! pipelined queries faster than it reads responses throttles itself,
//! not the server. Request lines are capped at [`MAX_LINE`].
//!
//! When `accept` fails for want of descriptors (EMFILE/ENFILE) the
//! pending connection stays queued and the level-triggered listener
//! stays readable, so the listener is withdrawn from the poller until a
//! connection closes or [`ACCEPT_BACKOFF`] passes, whichever is first.
//!
//! # Shutdown
//!
//! The `shutdown` command answers its own request, then drains: the
//! listener is deregistered, no further frames are parsed on any
//! connection, in-flight worker jobs finish and flush, and the loop
//! exits once nothing is pending. The caller persists dirty `.fsidx`
//! snapshots after the loop returns.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use failapi::wire::{self, Command};
use failapi::{QueryEngine, QueryRequest, WatchRequest};
use failtypes::{Error, Result};

use crate::server::{Listener, ServeSummary, Stream};
use crate::sys::{Event, Poller};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the self-pipe's read end.
const WAKER: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;

/// Hard cap on one request line; a frame this long without a newline
/// is answered with a typed error and the connection is closed (the
/// stream cannot be resynchronized).
const MAX_LINE: usize = 8 * 1024 * 1024;
/// Un-flushed response bytes above which a connection stops being read.
const HIGH_WATER: usize = 1024 * 1024;
/// Backlog below which a paused connection resumes reading.
const LOW_WATER: usize = 64 * 1024;
/// One non-blocking read's scratch size.
const READ_CHUNK: usize = 64 * 1024;
/// Most bytes accepted from one connection per loop visit, so a
/// firehose sender cannot starve its peers (level-triggered polling
/// revisits it immediately).
const READ_BURST: usize = 1024 * 1024;
/// How long the listener stays withdrawn after `accept` runs out of
/// descriptors, unless a connection closes first.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Work shipped to the pool: the commands whose execution cost is
/// unbounded (`logs` may probe every cached log). Everything else is
/// answered inline on the loop.
enum JobCmd {
    Query(QueryRequest),
    Watch(WatchRequest),
    Logs,
    /// Panics in the worker, to exercise the unwind guard.
    #[cfg(test)]
    Panic,
}

struct Job {
    conn: u64,
    seq: u64,
    id: u64,
    cmd: JobCmd,
}

/// (connection token, per-connection sequence, encoded response line).
type Completion = (u64, u64, String);

/// The self-pipe's write end, shared by every worker.
struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn wake(&self) {
        // A full pipe means a wake-up is already pending; any error is
        // ignorable for the same reason.
        let _ = (&self.tx).write(&[1]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet carved into frames.
    read_buf: Vec<u8>,
    /// How far `read_buf` has been scanned for a newline.
    scanned: usize,
    /// Encoded responses awaiting the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    write_pos: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to emit into `write_buf`.
    next_emit: u64,
    /// Completed responses waiting for their turn in request order.
    done: BTreeMap<u64, String>,
    /// Requests of this connection currently in the worker pool.
    inflight: usize,
    /// The peer closed its write side; drain and close.
    peer_eof: bool,
    /// Unrecoverable I/O state; drop at the next sweep.
    dead: bool,
    /// Close once the write buffer drains (protocol violation).
    close_after_flush: bool,
    /// Reads paused by the high-water mark.
    paused: bool,
    /// Whether the descriptor is currently in the poller. A connection
    /// with no interest at all (peer closed, nothing to write, workers
    /// still busy) is withdrawn entirely — a level-triggered `EPOLLHUP`
    /// cannot be masked and would otherwise spin the loop.
    registered: bool,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_emit: 0,
            done: BTreeMap::new(),
            inflight: 0,
            peer_eof: false,
            dead: false,
            close_after_flush: false,
            paused: false,
            registered: true,
            want_read: true,
            want_write: false,
        }
    }

    fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }
}

/// One complete frame-extraction step.
enum FrameStep {
    /// No complete line buffered yet.
    Incomplete,
    /// The buffered line is not UTF-8; the connection is unusable.
    Bad,
    /// A line grew past [`MAX_LINE`] without a newline.
    Oversize,
    /// One complete line (newline stripped).
    Line(String),
}

/// Carves the next complete line off `buf`, resuming the newline scan
/// at `scanned` (which it advances, so dripped bytes are never
/// rescanned).
fn take_frame(buf: &mut Vec<u8>, scanned: &mut usize) -> FrameStep {
    let Some(rel) = buf[*scanned..].iter().position(|&b| b == b'\n') else {
        *scanned = buf.len();
        if *scanned > MAX_LINE {
            return FrameStep::Oversize;
        }
        return FrameStep::Incomplete;
    };
    let end = *scanned + rel;
    let step = match std::str::from_utf8(&buf[..end]) {
        Ok(line) => FrameStep::Line(line.to_string()),
        Err(_) => FrameStep::Bad,
    };
    buf.drain(..=end);
    *scanned = 0;
    step
}

pub(crate) fn run(
    listener: Listener,
    engine: QueryEngine,
    max_inflight: usize,
) -> Result<ServeSummary> {
    let setup = |what: &'static str| move |e: std::io::Error| Error::io(what, e);
    listener
        .set_nonblocking(true)
        .map_err(setup("setting the listener non-blocking"))?;
    let poller = Poller::new().map_err(setup("creating the poller"))?;
    let (wake_tx, wake_rx) = UnixStream::pair().map_err(setup("creating the wake pipe"))?;
    wake_tx
        .set_nonblocking(true)
        .map_err(setup("configuring the wake pipe"))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(setup("configuring the wake pipe"))?;
    poller
        .add(listener.as_raw_fd(), LISTENER, true, false)
        .map_err(setup("registering the listener"))?;
    poller
        .add(wake_rx.as_raw_fd(), WAKER, true, false)
        .map_err(setup("registering the wake pipe"))?;

    let engine = Arc::new(engine);
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let waker = Arc::new(Waker { tx: wake_tx });
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..max_inflight.max(1))
        .map(|_| {
            let (engine, job_rx) = (Arc::clone(&engine), Arc::clone(&job_rx));
            let (completions, waker) = (Arc::clone(&completions), Arc::clone(&waker));
            std::thread::spawn(move || worker(&engine, &job_rx, &completions, &waker))
        })
        .collect();

    let mut reactor = Reactor {
        poller,
        listener,
        engine,
        waker_rx: wake_rx,
        completions,
        job_tx: Some(job_tx),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        connections: 0,
        requests: 0,
        jobs_inflight: 0,
        draining: false,
        relisten_at: None,
    };
    reactor.serve();
    drop(reactor.job_tx.take());
    for handle in workers {
        handle.join().ok();
    }
    // Workers are done, so no new dirty entries can appear.
    let snapshots_persisted = reactor.engine.persist_dirty();
    Ok(ServeSummary {
        connections: reactor.connections,
        requests: reactor.requests,
        snapshots_persisted,
    })
}

/// One pool thread: execute jobs until the channel closes.
fn worker(
    engine: &QueryEngine,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    loop {
        // Holding the lock across `recv` is the shared-receiver idiom:
        // it serializes job pickup, not execution.
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            return;
        };
        // A panicking job must still complete its (conn, seq) slot, or
        // every later reply on that connection would wait behind it.
        let answered =
            std::panic::catch_unwind(AssertUnwindSafe(|| respond(engine, job.id, job.cmd)));
        let line = answered.unwrap_or_else(|panic| {
            engine.metrics().incr("server.worker_panics", 1);
            engine.metrics().incr("server.errors", 1);
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            wire::encode_err(job.id, &Error::internal(format!("query panicked: {what}")))
        });
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((job.conn, job.seq, line));
        waker.wake();
    }
}

/// Executes one pooled command; errors become typed envelopes.
fn respond(engine: &QueryEngine, id: u64, cmd: JobCmd) -> String {
    let error_line = |e: &Error| {
        engine.metrics().incr("server.errors", 1);
        wire::encode_err(id, e)
    };
    match cmd {
        JobCmd::Query(req) => match engine.execute(&req) {
            Ok(outcome) => wire::encode_ok(id, req_name(&req), outcome.cached, &outcome.output),
            Err(e) => error_line(&e),
        },
        JobCmd::Watch(req) => {
            let mut buf = Vec::new();
            match failapi::watch::run(&req, &mut buf) {
                Ok(_) => match String::from_utf8(buf) {
                    Ok(output) => wire::encode_ok(id, "watch", false, &output),
                    Err(_) => error_line(&Error::run("watch produced non-UTF8 output")),
                },
                Err(e) => error_line(&e),
            }
        }
        JobCmd::Logs => {
            wire::encode_ok(id, "logs", false, &failapi::render_catalog(&engine.catalog()))
        }
        #[cfg(test)]
        JobCmd::Panic => panic!("injected worker panic"),
    }
}

fn req_name(req: &QueryRequest) -> &'static str {
    match req.cmd {
        failapi::QueryCmd::Report(_) => "report",
        failapi::QueryCmd::Compare { .. } => "compare",
    }
}

struct Reactor {
    poller: Poller,
    listener: Listener,
    engine: Arc<QueryEngine>,
    waker_rx: UnixStream,
    completions: Arc<Mutex<Vec<Completion>>>,
    job_tx: Option<mpsc::Sender<Job>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    connections: u64,
    requests: u64,
    jobs_inflight: usize,
    draining: bool,
    /// When the listener, withdrawn because `accept` ran out of
    /// descriptors, is registered again at the latest.
    relisten_at: Option<Instant>,
}

impl Reactor {
    fn serve(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.relisten_at.map_or(-1, |at| {
                let left = at.saturating_duration_since(Instant::now());
                left.as_millis().clamp(1, i32::MAX as u128) as i32
            });
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_burst(),
                    WAKER => self.drain_waker(),
                    token => {
                        if ev.readable {
                            self.on_readable(token);
                        }
                        if ev.writable {
                            self.try_flush(token);
                        }
                    }
                }
            }
            self.drain_completions();
            let closed = self.sweep();
            if let Some(at) = self.relisten_at {
                if closed > 0 || Instant::now() >= at {
                    self.relisten();
                }
            }
            let all_flushed = self.conns.values().all(Conn::flushed);
            if self.draining && self.jobs_inflight == 0 && all_flushed {
                break;
            }
        }
    }

    fn accept_burst(&mut self) {
        if self.draining {
            return;
        }
        loop {
            let stream = match self.listener.accept() {
                Ok(s) => s.into_low_latency(),
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => break,
                    // One connection failed (reset or aborted before the
                    // accept); the ones behind it are still queued.
                    ErrorKind::Interrupted
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::ConnectionReset => continue,
                    // Out of descriptors (EMFILE/ENFILE), or another error
                    // not tied to one connection: the connection stays
                    // queued and the listener readable, so retrying now
                    // would spin.
                    _ => {
                        self.withdraw_listener();
                        break;
                    }
                },
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, true, false)
                .is_err()
            {
                continue;
            }
            self.connections += 1;
            self.engine.metrics().incr("server.connections", 1);
            self.conns.insert(token, Conn::new(stream));
        }
    }

    /// Takes the listener out of the poller until a connection closes or
    /// [`ACCEPT_BACKOFF`] passes ([`Reactor::relisten`]).
    fn withdraw_listener(&mut self) {
        if self.relisten_at.is_none() {
            self.poller.remove(self.listener.as_raw_fd()).ok();
        }
        self.relisten_at = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    /// Registers a withdrawn listener again, unless the server drains.
    fn relisten(&mut self) {
        self.relisten_at = None;
        if !self.draining
            && self
                .poller
                .add(self.listener.as_raw_fd(), LISTENER, true, false)
                .is_err()
        {
            self.relisten_at = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead || conn.peer_eof {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let start = conn.read_buf.len();
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if conn.read_buf.len() - start >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        self.process_frames(token);
    }

    /// Carves complete request lines off a connection's read buffer
    /// and dispatches each one. Stops at the first incomplete frame,
    /// on connection state changes, and during drain (buffered
    /// requests past the shutdown are dropped, matching the
    /// half-close semantics of the threaded server).
    fn process_frames(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.dead || conn.close_after_flush {
                    return;
                }
                if self.draining {
                    conn.read_buf.clear();
                    conn.scanned = 0;
                    return;
                }
                take_frame(&mut conn.read_buf, &mut conn.scanned)
            };
            match step {
                FrameStep::Incomplete => return,
                FrameStep::Bad => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.dead = true;
                    }
                    return;
                }
                FrameStep::Oversize => {
                    let line = wire::encode_err(
                        0,
                        &Error::args(format!("request line exceeds {MAX_LINE} bytes")),
                    );
                    self.count_request();
                    self.engine.metrics().incr("server.errors", 1);
                    let seq = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return;
                        };
                        conn.read_buf.clear();
                        conn.scanned = 0;
                        conn.close_after_flush = true;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        seq
                    };
                    self.complete(token, seq, line);
                    return;
                }
                FrameStep::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.dispatch(token, &line);
                }
            }
        }
    }

    fn count_request(&mut self) {
        self.requests += 1;
        self.engine.metrics().incr("server.requests", 1);
    }

    fn dispatch(&mut self, token: u64, line: &str) {
        let seq = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            seq
        };
        self.count_request();
        #[cfg(test)]
        if line == tests::PANIC_FRAME {
            self.submit(token, seq, 0, JobCmd::Panic);
            return;
        }
        let (id, cmd) = wire::parse_request(line);
        let response = match cmd {
            Err(e) => {
                self.engine.metrics().incr("server.errors", 1);
                wire::encode_err(id, &e)
            }
            Ok(Command::Query(req)) => {
                self.submit(token, seq, id, JobCmd::Query(req));
                return;
            }
            Ok(Command::Watch(req)) => {
                self.submit(token, seq, id, JobCmd::Watch(req));
                return;
            }
            Ok(Command::Metrics) => {
                wire::encode_ok(id, "metrics", false, &self.engine.metrics().export())
            }
            Ok(Command::Logs) => {
                self.submit(token, seq, id, JobCmd::Logs);
                return;
            }
            Ok(Command::Evict(source)) => {
                wire::encode_ok(id, "evict", false, &self.engine.evict(&source).render())
            }
            Ok(Command::Ping) => wire::encode_ok(id, "ping", false, "pong\n"),
            Ok(Command::Shutdown) => {
                let line = wire::encode_ok(id, "shutdown", false, "faild: shutting down\n");
                self.complete(token, seq, line);
                self.begin_drain();
                return;
            }
        };
        self.complete(token, seq, response);
    }

    fn submit(&mut self, conn: u64, seq: u64, id: u64, cmd: JobCmd) {
        let sent = self
            .job_tx
            .as_ref()
            .is_some_and(|tx| tx.send(Job { conn, seq, id, cmd }).is_ok());
        if sent {
            self.jobs_inflight += 1;
            if let Some(c) = self.conns.get_mut(&conn) {
                c.inflight += 1;
            }
        } else {
            // The pool is gone (shutdown race); answer in place.
            let line = wire::encode_err(id, &Error::run("faild is shutting down"));
            self.complete(conn, seq, line);
        }
    }

    /// Records one finished response and emits everything now in
    /// order, flushing opportunistically.
    fn complete(&mut self, token: u64, seq: u64, line: String) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.done.insert(seq, line);
            while let Some(next) = conn.done.remove(&conn.next_emit) {
                conn.write_buf.extend_from_slice(next.as_bytes());
                conn.write_buf.push(b'\n');
                conn.next_emit += 1;
            }
        }
        self.try_flush(token);
    }

    fn try_flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.flushed() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        } else if conn.write_pos > LOW_WATER {
            // Reclaim the flushed prefix so the buffer cannot grow
            // without bound across partial writes.
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
        let backlog = conn.backlog();
        if backlog > HIGH_WATER {
            conn.paused = true;
        } else if backlog < LOW_WATER {
            conn.paused = false;
        }
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut list = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *list)
        };
        for (token, seq, line) in done {
            self.jobs_inflight -= 1;
            let alive = match self.conns.get_mut(&token) {
                Some(conn) => {
                    conn.inflight -= 1;
                    true
                }
                // The connection died while its query ran; the
                // response has nowhere to go.
                None => false,
            };
            if alive {
                self.complete(token, seq, line);
            }
        }
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.poller.remove(self.listener.as_raw_fd()).ok();
        for conn in self.conns.values_mut() {
            conn.read_buf.clear();
            conn.scanned = 0;
        }
    }

    /// Re-registers interest to match each connection's state and
    /// drops finished or dead connections; returns how many it dropped.
    fn sweep(&mut self) -> usize {
        let Reactor {
            poller,
            conns,
            draining,
            ..
        } = self;
        let draining = *draining;
        let mut doomed = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if conn.dead {
                doomed.push(token);
                continue;
            }
            let settled = conn.flushed() && conn.inflight == 0 && conn.done.is_empty();
            if settled && (conn.peer_eof || conn.close_after_flush || draining) {
                doomed.push(token);
                continue;
            }
            let read = !draining && !conn.peer_eof && !conn.paused && !conn.close_after_flush;
            let write = !conn.flushed();
            let fd = conn.stream.as_raw_fd();
            let ok = if !read && !write {
                // No interest at all: withdraw the descriptor — a
                // level-triggered EPOLLHUP cannot be masked and would
                // spin the loop while workers finish.
                if conn.registered {
                    poller.remove(fd).ok();
                    conn.registered = false;
                }
                true
            } else if !conn.registered {
                let added = poller.add(fd, token, read, write).is_ok();
                conn.registered = added;
                added
            } else if (read, write) != (conn.want_read, conn.want_write) {
                poller.modify(fd, token, read, write).is_ok()
            } else {
                true
            };
            if ok {
                conn.want_read = read;
                conn.want_write = write;
            } else {
                conn.dead = true;
                doomed.push(token);
            }
        }
        let closed = doomed.len();
        for token in doomed {
            if let Some(conn) = conns.remove(&token) {
                if conn.registered {
                    poller.remove(conn.stream.as_raw_fd()).ok();
                }
            }
        }
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Endpoint;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// A request line the test build answers with a panicking job.
    pub(super) const PANIC_FRAME: &str = "test:panic";

    fn reply(reader: &mut BufReader<TcpStream>) -> std::result::Result<wire::Response, Error> {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads a reply");
        wire::parse_response(line.trim_end())
    }

    #[test]
    fn a_panicking_job_is_answered_and_the_worker_survives() {
        let (server, mut reader, mut writer) = serve_loopback();
        // One worker: the panic, then two pipelined requests behind it.
        let ping = wire::encode_simple(2, "ping");
        let logs = wire::encode_simple(3, "logs");
        writer
            .write_all(format!("{PANIC_FRAME}\n{ping}\n{logs}\n").as_bytes())
            .expect("sends");
        let err = reply(&mut reader).expect_err("the panic is an error envelope");
        assert!(err.to_string().contains("injected worker panic"), "{err}");
        assert_eq!(reply(&mut reader).expect("pong").output, "pong\n");
        assert_eq!(
            reply(&mut reader).expect("logs").output,
            "faild: 0 cached logs\n"
        );
        // The lone worker still executes queries.
        let req =
            QueryRequest::report(failapi::QuerySource::model("tsubame2", 42)).sections("header");
        writeln!(writer, "{}", wire::encode_query(4, &req)).expect("sends");
        let served = reply(&mut reader).expect("a later query is served");
        assert_eq!(served.output, QueryEngine::new().execute(&req).expect("runs").output);
        writeln!(writer, "{}", wire::encode_simple(5, "metrics")).expect("sends");
        let metrics = reply(&mut reader).expect("metrics").output;
        assert!(metrics.contains("\"stage\":\"server.worker_panics\",\"value\":1"), "{metrics}");
        writeln!(writer, "{}", wire::encode_simple(6, "shutdown")).expect("sends");
        reply(&mut reader).expect("shutdown");
        server.join().expect("reactor thread").expect("serves");
    }

    /// Serves a fresh engine on a loopback port with one worker;
    /// returns the reactor thread and a connected reader/writer pair.
    fn serve_loopback() -> (
        std::thread::JoinHandle<Result<ServeSummary>>,
        BufReader<TcpStream>,
        TcpStream,
    ) {
        let listener = Listener::bind(&Endpoint::tcp("127.0.0.1:0")).expect("binds");
        let Ok(Endpoint::Tcp(addr)) = listener.bound_endpoint() else {
            panic!("a tcp endpoint");
        };
        let server = std::thread::spawn(move || run(listener, QueryEngine::new(), 1));
        let stream = TcpStream::connect(&addr).expect("connects");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        (server, reader, stream)
    }

    #[test]
    fn shutdown_after_a_worker_panic_still_persists_dirty_snapshots() {
        let dir = std::env::temp_dir().join(format!("faild-panic-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let log = dir.join("fleet.fslog");
        std::fs::write(
            &log,
            "# failscope-log v1\n# generation: Tsubame-3\n# name: Tsubame-3\n# nodes: 540\n\
             # gpus-per-node: 4\n# window: 2017-05-09..2020-02-22\n\
             id,time_h,ttr_h,category,node,gpus,locus\n\
             0,35.5,42.25,CPU,60,,\n1,158.5,84.75,Lustre,187,,\n2,242.0,11.5,CPU,432,,\n",
        )
        .expect("writes the log");
        let snapshot = failindex::snapshot_path(&log);
        std::fs::remove_file(&snapshot).ok();
        let (server, mut reader, mut writer) = serve_loopback();
        // A cold parse with snapshots off leaves the log dirty.
        let req = QueryRequest::report(failapi::QuerySource::file(log.to_str().unwrap()))
            .index(failindex::IndexMode::Off)
            .sections("header");
        writeln!(writer, "{}", wire::encode_query(1, &req)).expect("sends");
        reply(&mut reader).expect("the cold report is served");
        writeln!(writer, "{PANIC_FRAME}").expect("sends");
        reply(&mut reader).expect_err("the panic is an error envelope");
        writeln!(writer, "{}", wire::encode_simple(2, "shutdown")).expect("sends");
        reply(&mut reader).expect("shutdown");
        let summary = server.join().expect("reactor thread").expect("serves");
        assert_eq!(summary.snapshots_persisted, 1);
        assert!(snapshot.exists(), "{}", snapshot.display());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn frames(buf: &mut Vec<u8>, scanned: &mut usize) -> Vec<FrameStep> {
        let mut out = Vec::new();
        loop {
            match take_frame(buf, scanned) {
                FrameStep::Incomplete => return out,
                step => out.push(step),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn framing_is_independent_of_how_bytes_arrive(
            lines in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..8),
            cuts in proptest::collection::vec(0usize..400, 0..8),
        ) {
            // Newline-free lines joined by newlines, delivered in pieces.
            let lines: Vec<Vec<u8>> = lines
                .into_iter()
                .map(|l| l.into_iter().filter(|&b| b != b'\n').collect())
                .collect();
            let mut stream = Vec::new();
            for line in &lines {
                stream.extend_from_slice(line);
                stream.push(b'\n');
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let (mut buf, mut scanned, mut got, mut from) = (Vec::new(), 0, Vec::new(), 0);
            for cut in cuts {
                buf.extend_from_slice(&stream[from..cut]);
                from = cut;
                got.extend(frames(&mut buf, &mut scanned));
            }
            prop_assert!(buf.is_empty());
            prop_assert_eq!(got.len(), lines.len());
            for (step, line) in got.iter().zip(&lines) {
                match (step, std::str::from_utf8(line)) {
                    (FrameStep::Line(text), Ok(expect)) => prop_assert_eq!(text.as_str(), expect),
                    (FrameStep::Bad, Err(_)) => {}
                    _ => prop_assert!(false, "line {:?} framed wrongly", line),
                }
            }
        }

        #[test]
        fn arbitrary_bytes_frame_without_panicking(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            scanned in 0usize..600,
        ) {
            let mut buf = bytes;
            // Any scan offset the reactor could hold: at most the length.
            let mut scanned = scanned % (buf.len() + 1);
            let before = buf.len();
            let steps = frames(&mut buf, &mut scanned);
            prop_assert!(scanned <= buf.len());
            prop_assert!(buf.len() <= before);
            prop_assert!(steps.iter().all(|s| !matches!(s, FrameStep::Oversize)));
        }
    }
}
