//! Endpoints, transports, and the [`serve`] entry points.
//!
//! The serving machinery itself lives in the private `reactor`
//! module: one
//! event-loop thread owns the listener and every client socket
//! (non-blocking, epoll-multiplexed), and a bounded worker pool of
//! `max_inflight` threads executes queries — so idle connections cost
//! zero CPU and a burst of expensive cold parses degrades to a queue
//! instead of a thundering herd.
//!
//! Shutdown is a protocol command: any client may send
//! `{"v":1,"id":N,"cmd":"shutdown"}`. The server answers it, stops
//! accepting, drops buffered-but-unparsed requests, lets every
//! in-flight request finish and flush, persists the engine's dirty
//! `.fsidx` snapshots, and returns a [`ServeSummary`].

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use failapi::QueryEngine;
use failtypes::{Error, JsonValue, Result};

/// Where the server listens (and clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7171` (port 0 picks a free one).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl Endpoint {
    /// A Unix-socket endpoint.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        Endpoint::Unix(path.into())
    }

    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        Endpoint::Tcp(addr.into())
    }

    /// Opens a client connection to this endpoint.
    pub(crate) fn connect_stream(&self) -> Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| Error::run(format!("connecting to faild at {self}: {e}"))),
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .map(Stream::Tcp)
                .map(Stream::into_low_latency)
                .map_err(|e| Error::run(format!("connecting to faild at {self}: {e}"))),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// How many queries may execute concurrently (minimum 1) — the
    /// size of the worker pool; further requests queue. Responses are
    /// unaffected — only peak memory is.
    pub max_inflight: usize,
}

/// What a completed serve run did, reported after a graceful shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (including error envelopes).
    pub requests: u64,
    /// `.fsidx` snapshots persisted at shutdown for logs the engine
    /// cold-parsed.
    pub snapshots_persisted: usize,
}

/// The `{"v":1,"ready":true,...}` line a wrapper prints to stdout once
/// the socket is bound, so scripts can wait for it before connecting.
pub fn ready_line(endpoint: &Endpoint) -> String {
    JsonValue::object()
        .field("v", 1u64)
        .field("ready", true)
        .field("endpoint", endpoint.to_string())
        .build()
        .render()
}

/// A duplex byte stream over either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn set_read_timeout(
        &self,
        timeout: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Disables Nagle's algorithm on TCP streams (a no-op on Unix
    /// sockets): the protocol is strictly request/response with one
    /// small line each way, so batching writes only adds the
    /// delayed-ACK round trip to every query.
    pub(crate) fn into_low_latency(self) -> Stream {
        if let Stream::Tcp(s) = &self {
            s.set_nodelay(true).ok();
        }
        self
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

pub(crate) enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                let listener = UnixListener::bind(path).or_else(|_| {
                    // A stale socket file from a crashed server blocks
                    // the bind; remove it and retry once.
                    std::fs::remove_file(path).ok();
                    UnixListener::bind(path)
                })
                .map_err(|e| Error::run(format!("binding {}: {e}", path.display())))?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            Endpoint::Tcp(addr) => TcpListener::bind(addr)
                .map(Listener::Tcp)
                .map_err(|e| Error::run(format!("binding {addr}: {e}"))),
        }
    }

    /// The endpoint actually bound (TCP port 0 resolves here).
    pub(crate) fn bound_endpoint(&self) -> Result<Endpoint> {
        match self {
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(listener) => listener
                .local_addr()
                .map(|a| Endpoint::Tcp(a.to_string()))
                .map_err(|e| Error::io("resolving the bound address", e)),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(listener, _) => listener.set_nonblocking(nonblocking),
            Listener::Tcp(listener) => listener.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(listener, _) => listener.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(listener, _) => listener.as_raw_fd(),
            Listener::Tcp(listener) => listener.as_raw_fd(),
        }
    }
}

/// Runs `faild` to completion with a fresh [`QueryEngine`]: binds the
/// endpoint, calls `ready` with the resolved address (print this to
/// stdout so clients can wait for it), then serves until a client
/// sends `shutdown`. In-flight requests finish, dirty `.fsidx`
/// snapshots are persisted, and the summary is returned.
///
/// # Errors
///
/// Fails only on bind/setup problems; per-connection I/O errors drop
/// that connection and per-request errors become typed error envelopes.
pub fn serve(config: ServerConfig, ready: impl FnOnce(&Endpoint)) -> Result<ServeSummary> {
    serve_with_engine(config, QueryEngine::new(), ready)
}

/// [`serve`] with a caller-built engine — the hook for configuring
/// the render-cache byte budget (`QueryEngine::with_cache_bytes`,
/// the `--cache-bytes` flag) or pre-warming caches before binding.
/// A render-cache hit skips re-reading a log that the engine's
/// racy-clean `stat` rule still vouches for, on every platform.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with_engine(
    config: ServerConfig,
    engine: QueryEngine,
    ready: impl FnOnce(&Endpoint),
) -> Result<ServeSummary> {
    let listener = Listener::bind(&config.endpoint)?;
    let bound = listener.bound_endpoint()?;
    ready(&bound);
    let summary = crate::reactor::run(listener, engine, config.max_inflight);
    if let Endpoint::Unix(path) = &bound {
        std::fs::remove_file(path).ok();
    }
    summary
}
