//! `faild` — the failscope query server.
//!
//! A long-running daemon holding one process-wide
//! [`failapi::QueryEngine`] (parsed logs, warm `.fsidx`-backed render
//! cache) and answering report/compare/watch/metrics/logs/evict
//! queries from many concurrent clients over a Unix or TCP socket, one
//! NDJSON request per line ([`failapi::wire`]).
//!
//! * [`server`] — endpoints, transports, and [`serve`] /
//!   [`serve_with_engine`].
//! * [`reactor`](crate) (private) — the single-threaded non-blocking
//!   event loop that owns every socket, plus the bounded worker pool
//!   (`max_inflight` threads) that executes queries. Idle connections
//!   cost zero CPU; slow readers are backpressured by pausing their
//!   read side once the write backlog passes a high-water mark.
//! * [`sys`](crate) (private) — the zero-dependency epoll bindings
//!   (raw syscalls; the only `unsafe` in the crate).
//! * [`client`] — [`client::Connection`]: the blocking client used by
//!   `failctl query` and the test suite, with a response deadline so a
//!   hung server surfaces as a typed error instead of a stuck process.
//!
//! The determinism contract is inherited from `failapi`: every response
//! body is byte-identical to the equivalent `failctl` CLI invocation,
//! warm or cold, at any thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod client;
mod reactor;
pub mod server;
mod sys;

pub use server::{ready_line, serve, serve_with_engine, Endpoint, ServeSummary, ServerConfig};
