//! The failscope query layer: a typed [`QueryRequest`] /
//! [`QueryOutcome`] API with **one** execution path shared
//! byte-identically by the `failctl` CLI and the `faild` query server.
//!
//! Before this crate existed, `failctl report` and `failctl compare`
//! carried the whole pipeline — filter compilation, `.fsidx` snapshot
//! policy, cold parsing, section rendering — inside the CLI crate,
//! which made a long-running server impossible without duplicating
//! that logic. `failapi` extracts it:
//!
//! * [`request`] — the serializable query model: sources
//!   ([`QuerySource`]), commands (report/compare), and the common
//!   options every query shares (threads, `--where`/`--since`/`--until`
//!   filters, sections, format, `.fsidx` index policy).
//! * [`engine`] — [`QueryEngine::execute`], the single execution path.
//!   A fresh engine behaves exactly like the old CLI commands; a
//!   long-lived engine (the server) additionally memoizes parsed logs
//!   and rendered outputs keyed by content fingerprints, so repeated
//!   queries are answered without re-parsing **and still byte-identical
//!   to a cold run** (cached load traces are replayed into each query's
//!   collector via [`failtrace::Collector::merge_from`]).
//! * [`wire`] — the versioned NDJSON protocol (`{"v":1,...}`) spoken
//!   over the `faild` socket, used by both the server and the
//!   `failctl query` client so the two cannot drift.
//! * [`watch`] — the streaming watch runner ([`WatchRequest`]), moved
//!   out of the CLI so bounded watch queries can also be served.
//!
//! # Determinism contract
//!
//! For any fixed request, the rendered output is byte-identical at
//! every `--threads` value, warm or cold, cached or uncached. Cache
//! keys therefore exclude the thread count but include the source
//! fingerprint (bytes + crc32), the filter expressions, the section
//! selection, the output format, and — when snapshots are in play — the
//! snapshot freshness state, which is what invalidates warm entries when
//! a log grows. Every query parses at one chunk size
//! ([`faillog::DEFAULT_CHUNK_BYTES`]), so it is no key component.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod engine;
pub mod request;
pub mod watch;
pub mod wire;

pub use engine::{
    render_catalog, CatalogEntry, EvictOutcome, QueryEngine, QueryOutcome, DEFAULT_CACHE_BYTES,
};
pub use request::{
    parse_format, parse_index, parse_threads, OutputFormat, QueryCmd, QueryOptions, QueryRequest,
    QuerySource,
};
pub use watch::WatchRequest;
