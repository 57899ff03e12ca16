//! The `failctl` subcommands, one module per command family, all
//! returning their output as a `String` so they are directly
//! unit-testable.
//!
//! The analysis commands (`report`, `compare`, `watch`) are thin
//! adapters: they parse flags into the shared [`failapi`] request types
//! and route through [`failapi::QueryEngine`] — the same execution path
//! `faild` serves — so CLI and server output cannot drift.

mod common;
mod compare;
mod generate;
mod index;
mod ops;
mod query;
mod report;
mod serve;
mod watch;

#[cfg(test)]
mod tests;

pub use compare::compare;
pub use generate::{generate, scenario, summary};
pub use index::index_cmd;
pub use ops::{anonymize, availability, checkpoint, plan, racks, spares, staffing, survival};
pub use query::query;
pub use report::report;
pub use serve::serve;
pub use watch::{watch, watch_stream};

use failtypes::{Error, FailureLog, Result};

use crate::args::ParsedArgs;

/// The help text.
pub fn help() -> String {
    "failctl — multi-GPU supercomputer failure-log toolkit

USAGE: failctl <command> [args]

COMMANDS
  generate --system tsubame2|tsubame3 [--seed N] [--out FILE]
      Generate a calibrated failure log (writes failscope-log v1; an
      --out path ending in .gz is written gzip-compressed).
  scenario --nodes N --gpus G --mtbf H --days D [--seed N] [--out FILE]
           [--multi F] [--trend-start X] [--trend-end Y]
      Generate a what-if system's log (trend: rate ramps X -> Y x base).
  summary <FILE>
      One-paragraph structural summary of a log.
  report <FILE | --model tsubame2|tsubame3 [--seed N]> [--threads N]
         [--where EXPR] [--since T] [--until T] [--format text|json]
         [--sections IDS] [--trace FILE] [--index auto|off|require]
      Full five-RQ reliability report (parsing and sections computed in
      parallel; output is identical at any thread count). The input is
      a log file — gzip-compressed .fslog.gz is decoded transparently —
      or a calibrated model generated in-process. --threads also sets
      the parse worker count. --where EXPR keeps only records matching
      a filter expression — e.g. 'category == gpu && ttr > 24' — over
      the fields category, ttr, recovery, time, node, slot, rack,
      gpus, month, with ==, !=, <, <=, >, >=, ~ (substring),
      `in (a, b)`, combined with &&, ||, ! and parentheses; the
      predicate filters the loaded view (a cold parse or a warm
      snapshot, both unfiltered), so every source and index mode keeps
      the same records. --since T and
      --until T are sugar for `time >= T` / `time < T` (until is
      exclusive) and conjoin with --where; T is hours from the window
      start or a YYYY-MM-DD date. --format json emits a {\"v\":1} header
      line, then one NDJSON line per section; --sections picks from:
      header, categories, spatial, involvement, tbf, ttr, availability,
      survival, seasonal, metrics (the pipeline's own runtime
      counters). --trace writes the deterministic NDJSON trace export.
      --index auto serves the report from a validated FILE.fsidx
      snapshot when one exists (skipping parsing entirely on an
      unchanged log, parsing only the appended tail on a grown one) and
      refreshes it after cold parses; require insists on a warm
      snapshot; off (the default) ignores snapshots. A snapshot that
      recorded the log's file identity (device, inode, size, mtime,
      ctime) is served without reading the log while a stat still
      matches it and the log last changed well before the build read
      it; otherwise the log is read and checksummed.
  compare <OLD> <NEW> [--threads N] [--where EXPR]
          [--since T] [--until T] [--format text|json] [--trace FILE]
          [--index auto|off|require]
      Cross-generation comparison (MTBF/MTTR/PEP factors); inputs may
      be gzip-compressed. --format json emits a {\"v\":1} header line and
      one JSON document. --where/--since/--until filter both inputs as
      for report; --index works as for report, for both inputs.
  index build|verify|stat <FILE> [--threads N]
      Manage FILE.fsidx snapshots: build parses FILE and writes the
      checksummed snapshot next to it, recording FILE's identity;
      verify checks the snapshot against the log's current bytes
      (exact or prefix coverage passes, stale or missing is an error),
      always reading and checksumming the whole log, so use it when
      you do not trust file timestamps; stat prints a snapshot's
      metadata, the recorded identity and whether a query would serve
      it without reading the log now (yes, racy, or no identity),
      stat-ing but never reading the log (FILE may also be the .fsidx
      itself).
  watch <FILE|sim:MODEL> [--follow] [--accel RATE|max] [--seed N]
        [--baseline tsubame2|tsubame3|none] [--window N] [--refresh N]
        [--max-records N] [--max-idle N] [--inject-mttr F]
        [--where EXPR] [--format text|json] [--sections IDS]
        [--trace FILE] [--index auto|off]
      Stream a log (or an accelerated simulated replay) through the
      online monitor: NDJSON drift alerts against a calibrated
      baseline, plus periodic summaries. A gzip-compressed replay file
      is decoded transparently (non-follow only: --follow requires
      plain text, since appended bytes cannot be observed through a
      compressed member). A --follow poll that finds no new line also
      checks the file: if it shrank below the bytes read (truncated)
      or its path names another file or none (rotated), the watch ends
      with an error naming the rotation, every row read before it
      ingested once. As with `tail -F`, a shrink refilled past the old
      offset between two polls (200 ms) is not seen. Drift checks run
      every --refresh records (default 100), before each summary, and
      once when the run stops, so alerts never depend on how records
      arrive (with --follow, an alert can wait up to --refresh
      records). --where EXPR scopes
      the monitor to matching records (report syntax): the detector
      and summaries see only the filtered stream, and every alert line
      carries the expression in a `filter` field. --format json makes
      the whole stream NDJSON (a {\"v\":1} header line, then one line
      per summary section); --sections picks from: overview,
      categories, slots, months. --trace writes the loop's
      ingestion/alert counters as NDJSON. --index auto persists the
      accumulated index as FILE.fsidx on clean shutdown (plain-text
      file sources only, and never combined with --where: snapshots
      always hold unfiltered state), so a later `report --index auto`
      starts warm.
  serve --socket PATH | --listen ADDR [--max-inflight N] [--cache-bytes N]
      Run faild: a long-lived query server holding parsed logs and
      warm .fsidx indexes in memory, answering report/compare/watch/
      metrics queries from many concurrent clients over the versioned
      NDJSON protocol. One event-loop thread multiplexes every
      connection (idle clients cost zero CPU); --max-inflight (default
      4) sizes the worker pool that executes queries. --cache-bytes
      bounds the rendered-output LRU cache (default 64 MiB; 0 disables
      it). Prints a {\"v\":1,\"ready\":true,...} line once the socket is
      bound. Responses are byte-identical to the equivalent CLI
      invocation. A client `shutdown` command stops the server
      gracefully, persisting .fsidx snapshots for every log it
      cold-parsed.
  query --socket PATH | --connect ADDR <report|compare|watch|logs|evict|metrics|ping|shutdown> [args]
      Send one query to a running faild and print the response body.
      report/compare/watch take the same arguments as the local
      commands (minus --trace and --follow), so
      `failctl query --socket S report LOG --format json` prints
      exactly what `failctl report LOG --format json` would. `logs`
      lists the server's cached-log catalog (records, source
      fingerprint, snapshot state, cached render count); `evict LOG`
      (or `evict --model NAME [--seed N]`) drops one source's memoized
      state and render-cache entries without restarting the server.
  anonymize <IN> <OUT> [--key N]
      Rewrite node identities with a keyed permutation.
  checkpoint <FILE> [--cost H]
      Young/Daly checkpoint intervals from the measured MTBF.
  spares <FILE> [--class gpu|cpu|memory|storage|power|board] [--lead-days D] [--risk EPS]
      Spare-pool sizing for a component class.
  availability <FILE>
      Repair overlap and node availability.
  survival <FILE>
      Node time-to-first-failure survival summary.
  staffing <FILE> [--crews N] [--target INFLATION]
      Repair-crew queueing: effective MTTR vs crew count.
  plan <FILE>
      Integrated operations plan (checkpoints, spares, crews, placement).
  racks <FILE>
      Rack-level failure distribution and uniformity test.
  help
      This text.
"
    .to_string()
}

/// Loads a log with default parse options, prefixing errors with the
/// path (parse errors carry their 1-based line number and offending
/// field; the path makes the message directly actionable).
pub(crate) fn load(path: &str) -> Result<FailureLog> {
    faillog::load(path).map_err(|e| Error::run(format!("{path}: {e}")))
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &ParsedArgs) -> Result<String> {
    match args.command.as_str() {
        "generate" => generate(args),
        "scenario" => scenario(args),
        "summary" => summary(args),
        "report" => report(args),
        "compare" => compare(args),
        "index" => index_cmd(args),
        "anonymize" => anonymize(args),
        "checkpoint" => checkpoint(args),
        "spares" => spares(args),
        "availability" => availability(args),
        "survival" => survival(args),
        "staffing" => staffing(args),
        "plan" => plan(args),
        "racks" => racks(args),
        "watch" => watch(args),
        "serve" => serve(args),
        "query" => query(args),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(Error::run(format!(
            "unknown command `{other}`; try `failctl help`"
        ))),
    }
}
