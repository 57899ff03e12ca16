//! The flags every analysis command shares, captured once.
//!
//! [`CommonQueryArgs`] holds the raw values of the common query flags
//! (`--threads`, `--where`, `--sections`, `--format`, `--index`,
//! `--trace`, plus the `--since`/`--until` time sugar) and turns them
//! into the shared [`failapi`] request types.
//! `report`, `compare`, and `watch` all go through here, so a flag
//! cannot gain command-specific parsing or drift in its error message.

use failtrace::Collector;
use failtypes::{Error, Result};

use crate::args::ParsedArgs;

/// The flags shared by every analysis command (`watch` additionally
/// keeps its own source-specific flags).
pub const COMMON_QUERY_FLAGS: &[&str] = &[
    "threads",
    "where",
    "sections",
    "format",
    "index",
    "trace",
];

/// The `--since`/`--until` time-bound sugar (report and compare only;
/// watch has no retrospective window to clip).
pub const TIME_FLAGS: &[&str] = &["since", "until"];

/// Raw values of the common query flags, exactly as given on the
/// command line. Values stay raw here because downstream diagnostics
/// quote them verbatim; [`CommonQueryArgs::apply_query`] and
/// [`CommonQueryArgs::apply_watch`] are where they become typed.
#[derive(Debug, Clone, Default)]
pub struct CommonQueryArgs {
    /// Raw `--threads`.
    pub threads: Option<String>,
    /// Raw `--where` expression.
    pub where_expr: Option<String>,
    /// Raw `--since` bound.
    pub since: Option<String>,
    /// Raw `--until` bound.
    pub until: Option<String>,
    /// Raw `--format`.
    pub format: Option<String>,
    /// Raw `--sections` selection.
    pub sections: Option<String>,
    /// Raw `--index` mode.
    pub index: Option<String>,
    /// `--trace` output path.
    pub trace: Option<String>,
}

impl CommonQueryArgs {
    /// Captures the common flags from a parsed command line.
    pub fn from_args(args: &ParsedArgs) -> Self {
        let take = |key: &str| args.flag(key).map(String::from);
        CommonQueryArgs {
            threads: take("threads"),
            where_expr: take("where"),
            since: take("since"),
            until: take("until"),
            format: take("format"),
            sections: take("sections"),
            index: take("index"),
            trace: take("trace"),
        }
    }

    /// Applies the common flags to a report/compare request, parsing
    /// the typed ones with the canonical messages.
    ///
    /// # Errors
    ///
    /// Fails on an unparsable `--threads`, `--format` or `--index`
    /// value.
    pub fn apply_query(&self, mut req: failapi::QueryRequest) -> Result<failapi::QueryRequest> {
        req.opts.threads = failapi::parse_threads(self.threads.as_deref())?;
        req.opts.format = failapi::parse_format(self.format.as_deref())?;
        req.opts.index = failapi::parse_index(self.index.as_deref())?;
        req.opts.where_expr = self.where_expr.clone();
        req.opts.since = self.since.clone();
        req.opts.until = self.until.clone();
        req.opts.sections = self.sections.clone();
        Ok(req)
    }

    /// Applies the common flags to a watch request. Most values stay
    /// raw (watch's flag-combination diagnostics quote them verbatim);
    /// only `--format` and `--index` are parsed here. Watch takes no
    /// `--threads`: its summaries render on the calling thread.
    ///
    /// # Errors
    ///
    /// Fails on an unparsable `--format` or `--index` value.
    pub fn apply_watch(&self, req: &mut failapi::WatchRequest) -> Result<()> {
        req.where_expr = self.where_expr.clone();
        req.sections = self.sections.clone();
        req.format = failapi::parse_format(self.format.as_deref())?;
        req.index = failapi::parse_index(self.index.as_deref())?;
        Ok(())
    }

    /// Writes the collector's deterministic NDJSON export to the
    /// `--trace` path (a no-op when the flag is absent).
    ///
    /// # Errors
    ///
    /// Fails when the trace file cannot be written.
    pub fn write_trace(&self, trace: &Collector) -> Result<()> {
        if let Some(path) = &self.trace {
            std::fs::write(path, trace.export()).map_err(|e| Error::io("writing trace", e))?;
        }
        Ok(())
    }
}

/// Composes a command's allowed-flag list: the common query flags,
/// then `extra`, preserving order for the `unknown flag` message.
pub fn allowed_flags(with_time: bool, extra: &[&'static str]) -> Vec<&'static str> {
    let mut allowed: Vec<&'static str> = COMMON_QUERY_FLAGS.to_vec();
    if with_time {
        allowed.extend_from_slice(TIME_FLAGS);
    }
    allowed.extend_from_slice(extra);
    allowed
}
