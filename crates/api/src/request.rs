//! The serializable query model shared by the CLI and the server.
//!
//! A [`QueryRequest`] carries everything a report or comparison needs,
//! as plain data: raw filter expressions (compiled at execution time so
//! requests stay cheap to ship over the wire and stable as cache-key
//! components), a source ([`QuerySource`]), and the common
//! [`QueryOptions`]. The flag-parsing helpers at the bottom are the
//! single place the textual flag values (`--threads 4`,
//! `--format json`, ...) become typed values, so the CLI and the wire
//! protocol reject bad values with identical messages.

use failindex::IndexMode;
use failtypes::{Error, Result};

/// Where a query's records come from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QuerySource {
    /// A `.fslog` file on disk (gzip-compressed input is transparent).
    File(String),
    /// A calibrated model generated in-process (`--model NAME
    /// [--seed N]`).
    Model {
        /// Model name (`tsubame2` or `tsubame3`).
        name: String,
        /// Simulation seed.
        seed: u64,
    },
}

impl QuerySource {
    /// Convenience constructor for a file source.
    pub fn file(path: impl Into<String>) -> Self {
        QuerySource::File(path.into())
    }

    /// Convenience constructor for a model source.
    pub fn model(name: impl Into<String>, seed: u64) -> Self {
        QuerySource::Model {
            name: name.into(),
            seed,
        }
    }
}

/// How a query renders its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Operator-facing plain text (the default).
    #[default]
    Text,
    /// Machine-readable JSON (NDJSON with a `{"v":1,...}` header line).
    Json,
}

impl OutputFormat {
    /// The wire/flag name of the format.
    pub fn name(self) -> &'static str {
        match self {
            OutputFormat::Text => "text",
            OutputFormat::Json => "json",
        }
    }
}

/// What a query computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryCmd {
    /// The sectioned reliability report over one source.
    Report(QuerySource),
    /// The cross-generation comparison of two log files.
    Compare {
        /// The older log's path.
        old: String,
        /// The newer log's path.
        new: String,
    },
}

/// Options shared by every query command; mirrors the CLI's common
/// flags one for one so they cannot drift between commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker threads for parsing and section rendering. Output is
    /// byte-identical at every value.
    pub threads: usize,
    /// Raw `--where` filter expression, compiled at execution time.
    pub where_expr: Option<String>,
    /// Raw `--since` bound (sugar for `time >= T`).
    pub since: Option<String>,
    /// Raw `--until` bound (sugar for `time < T`, exclusive).
    pub until: Option<String>,
    /// Output format.
    pub format: OutputFormat,
    /// Raw `--sections` selection spec (report only; `None` = all).
    pub sections: Option<String>,
    /// `.fsidx` snapshot policy; `None` means the flag was not given
    /// (equivalent to [`IndexMode::Off`], but model sources reject an
    /// explicit flag even when it is `off`).
    pub index: Option<IndexMode>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            threads: failstats::available_threads(),
            where_expr: None,
            since: None,
            until: None,
            format: OutputFormat::Text,
            sections: None,
            index: None,
        }
    }
}

impl QueryOptions {
    /// The effective snapshot policy ([`IndexMode::Off`] when the flag
    /// was not given).
    pub fn index_mode(&self) -> IndexMode {
        self.index.unwrap_or_default()
    }
}

/// A complete query: the command plus its options. Build one with
/// [`QueryRequest::report`] / [`QueryRequest::compare`] and the
/// chainable setters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// What to compute.
    pub cmd: QueryCmd,
    /// The shared options.
    pub opts: QueryOptions,
}

impl QueryRequest {
    /// A report query over `source` with default options.
    pub fn report(source: QuerySource) -> Self {
        QueryRequest {
            cmd: QueryCmd::Report(source),
            opts: QueryOptions::default(),
        }
    }

    /// A comparison query over two log files with default options.
    pub fn compare(old: impl Into<String>, new: impl Into<String>) -> Self {
        QueryRequest {
            cmd: QueryCmd::Compare {
                old: old.into(),
                new: new.into(),
            },
            opts: QueryOptions::default(),
        }
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Sets the raw `--where` expression.
    #[must_use]
    pub fn where_expr(mut self, expr: impl Into<String>) -> Self {
        self.opts.where_expr = Some(expr.into());
        self
    }

    /// Sets the raw `--since` bound.
    #[must_use]
    pub fn since(mut self, bound: impl Into<String>) -> Self {
        self.opts.since = Some(bound.into());
        self
    }

    /// Sets the raw `--until` bound.
    #[must_use]
    pub fn until(mut self, bound: impl Into<String>) -> Self {
        self.opts.until = Some(bound.into());
        self
    }

    /// Sets the output format.
    #[must_use]
    pub fn format(mut self, format: OutputFormat) -> Self {
        self.opts.format = format;
        self
    }

    /// Sets the raw `--sections` selection spec.
    #[must_use]
    pub fn sections(mut self, spec: impl Into<String>) -> Self {
        self.opts.sections = Some(spec.into());
        self
    }

    /// Sets an explicit `.fsidx` snapshot policy.
    #[must_use]
    pub fn index(mut self, mode: IndexMode) -> Self {
        self.opts.index = Some(mode);
        self
    }
}

/// Parses a generic flag value with the canonical CLI error message.
fn parse_flag<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| Error::args(format!("invalid value `{raw}` for --{flag}")))
}

/// Resolves a raw `--threads` value (default: host parallelism). The
/// rendered output is byte-identical at every thread count.
pub fn parse_threads(raw: Option<&str>) -> Result<usize> {
    match raw {
        None => Ok(failstats::available_threads()),
        Some(raw) => parse_flag("threads", raw),
    }
}

/// Resolves a raw `--format` value (default: text).
pub fn parse_format(raw: Option<&str>) -> Result<OutputFormat> {
    match raw.unwrap_or("text") {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        other => Err(Error::args(format!(
            "unknown --format `{other}` (use text or json)"
        ))),
    }
}

/// Resolves a raw `--index` value. Snapshots are opt-in (`None` when
/// the flag is absent): the default report's metrics section truthfully
/// shows where the data came from, so a silently warm default would
/// change output between otherwise-identical invocations.
pub fn parse_index(raw: Option<&str>) -> Result<Option<IndexMode>> {
    match raw {
        None => Ok(None),
        Some(raw) => raw.parse::<IndexMode>().map(Some).map_err(Error::args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_options() {
        let req = QueryRequest::report(QuerySource::file("a.fslog"))
            .threads(3)
            .where_expr("category == gpu")
            .since("500")
            .until("1000")
            .format(OutputFormat::Json)
            .sections("tbf,ttr")
            .index(IndexMode::Auto);
        assert_eq!(req.opts.threads, 3);
        assert_eq!(req.opts.where_expr.as_deref(), Some("category == gpu"));
        assert_eq!(req.opts.format, OutputFormat::Json);
        assert_eq!(req.opts.index_mode(), IndexMode::Auto);
        let cmp = QueryRequest::compare("old.fslog", "new.fslog");
        assert_eq!(cmp.opts.index, None);
        assert_eq!(cmp.opts.index_mode(), IndexMode::Off);
    }

    #[test]
    fn flag_parsers_match_cli_messages() {
        assert_eq!(parse_threads(Some("4")).unwrap(), 4);
        assert_eq!(
            parse_threads(Some("many")).unwrap_err().to_string(),
            "invalid value `many` for --threads"
        );
        assert_eq!(parse_format(None).unwrap(), OutputFormat::Text);
        assert!(parse_format(Some("yaml"))
            .unwrap_err()
            .to_string()
            .contains("unknown --format `yaml`"));
        assert_eq!(parse_index(None).unwrap(), None);
        assert_eq!(parse_index(Some("require")).unwrap(), Some(IndexMode::Require));
        assert!(parse_index(Some("sometimes")).is_err());
    }
}
