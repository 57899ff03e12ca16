//! Error types for the domain model, and the workspace-wide unified
//! [`Error`] enum every pipeline crate returns.

use std::error::Error as StdError;
use std::fmt;

/// Error returned when a category or root-locus label fails to parse.
///
/// ```
/// use failtypes::T2Category;
/// let err = "Quantum".parse::<T2Category>().unwrap_err();
/// assert!(err.to_string().contains("Quantum"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCategoryError {
    label: String,
}

impl ParseCategoryError {
    /// Creates an error recording the offending label.
    pub fn new(label: impl Into<String>) -> Self {
        ParseCategoryError {
            label: label.into(),
        }
    }

    /// Returns the label that failed to parse.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for ParseCategoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown failure category label `{}`", self.label)
    }
}

impl StdError for ParseCategoryError {}

/// Error returned when building an invalid [`crate::SystemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSpecError {
    reason: &'static str,
}

impl InvalidSpecError {
    /// Creates an error with a static reason.
    pub const fn new(reason: &'static str) -> Self {
        InvalidSpecError { reason }
    }

    /// Returns the reason the specification was rejected.
    pub const fn reason(&self) -> &'static str {
        self.reason
    }
}

impl fmt::Display for InvalidSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system specification: {}", self.reason)
    }
}

impl StdError for InvalidSpecError {}

/// Error returned when a [`crate::FailureRecord`] violates a log invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidRecordError {
    /// The failure time is negative, non-finite, or outside the log window.
    TimeOutOfWindow {
        /// The offending offset in hours.
        offset: f64,
        /// The window length in hours.
        window: f64,
    },
    /// The time to recovery is negative or non-finite.
    InvalidTtr {
        /// The offending duration in hours.
        ttr: f64,
    },
    /// The record references a node outside the system.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// The number of nodes in the system.
        nodes: u32,
    },
    /// The record references a GPU slot outside the node.
    SlotOutOfRange {
        /// The offending slot index.
        slot: u8,
        /// The number of GPU slots per node.
        slots: u8,
    },
    /// The record lists the same GPU slot twice.
    DuplicateSlot {
        /// The duplicated slot index.
        slot: u8,
    },
    /// The record carries GPU involvement but is not a GPU failure.
    UnexpectedGpuInvolvement,
    /// The record carries a software root locus but is not a software
    /// failure.
    UnexpectedSoftwareLocus,
    /// The record's category belongs to the other system.
    CategorySystemMismatch,
}

impl fmt::Display for InvalidRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidRecordError::TimeOutOfWindow { offset, window } => write!(
                f,
                "failure time {offset} h lies outside the observation window of {window} h"
            ),
            InvalidRecordError::InvalidTtr { ttr } => {
                write!(f, "time to recovery {ttr} h is not a valid duration")
            }
            InvalidRecordError::NodeOutOfRange { node, nodes } => {
                write!(f, "node index {node} exceeds system size {nodes}")
            }
            InvalidRecordError::SlotOutOfRange { slot, slots } => {
                write!(f, "GPU slot {slot} exceeds {slots} GPUs per node")
            }
            InvalidRecordError::DuplicateSlot { slot } => {
                write!(f, "GPU slot {slot} listed more than once")
            }
            InvalidRecordError::UnexpectedGpuInvolvement => {
                write!(f, "non-GPU failure carries GPU involvement data")
            }
            InvalidRecordError::UnexpectedSoftwareLocus => {
                write!(f, "non-software failure carries a software root locus")
            }
            InvalidRecordError::CategorySystemMismatch => {
                write!(f, "failure category belongs to the other system generation")
            }
        }
    }
}

impl StdError for InvalidRecordError {}

/// Convenience alias used by every public fallible API in the
/// workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified pipeline error: one source-chained enum covering log
/// serialization, simulation, streaming, configuration, and CLI
/// failures.
///
/// Row-level parse errors keep their 1-based line number (and the
/// offending column when attributable to one) so operators can find the
/// bad row; see [`Error::line`].
///
/// ```
/// use failtypes::Error;
/// let err = Error::row_field(9, "ttr_h", "not a number");
/// assert_eq!(err.line(), Some(9));
/// assert!(err.to_string().contains("line 9"));
/// assert!(err.to_string().contains("`ttr_h`"));
/// ```
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O error, optionally tagged with what the
    /// pipeline was doing (e.g. `"writing log"`).
    Io {
        /// What the pipeline was doing, when known.
        context: Option<&'static str>,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A serialized log's header is missing or malformed.
    Header(String),
    /// A serialized log row is malformed; carries the 1-based line
    /// number, the offending column when known, and a description.
    Row {
        /// 1-based line number in the input.
        line: usize,
        /// Column name of the offending field, when attributable to one.
        field: Option<&'static str>,
        /// What was wrong.
        message: String,
    },
    /// A row parsed but its record violates an invariant (node out of
    /// range, time outside the window, ...); carries the 1-based line
    /// number so the operator can find the row.
    InvalidRow {
        /// 1-based line number in the input.
        line: usize,
        /// The violated invariant.
        error: InvalidRecordError,
    },
    /// Records parsed (or were generated) individually but the
    /// assembled log violates an invariant.
    Invalid(InvalidRecordError),
    /// A configuration value was rejected by a validating builder.
    Config {
        /// Which configuration was being built (e.g. `"watch state"`).
        target: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// Command-line arguments failed to parse.
    Args(String),
    /// A command ran but failed.
    Run(String),
    /// A bug: the server caught a panic while executing a request.
    Internal(String),
    /// Any other failure, wrapped with a static description of the
    /// operation that raised it.
    Other {
        /// What the pipeline was doing.
        context: &'static str,
        /// The underlying error.
        source: Box<dyn StdError + Send + Sync>,
    },
}

impl Error {
    /// An I/O error tagged with the operation that raised it.
    pub fn io(context: &'static str, source: std::io::Error) -> Self {
        Error::Io {
            context: Some(context),
            source,
        }
    }

    /// A malformed-header error.
    pub fn header(message: impl Into<String>) -> Self {
        Error::Header(message.into())
    }

    /// A malformed-row error without a specific field.
    pub fn row(line: usize, message: impl Into<String>) -> Self {
        Error::Row {
            line,
            field: None,
            message: message.into(),
        }
    }

    /// A malformed-row error pointing at one named field.
    pub fn row_field(line: usize, field: &'static str, message: impl Into<String>) -> Self {
        Error::Row {
            line,
            field: Some(field),
            message: message.into(),
        }
    }

    /// An invariant violation attributable to one row.
    pub fn invalid_row(line: usize, error: InvalidRecordError) -> Self {
        Error::InvalidRow { line, error }
    }

    /// A rejected configuration value.
    pub fn config(target: &'static str, reason: impl Into<String>) -> Self {
        Error::Config {
            target,
            reason: reason.into(),
        }
    }

    /// An argument-parsing error.
    pub fn args(message: impl Into<String>) -> Self {
        Error::Args(message.into())
    }

    /// A command failure.
    pub fn run(message: impl Into<String>) -> Self {
        Error::Run(message.into())
    }

    /// An internal failure (a caught panic), never a fault of the input.
    pub fn internal(message: impl Into<String>) -> Self {
        Error::Internal(message.into())
    }

    /// Wraps any other error with a static operation description.
    pub fn other(
        context: &'static str,
        source: impl StdError + Send + Sync + 'static,
    ) -> Self {
        Error::Other {
            context,
            source: Box::new(source),
        }
    }

    /// The 1-based line number the error points at, when it is
    /// attributable to a specific row.
    pub fn line(&self) -> Option<usize> {
        match self {
            Error::Row { line, .. } | Error::InvalidRow { line, .. } => Some(*line),
            _ => None,
        }
    }

    /// A stable machine-readable tag naming the error variant, used by
    /// the `faild` protocol's typed error envelope
    /// (`{"error":{"kind":...,"message":...}}`).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Io { .. } => "io",
            Error::Header(_) => "header",
            Error::Row { .. } => "row",
            Error::InvalidRow { .. } => "invalid_row",
            Error::Invalid(_) => "invalid",
            Error::Config { .. } => "config",
            Error::Args(_) => "args",
            Error::Run(_) => "run",
            Error::Internal(_) => "internal",
            Error::Other { .. } => "other",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io {
                context: Some(context),
                source,
            } => write!(f, "i/o error while {context}: {source}"),
            Error::Io {
                context: None,
                source,
            } => write!(f, "i/o error: {source}"),
            Error::Header(msg) => write!(f, "malformed log header: {msg}"),
            Error::Row {
                line,
                field: Some(field),
                message,
            } => write!(f, "malformed log row at line {line}, field `{field}`: {message}"),
            Error::Row {
                line,
                field: None,
                message,
            } => write!(f, "malformed log row at line {line}: {message}"),
            Error::InvalidRow { line, error } => {
                write!(f, "invalid record at line {line}: {error}")
            }
            Error::Invalid(e) => write!(f, "log violates an invariant: {e}"),
            Error::Config { target, reason } => {
                write!(f, "invalid {target} configuration: {reason}")
            }
            Error::Args(msg) => write!(f, "{msg}"),
            Error::Run(msg) => write!(f, "{msg}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
            Error::Other { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Invalid(e) => Some(e),
            Error::InvalidRow { error, .. } => Some(error),
            Error::Other { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io {
            context: None,
            source: e,
        }
    }
}

impl From<InvalidRecordError> for Error {
    fn from(e: InvalidRecordError) -> Self {
        Error::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_reports_label() {
        let e = ParseCategoryError::new("Foo");
        assert_eq!(e.label(), "Foo");
        assert_eq!(e.to_string(), "unknown failure category label `Foo`");
    }

    #[test]
    fn spec_error_reports_reason() {
        let e = InvalidSpecError::new("nope");
        assert_eq!(e.reason(), "nope");
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn record_error_messages_are_specific() {
        let cases: Vec<(InvalidRecordError, &str)> = vec![
            (
                InvalidRecordError::TimeOutOfWindow {
                    offset: -1.0,
                    window: 100.0,
                },
                "outside",
            ),
            (InvalidRecordError::InvalidTtr { ttr: -3.0 }, "recovery"),
            (
                InvalidRecordError::NodeOutOfRange {
                    node: 9,
                    nodes: 5,
                },
                "node index",
            ),
            (
                InvalidRecordError::SlotOutOfRange { slot: 7, slots: 4 },
                "slot",
            ),
            (InvalidRecordError::DuplicateSlot { slot: 1 }, "more than once"),
            (InvalidRecordError::UnexpectedGpuInvolvement, "non-GPU"),
            (InvalidRecordError::UnexpectedSoftwareLocus, "non-software"),
            (InvalidRecordError::CategorySystemMismatch, "other system"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: StdError + Send + Sync + 'static>() {}
        assert_err::<ParseCategoryError>();
        assert_err::<InvalidSpecError>();
        assert_err::<InvalidRecordError>();
        assert_err::<Error>();
    }

    #[test]
    fn unified_error_display_strings() {
        let io = std::io::Error::other("disk full");
        assert_eq!(
            Error::io("writing log", io).to_string(),
            "i/o error while writing log: disk full"
        );
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert_eq!(Error::from(io).to_string(), "i/o error: gone");
        assert_eq!(
            Error::header("no version").to_string(),
            "malformed log header: no version"
        );
        assert_eq!(
            Error::row(7, "bad field").to_string(),
            "malformed log row at line 7: bad field"
        );
        assert_eq!(
            Error::row_field(9, "ttr_h", "not a number").to_string(),
            "malformed log row at line 9, field `ttr_h`: not a number"
        );
        assert_eq!(
            Error::invalid_row(12, InvalidRecordError::CategorySystemMismatch).to_string(),
            "invalid record at line 12: failure category belongs to the other system generation"
        );
        assert_eq!(
            Error::from(InvalidRecordError::UnexpectedGpuInvolvement).to_string(),
            "log violates an invariant: non-GPU failure carries GPU involvement data"
        );
        assert_eq!(
            Error::config("watch state", "window must be at least 1").to_string(),
            "invalid watch state configuration: window must be at least 1"
        );
        assert_eq!(Error::args("unknown flag --x").to_string(), "unknown flag --x");
        assert_eq!(Error::run("boom").to_string(), "boom");
        assert_eq!(
            Error::other("stream state error", InvalidSpecError::new("nope")).to_string(),
            "stream state error: invalid system specification: nope"
        );
    }

    #[test]
    fn unified_error_line_and_source() {
        assert_eq!(Error::row(7, "x").line(), Some(7));
        assert_eq!(
            Error::invalid_row(3, InvalidRecordError::DuplicateSlot { slot: 1 }).line(),
            Some(3)
        );
        assert_eq!(Error::header("x").line(), None);
        assert_eq!(Error::run("x").line(), None);

        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(Error::from(io).source().is_some());
        assert!(Error::from(InvalidRecordError::CategorySystemMismatch)
            .source()
            .is_some());
        assert!(Error::invalid_row(1, InvalidRecordError::CategorySystemMismatch)
            .source()
            .is_some());
        assert!(Error::other("ctx", InvalidSpecError::new("nope"))
            .source()
            .is_some());
        assert!(Error::header("x").source().is_none());
        assert!(Error::args("x").source().is_none());
    }
}
