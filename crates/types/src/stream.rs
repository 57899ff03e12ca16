//! Streaming vocabulary: events flowing through an ingestion pipeline
//! and the structured alerts an online monitor emits.
//!
//! The batch pipeline consumes a whole [`crate::FailureLog`] at once;
//! the streaming subsystem (`failwatch`) consumes [`StreamEvent`]s one
//! at a time and reacts with [`Alert`]s — category-mix shifts, MTTR
//! regressions, GPU slot-skew anomalies, and multi-GPU failure bursts.
//! Alerts serialize to one-line JSON ([`Alert::to_ndjson`]) so an
//! operator can pipe `failctl watch` into any NDJSON consumer.

use std::fmt;

use crate::json::{push_json_escaped, push_json_number};
use crate::record::FailureRecord;

/// One event observed by a streaming consumer.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A new failure record arrived.
    Record(FailureRecord),
    /// A follow-mode poll found no new data (heartbeat).
    Idle,
    /// The source is exhausted and will produce no further records.
    Eof,
}

/// What kind of drift or anomaly an alert reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertKind {
    /// The live category mix diverged from the baseline mix (total
    /// variation distance above threshold).
    CategoryMixShift,
    /// The windowed MTTR regressed past the configured ratio of the
    /// baseline MTTR, confirmed by a two-sample KS comparison.
    MttrRegression,
    /// One GPU slot absorbs a share of involvements far from its
    /// baseline share (Fig. 5 skew moved).
    SlotSkewAnomaly,
    /// Several simultaneous multi-GPU failures clustered inside the
    /// excitation window (Fig. 8 burst behaviour, live).
    MultiGpuBurst,
}

impl AlertKind {
    /// Stable snake_case label used in the NDJSON `kind` field.
    pub const fn label(self) -> &'static str {
        match self {
            AlertKind::CategoryMixShift => "category_mix_shift",
            AlertKind::MttrRegression => "mttr_regression",
            AlertKind::SlotSkewAnomaly => "slot_skew_anomaly",
            AlertKind::MultiGpuBurst => "multi_gpu_burst",
        }
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How urgent an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertSeverity {
    /// Informational: worth a look, no action required.
    Info,
    /// Warning: a drift threshold was crossed.
    Warning,
    /// Critical: strongly confirmed regression.
    Critical,
}

impl AlertSeverity {
    /// Stable lowercase label used in the NDJSON `severity` field.
    pub const fn label(self) -> &'static str {
        match self {
            AlertSeverity::Info => "info",
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

impl fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A structured alert emitted by the online drift detector.
///
/// # Examples
///
/// ```
/// use failtypes::{Alert, AlertKind, AlertSeverity};
///
/// let a = Alert {
///     kind: AlertKind::MttrRegression,
///     severity: AlertSeverity::Warning,
///     time_h: 1200.5,
///     window_n: 120,
///     metric: 2.1,
///     threshold: 1.5,
///     p_value: Some(0.003),
///     message: "windowed MTTR 2.1x baseline".into(),
/// };
/// let line = a.to_ndjson();
/// assert!(line.starts_with("{\"kind\":\"mttr_regression\""));
/// assert!(!line.contains('\n'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// What drifted.
    pub kind: AlertKind,
    /// How urgent it is.
    pub severity: AlertSeverity,
    /// Stream time (hours into the observation window) at detection.
    pub time_h: f64,
    /// Number of records in the evaluation window.
    pub window_n: usize,
    /// The observed metric value (ratio, distance, or count).
    pub metric: f64,
    /// The threshold the metric crossed.
    pub threshold: f64,
    /// Significance of the supporting statistical test, when one ran.
    pub p_value: Option<f64>,
    /// Human-readable description.
    pub message: String,
}

impl Alert {
    /// Renders the alert as one line of JSON (no trailing newline).
    ///
    /// Numbers are emitted with enough precision to round-trip; the
    /// message is JSON-escaped.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"severity\":\"");
        out.push_str(self.severity.label());
        out.push_str("\",\"time_h\":");
        push_json_number(&mut out, self.time_h);
        out.push_str(",\"window_n\":");
        out.push_str(&self.window_n.to_string());
        out.push_str(",\"metric\":");
        push_json_number(&mut out, self.metric);
        out.push_str(",\"threshold\":");
        push_json_number(&mut out, self.threshold);
        out.push_str(",\"p_value\":");
        match self.p_value {
            Some(p) => push_json_number(&mut out, p),
            None => out.push_str("null"),
        }
        out.push_str(",\"message\":\"");
        push_json_escaped(&mut out, &self.message);
        out.push_str("\"}");
        out
    }

    /// [`Alert::to_ndjson`], optionally tagged with the `--where`
    /// filter expression scoping the watch that raised it. With
    /// `Some(expr)` the line gains a trailing `"filter"` field so an
    /// NDJSON consumer can tell a scoped alert stream from a fleet-wide
    /// one; with `None` the output is exactly [`Alert::to_ndjson`].
    pub fn to_ndjson_with(&self, filter: Option<&str>) -> String {
        let mut out = self.to_ndjson();
        if let Some(expr) = filter {
            out.pop();
            out.push_str(",\"filter\":\"");
            push_json_escaped(&mut out, expr);
            out.push_str("\"}");
        }
        out
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at t={:.1} h: {}",
            self.severity, self.kind, self.time_h, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert() -> Alert {
        Alert {
            kind: AlertKind::CategoryMixShift,
            severity: AlertSeverity::Info,
            time_h: 10.25,
            window_n: 50,
            metric: 0.3,
            threshold: 0.2,
            p_value: None,
            message: "mix \"shifted\"\nbadly".into(),
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AlertKind::MttrRegression.label(), "mttr_regression");
        assert_eq!(AlertKind::CategoryMixShift.label(), "category_mix_shift");
        assert_eq!(AlertKind::SlotSkewAnomaly.label(), "slot_skew_anomaly");
        assert_eq!(AlertKind::MultiGpuBurst.label(), "multi_gpu_burst");
        assert_eq!(AlertSeverity::Critical.label(), "critical");
        assert_eq!(AlertKind::MultiGpuBurst.to_string(), "multi_gpu_burst");
    }

    #[test]
    fn ndjson_is_one_escaped_line() {
        let line = alert().to_ndjson();
        assert!(!line.contains('\n'));
        assert!(line.contains("\\\"shifted\\\""));
        assert!(line.contains("\\n"));
        assert!(line.contains("\"p_value\":null"));
        assert!(line.contains("\"time_h\":10.25"));
        assert!(line.contains("\"window_n\":50"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn ndjson_with_filter_appends_the_escaped_expression() {
        let a = alert();
        assert_eq!(a.to_ndjson_with(None), a.to_ndjson());
        let line = a.to_ndjson_with(Some("node ~ \"rack12\" && gpus >= 2"));
        assert!(line.ends_with(",\"filter\":\"node ~ \\\"rack12\\\" && gpus >= 2\"}"), "{line}");
        assert!(!line.contains('\n'));
        assert!(line.starts_with(&a.to_ndjson()[..a.to_ndjson().len() - 1]));
    }

    #[test]
    fn ndjson_non_finite_numbers_become_null() {
        let mut a = alert();
        a.metric = f64::NAN;
        assert!(a.to_ndjson().contains("\"metric\":null"));
    }

    #[test]
    fn display_mentions_kind_and_severity() {
        let text = alert().to_string();
        assert!(text.contains("category_mix_shift"));
        assert!(text.contains("info"));
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut a = alert();
        a.message = "a\u{1}b\tc".into();
        let line = a.to_ndjson();
        assert!(line.contains("\\u0001"));
        assert!(line.contains("\\t"));
    }

    #[test]
    fn stream_event_variants() {
        assert_ne!(StreamEvent::Idle, StreamEvent::Eof);
    }
}
