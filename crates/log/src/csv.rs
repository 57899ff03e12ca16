//! The `failscope-log v1` CSV format.
//!
//! A serialized log is a small self-describing text file:
//!
//! ```text
//! # failscope-log v1
//! # generation: Tsubame-3
//! # name: Tsubame-3
//! # nodes: 540
//! # gpus-per-node: 4
//! # window: 2017-05-09..2020-02-22
//! id,time_h,ttr_h,category,node,gpus,locus
//! 0,10.5,4.25,GPU,12,0|3,
//! 1,22.125,1,Software,7,,GPUDriverProblem
//! ```
//!
//! * `gpus` is a `|`-separated list of slot indices; empty means the
//!   involvement was not recorded.
//! * `locus` is a [`failtypes::SoftwareLocus`] label; empty when absent.
//! * Category labels never contain commas (enforced by the fixed
//!   [`failtypes::Category`] vocabularies), so no quoting is needed.

use std::io::{BufRead, Write};

use failtypes::{Date, FailureLog, Generation, ObservationWindow, SystemSpec};

use failtypes::{Error, Result};

const MAGIC: &str = "# failscope-log v1";
const COLUMNS: &str = "id,time_h,ttr_h,category,node,gpus,locus";

/// Serializes a log to a writer in the `failscope-log v1` format.
///
/// A mutable reference works as the writer: `write_log(&mut buf, &log)`.
///
/// # Errors
///
/// Returns [`Error`] on I/O failure.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
/// let mut buf = Vec::new();
/// faillog::write_log(&mut buf, &log)?;
/// let parsed = faillog::read_log(buf.as_slice())?;
/// assert_eq!(&parsed, &log);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_log<W: Write>(mut w: W, log: &FailureLog) -> Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "# generation: {}", log.generation())?;
    writeln!(w, "# name: {}", log.spec().name())?;
    writeln!(w, "# nodes: {}", log.spec().nodes())?;
    writeln!(w, "# gpus-per-node: {}", log.spec().gpus_per_node())?;
    writeln!(
        w,
        "# window: {}..{}",
        log.window().start(),
        log.window().end()
    )?;
    writeln!(w, "{COLUMNS}")?;
    for rec in log.iter() {
        let gpus = rec
            .gpus()
            .iter()
            .map(|s| s.index().to_string())
            .collect::<Vec<_>>()
            .join("|");
        let locus = rec.locus().map(|l| l.label()).unwrap_or("");
        // `{}` on f64 prints the shortest string that parses back to the
        // exact same value, so the round trip is lossless.
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            rec.id(),
            rec.time().get(),
            rec.ttr().get(),
            rec.category().label(),
            rec.node().index(),
            gpus,
            locus
        )?;
    }
    Ok(())
}

/// Serializes a log to an owned string.
///
/// # Errors
///
/// Never fails in practice (writing to a `Vec` cannot I/O-fail); the
/// `Result` mirrors [`write_log`].
pub fn to_string(log: &FailureLog) -> Result<String> {
    let mut buf = Vec::new();
    write_log(&mut buf, log)?;
    Ok(String::from_utf8(buf).expect("format writes UTF-8 only"))
}

/// Parses a `failscope-log v1` stream back into a validated
/// [`FailureLog`].
///
/// The stream is read fully into memory and handed to the chunked
/// parallel parser with default [`crate::ParseOptions`]; output
/// (including errors and their line numbers) is byte-identical to a
/// serial line-by-line pass.
///
/// # Errors
///
/// Returns [`Error`] for I/O failures, malformed headers or rows,
/// and logs that violate record invariants (e.g. node out of range).
pub fn read_log<R: BufRead>(mut r: R) -> Result<FailureLog> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    from_str(&text)
}

/// Parses a log from a string slice.
///
/// # Errors
///
/// See [`read_log`].
pub fn from_str(s: &str) -> Result<FailureLog> {
    crate::parallel::from_str_with(s, &crate::ParseOptions::default())
}

/// The original single-pass serial parser, kept as the reference
/// oracle the parallel path is tested against; it shares only the row
/// grammar ([`crate::parse_line`]) with the chunked parser.
#[cfg(test)]
pub(crate) fn parse_serial(s: &str) -> Result<FailureLog> {
    let mut lines = s.lines().enumerate();

    let mut header = HeaderParser::new();
    loop {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| Error::Header("unexpected end of file".into()))?;
        if header.feed(lineno, line)? {
            break;
        }
    }
    let (generation, spec, window) = header.finish()?;

    let mut records = Vec::new();
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rec = crate::parse_line(lineno + 1, line, generation)?;
        rec.validate(generation, &spec, window)
            .map_err(|e| Error::invalid_row(lineno + 1, e))?;
        records.push(rec);
    }
    Ok(FailureLog::with_spec(generation, spec, window, records)?)
}

/// Incremental parser for the `failscope-log v1` header block, shared by
/// the batch reader and the streaming tailer: feed raw lines until it
/// reports completion, then [`HeaderParser::finish`] yields the metadata.
pub(crate) struct HeaderParser {
    saw_magic: bool,
    generation: Option<Generation>,
    name: Option<String>,
    nodes: Option<u32>,
    gpus: Option<u8>,
    window: Option<ObservationWindow>,
}

impl HeaderParser {
    pub(crate) fn new() -> Self {
        HeaderParser {
            saw_magic: false,
            generation: None,
            name: None,
            nodes: None,
            gpus: None,
            window: None,
        }
    }

    /// Consumes one raw line (`lineno` is 0-based). Returns `Ok(true)`
    /// once the column row has been consumed and the header is complete.
    pub(crate) fn feed(&mut self, lineno: usize, raw: &str) -> Result<bool> {
        let line = raw.trim();
        if !self.saw_magic {
            if line != MAGIC {
                return Err(Error::Header(format!(
                    "expected `{MAGIC}`, found `{line}`"
                )));
            }
            self.saw_magic = true;
            return Ok(false);
        }
        if line == COLUMNS {
            return Ok(true);
        }
        let Some(rest) = line.strip_prefix("# ") else {
            return Err(Error::Header(format!(
                "unexpected line {} before column header: `{line}`",
                lineno + 1
            )));
        };
        let Some((key, value)) = rest.split_once(": ") else {
            return Err(Error::Header(format!("malformed field `{rest}`")));
        };
        match key {
            "generation" => {
                self.generation = Some(match value {
                    "Tsubame-2" => Generation::Tsubame2,
                    "Tsubame-3" => Generation::Tsubame3,
                    other => {
                        return Err(Error::Header(format!(
                            "unknown generation `{other}`"
                        )))
                    }
                });
            }
            "name" => self.name = Some(value.to_string()),
            "nodes" => {
                self.nodes = Some(value.parse().map_err(|_| {
                    Error::Header(format!("invalid node count `{value}`"))
                })?)
            }
            "gpus-per-node" => {
                self.gpus = Some(value.parse().map_err(|_| {
                    Error::Header(format!("invalid GPU count `{value}`"))
                })?)
            }
            "window" => self.window = Some(parse_window(value)?),
            other => {
                return Err(Error::Header(format!("unknown field `{other}`")));
            }
        }
        Ok(false)
    }

    /// Finalizes the header into `(generation, spec, window)`.
    pub(crate) fn finish(
        self,
    ) -> Result<(Generation, SystemSpec, ObservationWindow)> {
        let generation = self
            .generation
            .ok_or_else(|| Error::Header("missing `generation`".into()))?;
        let window = self
            .window
            .ok_or_else(|| Error::Header("missing `window`".into()))?;
        let spec = SystemSpec::rebuild(generation, self.name.as_deref(), self.nodes, self.gpus)
            .map_err(|e| Error::Header(e.to_string()))?;
        Ok((generation, spec, window))
    }
}

fn parse_window(value: &str) -> Result<ObservationWindow> {
    let Some((a, b)) = value.split_once("..") else {
        return Err(Error::Header(format!("malformed window `{value}`")));
    };
    let start = parse_date(a)?;
    let end = parse_date(b)?;
    ObservationWindow::new(start, end)
        .ok_or_else(|| Error::Header(format!("inverted window `{value}`")))
}

fn parse_date(s: &str) -> Result<Date> {
    Date::parse_ymd(s).ok_or_else(|| Error::Header(format!("malformed date `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{ScenarioBuilder, Simulator, SystemModel};

    fn t3_log() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 11).generate().unwrap()
    }

    #[test]
    fn roundtrip_tsubame3() {
        let log = t3_log();
        let text = to_string(&log).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn roundtrip_tsubame2() {
        let log = Simulator::new(SystemModel::tsubame2(), 12).generate().unwrap();
        let text = to_string(&log).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn roundtrip_custom_spec() {
        let model = ScenarioBuilder::new("custom-what-if")
            .nodes(64)
            .gpus_per_node(8)
            .window_days(90)
            .system_mtbf_hours(48.0)
            .build()
            .unwrap();
        let log = Simulator::new(model, 13).generate().unwrap();
        let text = to_string(&log).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, log);
        assert_eq!(parsed.spec().gpus_per_node(), 8);
        assert_eq!(parsed.spec().name(), "custom-what-if");
    }

    #[test]
    fn header_contains_metadata() {
        let text = to_string(&t3_log()).unwrap();
        assert!(text.starts_with("# failscope-log v1\n"));
        assert!(text.contains("# generation: Tsubame-3"));
        assert!(text.contains("# window: 2017-05-09..2020-02-22"));
        assert!(text.contains(COLUMNS));
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            from_str("# some-other-format v9\n"),
            Err(Error::Header(_))
        ));
        assert!(from_str("").is_err());
    }

    #[test]
    fn rejects_missing_header_fields() {
        let text = format!("{MAGIC}\n# window: 2017-05-09..2020-02-22\n{COLUMNS}\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("generation"), "{err}");

        let text = format!("{MAGIC}\n# generation: Tsubame-3\n{COLUMNS}\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn rejects_unknown_header_field() {
        let text = format!("{MAGIC}\n# color: mauve\n{COLUMNS}\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn rejects_malformed_rows() {
        let header = format!(
            "{MAGIC}\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\n{COLUMNS}\n"
        );
        // Too few fields.
        let err = from_str(&format!("{header}1,2,3\n")).unwrap_err();
        assert!(err.to_string().contains("7 fields"), "{err}");
        // Bad category.
        let err = from_str(&format!("{header}0,1.0,1.0,FAN,0,,\n")).unwrap_err();
        assert!(err.to_string().contains("FAN"), "{err}");
        // Bad slot.
        let err = from_str(&format!("{header}0,1.0,1.0,GPU,0,x,\n")).unwrap_err();
        assert!(err.to_string().contains("slot"), "{err}");
        // Bad locus.
        let err = from_str(&format!("{header}0,1.0,1.0,Software,0,,NotALocus\n")).unwrap_err();
        assert!(err.to_string().contains("NotALocus"), "{err}");
        // Bad numbers.
        assert!(from_str(&format!("{header}zz,1.0,1.0,GPU,0,,\n")).is_err());
        assert!(from_str(&format!("{header}0,zz,1.0,GPU,0,,\n")).is_err());
        assert!(from_str(&format!("{header}0,1.0,zz,GPU,0,,\n")).is_err());
        assert!(from_str(&format!("{header}0,1.0,1.0,GPU,zz,,\n")).is_err());
    }

    #[test]
    fn rejects_invariant_violations_with_line_numbers() {
        let header = format!(
            "{MAGIC}\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\n{COLUMNS}\n"
        );
        // Node out of range; the header occupies lines 1-4, so the bad
        // row is line 5.
        let err = from_str(&format!("{header}0,1.0,1.0,GPU,99999,,\n")).unwrap_err();
        assert!(matches!(err, Error::InvalidRow { line: 5, .. }), "{err}");
        assert!(err.to_string().contains("line 5"), "{err}");
        // Negative time, after one good row: line 6.
        let err =
            from_str(&format!("{header}0,1.0,1.0,GPU,0,,\n1,-5.0,1.0,GPU,0,,\n")).unwrap_err();
        assert_eq!(err.line(), Some(6));
    }

    #[test]
    fn row_errors_name_the_offending_field() {
        let header = format!(
            "{MAGIC}\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\n{COLUMNS}\n"
        );
        let err = from_str(&format!("{header}0,1.0,zz,GPU,0,,\n")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("`ttr_h`"), "{text}");
        assert!(text.contains("line 5"), "{text}");
        let err = from_str(&format!("{header}0,1.0,1.0,FAN,0,,\n")).unwrap_err();
        assert!(err.to_string().contains("`category`"), "{err}");
    }

    #[test]
    fn rejects_malformed_window_and_date() {
        let text = format!("{MAGIC}\n# generation: Tsubame-3\n# window: nope\n{COLUMNS}\n");
        assert!(from_str(&text).is_err());
        let text =
            format!("{MAGIC}\n# generation: Tsubame-3\n# window: 2017-13-01..2018-01-01\n{COLUMNS}\n");
        assert!(from_str(&text).is_err());
        let text =
            format!("{MAGIC}\n# generation: Tsubame-3\n# window: 2019-01-01..2018-01-01\n{COLUMNS}\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn empty_body_is_an_empty_log() {
        let text = format!(
            "{MAGIC}\n# generation: Tsubame-2\n# window: 2012-01-07..2013-08-01\n{COLUMNS}\n"
        );
        let log = from_str(&text).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.generation(), Generation::Tsubame2);
    }

    #[test]
    fn blank_lines_in_body_are_skipped() {
        let text = format!(
            "{MAGIC}\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\n{COLUMNS}\n\n0,1.0,1.0,GPU,0,0|2,\n\n"
        );
        let log = from_str(&text).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].gpus().len(), 2);
    }
}
