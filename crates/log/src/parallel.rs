//! Chunked parallel parsing of `failscope-log v1` text.
//!
//! PR 5 pushed streaming analysis past 2M records/second, which left the
//! serial line-by-line parser as the ingest bottleneck for fleet-scale
//! archives. This module splits the body of a log into byte-range
//! chunks snapped to line boundaries ([`failstats::line_chunks`]),
//! parses each chunk on the shared [`failstats::par_map_ordered`]
//! worker pool with [`parse_body_rows`] (the one row grammar, CSV or
//! NDJSON per line), and concatenates the per-chunk record vectors in
//! declaration order.
//!
//! **Determinism contract:** output is byte-identical to the serial
//! parser for every `threads` value and every `chunk_bytes` value —
//! including errors. Chunk boundaries depend only on the input and
//! `chunk_bytes`; results merge in declaration order; and when several
//! chunks contain malformed rows, the error from the earliest chunk
//! wins, with its line number remapped from chunk-relative to global
//! (1-based, counting the header) before it is returned. The existing
//! `csv` error tests run through this path unchanged.
//!
//! Worker count defaults to [`failstats::available_threads`]; `threads
//! <= 1` or a single chunk short-circuits to a plain serial loop with
//! no pool spin-up.
//!
//! **Predicate pushdown:** a compiled `--where` filter
//! ([`failfilter::CompiledPredicate`] carried in
//! [`ParseOptions::filter`]) is evaluated per record inside each chunk,
//! right after row validation and before the record reaches the output
//! vector, so filtered ingest never materializes dropped records. Rows
//! are still parsed and validated *before* the predicate runs, which
//! keeps error behavior — first error in declaration order, global line
//! numbers — byte-identical to an unfiltered parse. The
//! `filter.records_in` / `filter.records_kept` counters tally the
//! pushdown per chunk in declaration order, so traces stay
//! thread-invariant.

use failfilter::CompiledPredicate;
use failstats::{available_threads, line_chunks, par_map_ordered};
use failtypes::{Error, FailureLog, FailureRecord, Generation, ObservationWindow, Result, SystemSpec};

use crate::csv::HeaderParser;
use crate::parse_line;

/// Default chunk size for the parallel parser: large enough that chunk
/// dispatch overhead vanishes, small enough that a year-scale log
/// still fans out across every core.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Tuning knobs for the chunked parallel parser.
///
/// The defaults parse with every available core and 1 MiB chunks;
/// [`ParseOptions::serial`] pins a single-threaded pass. Any
/// combination produces byte-identical output (see the module docs),
/// so these only ever trade wall-clock time.
///
/// # Examples
///
/// ```
/// use faillog::ParseOptions;
///
/// let opts = ParseOptions::new().threads(4).chunk_bytes(64 * 1024);
/// assert_eq!(opts.threads, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParseOptions {
    /// Worker threads to parse with (`<= 1` means serial).
    pub threads: usize,
    /// Target bytes per chunk, snapped up to line boundaries (clamped
    /// to at least 1). Every application parses at
    /// [`DEFAULT_CHUNK_BYTES`]; only tests set it, to force many-chunk
    /// merges and error-line remaps on small logs.
    pub chunk_bytes: usize,
    /// Predicate pushed down into the parser: records failing it are
    /// dropped right after validation, before they reach the output.
    /// `None` keeps every record. Filtering never changes which errors
    /// are reported (rows are validated first).
    pub filter: Option<CompiledPredicate>,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            threads: available_threads(),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            filter: None,
        }
    }
}

impl ParseOptions {
    /// The default options: all available cores, 1 MiB chunks.
    pub fn new() -> Self {
        ParseOptions::default()
    }

    /// Single-threaded options (the serial reference configuration).
    pub fn serial() -> Self {
        ParseOptions {
            threads: 1,
            ..ParseOptions::default()
        }
    }

    /// Returns the options with the worker count replaced.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the options with the chunk size replaced. Only tests
    /// call this; see the field of the same name.
    pub fn chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Returns the options with a pushdown predicate installed.
    pub fn filter(mut self, filter: CompiledPredicate) -> Self {
        self.filter = Some(filter);
        self
    }
}

/// Parses a log with explicit [`ParseOptions`]; [`crate::from_str`] is
/// this with the defaults.
///
/// # Errors
///
/// Identical to the serial parser, byte for byte: malformed headers,
/// malformed rows (first in declaration order, global line numbers),
/// and record-invariant violations.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 5).generate().unwrap();
/// let text = faillog::to_string(&log)?;
/// let opts = faillog::ParseOptions::new().threads(4).chunk_bytes(4096);
/// assert_eq!(faillog::from_str_with(&text, &opts)?, log);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn from_str_with(s: &str, opts: &ParseOptions) -> Result<FailureLog> {
    from_str_traced(s, opts, None)
}

/// [`from_str_with`] plus chunk instrumentation: records `parse.chunks`
/// and `parse.chunk_bytes` counters. Both depend only on the input and
/// chunk size — never on thread count — preserving the byte-identical
/// trace guarantee.
pub(crate) fn from_str_traced(
    s: &str,
    opts: &ParseOptions,
    trace: Option<&failtrace::Collector>,
) -> Result<FailureLog> {
    let (generation, spec, window, header_lines, body_start) = parse_header(s)?;
    let body = &s[body_start..];

    let chunks = line_chunks(body.as_bytes(), opts.chunk_bytes);
    if let Some(trace) = trace {
        trace.incr("parse.chunks", chunks.len() as u64);
        trace.incr("parse.chunk_bytes", body.len() as u64);
    }

    let filter = opts.filter.as_ref();
    let outcomes = par_map_ordered(chunks.len(), opts.threads, |i| {
        let chunk = &body[chunks[i].clone()];
        parse_body_rows(chunk, 0, generation, &spec, window, filter)
    });

    // Declaration-order merge. The first erroring chunk wins; every
    // chunk before it completed, so their line counts are known and the
    // chunk-relative error line remaps exactly onto the serial parser's
    // global number. The output is sized once from the chunk counts.
    let total = outcomes
        .iter()
        .map(|outcome| outcome.as_ref().map_or(0, |rows| rows.records.len()))
        .sum();
    let mut records = Vec::with_capacity(total);
    let mut lines_before = header_lines;
    let mut records_in = 0u64;
    for outcome in outcomes {
        match outcome {
            Ok(mut rows) => {
                records_in += rows.seen as u64;
                records.append(&mut rows.records);
                lines_before += rows.lines;
            }
            Err(err) => return Err(offset_error_line(err, lines_before)),
        }
    }
    if let (Some(trace), Some(_)) = (trace, filter) {
        trace.incr("filter.records_in", records_in);
        trace.incr("filter.records_kept", records.len() as u64);
    }
    Ok(FailureLog::with_spec(generation, spec, window, records)?)
}

/// Serially parses the header block. Returns the metadata plus the
/// number of lines the header occupies and the byte offset where the
/// body begins.
fn parse_header(
    s: &str,
) -> Result<(Generation, SystemSpec, ObservationWindow, usize, usize)> {
    let mut header = HeaderParser::new();
    let mut offset = 0usize;
    for (lines, raw) in s.split_inclusive('\n').enumerate() {
        offset += raw.len();
        if header.feed(lines, raw)? {
            let (generation, spec, window) = header.finish()?;
            return Ok((generation, spec, window, lines + 1, offset));
        }
    }
    Err(Error::Header("unexpected end of file".into()))
}

/// The rows one [`parse_body_rows`] call accepted.
#[derive(Debug)]
pub struct BodyRows {
    /// Valid records that passed the filter, in file order.
    pub records: Vec<FailureRecord>,
    /// Lines the text spans, blank lines included (they advance the
    /// global numbering).
    pub lines: usize,
    /// Valid records before the filter ran (the `filter.records_in`
    /// tally).
    pub seen: usize,
}

/// Parses and validates a run of body rows exactly as a cold parse
/// does: each non-blank line goes through [`crate::parse_line`] (CSV or
/// NDJSON), is validated against the header's `spec` and `window`, and
/// is kept when it matches `filter`. Line numbers in errors are
/// `lineno_offset` plus the 1-based line within `text`.
///
/// This is the batch parser's chunk function (called with offset 0 and
/// remapped afterwards), the row loop of [`crate::LogTailer`] (offset =
/// the lines consumed so far) and the tail parser `failindex` uses to
/// extend a snapshot over the bytes appended since it was written
/// (offset = the lines the snapshot covers), so a watch ingests, and a
/// tail extends a snapshot with, exactly the rows a cold parse of the
/// same bytes accepts.
///
/// # Errors
///
/// [`Error::Row`] for malformed rows and [`Error::InvalidRow`] for
/// records violating the header's invariants.
pub fn parse_body_rows(
    text: &str,
    lineno_offset: usize,
    generation: Generation,
    spec: &SystemSpec,
    window: ObservationWindow,
    filter: Option<&CompiledPredicate>,
) -> Result<BodyRows> {
    let mut rows = BodyRows {
        records: Vec::new(),
        lines: 0,
        seen: 0,
    };
    for raw in text.split_inclusive('\n') {
        rows.lines += 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno_offset + rows.lines;
        let rec = parse_line(lineno, line, generation)?;
        rec.validate(generation, spec, window)
            .map_err(|e| Error::invalid_row(lineno, e))?;
        rows.seen += 1;
        if filter.is_none_or(|f| f.matches(&rec, spec, window)) {
            rows.records.push(rec);
        }
    }
    Ok(rows)
}

/// Shifts a chunk-relative row error to its global line number. Only
/// the row-shaped variants carry a line; anything else passes through.
fn offset_error_line(err: Error, delta: usize) -> Error {
    match err {
        Error::Row {
            line,
            field,
            message,
        } => Error::Row {
            line: line + delta,
            field,
            message,
        },
        Error::InvalidRow { line, error } => Error::InvalidRow {
            line: line + delta,
            error,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_serial;
    use failsim::{Simulator, SystemModel};

    fn t3_text() -> String {
        let log = Simulator::new(SystemModel::tsubame3(), 31).generate().unwrap();
        crate::to_string(&log).unwrap()
    }

    #[test]
    fn matches_serial_oracle_across_threads_and_chunks() {
        let text = t3_text();
        let oracle = parse_serial(&text).unwrap();
        for threads in [1, 2, 3, 4, 8] {
            for chunk_bytes in [1, 64, 4096, DEFAULT_CHUNK_BYTES, usize::MAX] {
                let opts = ParseOptions::new().threads(threads).chunk_bytes(chunk_bytes);
                let parsed = from_str_with(&text, &opts).unwrap();
                assert_eq!(
                    parsed, oracle,
                    "threads = {threads}, chunk_bytes = {chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn default_from_str_goes_through_the_chunked_path() {
        let text = t3_text();
        assert_eq!(crate::from_str(&text).unwrap(), parse_serial(&text).unwrap());
    }

    #[test]
    fn error_lines_are_global_at_any_chunk_size() {
        // Header is 7 lines; rows start at line 8.
        let mut text = t3_text();
        text.push_str("0,1.0,zz,GPU,0,,\n");
        let total_lines = text.lines().count();
        let serial_err = parse_serial(&text).unwrap_err();
        assert_eq!(serial_err.line(), Some(total_lines));
        for chunk_bytes in [1, 17, 256, 4096, usize::MAX] {
            for threads in [1, 3] {
                let opts = ParseOptions::new().threads(threads).chunk_bytes(chunk_bytes);
                let err = from_str_with(&text, &opts).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    serial_err.to_string(),
                    "chunk_bytes = {chunk_bytes}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn first_error_in_declaration_order_wins() {
        // Two bad rows far apart; with 1-byte chunks they land in
        // different chunks, and every thread count must report the
        // earlier one.
        let mut text = t3_text();
        let insert_at = text.find("\n100,").unwrap() + 1;
        text.insert_str(insert_at, "9999,bad-time,1.0,GPU,0,,\n");
        text.push_str("0,1.0,1.0,NotACategory,0,,\n");
        let serial_err = parse_serial(&text).unwrap_err();
        assert!(serial_err.to_string().contains("time"), "{serial_err}");
        for threads in [1, 2, 4] {
            let opts = ParseOptions::new().threads(threads).chunk_bytes(1);
            let err = from_str_with(&text, &opts).unwrap_err();
            assert_eq!(err.to_string(), serial_err.to_string(), "threads = {threads}");
        }
    }

    #[test]
    fn invariant_violations_keep_global_lines_too() {
        let header = "# failscope-log v1\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\nid,time_h,ttr_h,category,node,gpus,locus\n";
        let mut text = String::from(header);
        for i in 0..50 {
            text.push_str(&format!("{i},1.5,1.0,GPU,0,,\n"));
        }
        text.push_str("50,1.0,1.0,GPU,99999,,\n"); // node out of range, line 55
        for chunk_bytes in [1, 32, usize::MAX] {
            let opts = ParseOptions::new().threads(4).chunk_bytes(chunk_bytes);
            let err = from_str_with(&text, &opts).unwrap_err();
            assert!(
                matches!(err, Error::InvalidRow { line: 55, .. }),
                "chunk_bytes = {chunk_bytes}: {err}"
            );
        }
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let header = "# failscope-log v1\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\nid,time_h,ttr_h,category,node,gpus,locus\n";
        // Blank lines between rows, no trailing newline on the last row.
        let text = format!("{header}\n0,1.0,1.0,GPU,0,0|2,\n\n1,2.0,1.0,GPU,1,,");
        let oracle = parse_serial(&text).unwrap();
        assert_eq!(oracle.len(), 2);
        for chunk_bytes in [1, 3, usize::MAX] {
            let opts = ParseOptions::new().threads(4).chunk_bytes(chunk_bytes);
            assert_eq!(from_str_with(&text, &opts).unwrap(), oracle);
        }
    }

    #[test]
    fn header_errors_are_unchanged() {
        assert!(matches!(
            from_str_with("nope", &ParseOptions::default()),
            Err(Error::Header(_))
        ));
        assert!(matches!(
            from_str_with("# failscope-log v1\n# generation: Tsubame-3\n", &ParseOptions::default()),
            Err(Error::Header(_))
        ));
    }

    #[test]
    fn filtered_parse_matches_post_hoc_filter_at_any_configuration() {
        let text = t3_text();
        let pred = failfilter::compile("category == gpu && ttr > 24").unwrap();
        let oracle = parse_serial(&text).unwrap();
        let expected: Vec<_> = oracle
            .iter()
            .filter(|r| pred.matches(r, oracle.spec(), oracle.window()))
            .cloned()
            .collect();
        assert!(!expected.is_empty() && expected.len() < oracle.len());
        for threads in [1, 2, 4] {
            for chunk_bytes in [1, 4096, usize::MAX] {
                let opts = ParseOptions::new()
                    .threads(threads)
                    .chunk_bytes(chunk_bytes)
                    .filter(pred.clone());
                let filtered = from_str_with(&text, &opts).unwrap();
                assert_eq!(
                    filtered.records(),
                    expected.as_slice(),
                    "threads = {threads}, chunk_bytes = {chunk_bytes}"
                );
                assert_eq!(filtered.spec(), oracle.spec());
                assert_eq!(filtered.window(), oracle.window());
            }
        }
    }

    #[test]
    fn filtered_parse_reports_the_same_errors() {
        // The filter would drop the malformed row's category — but rows
        // are validated before the predicate runs, so the error is
        // byte-identical to the unfiltered parse.
        let mut text = t3_text();
        text.push_str("0,1.0,zz,Memory,0,,\n");
        let serial_err = parse_serial(&text).unwrap_err();
        let pred = failfilter::compile("category == gpu").unwrap();
        for chunk_bytes in [1, 4096, usize::MAX] {
            let opts = ParseOptions::new()
                .threads(4)
                .chunk_bytes(chunk_bytes)
                .filter(pred.clone());
            let err = from_str_with(&text, &opts).unwrap_err();
            assert_eq!(err.to_string(), serial_err.to_string(), "chunk_bytes = {chunk_bytes}");
        }
    }

    #[test]
    fn filter_counters_are_thread_invariant_and_tally_the_pushdown() {
        let text = t3_text();
        let pred = failfilter::compile("ttr > 24").unwrap();
        let run = |threads: usize| {
            let trace = failtrace::Collector::new();
            let opts = ParseOptions::new()
                .threads(threads)
                .chunk_bytes(512)
                .filter(pred.clone());
            let log = from_str_traced(&text, &opts, Some(&trace)).unwrap();
            (
                log.len(),
                trace.counter("filter.records_in"),
                trace.counter("filter.records_kept"),
                trace.export(),
            )
        };
        let (kept, records_in, records_kept, one) = run(1);
        assert_eq!((kept, records_in, records_kept, one), run(4));
        assert_eq!(records_in, parse_serial(&text).unwrap().len() as u64);
        assert_eq!(records_kept, kept as u64);
        assert!(records_kept < records_in);
        // No filter, no filter counters.
        let trace = failtrace::Collector::new();
        from_str_traced(&text, &ParseOptions::default(), Some(&trace)).unwrap();
        assert!(!trace.export().contains("filter."));
    }

    #[test]
    fn chunk_counters_are_thread_invariant() {
        let text = t3_text();
        let export = |threads: usize| {
            let trace = failtrace::Collector::new();
            let opts = ParseOptions::new().threads(threads).chunk_bytes(512);
            from_str_traced(&text, &opts, Some(&trace)).unwrap();
            trace.export()
        };
        let one = export(1);
        assert_eq!(one, export(4));
        assert!(one.contains("parse.chunks"), "{one}");
        assert!(one.contains("parse.chunk_bytes"), "{one}");
    }
}
