//! Incremental log ingestion: a polling tailer.
//!
//! [`LogTailer`] reads a `failscope-log v1` stream record by record
//! instead of all at once, which is what a live monitor needs: the
//! header is parsed eagerly, then each call to
//! [`LogTailer::next_record`] hands out the next *complete* line as a
//! validated [`FailureRecord`] — or `None` when the reader is currently
//! exhausted, so a follow-mode caller can sleep and poll again while the
//! file grows. Partial trailing lines (a writer mid-`write`) are
//! buffered, never parsed, until their newline arrives;
//! [`LogTailer::flush_partial`] force-parses the remainder once the
//! stream is known to be finished.
//!
//! Body rows go through the one row grammar ([`crate::parse_line`]):
//! CSV (the format's native rows) or one-line JSON objects,
//! auto-detected per line, so `failctl watch` can ingest the NDJSON
//! event streams that fleet telemetry pipelines emit:
//!
//! ```text
//! {"id":0,"time_h":10.5,"ttr_h":4.25,"category":"GPU","node":12,"gpus":[0,3],"locus":null}
//! ```

use std::fmt;
use std::io::BufRead;
use std::path::Path;

use failtypes::{FailureRecord, Generation, ObservationWindow, SystemSpec};

use crate::csv::HeaderParser;
use crate::inflate::Crc32;
use crate::{parse_line, SourceInfo};
use failtypes::{Error, Result};

/// Incremental, poll-friendly reader for a `failscope-log v1` stream.
///
/// Construction parses the header (which must be complete); thereafter
/// [`next_record`](LogTailer::next_record) yields one validated record
/// per complete body line, `Ok(None)` when the underlying reader has no
/// more data *right now*. On a plain file that means end-of-file; on a
/// growing file the caller can poll again after a delay and the tailer
/// picks up appended bytes, including the completion of a previously
/// partial line.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 3).generate().unwrap();
/// let text = faillog::to_string(&log)?;
/// let mut tailer = faillog::LogTailer::new(text.as_bytes())?;
/// let mut n = 0;
/// while let Some(rec) = tailer.next_record()? {
///     assert!(tailer.window().contains(rec.time()));
///     n += 1;
/// }
/// assert_eq!(n, log.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct LogTailer<R> {
    reader: R,
    partial: String,
    lines_consumed: usize,
    /// Bytes fully consumed so far (header included, partials excluded).
    committed_bytes: u64,
    /// Streaming CRC-32 over the committed bytes; `None` when the
    /// tailer keeps no fingerprint (see [`LogTailer::open`]).
    committed_crc: Option<Crc32>,
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
}

impl LogTailer<crate::InputReader> {
    /// Opens a log file for tailing through the layered
    /// [`crate::InputReader`], so a gzip-compressed replay file tails
    /// exactly like plain text (decoded in-memory, no temp file).
    ///
    /// Follow-mode polling only observes appended bytes on *plain*
    /// files — a gzip member is decoded once at open, so callers that
    /// follow live growth should check [`crate::InputReader::compression`]
    /// (as `failctl watch --follow` does) and reject compressed input.
    ///
    /// A compressed file's consumed *decoded* bytes match no prefix of
    /// the file on disk, so no checksum is kept for them:
    /// [`progress`](LogTailer::progress) is for plain files only.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the file cannot be opened or decoded, or
    /// its header is incomplete or malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let reader = crate::InputReader::open(path)?;
        let checksum = reader.compression() == crate::Compression::Plain;
        LogTailer::with_checksum(reader, checksum)
    }

    /// The compression detected on the underlying file.
    pub fn compression(&self) -> crate::Compression {
        self.reader.compression()
    }
}

impl<R: BufRead> LogTailer<R> {
    /// Wraps a reader, eagerly parsing the header block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Header`] if the stream ends before the
    /// column row — a tailed file must have a complete header before
    /// watching starts.
    pub fn new(reader: R) -> Result<Self> {
        LogTailer::with_checksum(reader, true)
    }

    /// [`new`](LogTailer::new), keeping a CRC-32 of the committed bytes
    /// only when `checksum` is set.
    fn with_checksum(mut reader: R, checksum: bool) -> Result<Self> {
        let mut header = HeaderParser::new();
        let mut lines_consumed = 0;
        let mut committed_bytes = 0u64;
        let mut committed_crc = checksum.then(Crc32::new);
        let mut buf = String::new();
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                return Err(Error::Header("unexpected end of file".into()));
            }
            let done = header.feed(lines_consumed, &buf)?;
            lines_consumed += 1;
            committed_bytes += buf.len() as u64;
            if let Some(crc) = &mut committed_crc {
                crc.update(buf.as_bytes());
            }
            if done {
                break;
            }
        }
        let (generation, spec, window) = header.finish()?;
        Ok(LogTailer {
            reader,
            partial: String::new(),
            lines_consumed,
            committed_bytes,
            committed_crc,
            generation,
            spec,
            window,
        })
    }

    /// The generation declared by the header.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The system spec declared by the header.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The observation window declared by the header.
    pub fn window(&self) -> ObservationWindow {
        self.window
    }

    /// 1-based number of the last fully consumed line.
    pub fn line(&self) -> usize {
        self.lines_consumed
    }

    /// The fingerprint of the input consumed so far — the provenance a
    /// `failindex` snapshot needs for the byte range its records came
    /// from.
    ///
    /// Only *consumed* input counts: a buffered partial line (no
    /// newline yet) is excluded until it completes or is force-flushed,
    /// so `bytes` always delimits a prefix of the file whose re-parse
    /// would yield exactly the records handed out so far.
    ///
    /// # Panics
    ///
    /// Panics on a tailer that keeps no checksum: a compressed file
    /// opened with [`LogTailer::open`].
    pub fn progress(&self) -> SourceInfo {
        SourceInfo {
            bytes: self.committed_bytes,
            crc32: self
                .committed_crc
                .as_ref()
                .expect("progress is fingerprinted only for plain input")
                .finish(),
            lines: self.lines_consumed as u64,
        }
    }

    /// Folds the line buffer into the committed byte count and, when
    /// one is kept, the checksum.
    fn commit_bytes(&mut self) {
        self.committed_bytes += self.partial.len() as u64;
        if let Some(crc) = &mut self.committed_crc {
            crc.update(self.partial.as_bytes());
        }
    }

    /// Marks the current partial/complete line buffer as consumed,
    /// folding it into the committed byte count and checksum.
    fn commit_partial(&mut self) {
        self.lines_consumed += 1;
        self.commit_bytes();
    }

    /// Pulls the next complete, validated record.
    ///
    /// Returns `Ok(None)` when no newline-terminated line is currently
    /// available; any partial tail stays buffered for the next poll.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for I/O failures, malformed rows
    /// (with line number and field), and records violating invariants
    /// (with line number).
    pub fn next_record(&mut self) -> Result<Option<FailureRecord>> {
        loop {
            if !self.partial.ends_with('\n') {
                if self.reader.read_line(&mut self.partial)? == 0 {
                    return Ok(None);
                }
                continue;
            }
            self.commit_partial();
            // Parse straight from the line buffer — no per-line copy.
            // The buffer is cleared after the parse either way, so the
            // next poll starts clean even on a row error.
            let line = self.partial.trim();
            if line.is_empty() {
                self.partial.clear();
                continue;
            }
            let parsed = self.parse_and_validate(line).map(Some);
            self.partial.clear();
            return parsed;
        }
    }

    /// Parses a buffered final line that never got its newline — call
    /// once the stream is known to be complete (non-follow ingestion).
    ///
    /// # Errors
    ///
    /// Same as [`next_record`](LogTailer::next_record).
    pub fn flush_partial(&mut self) -> Result<Option<FailureRecord>> {
        if self.partial.trim().is_empty() {
            // Still committed: trailing whitespace is consumed input,
            // just not a line worth numbering.
            self.commit_bytes();
            self.partial.clear();
            return Ok(None);
        }
        self.commit_partial();
        let parsed = self.parse_and_validate(self.partial.trim()).map(Some);
        self.partial.clear();
        parsed
    }

    fn parse_and_validate(&self, line: &str) -> Result<FailureRecord> {
        let lineno = self.lines_consumed;
        let rec = parse_line(lineno, line, self.generation)?;
        rec.validate(self.generation, &self.spec, self.window)
            .map_err(|e| Error::invalid_row(lineno, e))?;
        Ok(rec)
    }
}

impl<R> fmt::Debug for LogTailer<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTailer")
            .field("generation", &self.generation)
            .field("lines_consumed", &self.lines_consumed)
            .field("partial_bytes", &self.partial.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_body_rows, parse_ndjson_row, record_to_ndjson};
    use failsim::{Simulator, SystemModel};
    use std::io::Write;

    fn t3_log() -> failtypes::FailureLog {
        Simulator::new(SystemModel::tsubame3(), 31).generate().unwrap()
    }

    #[test]
    fn tailer_reads_whole_log_identically() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        assert_eq!(tailer.generation(), log.generation());
        assert_eq!(tailer.spec(), log.spec());
        assert_eq!(tailer.window(), log.window());
        let mut records = Vec::new();
        while let Some(rec) = tailer.next_record().unwrap() {
            records.push(rec);
        }
        assert!(tailer.flush_partial().unwrap().is_none());
        assert_eq!(records.as_slice(), log.records());
    }

    #[test]
    fn ndjson_roundtrip_every_record() {
        let log = t3_log();
        for (i, rec) in log.iter().enumerate() {
            let line = record_to_ndjson(rec);
            let parsed = parse_ndjson_row(i + 1, &line, log.generation()).unwrap();
            assert_eq!(&parsed, rec, "line: {line}");
        }
    }

    #[test]
    fn tailer_accepts_mixed_csv_and_ndjson_rows() {
        let log = t3_log();
        let mut text = String::new();
        // Header from the canonical writer, then alternate row formats.
        let full = crate::to_string(&log).unwrap();
        for line in full.lines().take(7) {
            text.push_str(line);
            text.push('\n');
        }
        for (i, rec) in log.iter().take(10).enumerate() {
            if i % 2 == 0 {
                text.push_str(&record_to_ndjson(rec));
                text.push('\n');
            } else {
                // Reuse the canonical CSV row from the writer output.
                text.push_str(full.lines().nth(7 + i).unwrap());
                text.push('\n');
            }
        }
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        let mut records = Vec::new();
        while let Some(rec) = tailer.next_record().unwrap() {
            records.push(rec);
        }
        assert_eq!(records.as_slice(), &log.records()[..10]);
        // The batch parser reads the same mixed text identically.
        let batch = crate::from_str(&text).unwrap();
        assert_eq!(batch.records(), records.as_slice());
    }

    #[test]
    fn tailer_buffers_partial_lines_until_completed() {
        let log = t3_log();
        let full = crate::to_string(&log).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let dir = std::env::temp_dir().join("failscope-test-tail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.fslog");

        // Header + one complete row + half of the next row.
        let (head, tail) = lines[8].split_at(5);
        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "{}\n{}\n{head}", lines[..7].join("\n"), lines[7]).unwrap();
        f.flush().unwrap();

        let mut tailer = LogTailer::open(&path).unwrap();
        assert_eq!(
            tailer.next_record().unwrap().as_ref(),
            Some(&log.records()[0])
        );
        // The half row must NOT be parsed yet.
        assert!(tailer.next_record().unwrap().is_none());
        assert!(tailer.next_record().unwrap().is_none());

        // Writer completes the row; the tailer picks it up on next poll.
        writeln!(f, "{tail}").unwrap();
        f.flush().unwrap();
        assert_eq!(
            tailer.next_record().unwrap().as_ref(),
            Some(&log.records()[1])
        );
        assert!(tailer.next_record().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opened_files_checksum_plain_text_only() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let dir = std::env::temp_dir().join(format!("failscope-test-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("log.fslog");
        let gz = dir.join("log.fslog.gz");
        std::fs::write(&plain, &text).unwrap();
        std::fs::write(&gz, crate::gzip_compress(text.as_bytes())).unwrap();
        let drain = |tailer: &mut LogTailer<crate::InputReader>| {
            let mut records = Vec::new();
            while let Some(rec) = tailer.next_record().unwrap() {
                records.push(rec);
            }
            records.extend(tailer.flush_partial().unwrap());
            records
        };

        let mut from_plain = LogTailer::open(&plain).unwrap();
        let mut from_gz = LogTailer::open(&gz).unwrap();
        assert!(from_gz.committed_crc.is_none());
        assert_eq!(drain(&mut from_plain), drain(&mut from_gz));
        assert_eq!(
            from_plain.progress(),
            crate::SourceInfo::of_bytes(text.as_bytes())
        );
        // Without a checksum the byte and line counts still advance.
        assert_eq!(from_gz.committed_bytes, text.len() as u64);
        assert_eq!(from_gz.line(), from_plain.line());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_partial_parses_unterminated_final_line() {
        let log = t3_log();
        let full = crate::to_string(&log).unwrap();
        let text = full.trim_end(); // drop the final newline
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        let mut records = Vec::new();
        while let Some(rec) = tailer.next_record().unwrap() {
            records.push(rec);
        }
        assert_eq!(records.len(), log.len() - 1);
        let last = tailer.flush_partial().unwrap().unwrap();
        assert_eq!(&last, log.records().last().unwrap());
    }

    #[test]
    fn tailer_rejects_incomplete_header() {
        let err = LogTailer::new("# failscope-log v1\n# generation: Tsubame-3\n".as_bytes())
            .unwrap_err();
        assert!(matches!(err, Error::Header(_)), "{err}");
    }

    #[test]
    fn tailer_reports_line_numbers_for_bad_rows() {
        let text = "# failscope-log v1\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\nid,time_h,ttr_h,category,node,gpus,locus\n0,1.0,1.0,GPU,0,,\n1,nope,1.0,GPU,0,,\n";
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        assert!(tailer.next_record().unwrap().is_some());
        let err = tailer.next_record().unwrap_err();
        assert_eq!(err.line(), Some(6));
        assert!(err.to_string().contains("`time_h`"), "{err}");
    }

    #[test]
    fn ndjson_parser_rejects_malformed_lines() {
        let generation = Generation::Tsubame3;
        let bad = [
            "{\"id\":0}",                                 // missing keys
            "{\"id\":0,\"time_h\":1,\"ttr_h\":1,\"category\":\"GPU\",\"node\":0} x", // trailing
            "{\"id\":0,\"color\":3}",                     // unknown key
            "{\"id\":zz}",                                // bad number
            "{\"id\":0,\"category\":\"FAN\"}",            // unknown category
            "{\"id\":0,\"gpus\":[999]}",                  // slot out of u8
            "{\"id\":1.5}",                               // fractional id
            "{\"id\":0,\"gpus\":3}",                      // gpus not an array
            "[1,2]",                                      // not an object
            "not json",
        ];
        for line in bad {
            let res = parse_ndjson_row(3, line, generation);
            assert!(res.is_err(), "accepted: {line}");
            assert_eq!(res.unwrap_err().line(), Some(3), "{line}");
        }
    }

    #[test]
    fn progress_tracks_committed_bytes_and_checksum() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        // The header alone is committed after construction.
        let header = tailer.progress();
        assert!(header.bytes > 0 && (header.bytes as usize) < text.len());
        assert_eq!(
            header.crc32,
            crate::crc32(&text.as_bytes()[..header.bytes as usize])
        );
        while tailer.next_record().unwrap().is_some() {}
        assert!(tailer.flush_partial().unwrap().is_none());
        let done = tailer.progress();
        assert_eq!(done.bytes as usize, text.len());
        assert_eq!(done.crc32, crate::crc32(text.as_bytes()));
        assert_eq!(done.lines as usize, text.lines().count());
        // The committed prefix always ends on a line boundary, so its
        // line count matches the newline-counting formula snapshots use.
        let prefix = &text.as_bytes()[..done.bytes as usize];
        let newline_lines = prefix.iter().filter(|&&b| b == b'\n').count()
            + usize::from(prefix.last() != Some(&b'\n'));
        assert_eq!(done.lines as usize, newline_lines);
    }

    #[test]
    fn progress_excludes_buffered_partial_lines() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        // Drop the final newline: the last row stays a buffered partial
        // and must not count as committed until it is flushed.
        let cut = text.len() - 1;
        let mut tailer = LogTailer::new(&text.as_bytes()[..cut]).unwrap();
        while tailer.next_record().unwrap().is_some() {}
        let before = tailer.progress();
        assert!((before.bytes as usize) < cut);
        assert_eq!(
            before.crc32,
            crate::crc32(&text.as_bytes()[..before.bytes as usize])
        );
        assert!(tailer.flush_partial().unwrap().is_some());
        let after = tailer.progress();
        assert_eq!(after.bytes as usize, cut);
        assert_eq!(after.crc32, crate::crc32(&text.as_bytes()[..cut]));
        assert_eq!(after.lines, before.lines + 1);
    }

    #[test]
    fn parse_body_rows_matches_the_tailer_and_rebases_linenos() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let mut tailer = LogTailer::new(text.as_bytes()).unwrap();
        let header_lines = tailer.line();
        let mut streamed = Vec::new();
        while let Some(rec) = tailer.next_record().unwrap() {
            streamed.push(rec);
        }
        let body_start = text
            .match_indices('\n')
            .nth(header_lines - 1)
            .map(|(i, _)| i + 1)
            .unwrap();
        let (spec, window) = (log.spec(), log.window());
        let rows = parse_body_rows(
            &text[body_start..],
            header_lines,
            log.generation(),
            spec,
            window,
            None,
        )
        .unwrap();
        assert_eq!(rows.records, streamed);
        assert_eq!(rows.seen, streamed.len());
        assert_eq!(rows.lines, text.lines().count() - header_lines);
        // Malformed and invalid rows report their rebased global line
        // numbers, as the tailer and a cold parse would.
        let t3 = Generation::Tsubame3;
        let t3_spec = t3.spec();
        let err =
            parse_body_rows("\n1,nope,1.0,GPU,0,,\n", 7, t3, &t3_spec, window, None).unwrap_err();
        assert_eq!(err.line(), Some(9));
        let err =
            parse_body_rows("1,1.0,1.0,GPU,99999,,\n", 7, t3, &t3_spec, window, None).unwrap_err();
        assert!(matches!(err, Error::InvalidRow { line: 8, .. }), "{err}");
    }

    #[test]
    fn ndjson_minimal_record_parses() {
        let rec = parse_ndjson_row(
            1,
            "{\"id\":7,\"time_h\":1.5,\"ttr_h\":0.5,\"category\":\"Memory\",\"node\":3}",
            Generation::Tsubame3,
        )
        .unwrap();
        assert_eq!(rec.id(), 7);
        assert!(rec.gpus().is_empty());
        assert!(rec.locus().is_none());
        // Standard JSON string escapes are legal: `\u0047PU` is `GPU`.
        let line = r#"{"id":7,"time_h":1.5,"ttr_h":0.5,"category":"\u0047PU","node":3}"#;
        let rec = parse_ndjson_row(1, line, Generation::Tsubame3).unwrap();
        assert_eq!(rec.category().label(), "GPU");
    }
}
