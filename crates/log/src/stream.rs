//! Incremental log ingestion: a polling tailer.
//!
//! [`LogTailer`] reads a `failscope-log v1` file as it grows, which is
//! what a live monitor needs. The header is parsed at open; thereafter
//! each [`LogTailer::read_rows`] call hands the next run of *complete*
//! lines to [`crate::parse_body_rows`], the batch parser's chunk
//! function, so a watch, a cold parse and a snapshot's tail extension
//! share one row loop and one line numbering. A final line with no
//! newline (a writer mid-`write`) stays buffered until its newline
//! arrives, so a follow-mode caller can sleep and poll again while the
//! file grows; [`LogTailer::finish`] parses it once the stream is known
//! to be finished.
//!
//! A tailer reads on from its byte offset in the file it opened, so it
//! cannot follow a rotation. [`LogTailer::check_rotation`], which a
//! follow-mode caller runs on each poll that finds no complete line,
//! turns the two rotations it would otherwise miss into a
//! [`LogRotated`] error: the file shrank below the bytes already read
//! (truncated in place), or the path now names another file (or none).
//! Like `tail -F`, it cannot see a shrink that is refilled past the old
//! offset between two polls: the rows read from there on are whatever
//! the new content holds at that offset.
//!
//! Body rows are CSV (the format's native rows) or one-line JSON
//! objects, auto-detected per line, so `failctl watch` can ingest the
//! NDJSON event streams that fleet telemetry pipelines emit:
//!
//! ```text
//! {"id":0,"time_h":10.5,"ttr_h":4.25,"category":"GPU","node":12,"gpus":[0,3],"locus":null}
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, Read};
use std::path::{Path, PathBuf};

use failtypes::{Error, FailureRecord, Generation, ObservationWindow, Result, SystemSpec};

use crate::csv::HeaderParser;
use crate::inflate::Crc32;
use crate::input::{decode_raw, file_id, FileId};
use crate::{parse_body_rows, Compression, SourceInfo, DEFAULT_CHUNK_BYTES};

/// Incremental, poll-friendly reader for a `failscope-log v1` file.
///
/// [`open`](LogTailer::open) parses the header (which must be
/// complete); thereafter [`read_rows`](LogTailer::read_rows) parses
/// the complete body lines read so far, and reports when there are
/// none *right now*. On a finished file that means end of input; on a
/// growing plain file the caller can poll again after a delay and the
/// tailer picks up appended bytes, including the completion of a
/// previously partial line.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 3).generate().unwrap();
/// let path = std::env::temp_dir().join("failscope-doc-tailer.fslog");
/// faillog::save(&path, &log)?;
/// let mut tailer = faillog::LogTailer::open(&path)?;
/// let mut records = Vec::new();
/// while tailer.read_rows(256, &mut records)? {}
/// tailer.finish(&mut records)?;
/// assert_eq!(records.as_slice(), log.records());
/// assert_eq!(tailer.progress(), Some(faillog::LogFile::read(&path)?.source()));
/// # std::fs::remove_file(&path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct LogTailer {
    input: Input,
    compression: Compression,
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
}

/// How a followed log stopped being the file its tailer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// The file is shorter than the bytes already read from it: it was
    /// truncated (and perhaps rewritten) in place.
    Truncated {
        /// The file's length now, bytes.
        len: u64,
        /// Bytes read from it before, consumed or buffered.
        read: u64,
    },
    /// The path names another file or none: one was moved over it, or
    /// it was moved away or deleted (and perhaps recreated).
    Replaced,
}

/// A followed log was rotated (see [`LogTailer::check_rotation`]).
/// Carried as the source of a [`failtypes::Error::Other`], so a caller
/// finds it with `downcast_ref`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRotated {
    /// The followed path.
    pub path: PathBuf,
    /// What happened to it.
    pub rotation: Rotation,
}

impl fmt::Display for LogRotated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.path.display();
        match self.rotation {
            Rotation::Truncated { len, read } => write!(
                f,
                "`{path}` was truncated to {len} bytes after {read} bytes were read"
            )?,
            Rotation::Replaced => write!(f, "`{path}` now names another file or none")?,
        }
        f.write_str(
            " (log rotated: every row read before it stands; restart to read the new content)",
        )
    }
}

impl std::error::Error for LogRotated {}

/// The plain file a tailer reads appended bytes from.
struct Followed {
    file: File,
    path: PathBuf,
}

/// The bytes a tailer has read, and the account of those it consumed.
struct Input {
    /// The open file, kept so a poll can read appended bytes; `None`
    /// when nothing more can arrive (compressed input, decoded whole).
    file: Option<Followed>,
    /// `buf[start..]` is read but not yet consumed.
    buf: Vec<u8>,
    start: usize,
    /// Lines consumed, blank ones included.
    lines: usize,
    /// Bytes consumed and their CRC-32, kept for plain input only: a
    /// compressed file's decoded bytes match no prefix of the file.
    consumed: Option<(u64, Crc32)>,
}

impl LogTailer {
    /// Opens a log file for tailing. The leading bytes are sniffed and
    /// decoded by the same dispatch a [`crate::LogFile`] uses, so a
    /// gzip-compressed replay file tails exactly like plain text: it is
    /// decoded whole at open. Plain files are read one
    /// [`DEFAULT_CHUNK_BYTES`] block at a time, and the handle is kept
    /// so a later poll sees appended bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the file cannot be opened or decoded, or
    /// its header is incomplete or malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let mut buf = Vec::new();
        read_block(&mut file, &mut buf)?;
        let compression = Compression::sniff(&buf);
        let file = if compression == Compression::Plain {
            Some(Followed {
                file,
                path: path.to_path_buf(),
            })
        } else {
            file.read_to_end(&mut buf)?;
            buf = decode_raw(compression, buf, path)?;
            None
        };
        LogTailer::start(file, buf, compression)
    }

    /// Parses the header from `buf`, reading more of `file` while no
    /// complete header is buffered.
    fn start(file: Option<Followed>, buf: Vec<u8>, compression: Compression) -> Result<Self> {
        let mut input = Input {
            file,
            buf,
            start: 0,
            lines: 0,
            consumed: (compression == Compression::Plain).then(|| (0, Crc32::new())),
        };
        let mut header = HeaderParser::new();
        let mut lines = 0;
        loop {
            let end = match input.complete_lines(1) {
                Some(end) => end,
                None if input.read_block()? => continue,
                // A last header line without a newline still counts, as
                // it does in a batch parse.
                None if input.start < input.buf.len() => input.buf.len(),
                None => return Err(Error::Header("unexpected end of file".into())),
            };
            let done = header.feed(lines, input.take(end)?)?;
            lines += 1;
            if done {
                break;
            }
        }
        input.lines = lines;
        let (generation, spec, window) = header.finish()?;
        Ok(LogTailer {
            input,
            compression,
            generation,
            spec,
            window,
        })
    }

    /// The compression detected on the file. Only plain files grow
    /// observably: `failctl watch --follow` refuses anything else.
    pub fn compression(&self) -> Compression {
        self.compression
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

    /// The fingerprint of the input consumed so far — the provenance a
    /// `failindex` snapshot needs for the byte range its records came
    /// from. `None` for compressed input, whose consumed *decoded*
    /// bytes match no prefix of the file on disk.
    ///
    /// Only *consumed* input counts: a buffered partial line (no
    /// newline yet) is excluded until it completes or is finished, so
    /// `bytes` always delimits a prefix of the file whose re-parse
    /// yields exactly the records handed out so far.
    pub fn progress(&self) -> Option<SourceInfo> {
        let (bytes, crc) = self.input.consumed.as_ref()?;
        Some(SourceInfo {
            bytes: *bytes,
            crc32: crc.finish(),
            lines: self.input.lines as u64,
        })
    }

    /// Parses the next complete lines, at most `max` of them (at least
    /// one), and appends their records to `out`; blank lines consume a
    /// line number and yield nothing. Reads one more block of a plain
    /// file when no complete line is buffered. Returns `false` when no
    /// complete line is available now.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for I/O failures, invalid UTF-8, malformed
    /// rows (with line number and field), and records violating the
    /// header's invariants (with line number).
    pub fn read_rows(&mut self, max: usize, out: &mut Vec<FailureRecord>) -> Result<bool> {
        let end = loop {
            match self.input.complete_lines(max) {
                Some(end) => break end,
                None if self.input.read_block()? => {}
                None => return Ok(false),
            }
        };
        self.parse(end, out)?;
        Ok(true)
    }

    /// Checks that the followed file is still the one at its path and
    /// holds at least the bytes read from it: `fstat` on the open handle,
    /// `stat` on the path. A follow-mode caller runs this on each poll
    /// that found no complete line, since a tailer would otherwise read
    /// on at its old offset, skipping the start of a truncated and
    /// rewritten file, and never see a file moved over its path. Always
    /// `Ok` for compressed input (decoded whole at open) and when the
    /// platform has no inode identities.
    ///
    /// # Errors
    ///
    /// A [`LogRotated`] (the source of a [`failtypes::Error::Other`])
    /// naming the rotation; an I/O error if the handle cannot be
    /// `fstat`ed.
    pub fn check_rotation(&self) -> Result<()> {
        let Some(followed) = &self.input.file else {
            return Ok(());
        };
        let Some(open) = FileId::of(&followed.file.metadata()?) else {
            return Ok(());
        };
        let rotation = match file_id(&followed.path) {
            Some(at_path) if at_path.is_none_or(|id| (id.dev, id.ino) != (open.dev, open.ino)) => {
                Some(Rotation::Replaced)
            }
            _ => {
                let read = self.input.bytes_read();
                (open.len < read).then_some(Rotation::Truncated {
                    len: open.len,
                    read,
                })
            }
        };
        match rotation {
            None => Ok(()),
            Some(rotation) => Err(Error::other(
                "following a log",
                LogRotated {
                    path: followed.path.clone(),
                    rotation,
                },
            )),
        }
    }

    /// Parses the rest of the buffered input — a final line that never
    /// got its newline — once the stream is known to be complete.
    ///
    /// # Errors
    ///
    /// Same as [`read_rows`](LogTailer::read_rows).
    pub fn finish(&mut self, out: &mut Vec<FailureRecord>) -> Result<()> {
        let end = self.input.buf.len();
        if end > self.input.start {
            self.parse(end, out)?;
        }
        Ok(())
    }

    /// Consumes `buf[start..end]` and parses it as body rows.
    fn parse(&mut self, end: usize, out: &mut Vec<FailureRecord>) -> Result<()> {
        let before = self.input.lines;
        let text = self.input.take(end)?;
        let mut rows = parse_body_rows(text, before, self.generation, &self.spec, self.window, None)?;
        self.input.lines += rows.lines;
        out.append(&mut rows.records);
        Ok(())
    }
}

impl Input {
    /// The end of the run of up to `max` (at least one) complete lines
    /// at the front of the unconsumed bytes; `None` when none is
    /// complete.
    fn complete_lines(&self, max: usize) -> Option<usize> {
        let mut end = self.start;
        for _ in 0..max.max(1) {
            // A slice's `skip_until` searches with std's `memchr`, faster
            // than a byte loop; it counts the newline when it finds one.
            let mut unread = &self.buf[end..];
            match unread.skip_until(b'\n') {
                Ok(n) if n > 0 && self.buf[end + n - 1] == b'\n' => end += n,
                _ => break,
            }
        }
        (end > self.start).then_some(end)
    }

    /// Drops the consumed bytes and reads the next block of the file
    /// behind the rest, so the buffer never holds more than one block
    /// plus the longest line. `false` when nothing more was read.
    fn read_block(&mut self) -> Result<bool> {
        let Some(followed) = &mut self.file else {
            return Ok(false);
        };
        self.buf.drain(..self.start);
        self.start = 0;
        Ok(read_block(&mut followed.file, &mut self.buf)? > 0)
    }

    /// Bytes read from a plain file so far, consumed or buffered: the
    /// handle's offset.
    fn bytes_read(&self) -> u64 {
        let consumed = self.consumed.as_ref().map_or(0, |&(bytes, _)| bytes);
        consumed + (self.buf.len() - self.start) as u64
    }

    /// Consumes `buf[start..end]`, folding it into the byte count and
    /// checksum, and returns it as text.
    fn take(&mut self, end: usize) -> Result<&str> {
        let run = &self.buf[self.start..end];
        self.start = end;
        if let Some((bytes, crc)) = &mut self.consumed {
            *bytes += run.len() as u64;
            crc.update(run);
        }
        std::str::from_utf8(run).map_err(|_| {
            Error::from(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })
    }
}

/// Appends up to one [`DEFAULT_CHUNK_BYTES`] block of `file` to `buf`,
/// returning the bytes read.
fn read_block(file: &mut File, buf: &mut Vec<u8>) -> io::Result<usize> {
    file.take(DEFAULT_CHUNK_BYTES as u64).read_to_end(buf)
}

impl fmt::Debug for LogTailer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTailer")
            .field("generation", &self.generation)
            .field("compression", &self.compression)
            .field("lines", &self.input.lines)
            .field("unconsumed_bytes", &(self.input.buf.len() - self.input.start))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_ndjson_row, record_to_ndjson};
    use failsim::{Simulator, SystemModel};
    use proptest::prelude::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn t3_log() -> failtypes::FailureLog {
        Simulator::new(SystemModel::tsubame3(), 31).generate().unwrap()
    }

    /// A tailer over in-memory plain text, as if the file ended there.
    fn tail_text(text: &str) -> Result<LogTailer> {
        LogTailer::start(None, text.as_bytes().to_vec(), Compression::Plain)
    }

    /// Every record the tailer can hand out now, in pulls of `max`.
    fn drain(tailer: &mut LogTailer, max: usize) -> Result<Vec<FailureRecord>> {
        let mut records = Vec::new();
        while tailer.read_rows(max, &mut records)? {}
        Ok(records)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("failscope-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tailer_reads_whole_log_identically() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let tailer = tail_text(&text).unwrap();
        assert_eq!(tailer.generation(), log.generation());
        assert_eq!(tailer.spec(), log.spec());
        assert_eq!(tailer.window(), log.window());
        for max in [1, 7, usize::MAX] {
            let mut tailer = tail_text(&text).unwrap();
            let mut records = drain(&mut tailer, max).unwrap();
            let before = records.len();
            tailer.finish(&mut records).unwrap();
            assert_eq!(records.len(), before, "max = {max}");
            assert_eq!(records.as_slice(), log.records(), "max = {max}");
        }
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
        let records = drain(&mut tail_text(&text).unwrap(), 3).unwrap();
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
        let path = temp_dir("tail").join("grow.fslog");

        // Header + one complete row + half of the next row.
        let (head, tail) = lines[8].split_at(5);
        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "{}\n{}\n{head}", lines[..7].join("\n"), lines[7]).unwrap();
        f.flush().unwrap();

        let mut tailer = LogTailer::open(&path).unwrap();
        let mut records = Vec::new();
        assert!(tailer.read_rows(usize::MAX, &mut records).unwrap());
        assert_eq!(records.as_slice(), &log.records()[..1]);
        // The half row must NOT be parsed yet.
        assert!(!tailer.read_rows(usize::MAX, &mut records).unwrap());
        assert!(!tailer.read_rows(usize::MAX, &mut records).unwrap());
        assert_eq!(records.len(), 1);

        // Writer completes the row; the tailer picks it up on next poll.
        writeln!(f, "{tail}").unwrap();
        f.flush().unwrap();
        assert!(tailer.read_rows(usize::MAX, &mut records).unwrap());
        assert_eq!(records.as_slice(), &log.records()[..2]);
        assert!(!tailer.read_rows(usize::MAX, &mut records).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opened_files_checksum_plain_text_only() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let dir = temp_dir("crc");
        let plain = dir.join("log.fslog");
        let gz = dir.join("log.fslog.gz");
        std::fs::write(&plain, &text).unwrap();
        std::fs::write(&gz, crate::gzip_compress(text.as_bytes())).unwrap();
        let finish = |tailer: &mut LogTailer| {
            let mut records = drain(tailer, 64).unwrap();
            tailer.finish(&mut records).unwrap();
            records
        };

        let mut from_plain = LogTailer::open(&plain).unwrap();
        let mut from_gz = LogTailer::open(&gz).unwrap();
        assert_eq!(from_plain.compression(), Compression::Plain);
        assert_eq!(from_gz.compression(), Compression::Gzip);
        assert_eq!(finish(&mut from_plain), finish(&mut from_gz));
        assert_eq!(
            from_plain.progress(),
            Some(crate::SourceInfo::of_bytes(text.as_bytes()))
        );
        // Compressed input has no on-disk prefix to fingerprint, but
        // its lines are still counted.
        assert_eq!(from_gz.progress(), None);
        assert_eq!(from_gz.input.lines, text.lines().count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_partial_parses_unterminated_final_line() {
        let log = t3_log();
        let full = crate::to_string(&log).unwrap();
        let text = full.trim_end(); // drop the final newline
        let mut tailer = tail_text(text).unwrap();
        let mut records = drain(&mut tailer, 5).unwrap();
        assert_eq!(records.len(), log.len() - 1);
        tailer.finish(&mut records).unwrap();
        assert_eq!(records.as_slice(), log.records());
        // Finishing again finds nothing left.
        tailer.finish(&mut records).unwrap();
        assert_eq!(records.len(), log.len());
    }

    #[test]
    fn tailer_rejects_incomplete_header() {
        let err = tail_text("# failscope-log v1\n# generation: Tsubame-3\n").unwrap_err();
        assert!(matches!(err, Error::Header(_)), "{err}");
        assert_eq!(err.to_string(), "malformed log header: unexpected end of file");
    }

    #[test]
    fn tailer_reports_line_numbers_for_bad_rows() {
        let text = "# failscope-log v1\n# generation: Tsubame-3\n# window: 2017-05-09..2020-02-22\nid,time_h,ttr_h,category,node,gpus,locus\n0,1.0,1.0,GPU,0,,\n1,nope,1.0,GPU,0,,\n";
        let mut tailer = tail_text(text).unwrap();
        let mut records = Vec::new();
        assert!(tailer.read_rows(1, &mut records).unwrap());
        assert_eq!(records.len(), 1);
        let err = tailer.read_rows(1, &mut records).unwrap_err();
        assert_eq!(err.line(), Some(6));
        assert!(err.to_string().contains("`time_h`"), "{err}");
        // Blank lines advance the numbering, and an invariant violation
        // is numbered the same way.
        let text = text.replace("1,nope,1.0,GPU,0,,", "\n1,1.0,1.0,GPU,99999,,");
        let err = drain(&mut tail_text(&text).unwrap(), 9).unwrap_err();
        assert!(matches!(err, Error::InvalidRow { line: 7, .. }), "{err}");
    }

    #[test]
    fn invalid_utf8_is_refused_when_its_line_is_reached() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let mut bytes = text.as_bytes().to_vec();
        let third_row_end = text.match_indices('\n').nth(9).unwrap().0;
        bytes.insert(third_row_end, 0xFF);
        let mut tailer = LogTailer::start(None, bytes, Compression::Plain).unwrap();
        let mut records = Vec::new();
        assert!(tailer.read_rows(2, &mut records).unwrap());
        assert_eq!(records.as_slice(), &log.records()[..2]);
        let err = tailer.read_rows(2, &mut records).unwrap_err();
        assert_eq!(err.to_string(), "i/o error: stream did not contain valid UTF-8");
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
        let mut tailer = tail_text(&text).unwrap();
        // The header alone is committed after construction.
        let header = tailer.progress().unwrap();
        assert!(header.bytes > 0 && (header.bytes as usize) < text.len());
        assert_eq!(
            header.crc32,
            crate::crc32(&text.as_bytes()[..header.bytes as usize])
        );
        let mut records = drain(&mut tailer, 100).unwrap();
        tailer.finish(&mut records).unwrap();
        let done = tailer.progress().unwrap();
        assert_eq!(done.bytes as usize, text.len());
        assert_eq!(done.crc32, crate::crc32(text.as_bytes()));
        assert_eq!(done.lines as usize, text.lines().count());
        // The committed prefix always ends on a line boundary, so its
        // line count matches the newline-counting formula snapshots use.
        assert_eq!(done, crate::SourceInfo::of_bytes(text.as_bytes()));
    }

    #[test]
    fn progress_excludes_buffered_partial_lines() {
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        // Drop the final newline: the last row stays a buffered partial
        // and must not count as committed until it is finished.
        let cut = &text[..text.len() - 1];
        let mut tailer = tail_text(cut).unwrap();
        let mut records = drain(&mut tailer, 100).unwrap();
        let before = tailer.progress().unwrap();
        assert!((before.bytes as usize) < cut.len());
        assert_eq!(
            before,
            crate::SourceInfo::of_bytes(&cut.as_bytes()[..before.bytes as usize])
        );
        tailer.finish(&mut records).unwrap();
        assert_eq!(records.len(), log.len());
        let after = tailer.progress().unwrap();
        assert_eq!(after, crate::SourceInfo::of_bytes(cut.as_bytes()));
        assert_eq!(after.lines, before.lines + 1);
    }

    #[test]
    fn the_unconsumed_buffer_stays_within_one_block_plus_the_longest_line() {
        // Over three blocks of rows, with a few long NDJSON lines.
        let log = t3_log();
        let text = crate::to_string(&log).unwrap();
        let body_start = text.match_indices('\n').nth(6).unwrap().0 + 1;
        let mut grown = text.clone();
        while grown.len() < 3 * DEFAULT_CHUNK_BYTES + 1000 {
            grown.push_str(&text[body_start..]);
            grown.push_str(&record_to_ndjson(&log.records()[0]));
            grown.push('\n');
        }
        let longest = grown.lines().map(|l| l.len() + 1).max().unwrap();
        let path = temp_dir("bound").join("big.fslog");
        std::fs::write(&path, &grown).unwrap();
        let mut tailer = LogTailer::open(&path).unwrap();
        let mut records = Vec::new();
        let mut total = 0;
        while tailer.read_rows(256, &mut records).unwrap() {
            assert!(
                tailer.input.buf.len() <= DEFAULT_CHUNK_BYTES + longest,
                "after {total} records: {} bytes buffered",
                tailer.input.buf.len()
            );
            total += records.len();
            records.clear();
        }
        assert_eq!(total, grown.lines().count() - 7);
        let done = tailer.progress().unwrap();
        assert_eq!(done, crate::SourceInfo::of_bytes(grown.as_bytes()));
        std::fs::remove_file(&path).unwrap();
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

    /// A small T3 log as text, with a multi-byte UTF-8 character in a
    /// trailing blank-ish line so splits can land inside it, and an
    /// optional bad row (malformed or out of range) in the middle.
    fn proptest_text(seed: u64, bad: Option<(usize, bool)>) -> String {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        let mut lines: Vec<String> = crate::to_string(&log)
            .unwrap()
            .lines()
            .take(7 + 60)
            .map(String::from)
            .collect();
        if let Some((at, malformed)) = bad {
            let row = if malformed { "9,1.0,zz,GPU,0,,\n" } else { "9,1.0,1.0,GPU,99999,,\n" };
            lines.insert(7 + at % 60, row.trim_end().to_string());
        }
        lines.push("\u{a0}\u{2003}".to_string());
        lines.push(record_to_ndjson(&log.records()[60]));
        lines.join("\n") + "\n"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // A log written in arbitrary pieces (cut mid-line and inside
        // multi-byte characters) and polled by a following tailer
        // between writes yields exactly the batch parser's records, or
        // its error, line and text alike; the progress fingerprint is
        // the whole file's.
        #[test]
        fn a_followed_log_written_in_pieces_parses_like_the_batch_parser(
            seed in 1u64..4,
            cuts in proptest::collection::vec(0usize..5000, 0..12),
            max in 1usize..40,
            bad in proptest::option::of((0usize..60, any::<bool>())),
        ) {
            let text = proptest_text(seed, bad);
            let bytes = text.as_bytes();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % bytes.len()).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            // The header must be whole before the tailer opens.
            let header_end = text.match_indices('\n').nth(6).unwrap().0 + 1;
            let path = temp_dir("pieces").join(format!("{seed}-{max}-{}.fslog", cuts.len()));
            let mut file = std::fs::File::create(&path).unwrap();
            file.write_all(&bytes[..header_end]).unwrap();
            let mut tailer = LogTailer::open(&path).unwrap();
            let mut records = Vec::new();
            let mut written = header_end;
            let mut outcome = Ok(());
            for cut in cuts {
                if cut > written {
                    file.write_all(&bytes[written..cut]).unwrap();
                    written = cut;
                }
                match drain(&mut tailer, max) {
                    Ok(mut more) => records.append(&mut more),
                    Err(err) => {
                        outcome = Err(err);
                        break;
                    }
                }
            }
            std::fs::remove_file(&path).unwrap();
            match (outcome, crate::from_str(&text)) {
                (Ok(()), Ok(batch)) => {
                    prop_assert_eq!(records.as_slice(), batch.records());
                    prop_assert_eq!(tailer.progress(), Some(crate::SourceInfo::of_bytes(bytes)));
                }
                (Err(err), Err(batch)) => {
                    prop_assert_eq!(err.line(), batch.line());
                    prop_assert_eq!(err.to_string(), batch.to_string());
                }
                (ours, batch) => prop_assert!(false, "tailer {:?} vs batch {:?}", ours, batch.map(|l| l.len())),
            }
        }
    }
}
