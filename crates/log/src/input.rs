//! Log input: magic-byte sniffing with transparent decompression.
//!
//! Fleet archives at the scale the paper's successors analyse (multi-GB
//! job histories) are almost always stored compressed. Every reader
//! sniffs a file's leading magic bytes and decodes it through one
//! dispatch ([`decode_raw`]): gzip members are inflated in memory by the
//! in-repo [`crate::inflate`] codec (no temp files, no external
//! processes), and plain text passes through untouched. The zstd magic
//! is recognised so the error message is precise, but decoding it is
//! out of scope for now; the sniff table below is the single place a
//! future decoder plugs into.
//!
//! Batch callers read a file once into a [`LogFile`] — raw bytes plus
//! their [`SourceInfo`] fingerprint — and parse that buffer (the
//! chunked parallel parser needs a contiguous buffer to split);
//! [`read_input`] stops at the decoded text. [`crate::LogTailer`] reads
//! a file as it grows.

use std::cell::OnceCell;
use std::fs::{File, Metadata};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use failtrace::Collector;
use failtypes::{Error, FailureLog, Result};

use crate::{inflate, ParseOptions};

/// The zstd frame magic (little-endian 0xFD2FB528), recognised but not
/// yet decoded.
const ZSTD_MAGIC: [u8; 4] = [0x28, 0xB5, 0x2F, 0xFD];

/// The `failindex` snapshot magic (`.fsidx` files): a leading byte that
/// is never valid UTF-8 text (so no log can start with it) followed by
/// the format name. Shared with the `failindex` crate, which writes and
/// validates it — recognised here so a snapshot mistakenly passed as a
/// log is rejected with a precise error instead of a header-parse
/// failure, whatever the file's extension claims.
pub const FSIDX_MAGIC: [u8; 6] = [0x8F, b'F', b'S', b'I', b'D', b'X'];

/// Compression detected on an input file, by magic bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// No recognised magic: treated as plain `failscope-log v1` text.
    Plain,
    /// RFC 1952 gzip (`1f 8b`), inflated transparently.
    Gzip,
    /// Zstandard frame (`28 b5 2f fd`): recognised so the error can say
    /// so, but not yet decodable.
    Zstd,
    /// A `failindex` `.fsidx` snapshot ([`FSIDX_MAGIC`]): binary
    /// derived data, never valid log input.
    Snapshot,
}

impl Compression {
    /// Classifies a file by its leading bytes.
    pub fn sniff(prefix: &[u8]) -> Compression {
        if prefix.starts_with(&inflate::GZIP_MAGIC) {
            Compression::Gzip
        } else if prefix.starts_with(&ZSTD_MAGIC) {
            Compression::Zstd
        } else if prefix.starts_with(&FSIDX_MAGIC) {
            Compression::Snapshot
        } else {
            Compression::Plain
        }
    }

    /// Human label used in errors and traces.
    pub fn label(self) -> &'static str {
        match self {
            Compression::Plain => "plain",
            Compression::Gzip => "gzip",
            Compression::Zstd => "zstd",
            Compression::Snapshot => "fsidx snapshot",
        }
    }
}

/// Fingerprint of a log's raw on-disk bytes: what a `failindex`
/// snapshot records at save time and validates against later.
///
/// `lines` counts the *text* lines the fingerprinted bytes span (a
/// final unterminated line counts as one); it rebases parser line
/// numbers when a prefix-matched snapshot extends over an appended
/// tail. For compressed logs the field is unused — only exact matches
/// apply there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceInfo {
    /// Raw byte length of the fingerprinted input.
    pub bytes: u64,
    /// CRC-32 of those bytes.
    pub crc32: u32,
    /// Text lines the bytes span.
    pub lines: u64,
}

impl SourceInfo {
    /// Fingerprints a byte slice (length, CRC-32, line count).
    pub fn of_bytes(data: &[u8]) -> SourceInfo {
        // Per-chunk `u8` sums vectorize to byte compares and adds; a
        // plain `filter().count()` widens every byte and runs ~10x
        // slower on a multi-megabyte log. 255 newlines fit in a `u8`.
        let newlines: u64 = data
            .chunks(255)
            .map(|c| u64::from(c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum();
        let lines = match data.last() {
            None => 0,
            Some(b'\n') => newlines,
            Some(_) => newlines + 1,
        };
        SourceInfo {
            bytes: data.len() as u64,
            crc32: inflate::crc32(data),
            lines,
        }
    }
}

/// What `stat` reports about one file: enough to tell the file that
/// held some bytes from a rewrite, a replacement or a rename over its
/// path. A write changes the length or the mtime (and always the
/// ctime, which no user can set back); a replacement changes the inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileId {
    /// Device holding the file.
    pub dev: u64,
    /// Inode number.
    pub ino: u64,
    /// Length in bytes.
    pub len: u64,
    /// Last modification, nanoseconds since the Unix epoch.
    pub mtime_ns: i64,
    /// Last status change, nanoseconds since the Unix epoch.
    pub ctime_ns: i64,
}

impl FileId {
    /// The identity `meta` describes; `None` on a platform without inode
    /// identities, or for a timestamp outside the `i64` nanosecond range
    /// (years 1678–2262).
    #[cfg(unix)]
    pub fn of(meta: &Metadata) -> Option<FileId> {
        use std::os::unix::fs::MetadataExt;
        let ns = |secs: i64, nanos: i64| secs.checked_mul(1_000_000_000)?.checked_add(nanos);
        Some(FileId {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.size(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec())?,
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec())?,
        })
    }

    /// The identity `meta` describes; `None` on a platform without inode
    /// identities, or for a timestamp outside the `i64` nanosecond range
    /// (years 1678–2262).
    #[cfg(not(unix))]
    pub fn of(_meta: &Metadata) -> Option<FileId> {
        None
    }
}

/// Stats `path`, following symlinks: `Some(None)` when the file is
/// absent, `None` when `stat` fails otherwise or [`FileId::of`] has no
/// identity for it.
pub fn file_id(path: &Path) -> Option<Option<FileId>> {
    match std::fs::metadata(path) {
        Ok(meta) => FileId::of(&meta).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Some(None),
        Err(_) => None,
    }
}

/// The identity of the file a [`LogFile`] read, and when it was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStat {
    /// The file's identity, the same before and after the read.
    pub id: FileId,
    /// Wall-clock time just before the first `stat`, nanoseconds since
    /// the Unix epoch. A write after the read stamps an mtime no earlier
    /// than this, less one tick of the kernel's coarse clock.
    pub read_at_ns: i64,
}

impl ReadStat {
    /// Stats `path` now, as [`file_id`] does, stamped with the time just
    /// before the `stat`: `Some(None)` when the file is absent, `None`
    /// when it has no identity.
    pub fn now(path: &Path) -> Option<Option<ReadStat>> {
        let read_at_ns = now_ns()?;
        Some(file_id(path)?.map(|id| ReadStat { id, read_at_ns }))
    }
}

/// Nanoseconds since the Unix epoch now; `None` if the clock is outside
/// the `i64` range.
fn now_ns() -> Option<i64> {
    let since = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).ok()?;
    i64::try_from(since.as_nanos()).ok()
}

/// A log file's raw on-disk bytes, read exactly once, plus their
/// [`SourceInfo`] fingerprint.
///
/// Everything a query derives from one file — a render-cache key,
/// snapshot freshness, a warm open or extension, a cold parse, and any
/// snapshot saved afterwards — comes from this one buffer, so all of
/// them describe the same bytes even when the file changes mid-query.
/// The fingerprint is computed on first use, so a plain load that never
/// asks for it pays no checksum pass.
///
/// The read also records the file's [`ReadStat`]: its identity from
/// `fstat` on the open handle before the read, kept only when a second
/// `fstat` after the read still agrees (and matches the bytes read), so
/// a read torn by a concurrent write carries no identity.
///
/// # Examples
///
/// ```no_run
/// let file = faillog::LogFile::read("fleet.fslog")?;
/// let source = file.source(); // what a snapshot of this parse records
/// let log = file.parse(None, &faillog::ParseOptions::default())?;
/// # Ok::<(), failtypes::Error>(())
/// ```
#[derive(Debug)]
pub struct LogFile {
    path: PathBuf,
    raw: Vec<u8>,
    source: OnceCell<SourceInfo>,
    stat: Option<ReadStat>,
}

impl LogFile {
    /// Reads `path` whole.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be opened or read.
    pub fn read(path: impl AsRef<Path>) -> Result<LogFile> {
        let path = path.as_ref();
        let file = File::open(path)?;
        LogFile::read_from(path, file)
    }

    /// Reads the already-opened `file`, which `path` named, whole.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read.
    pub fn read_from(path: impl AsRef<Path>, mut file: File) -> Result<LogFile> {
        let read_at_ns = now_ns();
        let before = file.metadata().ok().and_then(|m| FileId::of(&m));
        let mut raw = Vec::with_capacity(before.map_or(0, |id| id.len as usize));
        file.read_to_end(&mut raw)?;
        let after = file.metadata().ok().and_then(|m| FileId::of(&m));
        let stat = match (before, after, read_at_ns) {
            (Some(id), Some(again), Some(read_at_ns))
                if id == again && id.len == raw.len() as u64 =>
            {
                Some(ReadStat { id, read_at_ns })
            }
            _ => None,
        };
        Ok(LogFile {
            path: path.as_ref().to_path_buf(),
            raw,
            source: OnceCell::new(),
            stat,
        })
    }

    /// The identity of the file the bytes came from, when the read could
    /// establish one (see the type docs).
    pub fn stat(&self) -> Option<ReadStat> {
        self.stat
    }

    /// The path the bytes were read from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The raw on-disk bytes, before any decompression.
    pub fn raw(&self) -> &[u8] {
        &self.raw
    }

    /// The fingerprint of [`raw`](LogFile::raw).
    pub fn source(&self) -> SourceInfo {
        *self.source.get_or_init(|| SourceInfo::of_bytes(&self.raw))
    }

    /// Decodes the bytes into text, inflating gzip; plain text is moved
    /// out of the buffer, never copied. Fails on corrupt gzip data, a
    /// recognised-but-unsupported encoding (zstd), a `.fsidx` snapshot
    /// passed as a log, or invalid UTF-8.
    fn decode(self) -> Result<(String, Compression)> {
        let compression = Compression::sniff(&self.raw);
        let bytes = decode_raw(compression, self.raw, &self.path)?;
        let text = String::from_utf8(bytes).map_err(|_| {
            Error::io(
                "decoding log input",
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                ),
            )
        })?;
        Ok((text, compression))
    }

    /// Decodes and parses the bytes with the chunked parallel parser.
    ///
    /// With a collector, records a `log.parse` span plus the
    /// `parse.records`, `parse.chunks` and `parse.chunk_bytes` counters
    /// (and the `filter.*` pair under a pushdown filter). Every counter
    /// depends only on the input and chunk size, so trace exports stay
    /// byte-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Corrupt gzip data, a recognised-but-unsupported encoding (zstd),
    /// a `.fsidx` snapshot passed as a log, invalid UTF-8, malformed
    /// headers or rows, and record-invariant violations.
    pub fn parse(self, trace: Option<&Collector>, opts: &ParseOptions) -> Result<FailureLog> {
        let mut span = trace.map(|t| t.span("log.parse"));
        let (text, _) = self.decode()?;
        let log = crate::parallel::from_str_traced(&text, opts, trace)?;
        if let (Some(trace), Some(span)) = (trace, span.as_mut()) {
            span.add_items(log.len() as u64);
            trace.incr("parse.records", log.len() as u64);
        }
        Ok(log)
    }
}

/// Reads a log file's full decoded text plus the compression it was
/// stored with — the entry point for the chunked parallel parser,
/// which splits one contiguous buffer.
///
/// # Errors
///
/// I/O failure, corrupt gzip data, zstd or `.fsidx` input, or invalid
/// UTF-8.
pub fn read_input(path: impl AsRef<Path>) -> Result<(String, Compression)> {
    LogFile::read(path)?.decode()
}

/// The one decode dispatch, shared by [`LogFile`] and
/// [`crate::LogTailer`]: the raw bytes of a file whose leading bytes
/// sniffed as `compression`, decoded. Plain text is moved through, gzip
/// inflated; zstd and `.fsidx` snapshots are errors naming `path`.
pub(crate) fn decode_raw(compression: Compression, raw: Vec<u8>, path: &Path) -> Result<Vec<u8>> {
    match compression {
        Compression::Plain => Ok(raw),
        Compression::Gzip => inflate::gzip_decompress(&raw).map_err(gzip_error),
        Compression::Zstd => Err(zstd_unsupported(path)),
        Compression::Snapshot => Err(snapshot_not_a_log(path)),
    }
}

fn gzip_error(msg: String) -> Error {
    Error::io(
        "inflating gzip input",
        io::Error::new(io::ErrorKind::InvalidData, msg),
    )
}

fn zstd_unsupported(path: &Path) -> Error {
    let display = path.display();
    Error::io(
        "decoding log input",
        io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "`{display}` is zstd-compressed, which is not yet supported; \
                 decompress it first (`zstd -d '{display}'`) or recompress with gzip"
            ),
        ),
    )
}

fn snapshot_not_a_log(path: &Path) -> Error {
    let display = path.display();
    Error::io(
        "decoding log input",
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "`{display}` is a failindex `.fsidx` snapshot, not a failscope log; \
                 point the command at the source log (snapshots load automatically \
                 via `--index`, see `failctl index`)"
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogTailer;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("failscope-test-input");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn sniff_classifies_magic_bytes() {
        assert_eq!(Compression::sniff(b"# failscope-log v1"), Compression::Plain);
        assert_eq!(Compression::sniff(&[0x1F, 0x8B, 8, 0]), Compression::Gzip);
        assert_eq!(
            Compression::sniff(&[0x28, 0xB5, 0x2F, 0xFD, 0]),
            Compression::Zstd
        );
        assert_eq!(
            Compression::sniff(&[0x8F, b'F', b'S', b'I', b'D', b'X', 1, 0]),
            Compression::Snapshot
        );
        assert_eq!(Compression::sniff(b""), Compression::Plain);
        assert_eq!(Compression::sniff(&[0x1F]), Compression::Plain);
        assert_eq!(Compression::sniff(&[0x8F, b'F', b'S']), Compression::Plain);
    }

    /// A small valid log and its text.
    fn small_log() -> (FailureLog, String) {
        let log = failsim::Simulator::new(failsim::SystemModel::tsubame3(), 5)
            .generate()
            .unwrap();
        let text = crate::to_string(&log).unwrap();
        (log, text)
    }

    /// Every record a tailer over `path` hands out, to the end.
    fn tail_all(path: &Path) -> Result<(LogTailer, Vec<failtypes::FailureRecord>)> {
        let mut tailer = LogTailer::open(path)?;
        let mut records = Vec::new();
        while tailer.read_rows(64, &mut records)? {}
        tailer.finish(&mut records)?;
        Ok((tailer, records))
    }

    #[test]
    fn sniffing_beats_misleading_extensions() {
        // Content decides, never the file name: gzip bytes under a
        // plain `.fslog` name still inflate, plain text under `.gz`
        // still reads from byte zero, and `.fsidx` snapshot bytes are
        // rejected as snapshots whatever the extension claims.
        let (log, text) = small_log();
        let gz_as_plain = tmp("mislabeled.fslog", &inflate::gzip_compress(text.as_bytes()));
        let (tailer, records) = tail_all(&gz_as_plain).unwrap();
        assert_eq!(tailer.compression(), Compression::Gzip);
        assert_eq!(records.as_slice(), log.records());
        let plain_as_gz = tmp("mislabeled.fslog.gz", text.as_bytes());
        let (tailer, records) = tail_all(&plain_as_gz).unwrap();
        assert_eq!(tailer.compression(), Compression::Plain);
        assert_eq!(records.as_slice(), log.records());

        let mut snapshot = FSIDX_MAGIC.to_vec();
        snapshot.extend_from_slice(&[1, 0, 0xAB, 0xCD]);
        for name in ["snap.fsidx", "snap.fslog", "snap.fslog.gz"] {
            let path = tmp(name, &snapshot);
            let err = LogTailer::open(&path).unwrap_err();
            assert!(err.to_string().contains(".fsidx"), "{name}: {err}");
            assert!(err.to_string().contains(name), "{name}: {err}");
            let err = read_input(&path).unwrap_err();
            assert!(err.to_string().contains("snapshot"), "{name}: {err}");
        }
    }

    #[test]
    fn plain_file_reads_from_byte_zero() {
        // The sniffed block is the tailer's first block: nothing is
        // skipped, and the fingerprint covers the file from byte 0.
        let (log, text) = small_log();
        let path = tmp("plain.fslog", text.as_bytes());
        let (tailer, records) = tail_all(&path).unwrap();
        assert_eq!(tailer.compression(), Compression::Plain);
        assert_eq!(records.as_slice(), log.records());
        assert_eq!(tailer.progress(), Some(SourceInfo::of_bytes(text.as_bytes())));
        let (read, comp) = read_input(&path).unwrap();
        assert_eq!((read.as_str(), comp), (text.as_str(), Compression::Plain));
    }

    #[test]
    fn gzip_file_decodes_transparently() {
        let (log, text) = small_log();
        let path = tmp("packed.fslog.gz", &inflate::gzip_compress(text.as_bytes()));
        let (tailer, records) = tail_all(&path).unwrap();
        assert_eq!(tailer.compression(), Compression::Gzip);
        assert_eq!(records.as_slice(), log.records());
        let (read, comp) = read_input(&path).unwrap();
        assert_eq!(comp, Compression::Gzip);
        assert_eq!(read, text);
    }

    #[test]
    fn corrupt_gzip_is_an_input_error() {
        let mut bytes = inflate::gzip_compress(b"payload payload payload");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let path = tmp("corrupt.fslog.gz", &bytes);
        let err = LogTailer::open(&path).unwrap_err();
        assert!(err.to_string().contains("gzip"), "{err}");
        assert!(read_input(&path).is_err());
    }

    #[test]
    fn zstd_is_recognised_but_unsupported() {
        let path = tmp("future.fslog.zst", &[0x28, 0xB5, 0x2F, 0xFD, 0, 0, 0]);
        let err = LogTailer::open(&path).unwrap_err();
        assert!(err.to_string().contains("zstd"), "{err}");
        // The error names the offending file and the way out.
        assert!(err.to_string().contains("future.fslog.zst"), "{err}");
        assert!(err.to_string().contains("zstd -d"), "{err}");
        let err = read_input(&path).unwrap_err();
        assert!(err.to_string().contains("zstd -d"), "{err}");
    }

    #[test]
    fn log_file_describes_the_bytes_it_read() {
        // The parsed records and the fingerprint both describe the
        // bytes as they were at `read`, not the file after an append.
        let log = failsim::Simulator::new(failsim::SystemModel::tsubame3(), 5)
            .generate()
            .unwrap();
        let text = crate::to_string(&log).unwrap();
        let path = tmp("read-once.fslog", text.as_bytes());
        let file = LogFile::read(&path).unwrap();
        let row = crate::record_to_ndjson(log.records().last().unwrap());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{row}").unwrap();
        drop(f);
        assert_eq!(file.path(), path.as_path());
        assert_eq!(file.source(), SourceInfo::of_bytes(text.as_bytes()));
        assert_eq!(file.raw(), text.as_bytes());
        let trace = Collector::new();
        let parsed = file.parse(Some(&trace), &ParseOptions::serial()).unwrap();
        assert_eq!(parsed, log);
        assert_eq!(trace.counter("parse.records"), log.len() as u64);
        // A fresh read sees the appended row.
        let grown = LogFile::read(&path).unwrap();
        assert!(grown.source().bytes > text.len() as u64);
        let lines = SourceInfo::of_bytes(text.as_bytes()).lines;
        assert_eq!(grown.source().lines, lines + 1);
    }

    #[test]
    fn log_file_records_the_identity_it_read() {
        let path = tmp("identity.fslog", b"# failscope-log v1\nrows\n");
        let before = now_ns().unwrap();
        let file = LogFile::read(&path).unwrap();
        let stat = file.stat().expect("an undisturbed read has an identity");
        assert_eq!(file_id(&path), Some(Some(stat.id)));
        assert_eq!(stat.id.len, file.raw().len() as u64);
        assert!(before <= stat.read_at_ns && stat.read_at_ns <= now_ns().unwrap());
        // Reading the open handle of a file replaced since gives that
        // handle's bytes and identity, not the path's.
        let handle = File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let path = tmp("identity.fslog", b"# failscope-log v1\nother\n");
        let file = LogFile::read_from(&path, handle).unwrap();
        assert_eq!(file.raw(), b"# failscope-log v1\nrows\n");
        assert_ne!(Some(file.stat().unwrap().id), file_id(&path).flatten());
        assert_eq!(file_id(Path::new("/definitely/not/here.fslog")), Some(None));
    }

    #[test]
    fn missing_file_errors() {
        let err = LogTailer::open("/definitely/not/here.fslog").unwrap_err();
        assert!(err.to_string().starts_with("i/o error: "), "{err}");
        assert!(read_input("/definitely/not/here.fslog").is_err());
        let err = LogFile::read("/definitely/not/here.fslog").unwrap_err();
        assert!(err.to_string().starts_with("i/o error: "), "{err}");
    }
}
