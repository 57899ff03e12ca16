//! Persistent, checksummed on-disk [`StreamView`] snapshots for the
//! `failscope` workspace.
//!
//! Parsing and indexing a failure log is the dominant cost of every
//! `failctl report` invocation, yet the log rarely changes between
//! runs. This crate persists a fully-built index next to the log as
//! `<log>.fsidx` — a versioned binary snapshot of everything a
//! [`StreamView`] exposes — so subsequent runs skip parsing entirely:
//!
//! * **Exact match** — the log's raw bytes still hash to the snapshot's
//!   fingerprint: the snapshot is decoded and served with *zero* record
//!   parsing.
//! * **Prefix match** — the log grew but its old bytes are unchanged
//!   (the append-only common case): the snapshot is decoded and only
//!   the appended tail is parsed, then the snapshot is rewritten.
//! * **Stale** — anything else (edited bytes, truncation, compressed
//!   tail growth, corrupt snapshot): callers fall back to a cold parse
//!   and rewrite the snapshot. Corruption is *never* an error on the
//!   read path — the snapshot is a cache, the log stays authoritative.
//!
//! Integrity is belt-and-braces: the 96-byte header carries its own
//! CRC-32, the body carries another, and the source fingerprint binds
//! the snapshot to the log's raw on-disk bytes (so a gzip log re-
//! compressed at a different level is correctly treated as stale). The
//! body is the view's own encoding: `failscope` decides which facts it
//! stores and writes and reads them
//! ([`StreamView::encode_body`], [`StreamView::decode_body`]), and this
//! crate frames it with the header, checksums it, and judges whether a
//! snapshot is still warm for its log.
//!
//! Every decision is made against a [`faillog::LogFile`] — the caller's
//! one read of the log, already fingerprinted — so [`freshness`] reads
//! only the snapshot header, an exact match costs no second CRC pass,
//! and [`open`] extends or falls back for exactly the bytes the caller
//! will otherwise parse. [`probe`] and [`open_indexed`] are the
//! read-then-call conveniences for callers holding only a path.
//!
//! A snapshot saved from a read ([`save_traced`] with the read's
//! [`LogFile::stat`]) also records the log's file identity and when it
//! was read. [`open_log`] serves such a snapshot without reading the
//! log at all while the open log still has that identity and the read
//! came well after the log's last change ([`vouch`], git's racy-clean
//! rule judged against the read time).
//!
//! # Examples
//!
//! ```
//! // Build an index once, snapshot it, and reload without parsing.
//! let log = failsim::Simulator::new(failsim::SystemModel::tsubame3(), 7)
//!     .generate()
//!     .unwrap();
//! let text = faillog::to_string(&log)?;
//!
//! let dir = std::env::temp_dir().join("failindex-doc");
//! std::fs::create_dir_all(&dir)?;
//! let log_path = dir.join("doc.fslog");
//! std::fs::write(&log_path, &text)?;
//!
//! let view = failscope::StreamView::new(&log);
//! let source = failindex::SourceInfo::of_bytes(text.as_bytes());
//! failindex::save(failindex::snapshot_path(&log_path), &view, source)?;
//!
//! match failindex::open_indexed(&log_path, None)? {
//!     failindex::IndexedLoad::Exact(snap) => assert_eq!(snap.view().len(), log.len()),
//!     other => panic!("expected an exact hit, got {other:?}"),
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod format;

use std::fmt;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use faillog::{crc32, ByteReader, Compression, FileId, LogFile, ReadStat};
use failscope::StreamView;
use failtrace::Collector;
use failtypes::Error;

pub use faillog::SourceInfo;
pub use failscope::FORMAT_VERSION;
pub use format::{Header, HEADER_LEN};

/// A loaded `.fsidx` snapshot: a fully-reconstructed [`StreamView`]
/// plus the source fingerprint it was built against. Reports render from
/// [`Snapshot::view`] exactly as they would from a freshly-parsed log.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    view: StreamView,
    source: SourceInfo,
    read: Option<ReadStat>,
}

impl Snapshot {
    /// The reconstructed index.
    pub fn view(&self) -> &StreamView {
        &self.view
    }

    /// Consumes the snapshot, yielding the index (e.g. to extend it).
    pub fn into_view(self) -> StreamView {
        self.view
    }

    /// The source-log fingerprint recorded at save time.
    pub fn source(&self) -> SourceInfo {
        self.source
    }

    /// The identity of the log file the snapshot was built from and
    /// when it was read, if the save recorded one.
    pub fn read(&self) -> Option<ReadStat> {
        self.read
    }
}

/// How commands should use `.fsidx` snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Use a warm snapshot when one validates; otherwise parse cold and
    /// refresh the snapshot best-effort.
    Auto,
    /// Ignore snapshots entirely: always parse the log. The default,
    /// what a command does when `--index` is not given.
    #[default]
    Off,
    /// Insist on a warm (exact or prefix) snapshot; error otherwise.
    Require,
}

impl fmt::Display for IndexMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IndexMode::Auto => "auto",
            IndexMode::Off => "off",
            IndexMode::Require => "require",
        })
    }
}

impl FromStr for IndexMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(IndexMode::Auto),
            "off" => Ok(IndexMode::Off),
            "require" => Ok(IndexMode::Require),
            other => Err(format!(
                "unknown index mode `{other}` (expected auto, off, or require)"
            )),
        }
    }
}

/// How a snapshot relates to the current bytes of its source log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Freshness {
    /// The log's bytes are exactly what the snapshot fingerprinted.
    Exact,
    /// The log grew by `tail_bytes` but the fingerprinted prefix is
    /// unchanged: the snapshot can be extended incrementally.
    Prefix {
        /// Appended bytes not covered by the snapshot.
        tail_bytes: u64,
    },
    /// The snapshot no longer describes the log (or is unreadable).
    Stale {
        /// Human-readable explanation.
        reason: String,
    },
    /// No snapshot file exists next to the log.
    Missing,
}

/// The canonical snapshot path for a log: `<log>.fsidx` appended to the
/// full file name (so `a.fslog` and `a.fslog.gz` get distinct
/// snapshots).
pub fn snapshot_path(log_path: impl AsRef<Path>) -> PathBuf {
    let mut os = log_path.as_ref().as_os_str().to_os_string();
    os.push(".fsidx");
    PathBuf::from(os)
}

fn path_err(path: &Path, e: impl fmt::Display) -> Error {
    Error::run(format!("{}: {e}", path.display()))
}

/// Serializes `index` to `path` atomically (temp file + rename).
///
/// `source` must fingerprint the raw on-disk bytes of the log the index
/// was built from — it is what future loads validate against. The
/// snapshot records no file identity, so a query always checks it
/// against the log's bytes ([`save_traced`] records one). Returns the
/// total bytes written.
///
/// # Errors
///
/// I/O failures only; encoding is infallible.
pub fn save(path: impl AsRef<Path>, index: &StreamView, source: SourceInfo) -> Result<u64, Error> {
    save_traced(path, index, source, None, None)
}

/// Distinguishes the temp files of concurrent saves within a process;
/// the process id distinguishes processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// [`save`], also recording `read` — the [`LogFile::stat`] of the read
/// that produced `source` — so a later query can vouch for the log by
/// its identity instead of its bytes, and the bytes written on the
/// `index.save_bytes` trace counter.
///
/// Each call writes its own temp file (`<snapshot>.<pid>.<seq>.tmp`)
/// and renames it over `path`, so concurrent saves to one snapshot
/// never truncate each other's file; the last rename wins. The temp
/// file is removed on every failure.
pub fn save_traced(
    path: impl AsRef<Path>,
    index: &StreamView,
    source: SourceInfo,
    read: Option<ReadStat>,
    trace: Option<&Collector>,
) -> Result<u64, Error> {
    let path = path.as_ref();
    let body = index.encode_body();
    let header = Header {
        version: FORMAT_VERSION,
        source,
        read,
        body_len: body.len() as u64,
        body_crc32: crc32(&body),
    };
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(&body);

    let file_name = path
        .file_name()
        .ok_or_else(|| path_err(path, "not a file path"))?;
    let mut tmp_name = file_name.to_os_string();
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = fs::write(&tmp, &out)
        .map_err(|e| path_err(&tmp, e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| path_err(path, e)));
    if let Err(e) = written {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(t) = trace {
        t.incr("index.save_bytes", out.len() as u64);
    }
    Ok(out.len() as u64)
}

/// Opens the snapshot at `path` and reads its header, leaving the handle
/// at the start of the body. The outer error is the open's or the
/// read's; the inner one says why the header is not a valid one.
fn read_header(path: &Path) -> std::io::Result<(fs::File, Result<Header, String>)> {
    let mut file = fs::File::open(path)?;
    let mut head = Vec::with_capacity(HEADER_LEN);
    (&mut file).take(HEADER_LEN as u64).read_to_end(&mut head)?;
    let header = Header::decode(&head);
    Ok((file, header))
}

/// Streams the body of the snapshot `file` (positioned after `header`)
/// through the view's decoder and its checksum. Only one read chunk is
/// resident beside the decoded columns.
fn decode_snapshot(file: fs::File, header: &Header) -> Result<Snapshot, String> {
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    let body_len = len.saturating_sub(HEADER_LEN as u64);
    if body_len != header.body_len {
        return Err(format!(
            "body is {body_len} bytes but header says {}",
            header.body_len
        ));
    }
    let mut body = ByteReader::new(file, body_len);
    let view = StreamView::decode_body(&mut body);
    // A corrupt body is named as such even when it also fails to decode.
    match body.finish() {
        Ok(crc) if crc == header.body_crc32 => {}
        Ok(_) => return Err("body checksum mismatch".to_string()),
        Err(_) => return Err("truncated body".to_string()),
    }
    Ok(Snapshot {
        view: view?,
        source: header.source,
        read: header.read,
    })
}

/// Strictly loads a snapshot file, validating the magic, version, both
/// CRCs, and the structural consistency of the payload.
///
/// # Errors
///
/// Any validation failure — strict loading is for tooling
/// (`failctl index stat`/`verify`); the report path uses
/// [`open_indexed`], which falls back to a cold parse instead.
pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, Error> {
    let path = path.as_ref();
    let invalid = |reason| path_err(path, format!("invalid .fsidx snapshot: {reason}"));
    let (file, header) = read_header(path).map_err(|e| path_err(path, e))?;
    decode_snapshot(file, &header.map_err(invalid)?).map_err(invalid)
}

/// Classifies `header` against the bytes of `file`.
///
/// An exact match compares against the fingerprint `file` already
/// carries, so it costs no checksum pass; only a prefix match runs a
/// CRC, over the covered prefix. Prefix matches demand three things
/// beyond the prefix CRC: the snapshot must cover a non-empty prefix,
/// the log must be *plain* text (appending to a gzip file creates a new
/// member — old decoded bytes unchanged, raw prefix untouched, but the
/// tail is not line-oriented text), and the covered prefix must end at
/// a line boundary.
fn classify(header: &Header, file: &LogFile) -> Freshness {
    let raw = file.raw();
    let src_len = header.source.bytes as usize;
    if src_len > raw.len() {
        return Freshness::Stale {
            reason: format!(
                "log shrank to {} bytes below the {} the snapshot covers",
                raw.len(),
                src_len
            ),
        };
    }
    let covered_crc = if src_len == raw.len() {
        file.source().crc32
    } else {
        crc32(&raw[..src_len])
    };
    if covered_crc != header.source.crc32 {
        return Freshness::Stale {
            reason: "log bytes changed under the snapshot".to_string(),
        };
    }
    if src_len == raw.len() {
        return Freshness::Exact;
    }
    if Compression::sniff(raw) != Compression::Plain {
        return Freshness::Stale {
            reason: "compressed logs support exact-match snapshots only".to_string(),
        };
    }
    if src_len == 0 || raw[src_len - 1] != b'\n' {
        return Freshness::Stale {
            reason: "snapshot coverage does not end at a line boundary".to_string(),
        };
    }
    Freshness::Prefix {
        tail_bytes: (raw.len() - src_len) as u64,
    }
}

/// The snapshot next to `file`, opened at its body, and its header; or
/// why it cannot serve.
fn snapshot_header(file: &LogFile) -> Result<(fs::File, Header), Freshness> {
    match read_header(&snapshot_path(file.path())) {
        Ok((snapshot, Ok(header))) => Ok((snapshot, header)),
        Ok((_, Err(reason))) => Err(Freshness::Stale { reason }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(Freshness::Missing),
        Err(e) => Err(Freshness::Stale {
            reason: format!("snapshot unreadable: {e}"),
        }),
    }
}

/// How the snapshot next to `file` relates to the bytes `file` holds.
/// Reads only the snapshot's 96-byte header and never writes anything.
pub fn freshness(file: &LogFile) -> Freshness {
    match snapshot_header(file) {
        Ok((_, header)) => classify(&header, file),
        Err(freshness) => freshness,
    }
}

/// Reads the log at `log_path`, then [`freshness`].
///
/// # Errors
///
/// Only when the *log* itself is unreadable; snapshot problems are
/// reported as [`Freshness::Missing`] / [`Freshness::Stale`].
pub fn probe(log_path: impl AsRef<Path>) -> Result<Freshness, Error> {
    Ok(freshness(&read_log(log_path.as_ref())?))
}

fn read_log(log_path: &Path) -> Result<LogFile, Error> {
    LogFile::read(log_path).map_err(|e| path_err(log_path, e))
}

/// The outcome of [`open`].
#[derive(Debug)]
pub enum IndexedLoad {
    /// The snapshot matched the log exactly: served with zero parsing.
    Exact(Snapshot),
    /// The snapshot covered a prefix; `added` appended records were
    /// parsed, the index extended, and the snapshot file rewritten.
    Extended {
        /// The extended snapshot, now covering the whole log.
        snapshot: Snapshot,
        /// Records parsed from the appended tail.
        added: usize,
    },
    /// No usable snapshot: the caller should parse the log cold and
    /// (in auto mode) [`save`] a fresh snapshot using `source`.
    Cold {
        /// Fingerprint of the bytes the decision judged
        /// ([`LogFile::source`]), ready for [`save`].
        source: SourceInfo,
    },
}

/// Opens the snapshot next to `file` if it is warm for the bytes `file`
/// holds, extending it over an appended tail when possible.
///
/// Exact hits increment the `index.snapshot_hit` trace counter and
/// parse nothing. Prefix hits parse only the appended tail with
/// [`faillog::parse_body_rows`] — the batch parser's own chunk function,
/// so a tail extends the snapshot exactly when a cold parse would
/// accept it — rewrite the snapshot (best-effort — a failed rewrite
/// does not fail the load), and increment `index.snapshot_extend`.
/// Every other outcome — missing, corrupt, or stale snapshot,
/// unparseable tail — degrades silently to [`IndexedLoad::Cold`].
pub fn open(file: &LogFile, trace: Option<&Collector>) -> IndexedLoad {
    let cold = IndexedLoad::Cold {
        source: file.source(),
    };
    let Ok((snapshot, header)) = snapshot_header(file) else {
        return cold;
    };
    let fresh = classify(&header, file);
    if !matches!(fresh, Freshness::Exact | Freshness::Prefix { .. }) {
        return cold;
    }
    let Ok(snapshot) = decode_snapshot(snapshot, &header) else {
        return cold;
    };
    if fresh == Freshness::Exact {
        if let Some(t) = trace {
            t.incr("index.snapshot_hit", 1);
        }
        return IndexedLoad::Exact(snapshot);
    }
    let Some((view, added)) = extend(snapshot, file, &header) else {
        return cold;
    };
    let (source, read) = (file.source(), file.stat());
    save_traced(snapshot_path(file.path()), &view, source, read, trace).ok();
    if let Some(t) = trace {
        t.incr("index.snapshot_extend", 1);
    }
    IndexedLoad::Extended {
        snapshot: Snapshot { view, source, read },
        added,
    }
}

/// Extends a prefix-matched snapshot over the rest of `file`; `None`
/// when the tail is not valid log text.
fn extend(snapshot: Snapshot, file: &LogFile, header: &Header) -> Option<(StreamView, usize)> {
    let tail = std::str::from_utf8(&file.raw()[header.source.bytes as usize..]).ok()?;
    let mut view = snapshot.into_view();
    let rows = faillog::parse_body_rows(
        tail,
        header.source.lines as usize,
        view.generation(),
        view.spec(),
        view.window(),
        None,
    )
    .ok()?;
    let added = view.extend(rows.records).ok()?;
    Some((view, added))
}

/// Reads the log at `log_path`, then [`open`].
///
/// # Errors
///
/// Only when the log itself cannot be read.
pub fn open_indexed(
    log_path: impl AsRef<Path>,
    trace: Option<&Collector>,
) -> Result<IndexedLoad, Error> {
    Ok(open(&read_log(log_path.as_ref())?, trace))
}

/// `G`, the timestamp granularity the racy-clean rule allows for on a
/// filesystem with nanosecond timestamps: far above the kernel's coarse
/// clock tick (at most 10 ms), which is how far a file timestamp can
/// lag the wall clock.
const RACY_NS: i64 = 100_000_000;

/// `G` on a filesystem whose timestamps carry no nanoseconds: whole
/// seconds, or two on FAT.
const RACY_WHOLE_SECOND_NS: i64 = 2_000_000_000;

/// Whether a snapshot's recorded read vouches for its log as it is now,
/// so a query may serve the snapshot without reading the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vouch {
    /// The log has the identity the build read, and the build read more
    /// than `G` after the log's last change: any later write would have
    /// changed the identity.
    Yes,
    /// The log has the identity the build read, but its last change was
    /// within `G` of that read: a write in the same timestamp tick could
    /// have left the identity unchanged (git's racy-clean case).
    Racy,
    /// The log's identity differs from the one the build read, or the
    /// log cannot be stat-ed.
    Changed,
    /// The snapshot records no identity.
    NoIdentity,
}

impl Vouch {
    /// How `failctl index stat` names the verdict.
    pub fn label(self) -> &'static str {
        match self {
            Vouch::Yes => "yes",
            Vouch::Racy => "racy",
            Vouch::Changed => "no (log changed since the build read it)",
            Vouch::NoIdentity => "no identity",
        }
    }
}

/// Judges a snapshot's recorded `read` against the log's identity `now`.
///
/// The rule is git's racy-clean rule (`Documentation/technical/
/// racy-git.txt`), judged against the time of the build's read rather
/// than the snapshot's own mtime: a write after that read stamps an
/// mtime no earlier than the read time less one coarse tick, so when
/// `max(mtime, ctime) + G` is still before the read time, no write after
/// the read can have kept the identity equal. Comparing against the
/// snapshot's mtime instead would pass a rewrite made between the
/// build's read and its save, inside the tick of the log's mtime.
pub fn vouch(read: Option<ReadStat>, now: Option<FileId>) -> Vouch {
    let Some(read) = read else {
        return Vouch::NoIdentity;
    };
    if now != Some(read.id) {
        return Vouch::Changed;
    }
    let id = read.id;
    let whole_seconds = id.mtime_ns % 1_000_000_000 == 0 && id.ctime_ns % 1_000_000_000 == 0;
    let granularity = if whole_seconds {
        RACY_WHOLE_SECOND_NS
    } else {
        RACY_NS
    };
    let changed = id.mtime_ns.max(id.ctime_ns);
    if changed.saturating_add(granularity) < read.read_at_ns {
        Vouch::Yes
    } else {
        Vouch::Racy
    }
}

/// A log opened for a warm query: read whole, or vouched for by the
/// identity its snapshot recorded. See [`open_log`].
#[derive(Debug)]
pub enum LogSource {
    /// The log's bytes, read whole.
    Read(LogFile),
    /// The snapshot's recorded read vouches for the log, which was not
    /// read.
    Vouched(VouchedSnapshot),
}

impl LogSource {
    /// The read that vouches for the log's bytes: the read's own stat,
    /// or the one the vouching snapshot recorded. `None` for a read torn
    /// by a concurrent write.
    pub fn stat(&self) -> Option<ReadStat> {
        match self {
            LogSource::Read(file) => file.stat(),
            LogSource::Vouched(vouched) => vouched.header.read,
        }
    }
}

/// A snapshot that vouches for its open log: its header is read and
/// judged, its body not yet. Produced by [`open_log`].
#[derive(Debug)]
pub struct VouchedSnapshot {
    path: PathBuf,
    log: fs::File,
    snapshot: fs::File,
    header: Header,
}

impl VouchedSnapshot {
    /// The log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fingerprint the snapshot recorded: that of the log's bytes,
    /// since the log still has the identity of the read that took it.
    pub fn source(&self) -> SourceInfo {
        self.header.source
    }

    /// Reads the rest of the snapshot and decodes it, counting
    /// `index.snapshot_hit` as an exact [`open`] does. When the body
    /// fails its checksum or its decode, returns the log handle
    /// [`open_log`] opened, for the caller to read the log from
    /// ([`LogFile::read_from`]).
    pub fn open(self, trace: Option<&Collector>) -> Result<Snapshot, fs::File> {
        match decode_snapshot(self.snapshot, &self.header) {
            Ok(snapshot) => {
                if let Some(t) = trace {
                    t.incr("index.snapshot_hit", 1);
                }
                Ok(snapshot)
            }
            Err(_) => Err(self.log),
        }
    }
}

/// Opens the log at `path` for a warm query.
///
/// The log is opened first, so an unreadable log fails exactly as
/// [`LogFile::read`] does. Then its identity (`fstat` on the open
/// handle) is judged against the snapshot header's recorded read with
/// [`vouch`]: on [`Vouch::Yes`] the log is not read and the snapshot,
/// whose header has been read, is returned to be opened
/// ([`LogSource::Vouched`]). Otherwise the log is read whole from the
/// same handle ([`LogSource::Read`]).
///
/// # Errors
///
/// Only when the log itself cannot be opened or read.
pub fn open_log(path: impl AsRef<Path>) -> Result<LogSource, Error> {
    let path = path.as_ref();
    let log = fs::File::open(path)?;
    match vouched_header(path, &log) {
        Some((snapshot, header)) => Ok(LogSource::Vouched(VouchedSnapshot {
            path: path.to_path_buf(),
            log,
            snapshot,
            header,
        })),
        None => LogFile::read_from(path, log).map(LogSource::Read),
    }
}

/// The snapshot beside `path`, opened at its body, and its header, when
/// that header vouches for the open `log`.
fn vouched_header(path: &Path, log: &fs::File) -> Option<(fs::File, Header)> {
    let now = FileId::of(&log.metadata().ok()?)?;
    let (snapshot, header) = read_header(&snapshot_path(path)).ok()?;
    let header = header.ok()?;
    let vouched = vouch(header.read, Some(now)) == Vouch::Yes && header.source.bytes == now.len;
    vouched.then_some((snapshot, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::FailureLog;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("failindex-test-{name}"));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn view_of(log: &FailureLog) -> StreamView {
        StreamView::new(log)
    }

    #[test]
    fn snapshot_path_appends_to_the_full_file_name() {
        assert_eq!(
            snapshot_path(Path::new("/x/a.fslog")),
            PathBuf::from("/x/a.fslog.fsidx")
        );
        assert_eq!(
            snapshot_path(Path::new("a.fslog.gz")),
            PathBuf::from("a.fslog.gz.fsidx")
        );
    }

    #[test]
    fn source_info_counts_lines_like_a_text_editor() {
        assert_eq!(SourceInfo::of_bytes(b"").lines, 0);
        assert_eq!(SourceInfo::of_bytes(b"a\nb\n").lines, 2);
        assert_eq!(SourceInfo::of_bytes(b"a\nb").lines, 2);
        assert_eq!(SourceInfo::of_bytes(b"\n").lines, 1);
        assert_eq!(SourceInfo::of_bytes(&[b'\n'; 1000]).lines, 1000);
        assert_eq!(SourceInfo::of_bytes(&[b'x'; 600]).lines, 1);
        assert_eq!(
            SourceInfo::of_bytes(b"abc").crc32,
            faillog::crc32(b"abc")
        );
    }

    #[test]
    fn save_then_load_round_trips_both_generations() {
        let dir = tmp_dir("roundtrip");
        for (model, seed) in [(SystemModel::tsubame2(), 42), (SystemModel::tsubame3(), 43)] {
            let log = Simulator::new(model, seed).generate().unwrap();
            let view = view_of(&log);
            let path = dir.join(format!("{seed}.fsidx"));
            let source = SourceInfo {
                bytes: 10,
                crc32: 0x1234,
                lines: 2,
            };
            let written = save(&path, &view, source).unwrap();
            assert_eq!(written, fs::metadata(&path).unwrap().len());
            let snap = load(&path).unwrap();
            assert_eq!(snap.source(), source);
            assert_eq!(snap.view(), &view);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_indexed_serves_exact_hits_without_parsing() {
        let dir = tmp_dir("exact");
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();
        let log_path = dir.join("log.fslog");
        fs::write(&log_path, &text).unwrap();

        // No snapshot yet: cold, with a ready-to-save fingerprint.
        let trace = Collector::new();
        let file = LogFile::read(&log_path).unwrap();
        assert_eq!(freshness(&file), Freshness::Missing);
        match open(&file, Some(&trace)) {
            IndexedLoad::Cold { source } => {
                assert_eq!(source, SourceInfo::of_bytes(text.as_bytes()));
                assert_eq!(source, file.source());
                save(snapshot_path(&log_path), &view_of(&log), source).unwrap();
            }
            other => panic!("expected cold, got {other:?}"),
        }
        assert_eq!(trace.counter("index.snapshot_hit"), 0);
        assert_eq!(freshness(&file), Freshness::Exact);

        // Snapshot in place: exact hit, counter bumped.
        assert_eq!(probe(&log_path).unwrap(), Freshness::Exact);
        match open_indexed(&log_path, Some(&trace)).unwrap() {
            IndexedLoad::Exact(snap) => assert_eq!(snap.view(), &view_of(&log)),
            other => panic!("expected exact, got {other:?}"),
        }
        assert_eq!(trace.counter("index.snapshot_hit"), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_indexed_extends_over_an_appended_tail() {
        let dir = tmp_dir("extend");
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();

        // Split the serialized log at a line boundary ~halfway through.
        let cut = text[..text.len() / 2].rfind('\n').unwrap() + 1;
        let (prefix, tail) = text.split_at(cut);

        let log_path = dir.join("grow.fslog");
        fs::write(&log_path, prefix).unwrap();
        let prefix_log = faillog::from_str(prefix).unwrap();
        save(
            snapshot_path(&log_path),
            &view_of(&prefix_log),
            SourceInfo::of_bytes(prefix.as_bytes()),
        )
        .unwrap();

        // Grow the log; the snapshot should extend, not rebuild.
        fs::write(&log_path, &text).unwrap();
        match probe(&log_path).unwrap() {
            Freshness::Prefix { tail_bytes } => assert_eq!(tail_bytes as usize, tail.len()),
            other => panic!("expected prefix, got {other:?}"),
        }
        let trace = Collector::new();
        let extended = match open_indexed(&log_path, Some(&trace)).unwrap() {
            IndexedLoad::Extended { snapshot, added } => {
                assert_eq!(added, log.len() - prefix_log.len());
                snapshot
            }
            other => panic!("expected extended, got {other:?}"),
        };
        assert_eq!(extended.view(), &view_of(&log));
        assert_eq!(trace.counter("index.snapshot_extend"), 1);
        assert!(trace.counter("index.save_bytes") > 0);

        // The rewrite covers the grown log: next open is an exact hit.
        match open_indexed(&log_path, None).unwrap() {
            IndexedLoad::Exact(snap) => assert_eq!(snap.view(), &view_of(&log)),
            other => panic!("expected exact after extend, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edited_logs_and_corrupt_snapshots_degrade_to_cold() {
        let dir = tmp_dir("stale");
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();
        let log_path = dir.join("log.fslog");
        let spath = snapshot_path(&log_path);
        fs::write(&log_path, &text).unwrap();
        save(&spath, &view_of(&log), SourceInfo::of_bytes(text.as_bytes())).unwrap();

        // Edit a byte inside the covered range: stale, cold fallback.
        let mut edited = text.clone().into_bytes();
        let mid = edited.len() / 2;
        edited[mid] = if edited[mid] == b'0' { b'1' } else { b'0' };
        fs::write(&log_path, &edited).unwrap();
        assert!(matches!(probe(&log_path).unwrap(), Freshness::Stale { .. }));
        assert!(matches!(
            open_indexed(&log_path, None).unwrap(),
            IndexedLoad::Cold { .. }
        ));

        // Restore the log but flip a snapshot body byte: cold fallback,
        // while the strict loader reports the corruption loudly.
        fs::write(&log_path, &text).unwrap();
        let mut snap_bytes = fs::read(&spath).unwrap();
        let last = snap_bytes.len() - 1;
        snap_bytes[last] ^= 0xFF;
        fs::write(&spath, &snap_bytes).unwrap();
        assert!(matches!(
            open_indexed(&log_path, None).unwrap(),
            IndexedLoad::Cold { .. }
        ));
        let err = load(&spath).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");

        // Truncate the log below snapshot coverage: stale.
        fs::write(&log_path, &text.as_bytes()[..text.len() / 2]).unwrap();
        save(&spath, &view_of(&log), SourceInfo::of_bytes(text.as_bytes())).unwrap();
        match probe(&log_path).unwrap() {
            Freshness::Stale { reason } => assert!(reason.contains("shrank"), "{reason}"),
            other => panic!("expected stale, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decisions_follow_the_bytes_read_not_the_file_now() {
        // A file read before an append still classifies and opens as an
        // exact hit: freshness and open judge the buffer they are given
        // (the NDJSON extension itself is covered in snapshot_index.rs).
        let dir = tmp_dir("read-once");
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();
        let log_path = dir.join("log.fslog");
        fs::write(&log_path, &text).unwrap();
        save(
            snapshot_path(&log_path),
            &view_of(&log),
            SourceInfo::of_bytes(text.as_bytes()),
        )
        .unwrap();
        let file = LogFile::read(&log_path).unwrap();
        let row = faillog::record_to_ndjson(log.records().last().unwrap());
        fs::write(&log_path, format!("{text}{row}\n")).unwrap();
        assert_eq!(freshness(&file), Freshness::Exact);
        assert!(matches!(open(&file, None), IndexedLoad::Exact(_)));
        // A tail a cold parse rejects (node out of range) never extends.
        fs::write(&log_path, format!("{text}{row}\n0,1.0,1.0,GPU,99999,,\n")).unwrap();
        assert!(faillog::load(&log_path).is_err());
        let file = LogFile::read(&log_path).unwrap();
        assert!(matches!(freshness(&file), Freshness::Prefix { .. }));
        assert!(matches!(open(&file, None), IndexedLoad::Cold { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gzip_logs_hit_exactly_but_never_extend() {
        let dir = tmp_dir("gzip");
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();
        let gz = faillog::gzip_compress(text.as_bytes());
        let log_path = dir.join("log.fslog.gz");
        fs::write(&log_path, &gz).unwrap();
        save(
            snapshot_path(&log_path),
            &view_of(&log),
            SourceInfo::of_bytes(&gz),
        )
        .unwrap();

        assert_eq!(probe(&log_path).unwrap(), Freshness::Exact);

        // Appending a second gzip member keeps the raw prefix intact,
        // but compressed tails must classify stale, not prefix.
        let mut grown = gz.clone();
        grown.extend_from_slice(&faillog::gzip_compress(b"junk\n"));
        fs::write(&log_path, &grown).unwrap();
        match probe(&log_path).unwrap() {
            Freshness::Stale { reason } => assert!(reason.contains("compressed"), "{reason}"),
            other => panic!("expected stale, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_one_snapshot_all_succeed() {
        // Each save writes its own temp file, so no rename finds its
        // file truncated or gone under it, and none is left behind.
        let dir = tmp_dir("concurrent");
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let view = view_of(&log);
        let path = dir.join("shared.fsidx");
        let source = SourceInfo {
            bytes: 1,
            crc32: 2,
            lines: 3,
        };
        let results: Vec<Result<u64, Error>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..20).map(|_| save(&path, &view, source)).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("saver thread"))
                .collect()
        });
        assert_eq!(results.len(), 160);
        for result in &results {
            assert!(result.is_ok(), "{result:?}");
        }
        assert_eq!(load(&path).unwrap().view(), &view);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp file is left");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_removes_its_temp_file() {
        // The rename fails: a directory holds the snapshot path.
        let dir = tmp_dir("failed-save");
        let path = dir.join("blocked.fsidx");
        fs::create_dir(&path).unwrap();
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        assert!(save(&path, &view_of(&log), SourceInfo::of_bytes(b"x")).is_err());
        let left: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, vec![std::ffi::OsString::from("blocked.fsidx")]);
        fs::remove_dir_all(&dir).ok();
    }

    fn id(mtime_ns: i64, ctime_ns: i64) -> FileId {
        FileId {
            dev: 1,
            ino: 2,
            len: 3,
            mtime_ns,
            ctime_ns,
        }
    }

    #[test]
    fn vouching_follows_the_racy_clean_rule() {
        let changed = 1_700_000_000_123_456_789;
        let read = |read_at_ns| ReadStat {
            id: id(changed, changed),
            read_at_ns,
        };
        let now = Some(id(changed, changed));
        assert_eq!(vouch(None, now), Vouch::NoIdentity);
        assert_eq!(vouch(Some(read(changed + 1_000_000_000)), None), Vouch::Changed);
        let later = Some(id(changed, changed + 1));
        assert_eq!(vouch(Some(read(changed + 1_000_000_000)), later), Vouch::Changed);
        assert_eq!(vouch(Some(read(changed + RACY_NS + 1)), now), Vouch::Yes);
        assert_eq!(vouch(Some(read(changed + RACY_NS)), now), Vouch::Racy);
        assert_eq!(vouch(Some(read(changed)), now), Vouch::Racy);
        // The later of mtime and ctime counts: a `touch -r` that set the
        // mtime back leaves the ctime at the change.
        let touched = ReadStat {
            id: id(changed - 10_000_000_000, changed),
            read_at_ns: changed + RACY_NS / 2,
        };
        assert_eq!(vouch(Some(touched), Some(touched.id)), Vouch::Racy);
        // Whole-second timestamps get the wider bound.
        let coarse = ReadStat {
            id: id(1_700_000_000_000_000_000, 1_700_000_000_000_000_000),
            read_at_ns: 1_700_000_001_000_000_000,
        };
        assert_eq!(vouch(Some(coarse), Some(coarse.id)), Vouch::Racy);
        let settled = ReadStat {
            read_at_ns: coarse.id.mtime_ns + RACY_WHOLE_SECOND_NS + 1,
            ..coarse
        };
        assert_eq!(vouch(Some(settled), Some(settled.id)), Vouch::Yes);
    }

    /// Sleeps until a file written now is older than the racy bound.
    fn age_past_the_racy_bound() {
        std::thread::sleep(std::time::Duration::from_nanos(2 * RACY_NS as u64));
    }

    #[test]
    fn open_log_vouches_for_an_unchanged_log_and_reads_otherwise() {
        let dir = tmp_dir("vouch");
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let text = faillog::to_string(&log).unwrap();
        let log_path = dir.join("log.fslog");
        let spath = snapshot_path(&log_path);
        fs::write(&log_path, &text).unwrap();
        age_past_the_racy_bound();
        let file = LogFile::read(&log_path).unwrap();
        let read = file.stat().expect("an undisturbed read has an identity");
        assert_eq!(faillog::file_id(&log_path), Some(Some(read.id)));
        save_traced(&spath, &view_of(&log), file.source(), Some(read), None).unwrap();
        assert_eq!(load(&spath).unwrap().read(), Some(read));

        let trace = Collector::new();
        let vouched = match open_log(&log_path).unwrap() {
            LogSource::Vouched(v) => v,
            other => panic!("expected a vouched source, got {other:?}"),
        };
        assert_eq!(vouched.source(), SourceInfo::of_bytes(text.as_bytes()));
        let snap = vouched.open(Some(&trace)).expect("the body decodes");
        assert_eq!(snap.view(), &view_of(&log));
        assert_eq!(trace.counter("index.snapshot_hit"), 1);

        // A corrupt body falls back to reading the log.
        let mut bytes = fs::read(&spath).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&spath, &bytes).unwrap();
        let LogSource::Vouched(vouched) = open_log(&log_path).unwrap() else {
            panic!("the header still vouches");
        };
        let path = vouched.path().to_path_buf();
        let log_handle = vouched.open(None).expect_err("the body is corrupt");
        let read = LogFile::read_from(&path, log_handle).unwrap();
        assert_eq!(read.raw(), text.as_bytes());

        // No identity, a racy build, or a changed log: the log is read.
        save(&spath, &view_of(&log), file.source()).unwrap();
        assert!(matches!(open_log(&log_path).unwrap(), LogSource::Read(_)));
        fs::write(&log_path, &text).unwrap();
        let racy = LogFile::read(&log_path).unwrap();
        // Pinned inside the bound, however slowly this host got here.
        let mut racy_read = racy.stat().unwrap();
        racy_read.read_at_ns = racy_read.id.mtime_ns.max(racy_read.id.ctime_ns) + RACY_NS / 2;
        save_traced(&spath, &view_of(&log), racy.source(), Some(racy_read), None).unwrap();
        assert!(matches!(open_log(&log_path).unwrap(), LogSource::Read(_)));
        age_past_the_racy_bound();
        let settled = LogFile::read(&log_path).unwrap();
        save_traced(&spath, &view_of(&log), settled.source(), settled.stat(), None).unwrap();
        assert!(matches!(open_log(&log_path).unwrap(), LogSource::Vouched(_)));
        let mut edited = text.clone().into_bytes();
        edited[text.len() / 2] ^= 0x01;
        fs::write(&log_path, &edited).unwrap();
        match open_log(&log_path).unwrap() {
            LogSource::Read(file) => assert_eq!(file.raw(), &edited[..]),
            other => panic!("expected a read, got {other:?}"),
        }
        // An unopenable log fails as a plain read does.
        let missing = dir.join("missing.fslog");
        assert_eq!(
            open_log(&missing).unwrap_err().to_string(),
            LogFile::read(&missing).unwrap_err().to_string()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_mode_parses_and_displays() {
        assert_eq!("auto".parse::<IndexMode>(), Ok(IndexMode::Auto));
        assert_eq!("off".parse::<IndexMode>(), Ok(IndexMode::Off));
        assert_eq!("require".parse::<IndexMode>(), Ok(IndexMode::Require));
        assert_eq!(IndexMode::default(), IndexMode::Off);
        assert_eq!(IndexMode::Require.to_string(), "require");
        let err = "yes".parse::<IndexMode>().unwrap_err();
        assert!(err.contains("auto, off, or require"), "{err}");
    }
}
