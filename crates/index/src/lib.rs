//! Persistent, checksummed on-disk [`FleetIndex`] snapshots for the
//! `failscope` workspace.
//!
//! Parsing and indexing a failure log is the dominant cost of every
//! `failctl report` invocation, yet the log rarely changes between
//! runs. This crate persists a fully-built index next to the log as
//! `<log>.fsidx` — a versioned binary snapshot of everything a
//! [`FleetIndex`] exposes — so subsequent runs skip parsing entirely:
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
//! Integrity is belt-and-braces: the 44-byte header carries its own
//! CRC-32, the body carries another, and the source fingerprint binds
//! the snapshot to the log's raw on-disk bytes (so a gzip log re-
//! compressed at a different level is correctly treated as stale).
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

mod bytes;
mod format;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use faillog::{crc32, Compression, Crc32};
use failscope::{FleetIndex, StreamView};
use failtrace::Collector;
use failtypes::Error;

pub use format::{Header, FORMAT_VERSION, HEADER_LEN};

/// Fingerprint of a log's raw on-disk bytes at snapshot time.
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
        let newlines = data.iter().filter(|&&b| b == b'\n').count() as u64;
        let lines = match data.last() {
            None => 0,
            Some(b'\n') => newlines,
            Some(_) => newlines + 1,
        };
        SourceInfo {
            bytes: data.len() as u64,
            crc32: crc32(data),
            lines,
        }
    }
}

/// A loaded `.fsidx` snapshot: a fully-reconstructed [`StreamView`]
/// plus the source fingerprint it was built against. Reports render from
/// [`Snapshot::view`] exactly as they would from a freshly-parsed log.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    view: StreamView,
    source: SourceInfo,
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
}

/// How commands should use `.fsidx` snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Use a warm snapshot when one validates; otherwise parse cold and
    /// refresh the snapshot best-effort. The default.
    #[default]
    Auto,
    /// Ignore snapshots entirely: always parse the log.
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
/// was built from — it is what future loads validate against. Returns
/// the total bytes written.
///
/// # Errors
///
/// I/O failures only; encoding is infallible.
pub fn save(
    path: impl AsRef<Path>,
    index: &dyn FleetIndex,
    source: SourceInfo,
) -> Result<u64, Error> {
    save_traced(path, index, source, None)
}

/// [`save`], recording the bytes written on the `index.save_bytes`
/// trace counter.
pub fn save_traced(
    path: impl AsRef<Path>,
    index: &dyn FleetIndex,
    source: SourceInfo,
    trace: Option<&Collector>,
) -> Result<u64, Error> {
    let path = path.as_ref();
    let body = format::encode_body(index);
    let header = Header {
        version: FORMAT_VERSION,
        source,
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
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, &out).map_err(|e| path_err(&tmp, e))?;
    if let Err(e) = fs::rename(&tmp, path) {
        fs::remove_file(&tmp).ok();
        return Err(path_err(path, e));
    }
    if let Some(t) = trace {
        t.incr("index.save_bytes", out.len() as u64);
    }
    Ok(out.len() as u64)
}

fn decode_snapshot(data: &[u8], header: &Header) -> Result<Snapshot, String> {
    let body = &data[HEADER_LEN..];
    if body.len() as u64 != header.body_len {
        return Err(format!(
            "body is {} bytes but header says {}",
            body.len(),
            header.body_len
        ));
    }
    if crc32(body) != header.body_crc32 {
        return Err("body checksum mismatch".to_string());
    }
    let parts = format::decode_body(body)?;
    let view = StreamView::from_parts(parts).map_err(|e| e.to_string())?;
    Ok(Snapshot {
        view,
        source: header.source,
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
    let data = fs::read(path).map_err(|e| path_err(path, e))?;
    let header = Header::decode(&data)
        .map_err(|reason| path_err(path, format!("invalid .fsidx snapshot: {reason}")))?;
    decode_snapshot(&data, &header)
        .map_err(|reason| path_err(path, format!("invalid .fsidx snapshot: {reason}")))
}

/// Classifies `header` against the log's current raw bytes.
///
/// Prefix matches demand three things beyond the prefix CRC: the
/// snapshot must cover a non-empty prefix, the log must be *plain* text
/// (appending to a gzip file creates a new member — old decoded bytes
/// unchanged, raw prefix untouched, but the tail is not line-oriented
/// text), and the covered prefix must end at a line boundary.
fn classify(header: &Header, raw: &[u8]) -> Freshness {
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
    let mut hasher = Crc32::new();
    hasher.update(&raw[..src_len]);
    if hasher.finish() != header.source.crc32 {
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

/// Read-only freshness check: how does the snapshot next to `log_path`
/// relate to the log's current bytes? Never writes anything.
///
/// # Errors
///
/// Only when the *log* itself is unreadable; snapshot problems are
/// reported as [`Freshness::Missing`] / [`Freshness::Stale`].
pub fn probe(log_path: impl AsRef<Path>) -> Result<Freshness, Error> {
    let log_path = log_path.as_ref();
    let raw = fs::read(log_path).map_err(|e| path_err(log_path, e))?;
    let spath = snapshot_path(log_path);
    let data = match fs::read(&spath) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Freshness::Missing),
        Err(e) => {
            return Ok(Freshness::Stale {
                reason: format!("snapshot unreadable: {e}"),
            })
        }
    };
    match Header::decode(&data) {
        Ok(header) => Ok(classify(&header, &raw)),
        Err(reason) => Ok(Freshness::Stale { reason }),
    }
}

/// The outcome of [`open_indexed`].
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
        /// Fingerprint of the log bytes just read, ready for [`save`].
        source: SourceInfo,
    },
}

/// Opens the log's snapshot if it is warm, extending it over an
/// appended tail when possible.
///
/// Exact hits increment the `index.snapshot_hit` trace counter and
/// parse nothing. Prefix hits parse only the appended tail, rewrite
/// the snapshot (best-effort — a failed rewrite does not fail the
/// load), and increment `index.snapshot_extend`. Every other outcome —
/// missing, corrupt, or stale snapshot, unparseable tail — degrades
/// silently to [`IndexedLoad::Cold`].
///
/// # Errors
///
/// Only when the log itself cannot be read.
pub fn open_indexed(
    log_path: impl AsRef<Path>,
    trace: Option<&Collector>,
) -> Result<IndexedLoad, Error> {
    let log_path = log_path.as_ref();
    let raw = fs::read(log_path).map_err(|e| path_err(log_path, e))?;
    Ok(open_indexed_bytes(log_path, &raw, trace))
}

fn open_indexed_bytes(log_path: &Path, raw: &[u8], trace: Option<&Collector>) -> IndexedLoad {
    let cold = || IndexedLoad::Cold {
        source: SourceInfo::of_bytes(raw),
    };
    let spath = snapshot_path(log_path);
    let data = match fs::read(&spath) {
        Ok(d) => d,
        Err(_) => return cold(),
    };
    let header = match Header::decode(&data) {
        Ok(h) => h,
        Err(_) => return cold(),
    };
    match classify(&header, raw) {
        Freshness::Exact => match decode_snapshot(&data, &header) {
            Ok(snapshot) => {
                if let Some(t) = trace {
                    t.incr("index.snapshot_hit", 1);
                }
                IndexedLoad::Exact(snapshot)
            }
            Err(_) => cold(),
        },
        Freshness::Prefix { .. } => {
            let snapshot = match decode_snapshot(&data, &header) {
                Ok(s) => s,
                Err(_) => return cold(),
            };
            let tail = match std::str::from_utf8(&raw[header.source.bytes as usize..]) {
                Ok(t) => t,
                Err(_) => return cold(),
            };
            let generation = snapshot.view().generation();
            let rows = match faillog::parse_body_rows(tail, generation, header.source.lines as usize)
            {
                Ok(r) => r,
                Err(_) => return cold(),
            };
            let mut view = snapshot.into_view();
            let added = match view.extend(rows) {
                Ok(n) => n,
                Err(_) => return cold(),
            };
            let source = SourceInfo::of_bytes(raw);
            save_traced(&spath, &view, source, trace).ok();
            let snapshot = Snapshot { view, source };
            if let Some(t) = trace {
                t.incr("index.snapshot_extend", 1);
            }
            IndexedLoad::Extended { snapshot, added }
        }
        Freshness::Stale { .. } | Freshness::Missing => cold(),
    }
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
        match open_indexed(&log_path, Some(&trace)).unwrap() {
            IndexedLoad::Cold { source } => {
                assert_eq!(source, SourceInfo::of_bytes(text.as_bytes()));
                save(snapshot_path(&log_path), &view_of(&log), source).unwrap();
            }
            other => panic!("expected cold, got {other:?}"),
        }
        assert_eq!(trace.counter("index.snapshot_hit"), 0);

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
    fn index_mode_parses_and_displays() {
        assert_eq!("auto".parse::<IndexMode>(), Ok(IndexMode::Auto));
        assert_eq!("off".parse::<IndexMode>(), Ok(IndexMode::Off));
        assert_eq!("require".parse::<IndexMode>(), Ok(IndexMode::Require));
        assert_eq!(IndexMode::default(), IndexMode::Auto);
        assert_eq!(IndexMode::Require.to_string(), "require");
        let err = "yes".parse::<IndexMode>().unwrap_err();
        assert!(err.contains("auto, off, or require"), "{err}");
    }
}
