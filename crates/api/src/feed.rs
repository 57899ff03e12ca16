//! The change-notification seam between a long-lived server and the
//! [`QueryEngine`](crate::QueryEngine).
//!
//! A render-cache hit needs the fingerprint of every source file, and
//! computing one means reading and checksumming the whole file. A server
//! that is told when files change can instead *vouch* for a fingerprint
//! it computed earlier: if no change was reported since, and a fresh
//! `stat` of the log and its `.fsidx` still matches, the bytes are the
//! ones it fingerprinted. [`ChangeFeed`] is what the engine asks.
//!
//! The engine never requires a feed. Without one (the CLI, or a server
//! whose platform offers no notifications) every query reads each
//! source exactly once, as it always has.

use std::path::Path;

/// A source of file-change notifications, installed with
/// [`QueryEngine::with_feed`](crate::QueryEngine::with_feed).
///
/// Generations order notifications: a notification drained after
/// [`stamp`](ChangeFeed::stamp) returned `g` carries a generation above
/// `g`. Every method drains the pending notifications first, so a change
/// whose notification was queued before the call is always seen.
pub trait ChangeFeed: Send + Sync {
    /// Drains pending notifications and returns the current generation.
    fn stamp(&self) -> u64;

    /// Watches the log at `path` and the `.fsidx` snapshot beside it,
    /// renewing the watch on whatever inode `path` names now. `false`
    /// when the path cannot be watched; such a source is never vouched
    /// for.
    fn watch(&self, path: &str) -> bool;

    /// Drains pending notifications, then answers whether `path` may
    /// have changed after generation `stamp`: a notification named it,
    /// the feed lost notifications (a queue overflow), or it is not
    /// watched.
    fn changed_since(&self, path: &str, stamp: u64) -> bool;

    /// Stops watching `path`.
    fn unwatch(&self, path: &str);
}

/// What `stat` reports about one file: enough to notice a change that
/// raises no notification (a write through `mmap`) or a rename over the
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime_ns: i128,
    ctime_ns: i128,
}

/// The identities of a log and of its `.fsidx` (`None`: absent).
pub(crate) type SourceIds = (FileId, Option<FileId>);

/// Stats `path` and its snapshot path; `None` when either cannot be
/// stat-ed (an absent snapshot is a valid state, an absent log is not).
pub(crate) fn source_ids(path: &str) -> Option<SourceIds> {
    let log = file_id(Path::new(path))??;
    let snapshot = file_id(&failindex::snapshot_path(path))?;
    Some((log, snapshot))
}

/// `Some(None)` when the file is absent, `None` when `stat` fails
/// otherwise or the platform has no inode identities.
#[cfg(unix)]
fn file_id(path: &Path) -> Option<Option<FileId>> {
    use std::os::unix::fs::MetadataExt;
    match std::fs::metadata(path) {
        Ok(m) => Some(Some(FileId {
            dev: m.dev(),
            ino: m.ino(),
            len: m.size(),
            mtime_ns: i128::from(m.mtime()) * 1_000_000_000 + i128::from(m.mtime_nsec()),
            ctime_ns: i128::from(m.ctime()) * 1_000_000_000 + i128::from(m.ctime_nsec()),
        })),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Some(None),
        Err(_) => None,
    }
}

#[cfg(not(unix))]
fn file_id(_path: &Path) -> Option<Option<FileId>> {
    None
}
