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

use faillog::{file_id, FileId};

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

/// The identities of a log and of its `.fsidx` (`None`: absent), as
/// [`faillog::file_id`] reports them: enough to notice a change that
/// raises no notification (a write through `mmap`) or a rename over the
/// path.
pub(crate) type SourceIds = (FileId, Option<FileId>);

/// Stats `path` and its snapshot path; `None` when either cannot be
/// stat-ed (an absent snapshot is a valid state, an absent log is not).
pub(crate) fn source_ids(path: &str) -> Option<SourceIds> {
    let log = file_id(Path::new(path))??;
    let snapshot = file_id(&failindex::snapshot_path(path))?;
    Some((log, snapshot))
}
