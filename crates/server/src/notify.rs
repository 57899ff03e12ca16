//! The inotify-backed [`ChangeFeed`] `faild` installs in its engine.
//!
//! Each watched source holds two watches:
//!
//! * its parent directory, for named events on the log and on its
//!   `.fsidx` — including creates, deletes and renames, because snapshot
//!   saves and log rotations are tmp-file-plus-rename;
//! * the log's own inode, for writes that reach it through another path
//!   (a symlink, a hard link).
//!
//! Every event naming a source bumps that source's generation; an
//! `IN_Q_OVERFLOW` (or an undecodable read) forgets everything at once.
//! The queue is drained under the feed's lock at the start of every
//! call, never by the reactor.

use std::collections::HashMap;
use std::ffi::{OsStr, OsString};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::sync::Mutex;

use failapi::ChangeFeed;

use crate::sys::Inotify;

const IN_MODIFY: u32 = 0x2;
const IN_ATTRIB: u32 = 0x4;
const IN_CLOSE_WRITE: u32 = 0x8;
const IN_MOVED_FROM: u32 = 0x40;
const IN_MOVED_TO: u32 = 0x80;
const IN_CREATE: u32 = 0x100;
const IN_DELETE: u32 = 0x200;
const IN_DELETE_SELF: u32 = 0x400;
const IN_MOVE_SELF: u32 = 0x800;
const IN_UNMOUNT: u32 = 0x2000;
const IN_Q_OVERFLOW: u32 = 0x4000;
const IN_IGNORED: u32 = 0x8000;
const IN_ONLYDIR: u32 = 0x0100_0000;
/// Widen an existing watch's mask instead of replacing it, so a
/// directory watch and an inode watch on the same inode cannot clobber
/// each other.
const IN_MASK_ADD: u32 = 0x2000_0000;

/// What a directory watch reports: changes to the entries it holds, and
/// the directory itself going away.
const DIR_MASK: u32 = IN_MODIFY
    | IN_ATTRIB
    | IN_CLOSE_WRITE
    | IN_CREATE
    | IN_DELETE
    | IN_MOVED_FROM
    | IN_MOVED_TO
    | IN_DELETE_SELF
    | IN_MOVE_SELF
    | IN_ONLYDIR
    | IN_MASK_ADD;
/// What a log's inode watch reports.
const INODE_MASK: u32 =
    IN_MODIFY | IN_ATTRIB | IN_CLOSE_WRITE | IN_MOVE_SELF | IN_DELETE_SELF | IN_MASK_ADD;
/// Unnamed events meaning a watched directory no longer stands for its
/// path.
const DIR_GONE: u32 = IN_DELETE_SELF | IN_MOVE_SELF | IN_UNMOUNT | IN_IGNORED;

/// The fixed part of a `struct inotify_event`: `wd`, `mask`, `cookie`
/// and `len`, four native-endian 32-bit fields.
const HEADER: usize = 16;
/// One read's buffer: comfortably more than one maximal record
/// (`HEADER + NAME_MAX + 1`), which is all the kernel requires.
const READ_BUF: usize = 64 * 1024;

/// One decoded inotify record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Notice<'a> {
    /// The kernel dropped events (`IN_Q_OVERFLOW`): forget everything.
    ForgetAll,
    /// An event on watch `wd`; `name` is the directory entry it concerns
    /// (NUL padding stripped), `None` for the watched inode itself.
    Event {
        wd: i32,
        mask: u32,
        name: Option<&'a [u8]>,
    },
}

/// A record whose header or name runs past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Truncated {
    /// Offset of the record that does not fit.
    pub offset: usize,
}

/// Decodes a buffer of back-to-back `struct inotify_event` records. The
/// kernel never splits a record across reads, so a record that does not
/// fit is an error, not a partial result.
pub(crate) fn parse_events(buf: &[u8]) -> Result<Vec<Notice<'_>>, Truncated> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let truncated = Truncated { offset: at };
        let header = buf.get(at..at + HEADER).ok_or(truncated)?;
        let field = |i: usize| {
            let bytes: [u8; 4] = header[i * 4..i * 4 + 4].try_into().expect("4-byte field");
            u32::from_ne_bytes(bytes)
        };
        let (wd, mask, len) = (field(0) as i32, field(1), field(3) as usize);
        let end = (at + HEADER).checked_add(len).ok_or(truncated)?;
        let name = buf.get(at + HEADER..end).ok_or(truncated)?;
        let name = &name[..name.iter().position(|&b| b == 0).unwrap_or(name.len())];
        out.push(if mask & IN_Q_OVERFLOW != 0 {
            Notice::ForgetAll
        } else {
            Notice::Event {
                wd,
                mask,
                name: (!name.is_empty()).then_some(name),
            }
        });
        at = end;
    }
    Ok(out)
}

/// Where one source's watches live.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SourceWatch {
    dir_wd: i32,
    inode_wd: i32,
    /// The log's and the snapshot's names inside the directory.
    names: [OsString; 2],
}

#[derive(Debug)]
struct State {
    inotify: Inotify,
    buf: Vec<u8>,
    /// Bumped once per drained batch of events.
    generation: u64,
    /// The generation of the last overflow.
    forgot_all: u64,
    /// The generation of the last event naming each source.
    changed: HashMap<String, u64>,
    /// Watched sources; a source missing here is never vouched for.
    sources: HashMap<String, SourceWatch>,
    /// Directory watches: entry name → sources it names.
    dirs: HashMap<i32, HashMap<OsString, Vec<String>>>,
    /// Inode watches → sources whose log is that inode.
    inodes: HashMap<i32, Vec<String>>,
}

/// The inotify [`ChangeFeed`]. See the module docs.
#[derive(Debug)]
pub(crate) struct InotifyFeed {
    state: Mutex<State>,
}

impl InotifyFeed {
    /// A feed over a fresh inotify instance; fails where inotify does
    /// not exist, in which case `faild` runs without a feed.
    pub(crate) fn new() -> std::io::Result<InotifyFeed> {
        Ok(InotifyFeed {
            state: Mutex::new(State {
                inotify: Inotify::new()?,
                buf: vec![0; READ_BUF],
                generation: 0,
                forgot_all: 0,
                changed: HashMap::new(),
                sources: HashMap::new(),
                dirs: HashMap::new(),
                inodes: HashMap::new(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.drain();
        state
    }
}

impl ChangeFeed for InotifyFeed {
    fn stamp(&self) -> u64 {
        self.lock().generation
    }

    fn watch(&self, path: &str) -> bool {
        let mut state = self.lock();
        match state.add_watches(path) {
            Some(watch) => {
                if state.sources.get(path) != Some(&watch) {
                    state.detach(path, &[watch.dir_wd, watch.inode_wd]);
                    state.attach(path, watch);
                }
                true
            }
            None => {
                state.detach(path, &[]);
                false
            }
        }
    }

    fn changed_since(&self, path: &str, stamp: u64) -> bool {
        let state = self.lock();
        state.forgot_all > stamp
            || !state.sources.contains_key(path)
            || state.changed.get(path).is_some_and(|&g| g > stamp)
    }

    fn unwatch(&self, path: &str) {
        let mut state = self.lock();
        state.detach(path, &[]);
        state.changed.remove(path);
    }
}

impl State {
    /// Reads every queued event and applies it.
    fn drain(&mut self) {
        loop {
            let n = match self.inotify.read(&mut self.buf) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => 0,
            };
            self.generation += 1;
            let buf = std::mem::take(&mut self.buf);
            match parse_events(&buf[..n]) {
                Ok(notices) if n > 0 => {
                    for notice in notices {
                        self.apply(notice);
                    }
                }
                // A failed read or an undecodable record may hide any
                // change: treat it like an overflow.
                _ => self.forgot_all = self.generation,
            }
            self.buf = buf;
            if n == 0 {
                return;
            }
        }
    }

    fn apply(&mut self, notice: Notice<'_>) {
        let generation = self.generation;
        let (wd, mask, name) = match notice {
            Notice::ForgetAll => {
                self.forgot_all = generation;
                return;
            }
            Notice::Event { wd, mask, name } => (wd, mask, name),
        };
        let mut touched: Vec<String> = Vec::new();
        match name {
            Some(name) => {
                if let Some(names) = self.dirs.get(&wd) {
                    touched.extend(
                        names
                            .get(OsStr::from_bytes(name))
                            .into_iter()
                            .flatten()
                            .cloned(),
                    );
                }
            }
            None => {
                touched.extend(self.inodes.get(&wd).into_iter().flatten().cloned());
                if mask & DIR_GONE != 0 {
                    touched.extend(
                        self.dirs
                            .get(&wd)
                            .into_iter()
                            .flatten()
                            .flat_map(|(_, s)| s.clone()),
                    );
                }
            }
        }
        for source in &touched {
            self.changed.insert(source.clone(), generation);
        }
        // A watch the kernel dropped (its inode died, or the directory
        // went away) leaves its sources unwatched until the next read
        // renews them.
        if mask & (IN_IGNORED | IN_DELETE_SELF | IN_UNMOUNT) != 0 && name.is_none() {
            for source in touched {
                self.detach(&source, &[]);
            }
        }
    }

    /// Adds (or renews) both watches of `path`, the inode watch first,
    /// so a path naming no file gets no directory watch either.
    fn add_watches(&self, path: &str) -> Option<SourceWatch> {
        let log = Path::new(path);
        let name = log.file_name()?;
        let dir = match log.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let mut snapshot = name.to_os_string();
        snapshot.push(".fsidx");
        let inode_wd = self.inotify.add_watch(log, INODE_MASK).ok()?;
        Some(SourceWatch {
            dir_wd: self.inotify.add_watch(dir, DIR_MASK).ok()?,
            inode_wd,
            names: [name.to_os_string(), snapshot],
        })
    }

    fn attach(&mut self, path: &str, watch: SourceWatch) {
        let names = self.dirs.entry(watch.dir_wd).or_default();
        for name in &watch.names {
            names
                .entry(name.clone())
                .or_default()
                .push(path.to_string());
        }
        self.inodes
            .entry(watch.inode_wd)
            .or_default()
            .push(path.to_string());
        self.sources.insert(path.to_string(), watch);
    }

    /// Forgets `path`'s watches, removing kernel watches no other
    /// source uses, except those in `keep` (which a renewed watch of
    /// `path` is about to reuse).
    fn detach(&mut self, path: &str, keep: &[i32]) {
        let Some(watch) = self.sources.remove(path) else {
            return;
        };
        if let Some(names) = self.dirs.get_mut(&watch.dir_wd) {
            for name in &watch.names {
                if let Some(sources) = names.get_mut(name) {
                    sources.retain(|s| s != path);
                    if sources.is_empty() {
                        names.remove(name);
                    }
                }
            }
        }
        if let Some(sources) = self.inodes.get_mut(&watch.inode_wd) {
            sources.retain(|s| s != path);
        }
        for wd in [watch.dir_wd, watch.inode_wd] {
            if keep.contains(&wd) {
                continue;
            }
            let dir_idle = self.dirs.get(&wd).is_none_or(HashMap::is_empty);
            let inode_idle = self.inodes.get(&wd).is_none_or(Vec::is_empty);
            if dir_idle
                && inode_idle
                && (self.dirs.remove(&wd).is_some() | self.inodes.remove(&wd).is_some())
            {
                // Fails harmlessly when the kernel already dropped it.
                self.inotify.rm_watch(wd).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(wd: i32, mask: u32, name: &[u8], pad: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&wd.to_ne_bytes());
        out.extend_from_slice(&mask.to_ne_bytes());
        out.extend_from_slice(&0u32.to_ne_bytes());
        out.extend_from_slice(&((name.len() + pad) as u32).to_ne_bytes());
        out.extend_from_slice(name);
        out.extend(std::iter::repeat_n(0u8, pad));
        out
    }

    #[test]
    fn records_decode_with_names_and_padding() {
        let mut buf = record(3, IN_MODIFY, b"a.fslog", 9);
        buf.extend(record(4, IN_ATTRIB, b"", 0));
        buf.extend(record(-1, IN_Q_OVERFLOW, b"", 0));
        let notices = parse_events(&buf).expect("decodes");
        assert_eq!(
            notices,
            vec![
                Notice::Event {
                    wd: 3,
                    mask: IN_MODIFY,
                    name: Some(&b"a.fslog"[..]),
                },
                Notice::Event {
                    wd: 4,
                    mask: IN_ATTRIB,
                    name: None,
                },
                Notice::ForgetAll,
            ]
        );
        assert_eq!(parse_events(&[]), Ok(Vec::new()));
    }

    #[test]
    fn truncated_records_are_errors() {
        let buf = record(3, IN_MODIFY, b"a.fslog", 1);
        for cut in 1..buf.len() {
            assert_eq!(
                parse_events(&buf[..cut]),
                Err(Truncated { offset: 0 }),
                "cut {cut}"
            );
        }
        let mut two = buf.clone();
        two.extend_from_slice(&buf[..5]);
        assert_eq!(parse_events(&two), Err(Truncated { offset: buf.len() }));
    }

    /// A live feed over a temporary directory: writes, renames and
    /// snapshot saves each bump the source, and an unrelated name does
    /// not.
    #[test]
    fn live_feed_notices_named_changes_only() {
        let Ok(feed) = InotifyFeed::new() else {
            return;
        };
        let dir = std::env::temp_dir().join(format!("faild-notify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let log = dir.join("w.fslog");
        std::fs::write(&log, "a\n").expect("write");
        let path = log.to_str().unwrap();
        assert!(feed.watch(path));
        let stamp = feed.stamp();
        std::fs::write(dir.join("other.txt"), "x").expect("write");
        assert!(!feed.changed_since(path, stamp), "an unrelated name");
        std::fs::write(&log, "b\n").expect("write");
        assert!(feed.changed_since(path, stamp), "an in-place write");

        assert!(feed.watch(path));
        let stamp = feed.stamp();
        std::fs::write(dir.join("w.fslog.fsidx"), "s").expect("write");
        assert!(feed.changed_since(path, stamp), "a snapshot write");

        let stamp = feed.stamp();
        std::fs::write(dir.join("w.tmp"), "c\n").expect("write");
        std::fs::rename(dir.join("w.tmp"), &log).expect("rename");
        assert!(feed.changed_since(path, stamp), "a rename over the log");

        // A rotation keeps the old inode alive under another name.
        assert!(feed.watch(path));
        let stamp = feed.stamp();
        std::fs::rename(&log, dir.join("w.fslog.1")).expect("rotates");
        std::fs::write(&log, "d\n").expect("write");
        assert!(feed.changed_since(path, stamp), "a rotation");

        // Renewing the watch moves it to the new inode and keeps the
        // directory watch the source still needs.
        assert!(feed.watch(path));
        let stamp = feed.stamp();
        assert!(!feed.changed_since(path, stamp), "a renewed watch vouches");
        std::fs::write(dir.join("w.fslog.fsidx"), "t").expect("write");
        assert!(feed.changed_since(path, stamp), "a snapshot write after renewal");

        feed.unwatch(path);
        let stamp = feed.stamp();
        assert!(feed.changed_since(path, stamp), "an unwatched source");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_decode_or_fail_cleanly(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(notices) = parse_events(&buf) {
                for notice in notices {
                    if let Notice::Event { name: Some(name), .. } = notice {
                        prop_assert!(!name.is_empty() && !name.contains(&0));
                    }
                }
            }
        }

        #[test]
        fn mutated_valid_buffers_decode_or_fail_cleanly(
            events in proptest::collection::vec((any::<i32>(), any::<u32>(), 0usize..20, 0usize..8), 1..6),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            cut in any::<usize>(),
        ) {
            let mut buf = Vec::new();
            for &(wd, mask, len, pad) in &events {
                let name: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
                buf.extend(record(wd, mask, &name, pad));
            }
            let whole = parse_events(&buf).expect("valid records decode");
            prop_assert_eq!(whole.len(), events.len());
            for (notice, &(wd, mask, len, _)) in whole.iter().zip(&events) {
                if mask & IN_Q_OVERFLOW != 0 {
                    prop_assert_eq!(notice, &Notice::ForgetAll);
                } else if let Notice::Event { wd: w, mask: m, name } = notice {
                    prop_assert_eq!((*w, *m, name.map_or(0, <[u8]>::len)), (wd, mask, len));
                } else {
                    prop_assert!(false, "an event decoded as ForgetAll");
                }
            }
            let cut = cut % (buf.len() + 1);
            let boundary = {
                let mut at = 0;
                let mut ends = vec![0];
                for &(_, _, len, pad) in &events {
                    at += HEADER + len + pad;
                    ends.push(at);
                }
                ends.contains(&cut)
            };
            prop_assert_eq!(parse_events(&buf[..cut]).is_ok(), boundary);
            for (at, byte) in flips {
                let at = at % buf.len();
                buf[at] ^= byte;
            }
            let _ = parse_events(&buf);
        }
    }
}
