//! `failctl index`: explicit `.fsidx` snapshot management.

use std::fmt::Write as _;

use faillog::{LogFile, ParseOptions};
use failindex::Freshness;
use failtypes::{Error, Result};

use crate::args::ParsedArgs;

/// Nanoseconds since the Unix epoch as `SECONDS.NANOSECONDS`.
fn seconds(ns: i64) -> String {
    format!("{}.{:09}", ns.div_euclid(1_000_000_000), ns.rem_euclid(1_000_000_000))
}

/// `failctl index`.
///
/// `build` parses the log and writes a fresh snapshot that records the
/// log's identity; `verify` is a read-only freshness check that always
/// hashes the whole log (exit status reflects usability); `stat` prints
/// a snapshot's own metadata and whether a query would vouch for it
/// now, stat-ing the source log but never reading it.
pub fn index_cmd(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["threads"])?;
    let action = args.positional(0, "build|verify|stat")?;
    let path = args.positional(1, "file")?;
    match action {
        "build" => {
            let parse_opts =
                ParseOptions::new().threads(failapi::parse_threads(args.flag("threads"))?);
            let with_path = |e| Error::run(format!("{path}: {e}"));
            let file = LogFile::read(path).map_err(with_path)?;
            let (source, read) = (file.source(), file.stat());
            let view =
                failscope::StreamView::from(file.parse(None, &parse_opts).map_err(with_path)?);
            let spath = failindex::snapshot_path(path);
            let bytes = failindex::save_traced(&spath, &view, source, read, None)?;
            Ok(format!(
                "indexed {} records -> {} ({bytes} bytes)\n",
                view.len(),
                spath.display()
            ))
        }
        "verify" => {
            let spath = failindex::snapshot_path(path);
            match failindex::probe(path)? {
                Freshness::Exact => Ok(format!("{}: exact match\n", spath.display())),
                Freshness::Prefix { tail_bytes } => Ok(format!(
                    "{}: prefix match ({tail_bytes} bytes appended since the snapshot)\n",
                    spath.display()
                )),
                Freshness::Stale { reason } => Err(Error::run(format!(
                    "{}: stale snapshot: {reason}",
                    spath.display()
                ))),
                Freshness::Missing => Err(Error::run(format!(
                    "{path}: no .fsidx snapshot (run `failctl index build {path}`)"
                ))),
            }
        }
        "stat" => {
            let (log, spath) = match path.strip_suffix(".fsidx") {
                Some(log) => (log, std::path::PathBuf::from(path)),
                None => (path, failindex::snapshot_path(path)),
            };
            let snap = failindex::load(&spath)?;
            let source = snap.source();
            let view = snap.view();
            let spec = view.spec();
            let mut out = String::new();
            let _ = writeln!(out, "snapshot: {}", spath.display());
            let _ = writeln!(out, "format:   fsidx v{}", failindex::FORMAT_VERSION);
            let _ = writeln!(
                out,
                "system:   {} ({} nodes x {} GPUs)",
                spec.name(),
                spec.nodes(),
                spec.gpus_per_node()
            );
            let _ = writeln!(out, "window:   {}", view.window());
            let _ = writeln!(out, "records:  {}", view.len());
            let _ = writeln!(
                out,
                "source:   {} bytes, {} lines, crc32 {:08x}",
                source.bytes, source.lines, source.crc32
            );
            match snap.read() {
                Some(read) => {
                    let id = read.id;
                    let _ = writeln!(
                        out,
                        "identity: device {}, inode {}, {} bytes, mtime {}, ctime {}",
                        id.dev,
                        id.ino,
                        id.len,
                        seconds(id.mtime_ns),
                        seconds(id.ctime_ns)
                    );
                    let _ = writeln!(out, "read at:  {}", seconds(read.read_at_ns));
                }
                None => {
                    let _ = writeln!(out, "identity: none");
                }
            }
            let now = faillog::file_id(std::path::Path::new(log)).flatten();
            let _ = writeln!(
                out,
                "vouched:  {}",
                failindex::vouch(snap.read(), now).label()
            );
            Ok(out)
        }
        other => Err(Error::args(format!(
            "unknown index action `{other}` (use build, verify, or stat)"
        ))),
    }
}
