//! `failctl index`: explicit `.fsidx` snapshot management.

use std::fmt::Write as _;

use faillog::ParseOptions;
use failindex::Freshness;
use failtypes::{Error, Result};

use crate::args::ParsedArgs;

/// `failctl index`.
///
/// `build` parses the log and writes a fresh snapshot; `verify` is a
/// read-only freshness check (exit status reflects usability); `stat`
/// prints a snapshot's own metadata without touching the source log.
pub fn index_cmd(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["threads", "parse-chunk"])?;
    let action = args.positional(0, "build|verify|stat")?;
    let path = args.positional(1, "file")?;
    match action {
        "build" => {
            let parse_opts = ParseOptions::new()
                .threads(failapi::parse_threads(args.flag("threads"))?)
                .chunk_bytes(failapi::parse_chunk_bytes(args.flag("parse-chunk"))?);
            let raw = std::fs::read(path).map_err(|e| Error::run(format!("{path}: {e}")))?;
            let source = failindex::SourceInfo::of_bytes(&raw);
            let view = failscope::StreamView::from(
                faillog::load_traced_with(path, None, &parse_opts)
                    .map_err(|e| Error::run(format!("{path}: {e}")))?,
            );
            let spath = failindex::snapshot_path(path);
            let bytes = failindex::save(&spath, &view, source)?;
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
            let spath = if path.ends_with(".fsidx") {
                std::path::PathBuf::from(path)
            } else {
                failindex::snapshot_path(path)
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
            Ok(out)
        }
        other => Err(Error::args(format!(
            "unknown index action `{other}` (use build, verify, or stat)"
        ))),
    }
}
