//! `failctl watch`: a thin adapter over [`failapi::watch::run`].

use std::io;

use failtypes::{Error, Result};

use super::common::CommonQueryArgs;
use crate::args::ParsedArgs;

/// The flags only `watch` takes. Of the common query flags it takes all
/// but `--threads`: its summaries render on the calling thread.
pub(crate) const WATCH_FLAGS: &[&str] = &[
    "follow",
    "accel",
    "seed",
    "inject-mttr",
    "baseline",
    "window",
    "refresh",
    "max-records",
    "max-idle",
];

/// Builds the watch request from the command line, reading the source
/// from positional argument `source_at` (`failctl query` puts its
/// sub-command first). Source-specific values stay raw strings: watch's
/// flag-combination diagnostics quote them verbatim.
pub(crate) fn watch_request(
    args: &ParsedArgs,
    source_at: usize,
) -> Result<failapi::WatchRequest> {
    let mut req = failapi::WatchRequest::new(args.positional(source_at, "path|sim:MODEL")?);
    req.follow = args.switch("follow");
    let take = |key: &str| args.flag(key).map(String::from);
    req.accel = take("accel");
    req.seed = take("seed");
    req.inject_mttr = take("inject-mttr");
    req.baseline = take("baseline");
    req.window = take("window");
    req.refresh = take("refresh");
    req.max_records = take("max-records");
    req.max_idle = take("max-idle");
    CommonQueryArgs::from_args(args).apply_watch(&mut req)?;
    Ok(req)
}

/// `failctl watch`: streams a log file or a simulated replay through
/// the online monitor, writing NDJSON alerts and periodic summaries to
/// `out` as they happen (which is why this one takes a writer instead
/// of returning a `String`).
pub fn watch_stream(args: &ParsedArgs, out: &mut dyn io::Write) -> Result<()> {
    args.reject_unknown_flags(
        &[
            WATCH_FLAGS,
            &["where", "format", "sections", "trace", "index"],
        ]
        .concat(),
    )?;
    let req = watch_request(args, 0)?;
    let trace = failapi::watch::run(&req, out)?;
    CommonQueryArgs::from_args(args).write_trace(&trace)?;
    Ok(())
}

/// `failctl watch` via the uniform dispatch path: buffers the stream
/// and returns it as a string (main.rs streams to stdout instead).
pub fn watch(args: &ParsedArgs) -> Result<String> {
    let mut buf = Vec::new();
    watch_stream(args, &mut buf)?;
    String::from_utf8(buf).map_err(|_| Error::run("watch produced non-UTF8 output"))
}
