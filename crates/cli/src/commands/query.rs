//! `failctl query`: a one-shot client for a running `faild`.
//!
//! `failctl query --socket S report LOG --format json` prints exactly
//! what `failctl report LOG --format json` would — the sub-command
//! lines reuse the same flag parsing and the server runs the same
//! [`failapi::QueryEngine`] path.

use failapi::{wire, QueryRequest};
use failtypes::{Error, Result};

use super::common::{allowed_flags, CommonQueryArgs};
use super::report::report_source_at;
use super::serve::endpoint_from;
use super::watch::{watch_request, WATCH_FLAGS};
use crate::args::ParsedArgs;

/// `failctl query`.
pub fn query(args: &ParsedArgs) -> Result<String> {
    let sub = args.positional(0, "report|compare|watch|logs|evict|metrics|ping|shutdown")?;
    let line = match sub {
        "report" => {
            args.reject_unknown_flags(&query_flags(true, &["model", "seed"]))?;
            let req = CommonQueryArgs::from_args(args)
                .apply_query(QueryRequest::report(report_source_at(args, 1)?))?;
            wire::encode_query(1, &req)
        }
        "compare" => {
            args.reject_unknown_flags(&{
                let mut allowed = query_flags(true, &[]);
                allowed.retain(|f| *f != "sections");
                allowed
            })?;
            let req = CommonQueryArgs::from_args(args).apply_query(QueryRequest::compare(
                args.positional(1, "old")?,
                args.positional(2, "new")?,
            ))?;
            wire::encode_query(1, &req)
        }
        "watch" => {
            args.reject_unknown_flags(&{
                let mut allowed = query_flags(false, WATCH_FLAGS);
                allowed.retain(|f| *f != "threads");
                allowed
            })?;
            if args.switch("follow") {
                return Err(Error::args(
                    "--follow does not apply over the protocol (the response is one buffered document; watch a file locally instead)",
                ));
            }
            wire::encode_watch(1, &watch_request(args, 1)?)
        }
        "evict" => {
            args.reject_unknown_flags(&["socket", "connect", "model", "seed"])?;
            wire::encode_evict(1, &report_source_at(args, 1)?)
        }
        "logs" | "metrics" | "ping" | "shutdown" => {
            args.reject_unknown_flags(&["socket", "connect"])?;
            wire::encode_simple(1, sub)
        }
        other => {
            return Err(Error::args(format!(
                "unknown query sub-command `{other}` (use report, compare, watch, logs, evict, metrics, ping, or shutdown)"
            )))
        }
    };
    let endpoint = endpoint_from(args, "connect")?;
    let resp = failserver::client::roundtrip(&endpoint, &line)?;
    Ok(resp.output)
}

/// The common query flags plus the transport flags; `--trace` is
/// excluded because the trace lives in the server's collector (query it
/// with the `metrics` sub-command instead).
fn query_flags(with_time: bool, extra: &[&'static str]) -> Vec<&'static str> {
    let mut allowed: Vec<&'static str> = allowed_flags(with_time, extra);
    allowed.retain(|f| *f != "trace");
    allowed.extend_from_slice(&["socket", "connect"]);
    allowed
}
