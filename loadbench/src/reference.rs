//! Reference outputs computed in-process through `failapi`, and the
//! checks that hold every CLI stdout and every `faild` reply to them
//! byte for byte.

use failapi::{QueryEngine, QueryRequest, WatchRequest};

use crate::Res;

/// The output of `req` from a fresh engine: what a `failctl` process
/// prints, and what a long-lived `faild` engine must answer.
pub fn query(req: &QueryRequest) -> Res<String> {
    QueryEngine::new()
        .execute(req)
        .map(|outcome| outcome.output)
        .map_err(|e| format!("reference {:?}: {e}", req.cmd))
}

/// The full output of `failctl watch <path>`.
pub fn watch(path: &str) -> Res<String> {
    let mut out = Vec::new();
    failapi::watch::run(&WatchRequest::new(path), &mut out)
        .map_err(|e| format!("reference watch {path}: {e}"))?;
    String::from_utf8(out).map_err(|_| "watch reference is not UTF-8".to_string())
}

/// Checks a CLI stdout against its reference.
pub fn check_stdout(got: &str, expected: &str) -> Res<()> {
    if got == expected {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "output differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        expected.len()
    ))
}

/// Checks one `faild` reply line against the references it may match:
/// the output must equal one of `expected` exactly. Returns the reply's
/// `cached` flag.
pub fn check_reply(line: &[u8], expected: &[&str]) -> Res<bool> {
    let line = std::str::from_utf8(line).map_err(|_| "reply is not UTF-8".to_string())?;
    let reply = failapi::wire::parse_response(line.trim_end()).map_err(|e| e.to_string())?;
    if expected.contains(&reply.output.as_str()) {
        Ok(reply.cached)
    } else {
        Err(format!(
            "{} reply ({} bytes) matches none of {} reference(s)",
            reply.cmd,
            reply.output.len(),
            expected.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failapi::QuerySource;

    #[test]
    fn verifier_rejects_a_reply_with_one_corrupted_byte() {
        let req = QueryRequest::report(QuerySource::model("tsubame2", 42)).sections("header,tbf");
        let expected = query(&req).expect("reference");
        let line = failapi::wire::encode_ok(7, "report", true, &expected) + "\n";
        assert_eq!(check_reply(line.as_bytes(), &[&expected]), Ok(true));

        // Flip one letter inside the output payload.
        let at = line.find("MTBF").expect("tbf section present") + 1;
        let mut corrupt = line.clone().into_bytes();
        corrupt[at] = b'X';
        assert!(check_reply(&corrupt, &[&expected]).is_err());
        assert!(check_stdout(std::str::from_utf8(&corrupt).unwrap(), &line).is_err());

        // A reply may match any of several stage references.
        assert_eq!(
            check_reply(line.as_bytes(), &["other", &expected]),
            Ok(true)
        );
        // An error envelope never verifies.
        let err = failapi::wire::encode_err(7, &failtypes::Error::run("boom"));
        assert!(check_reply(err.as_bytes(), &[&expected]).is_err());
    }
}
