//! Log operations: file helpers, anonymization, and quick summaries.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use failtypes::{FailureLog, FailureRecord, NodeId};

use crate::{csv, ParseOptions};
use failtypes::Result;

/// Writes a log to a file in the `failscope-log v1` format.
///
/// A path ending in `.gz` is written gzip-compressed (by the in-repo
/// codec), so `failctl generate --out fleet.fslog.gz` and the
/// transparent reader compose without external tooling.
///
/// # Errors
///
/// Returns [`Error`](failtypes::Error) on I/O failure.
pub fn save(path: impl AsRef<Path>, log: &FailureLog) -> Result<()> {
    let path = path.as_ref();
    if path.extension().is_some_and(|e| e == "gz") {
        let text = csv::to_string(log)?;
        std::fs::write(path, crate::gzip_compress(text.as_bytes()))?;
        return Ok(());
    }
    let file = File::create(path)?;
    csv::write_log(BufWriter::new(file), log)
}

/// Reads a log from a file with default [`ParseOptions`], sniffing and
/// transparently decompressing gzip input.
///
/// # Errors
///
/// Returns [`Error`](failtypes::Error) on I/O failure or malformed content.
pub fn load(path: impl AsRef<Path>) -> Result<FailureLog> {
    load_with(path, &ParseOptions::default())
}

/// [`load`] with explicit parse options (worker threads, chunk size):
/// [`crate::LogFile::read`] then [`crate::LogFile::parse`].
///
/// # Errors
///
/// Same as [`load`].
pub fn load_with(path: impl AsRef<Path>, opts: &ParseOptions) -> Result<FailureLog> {
    crate::LogFile::read(path)?.parse(None, opts)
}

/// Renames node ids with a keyed pseudorandom permutation, preserving
/// every analysis result while hiding which physical nodes failed — the
/// kind of anonymization the paper's own released logs required for
/// business sensitivity.
///
/// The same `key` always produces the same permutation, so two logs
/// anonymized with one key remain joinable on node identity.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
/// let anon = faillog::anonymize_nodes(&log, 0x5EC);
/// // Same shape: per-node failure-count multiset is unchanged.
/// let mult = |l: &failtypes::FailureLog| {
///     let mut m = std::collections::HashMap::new();
///     for r in l.iter() { *m.entry(r.node()).or_insert(0u32) += 1; }
///     let mut v: Vec<u32> = m.into_values().collect();
///     v.sort_unstable();
///     v
/// };
/// assert_eq!(mult(&log), mult(&anon));
/// ```
pub fn anonymize_nodes(log: &FailureLog, key: u64) -> FailureLog {
    let nodes = log.spec().nodes();
    let perm = keyed_permutation(nodes, key);
    let records: Vec<FailureRecord> = log
        .iter()
        .map(|r| {
            let mut out = FailureRecord::new(
                r.id(),
                r.time(),
                r.ttr(),
                r.category(),
                NodeId::new(perm[r.node().index() as usize]),
            );
            if !r.gpus().is_empty() {
                out = out.with_gpus(r.gpus().iter().copied());
            }
            if let Some(l) = r.locus() {
                out = out.with_locus(l);
            }
            out
        })
        .collect();
    FailureLog::with_spec(log.generation(), log.spec().clone(), log.window(), records)
        .expect("permutation preserves validity")
}

/// Deterministic keyed permutation of `0..n` (Fisher–Yates driven by
/// SplitMix64).
fn keyed_permutation(n: u32, key: u64) -> Vec<u32> {
    let mut state = key ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..perm.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A quick structural summary of a log, for operator-facing listings.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSummary {
    /// System name.
    pub system: String,
    /// Total failures.
    pub failures: usize,
    /// Distinct nodes that failed at least once.
    pub failing_nodes: usize,
    /// GPU-category failures.
    pub gpu_failures: usize,
    /// Multi-GPU failures.
    pub multi_gpu_failures: usize,
    /// Observation-window length in days.
    pub window_days: f64,
}

/// Summarizes a log.
pub fn summarize(log: &FailureLog) -> LogSummary {
    let mut nodes = std::collections::HashSet::new();
    let mut gpu = 0;
    let mut multi = 0;
    for r in log.iter() {
        nodes.insert(r.node());
        if r.category().is_gpu() {
            gpu += 1;
            if r.is_multi_gpu() {
                multi += 1;
            }
        }
    }
    LogSummary {
        system: log.spec().name().to_string(),
        failures: log.len(),
        failing_nodes: nodes.len(),
        gpu_failures: gpu,
        multi_gpu_failures: multi,
        window_days: log.window().duration().days(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};

    fn t3_log() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 21).generate().unwrap()
    }

    #[test]
    fn save_and_load_roundtrip() {
        let log = t3_log();
        let dir = std::env::temp_dir().join("failscope-test-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t3.fslog");
        save(&path, &log).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, log);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load("/definitely/not/here.fslog").is_err());
    }

    #[test]
    fn anonymization_is_a_permutation() {
        let log = t3_log();
        let anon = anonymize_nodes(&log, 7);
        assert_eq!(anon.len(), log.len());
        // Everything except node identity is unchanged.
        for (a, b) in log.iter().zip(anon.iter()) {
            assert_eq!(a.time(), b.time());
            assert_eq!(a.ttr(), b.ttr());
            assert_eq!(a.category(), b.category());
            assert_eq!(a.gpus(), b.gpus());
            assert_eq!(a.locus(), b.locus());
        }
        // Identity actually changed for at least some nodes.
        let changed = log
            .iter()
            .zip(anon.iter())
            .filter(|(a, b)| a.node() != b.node())
            .count();
        assert!(changed > log.len() / 2);
    }

    #[test]
    fn anonymization_is_deterministic_per_key() {
        let log = t3_log();
        assert_eq!(anonymize_nodes(&log, 7), anonymize_nodes(&log, 7));
        assert_ne!(anonymize_nodes(&log, 7), anonymize_nodes(&log, 8));
    }

    #[test]
    fn anonymization_preserves_per_node_multiset() {
        let log = t3_log();
        let anon = anonymize_nodes(&log, 99);
        let mult = |l: &FailureLog| {
            let mut m = std::collections::HashMap::new();
            for r in l.iter() {
                *m.entry(r.node()).or_insert(0u32) += 1;
            }
            let mut v: Vec<u32> = m.into_values().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(mult(&log), mult(&anon));
    }

    #[test]
    fn keyed_permutation_is_bijective() {
        let perm = keyed_permutation(1000, 42);
        let mut seen = vec![false; 1000];
        for &p in &perm {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn summary_counts() {
        let log = t3_log();
        let s = summarize(&log);
        assert_eq!(s.failures, 338);
        assert_eq!(s.gpu_failures, 94);
        assert_eq!(s.multi_gpu_failures, 6); // Table III: 4 + 2
        assert!(s.failing_nodes > 50 && s.failing_nodes < 338);
        assert!((s.window_days - 1019.0).abs() < 1e-9);
        assert_eq!(s.system, "Tsubame-3");
    }
}
