//! Record sources feeding the watch loop.
//!
//! Two sources deliver records in chunks behind one trait:
//!
//! * [`TailSource`] — a `failscope-log v1` file read incrementally via
//!   [`faillog::LogTailer`] (CSV or NDJSON body rows); in follow mode
//!   exhaustion yields [`ChunkEnd::Idle`] so the caller can sleep and
//!   poll again while the file grows (and an idle poll that finds the
//!   file truncated or replaced fails with [`faillog::LogRotated`]),
//!   otherwise the final partial line is parsed and the source ends
//!   with [`ChunkEnd::Eof`].
//! * [`SimSource`] — a calibrated `failsim` model replayed through a
//!   [`failsim::ReplayClock`], paced (real-time-scaled) or unpaced
//!   (`--accel max`). An optional MTTR injection multiplies the repair
//!   durations of the tail of the replay, the canonical regression
//!   scenario the acceptance tests alert on.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use faillog::{Compression, LogTailer, SourceInfo};
use failsim::{ReplayClock, Simulator, SystemModel};
use failtypes::{FailureRecord, Generation, Hours, ObservationWindow, Result, SystemSpec};

/// Why a chunked pull ([`EventSource::next_chunk`]) stopped delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEnd {
    /// The chunk filled to its limit; more records may be ready now.
    More,
    /// Nothing available right now — poll again later (follow mode).
    Idle,
    /// The stream ended; no further records will arrive.
    Eof,
}

/// A producer of failure records plus the system metadata the online
/// state needs up front.
pub trait EventSource {
    /// The system generation of the stream.
    fn generation(&self) -> Generation;
    /// The system spec of the stream.
    fn spec(&self) -> &SystemSpec;
    /// The observation window of the stream.
    fn window(&self) -> ObservationWindow;
    /// Moves up to `max` immediately deliverable records onto the end
    /// of `out`, so the watch loop ingests whole chunks between refresh
    /// ticks, and reports why it stopped: [`ChunkEnd::Idle`] means
    /// "nothing more right now, poll again", [`ChunkEnd::Eof`] is
    /// terminal and sticky. A chunk cut short by either is still
    /// handed over, so chunking never delays follow-mode delivery. Nor
    /// does it move alerts: the watch loop checks drift at refresh
    /// ticks counted in records, so an alert waits for its tick (or
    /// the end of the run), wherever the chunks end.
    ///
    /// # Errors
    ///
    /// Source failures (I/O, malformed or invalid rows); records moved
    /// before the failure may remain in `out`.
    fn next_chunk(&mut self, max: usize, out: &mut Vec<FailureRecord>) -> Result<ChunkEnd>;
    /// Human-readable description of the source for the watch banner.
    fn describe(&self) -> String;
    /// Support for persisting the accumulated index as a `.fsidx`
    /// snapshot on clean shutdown: the source log's path plus the
    /// [`SourceInfo`] fingerprint (bytes/CRC/lines) of exactly the raw
    /// input consumed so far. `None` (the default) when the stream
    /// cannot be fingerprinted against on-disk bytes — simulated
    /// replays, and compressed files (whose progress counts *decoded*
    /// bytes).
    fn snapshot_target(&self) -> Option<(PathBuf, SourceInfo)> {
        None
    }
}

/// Tails a `failscope-log v1` file (see the module docs).
///
/// Files open through [`LogTailer::open`], so a gzip-compressed replay
/// (`.fslog.gz`) streams exactly like plain text in non-follow mode.
/// Follow mode polls the file for appended bytes, which only plain text
/// supports — a gzip member is decoded once at open — so `--follow` on
/// compressed input is rejected at open time.
#[derive(Debug)]
pub struct TailSource {
    tailer: LogTailer,
    path: String,
    follow: bool,
    done: bool,
}

impl TailSource {
    /// Opens `path`, parsing the header eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`failtypes::Error::Io`] when the file cannot be opened
    /// or decoded, a parse variant when its header is incomplete, and
    /// [`failtypes::Error::Args`] for `follow` on compressed input.
    pub fn open(path: impl AsRef<Path>, follow: bool) -> Result<Self> {
        let display = path.as_ref().display().to_string();
        let tailer = LogTailer::open(path)?;
        if follow && tailer.compression() != Compression::Plain {
            return Err(failtypes::Error::args(format!(
                "--follow requires plain text, but `{display}` is {}-compressed \
                 (appended bytes cannot be observed through a compressed member)",
                tailer.compression().label()
            )));
        }
        Ok(TailSource {
            tailer,
            path: display,
            follow,
            done: false,
        })
    }
}

impl EventSource for TailSource {
    fn generation(&self) -> Generation {
        self.tailer.generation()
    }

    fn spec(&self) -> &SystemSpec {
        self.tailer.spec()
    }

    fn window(&self) -> ObservationWindow {
        self.tailer.window()
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<FailureRecord>) -> Result<ChunkEnd> {
        if self.done {
            return Ok(ChunkEnd::Eof);
        }
        // Each run is at most the records still wanted, so the tailer
        // never consumes past what it hands over and its progress
        // fingerprints exactly the ingested records.
        let start = out.len();
        let target = start.saturating_add(max);
        while out.len() < target {
            if !self.tailer.read_rows(target - out.len(), out)? {
                if self.follow {
                    // A rotation ends the watch with an error, so check
                    // only on a pull that delivered nothing: every record
                    // read before it reaches the caller first.
                    if out.len() == start {
                        self.tailer.check_rotation()?;
                    }
                    return Ok(ChunkEnd::Idle);
                }
                self.done = true;
                self.tailer.finish(out)?;
                return Ok(ChunkEnd::Eof);
            }
        }
        Ok(ChunkEnd::More)
    }

    fn describe(&self) -> String {
        if self.follow {
            format!("{} (follow)", self.path)
        } else {
            self.path.clone()
        }
    }

    fn snapshot_target(&self) -> Option<(PathBuf, SourceInfo)> {
        Some((PathBuf::from(&self.path), self.tailer.progress()?))
    }
}

/// Replays a calibrated simulation as a stream (see the module docs).
#[derive(Debug)]
pub struct SimSource {
    /// Remaining records, popped from the front so delivery **moves**
    /// each record out instead of cloning its GPU-slot heap data.
    records: VecDeque<FailureRecord>,
    clock: ReplayClock,
    generation: Generation,
    spec: SystemSpec,
    window: ObservationWindow,
    name: String,
}

impl SimSource {
    /// Simulates `model` with `seed` and prepares a replay paced by
    /// `clock`.
    ///
    /// # Errors
    ///
    /// Propagates simulator validation failure (cannot happen for stock
    /// models).
    pub fn new(model: SystemModel, seed: u64, clock: ReplayClock) -> Result<Self> {
        let name = format!("sim:{} seed {seed}", model.spec.name());
        let log = Simulator::new(model, seed).generate()?;
        Ok(SimSource {
            generation: log.generation(),
            spec: log.spec().clone(),
            window: log.window(),
            records: log.into_records().into(),
            clock,
            name,
        })
    }

    /// Multiplies the repair durations of the replay tail (records from
    /// `from_fraction` of the stream onward) by `factor` — the injected
    /// MTTR-regression scenario.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive and
    /// `from_fraction` is in `[0, 1]`.
    pub fn with_mttr_injection(mut self, factor: f64, from_fraction: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "bad factor {factor}");
        assert!(
            (0.0..=1.0).contains(&from_fraction),
            "bad fraction {from_fraction}"
        );
        let start = (self.records.len() as f64 * from_fraction) as usize;
        for rec in self.records.iter_mut().skip(start) {
            let mut degraded = FailureRecord::new(
                rec.id(),
                rec.time(),
                Hours::new(rec.ttr().get() * factor),
                rec.category(),
                rec.node(),
            );
            if !rec.gpus().is_empty() {
                degraded = degraded.with_gpus(rec.gpus().iter().copied());
            }
            if let Some(l) = rec.locus() {
                degraded = degraded.with_locus(l);
            }
            *rec = degraded;
        }
        self.name.push_str(&format!(
            " (+mttr x{factor} from {:.0}%)",
            from_fraction * 100.0
        ));
        self
    }

    /// Records remaining in the replay.
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

impl EventSource for SimSource {
    fn generation(&self) -> Generation {
        self.generation
    }

    fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    fn window(&self) -> ObservationWindow {
        self.window
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<FailureRecord>) -> Result<ChunkEnd> {
        for _ in 0..max {
            let Some(rec) = self.records.pop_front() else {
                return Ok(ChunkEnd::Eof);
            };
            // Paced replay sleeps inline until the record is due;
            // unpaced clocks return immediately.
            self.clock.sleep_until(rec.time().get());
            out.push(rec);
        }
        Ok(ChunkEnd::More)
    }

    fn describe(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failtypes::FailureLog;
    use std::io::Write;

    fn drain(source: &mut dyn EventSource) -> Vec<FailureRecord> {
        let mut out = Vec::new();
        loop {
            match source.next_chunk(1, &mut out).unwrap() {
                ChunkEnd::More => {}
                ChunkEnd::Idle => panic!("unexpected idle"),
                ChunkEnd::Eof => break,
            }
        }
        out
    }

    #[test]
    fn sim_source_replays_the_exact_log() {
        let log = Simulator::new(SystemModel::tsubame3(), 5).generate().unwrap();
        let mut src =
            SimSource::new(SystemModel::tsubame3(), 5, ReplayClock::unpaced()).unwrap();
        assert_eq!(src.remaining(), log.len());
        assert_eq!(src.spec(), log.spec());
        let records = drain(&mut src);
        assert_eq!(records.as_slice(), log.records());
        // Eof is sticky.
        assert_eq!(src.next_chunk(1, &mut Vec::new()).unwrap(), ChunkEnd::Eof);
    }

    #[test]
    fn chunked_delivery_matches_per_record_and_flushes_partials() {
        let log = Simulator::new(SystemModel::tsubame3(), 5).generate().unwrap();
        let mut src =
            SimSource::new(SystemModel::tsubame3(), 5, ReplayClock::unpaced()).unwrap();
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            let end = src.next_chunk(7, &mut chunk).unwrap();
            out.append(&mut chunk);
            match end {
                ChunkEnd::More => {}
                ChunkEnd::Idle => panic!("unpaced replay never idles"),
                ChunkEnd::Eof => break,
            }
        }
        assert_eq!(out.as_slice(), log.records());
        // Eof is sticky through the chunked path too.
        chunk.clear();
        assert_eq!(src.next_chunk(7, &mut chunk).unwrap(), ChunkEnd::Eof);
        assert!(chunk.is_empty());
    }

    #[test]
    fn follow_mode_chunks_end_with_idle_not_eof() {
        let log = Simulator::new(SystemModel::tsubame2(), 6).generate().unwrap();
        let dir = std::env::temp_dir().join("failscope-test-watch-ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow-chunk.fslog");
        faillog::save(&path, &log).unwrap();
        let mut src = TailSource::open(&path, true).unwrap();
        let mut records = 0;
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            let end = src.next_chunk(16, &mut chunk).unwrap();
            records += chunk.len();
            match end {
                ChunkEnd::More => {}
                ChunkEnd::Idle => break,
                ChunkEnd::Eof => panic!("follow mode must idle, not end"),
            }
        }
        // The whole file arrives before the first idle — partial chunks
        // are flushed, chunking adds no delivery latency.
        assert_eq!(records, log.len());
        std::fs::remove_file(&path).unwrap();
    }

    /// Every record a followed source delivers before it first idles.
    fn pull_until_idle(src: &mut TailSource) -> Vec<FailureRecord> {
        let mut records = Vec::new();
        while src.next_chunk(64, &mut records).unwrap() == ChunkEnd::More {}
        records
    }

    /// The rotation a source error names, if it is one.
    fn rotation(err: &failtypes::Error) -> Option<faillog::Rotation> {
        let rotated = std::error::Error::source(err)?.downcast_ref::<faillog::LogRotated>()?;
        Some(rotated.rotation)
    }

    #[test]
    fn follow_ends_with_a_typed_error_when_the_log_is_rotated() {
        let log = Simulator::new(SystemModel::tsubame2(), 6).generate().unwrap();
        let half = FailureLog::with_spec(
            log.generation(),
            log.spec().clone(),
            log.window(),
            log.records()[..log.len() / 2].to_vec(),
        )
        .unwrap();
        let full = faillog::to_string(&log).unwrap();
        let shorter = faillog::to_string(&half).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("failscope-test-rotation-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("followed.fslog");

        // Truncated and rewritten in place (same inode, fewer bytes).
        std::fs::write(&path, &full).unwrap();
        let mut src = TailSource::open(&path, true).unwrap();
        assert_eq!(pull_until_idle(&mut src).as_slice(), log.records());
        std::fs::write(&path, &shorter).unwrap();
        let mut late = Vec::new();
        let err = src.next_chunk(64, &mut late).unwrap_err();
        assert!(late.is_empty());
        let (len, read) = (shorter.len() as u64, full.len() as u64);
        assert_eq!(rotation(&err), Some(faillog::Rotation::Truncated { len, read }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");

        // Another file moved over the path; rows appended to the old one
        // before the move are still delivered, once.
        std::fs::write(&path, &shorter).unwrap();
        let mut src = TailSource::open(&path, true).unwrap();
        let mut records = pull_until_idle(&mut src);
        let rest = &full[shorter.len()..];
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(rest.as_bytes())
            .unwrap();
        let moved = dir.join("replacement.fslog");
        std::fs::write(&moved, &full).unwrap();
        std::fs::rename(&moved, &path).unwrap();
        records.extend(pull_until_idle(&mut src));
        assert_eq!(records.as_slice(), log.records());
        let err = src.next_chunk(64, &mut records).unwrap_err();
        assert_eq!(rotation(&err), Some(faillog::Rotation::Replaced), "{err}");
        assert_eq!(records.len(), log.len());

        // The path removed.
        let mut src = TailSource::open(&path, true).unwrap();
        pull_until_idle(&mut src);
        std::fs::remove_file(&path).unwrap();
        let err = src.next_chunk(64, &mut Vec::new()).unwrap_err();
        assert_eq!(rotation(&err), Some(faillog::Rotation::Replaced), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mttr_injection_degrades_only_the_tail() {
        let log = Simulator::new(SystemModel::tsubame3(), 5).generate().unwrap();
        let mut src = SimSource::new(SystemModel::tsubame3(), 5, ReplayClock::unpaced())
            .unwrap()
            .with_mttr_injection(4.0, 0.5);
        assert!(src.describe().contains("x4"));
        let records = drain(&mut src);
        let half = log.len() / 2;
        for (a, b) in records.iter().zip(log.records()).take(half) {
            assert_eq!(a, b);
        }
        for (a, b) in records.iter().zip(log.records()).skip(half) {
            assert_eq!(a.ttr().get(), b.ttr().get() * 4.0);
            assert_eq!(a.time(), b.time());
            assert_eq!(a.gpus(), b.gpus());
        }
    }

    #[test]
    fn tail_source_reads_a_file_and_ends() {
        let log = Simulator::new(SystemModel::tsubame2(), 6).generate().unwrap();
        let dir = std::env::temp_dir().join("failscope-test-watch-ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.fslog");
        faillog::save(&path, &log).unwrap();
        let mut src = TailSource::open(&path, false).unwrap();
        assert_eq!(src.generation(), log.generation());
        let records = drain(&mut src);
        assert_eq!(records.len(), log.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follow_mode_reports_idle_instead_of_eof() {
        let log = Simulator::new(SystemModel::tsubame2(), 6).generate().unwrap();
        let dir = std::env::temp_dir().join("failscope-test-watch-ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.fslog");
        faillog::save(&path, &log).unwrap();
        let mut src = TailSource::open(&path, true).unwrap();
        let mut records = Vec::new();
        loop {
            match src.next_chunk(1, &mut records).unwrap() {
                ChunkEnd::More => {}
                ChunkEnd::Idle => break,
                ChunkEnd::Eof => panic!("follow mode must idle, not end"),
            }
        }
        assert_eq!(records.as_slice(), log.records());
        assert!(src.describe().contains("follow"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gzip_replay_streams_like_plain_text() {
        let log = Simulator::new(SystemModel::tsubame3(), 9).generate().unwrap();
        let dir = std::env::temp_dir().join("failscope-test-watch-ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.fslog.gz");
        faillog::save(&path, &log).unwrap();
        let mut src = TailSource::open(&path, false).unwrap();
        assert_eq!(src.generation(), log.generation());
        let records = drain(&mut src);
        assert_eq!(records.as_slice(), log.records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follow_on_gzip_input_is_rejected() {
        let log = Simulator::new(SystemModel::tsubame2(), 9).generate().unwrap();
        let dir = std::env::temp_dir().join("failscope-test-watch-ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.fslog.gz");
        faillog::save(&path, &log).unwrap();
        let err = TailSource::open(&path, true).unwrap_err();
        assert!(matches!(err, failtypes::Error::Args(_)), "{err}");
        assert!(err.to_string().contains("--follow"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = TailSource::open("/definitely/not/here.fslog", false).unwrap_err();
        assert!(matches!(err, failtypes::Error::Io { .. }), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
