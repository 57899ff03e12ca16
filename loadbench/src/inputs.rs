//! Benchmark inputs, generated in-process from the run's seed and
//! written to a per-run directory. The system under test only ever
//! sees these files; generating them is never timed.

use std::fs;
use std::path::{Path, PathBuf};

use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::FailureLog;

use crate::Res;

/// Appends applied to `year-b` during the serve-year open-loop phase.
const APPENDS: usize = 5;
/// Records per append.
const APPEND_RECORDS: usize = 950;
/// Seeds per generation in the small-log fleet (2 generations).
const FLEET_SEEDS: u64 = 8;

/// A per-run scratch directory, removed (with everything in it) on drop.
#[derive(Debug)]
pub struct Workdir {
    path: PathBuf,
}

impl Workdir {
    pub fn create(base: &Path, tag: &str) -> Res<Workdir> {
        let path = base.join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Workdir { path })
    }

    /// The absolute path of `name` inside the directory, as a string
    /// (the form the CLI flags and wire requests take).
    pub fn file(&self, name: &str) -> String {
        self.path.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

fn write(path: &str, data: impl AsRef<[u8]>) -> Res<()> {
    fs::write(path, data).map_err(|e| format!("writing {path}: {e}"))
}

/// The bench-scale year: 1408 nodes × 4 GPUs, system MTBF 0.08 h over
/// 365 days, about 109.5k records and 7 MB of text.
fn bench_year(seed: u64) -> Res<FailureLog> {
    let model = ScenarioBuilder::new("bench-scale")
        .nodes(1408)
        .gpus_per_node(4)
        .system_mtbf_hours(0.08)
        .window_days(365)
        .build()
        .ok_or("bench-scale scenario parameters out of range")?;
    Simulator::new(model, seed)
        .generate()
        .map_err(|e| e.to_string())
}

fn text_of(log: &FailureLog) -> Res<String> {
    faillog::to_string(log).map_err(|e| e.to_string())
}

/// `year-a`: the bench-scale year as `.fslog`, as `.fslog.gz`, and with
/// an exact `.fsidx` beside the plain file.
#[derive(Debug)]
pub struct YearA {
    pub log: FailureLog,
    pub text: String,
    pub plain: String,
    pub gz: String,
    /// Size of the `.fsidx` snapshot (the same for the plain and the
    /// gzip source: only the fingerprint in the header differs).
    pub snapshot_bytes: u64,
}

pub fn year_a(dir: &Workdir, seed: u64) -> Res<YearA> {
    let log = bench_year(seed)?;
    let text = text_of(&log)?;
    let plain = dir.file("year-a.fslog");
    let gz = dir.file("year-a.fslog.gz");
    write(&plain, &text)?;
    write(&gz, faillog::gzip_compress(text.as_bytes()))?;
    let source = failindex::SourceInfo::of_bytes(text.as_bytes());
    let snapshot_bytes = failindex::save(
        failindex::snapshot_path(&plain),
        &failscope::LogView::new(&log),
        source,
    )
    .map_err(|e| e.to_string())?;
    Ok(YearA {
        log,
        text,
        plain,
        gz,
        snapshot_bytes,
    })
}

/// `year-b`: the bench-scale year of seed+1 with its last
/// `APPENDS × APPEND_RECORDS` records held back. `stages[k]` is the
/// file's full text after `k` appends; the file starts at stage 0.
#[derive(Debug)]
pub struct YearB {
    pub path: String,
    pub stages: Vec<String>,
}

pub fn year_b(dir: &Workdir, seed: u64) -> Res<YearB> {
    let log = bench_year(seed.wrapping_add(1))?;
    let text = text_of(&log)?;
    let (base, chunks) = split_tail(&text, log.len(), APPENDS, APPEND_RECORDS)?;
    let mut stages = vec![base];
    for chunk in &chunks {
        let next = format!("{}{chunk}", stages[stages.len() - 1]);
        stages.push(next);
    }
    let path = dir.file("year-b.fslog");
    write(&path, &stages[0])?;
    Ok(YearB { path, stages })
}

impl YearB {
    /// The side file holding stage `k` until [`YearB::append`] moves it
    /// into place.
    fn stage_file(&self, k: usize) -> String {
        format!("{}.stage-{k}", self.path)
    }

    /// Writes every later stage to its side file, so that each append
    /// during the measured phase is a rename, not a 7 MB write.
    pub fn prepare_appends(&self) -> Res<()> {
        for k in 1..self.stages.len() {
            write(&self.stage_file(k), &self.stages[k])?;
        }
        Ok(())
    }

    /// Makes stage `k` the live file. The rename is atomic, so a reader
    /// sees the whole log before or after the append, never a torn line.
    pub fn append(&self, k: usize) -> Res<()> {
        fs::rename(self.stage_file(k), &self.path)
            .map_err(|e| format!("appending stage {k} to {}: {e}", self.path))
    }

    /// Rewrites the live file with stage `k` (used while computing the
    /// reference outputs of every stage at the file's real path).
    pub fn set_stage(&self, k: usize) -> Res<()> {
        write(&self.path, &self.stages[k])
    }
}

/// Splits a serialized log with `records` body rows into a base and
/// `chunks` tails of `per_chunk` trailing rows each. Concatenating the
/// base and every chunk in order gives back `text` exactly.
fn split_tail(
    text: &str,
    records: usize,
    chunks: usize,
    per_chunk: usize,
) -> Res<(String, Vec<String>)> {
    let held = chunks * per_chunk;
    if held >= records || !text.ends_with('\n') {
        return Err(format!(
            "cannot hold back {held} of {records} records from a log of {} bytes",
            text.len()
        ));
    }
    // Start offsets of the held-back lines, found from the end.
    let mut starts = Vec::with_capacity(held);
    let mut cut = text.len();
    for _ in 0..held {
        cut = text[..cut - 1].rfind('\n').map_or(0, |i| i + 1);
        starts.push(cut);
    }
    starts.reverse();
    let mut bounds: Vec<usize> = starts.iter().step_by(per_chunk).copied().collect();
    bounds.push(text.len());
    let tails = bounds
        .windows(2)
        .map(|w| text[w[0]..w[1]].to_string())
        .collect();
    Ok((text[..bounds[0]].to_string(), tails))
}

/// The small-log fleet: Tsubame-2 and Tsubame-3 at seeds
/// `seed..seed+FLEET_SEEDS`, as `(tsubame2, tsubame3)` path pairs.
pub fn fleet(dir: &Workdir, seed: u64) -> Res<Vec<(String, String)>> {
    let log_file = |tag: &str, model: SystemModel, k: u64| -> Res<String> {
        let log = Simulator::new(model, seed.wrapping_add(k))
            .generate()
            .map_err(|e| e.to_string())?;
        let path = dir.file(&format!("fleet-{tag}-{k}.fslog"));
        write(&path, text_of(&log)?)?;
        Ok(path)
    };
    (0..FLEET_SEEDS)
        .map(|k| {
            Ok((
                log_file("t2", SystemModel::tsubame2(), k)?,
                log_file("t3", SystemModel::tsubame3(), k)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_splitter_reassembles_the_year_and_parses_identically() {
        let log = bench_year(42).expect("simulates");
        let text = text_of(&log).expect("serializes");
        let (base, chunks) = split_tail(&text, log.len(), APPENDS, APPEND_RECORDS).expect("splits");
        assert_eq!(chunks.len(), APPENDS);
        for chunk in &chunks {
            assert_eq!(chunk.lines().count(), APPEND_RECORDS);
            assert!(chunk.ends_with('\n'));
        }
        let whole = format!("{base}{}", chunks.concat());
        assert_eq!(whole, text, "reassembly must be byte-identical");
        let opts = faillog::ParseOptions::default();
        assert_eq!(faillog::from_str_with(&whole, &opts).expect("parses"), log);
        // Every intermediate stage is itself a valid, shorter log.
        let base_log = faillog::from_str_with(&base, &opts).expect("base parses");
        assert_eq!(base_log.len(), log.len() - APPENDS * APPEND_RECORDS);
        assert_eq!(base_log.records(), &log.records()[..base_log.len()]);
    }

    #[test]
    fn splitter_rejects_holding_back_everything() {
        let text = "# header\n1\n2\n";
        assert!(split_tail(text, 2, 1, 2).is_err());
        let (base, tails) = split_tail(text, 2, 1, 1).expect("splits");
        assert_eq!(base, "# header\n1\n");
        assert_eq!(tails, vec!["2\n".to_string()]);
    }
}
