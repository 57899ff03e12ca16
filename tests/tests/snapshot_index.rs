//! Persistence guarantees of the `failindex` snapshot subsystem.
//!
//! The contract, across the whole workspace:
//!
//! 1. **Round trip** — saving a canonical log's index and loading it
//!    back renders byte-identical analysis reports at any thread
//!    count, for both system generations.
//! 2. **Corruption safety** — every way a snapshot or its log can rot
//!    (truncation, flipped header or body bytes, a future format
//!    version, an edited log) degrades *silently* to a cold parse;
//!    strict [`failindex::load`] is the only path that surfaces the
//!    reason.
//! 3. **Incremental extension** — growing a log record by record and
//!    re-opening through the snapshot yields exactly the index a cold
//!    rebuild would produce, at every step (property-tested).

use failscope::{
    render_text_sections, select_sections, FleetIndex, SectionCtx, StreamView,
};
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::FailureLog;
use proptest::prelude::*;

/// Every analysis section — the full report minus `metrics`, whose
/// counters legitimately differ between a parse and a snapshot hit.
const ANALYSIS: &str =
    "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failsuite-snapshot").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn render(index: &(dyn FleetIndex + Sync), threads: usize) -> String {
    let sections = select_sections(ANALYSIS).expect("section spec is valid");
    render_text_sections(&sections, &SectionCtx::new(index), threads)
}

/// The index a cold, from-scratch build of `log` produces.
fn cold_view(log: &FailureLog) -> StreamView {
    StreamView::new(log)
}

#[test]
fn canonical_logs_round_trip_with_byte_identical_reports() {
    let dir = temp_dir("roundtrip");
    for (model, seed, expected) in [
        (SystemModel::tsubame2(), 42u64, 897usize),
        (SystemModel::tsubame3(), 43, 338),
    ] {
        let log = Simulator::new(model, seed).generate().expect("simulates");
        assert_eq!(log.len(), expected);
        let text = faillog::to_string(&log).expect("serializes");
        let path = dir.join(format!("{}.fslog", log.generation()));
        std::fs::write(&path, &text).expect("writes log");

        let written = failindex::save(
            failindex::snapshot_path(&path),
            &StreamView::new(&log),
            failindex::SourceInfo::of_bytes(text.as_bytes()),
        )
        .expect("saves snapshot");
        assert_eq!(
            written,
            std::fs::metadata(failindex::snapshot_path(&path))
                .expect("snapshot exists")
                .len(),
            "reported byte count matches the file"
        );

        let snap = match failindex::open_indexed(&path, None).expect("opens") {
            failindex::IndexedLoad::Exact(snap) => snap,
            other => panic!("expected an exact hit, got {other:?}"),
        };
        assert_eq!(snap.view(), &cold_view(&log), "loaded index == rebuilt index");

        let cold = render(&StreamView::new(&log), 1);
        for threads in 1..=4 {
            assert_eq!(render(snap.view(), threads), cold, "threads={threads}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_corruption_degrades_silently_to_a_cold_parse() {
    let dir = temp_dir("corruption");
    let log = Simulator::new(SystemModel::tsubame3(), 43).generate().expect("simulates");
    let text = faillog::to_string(&log).expect("serializes");
    let path = dir.join("t3.fslog");
    let spath = failindex::snapshot_path(&path);
    std::fs::write(&path, &text).expect("writes log");
    failindex::save(
        &spath,
        &StreamView::new(&log),
        failindex::SourceInfo::of_bytes(text.as_bytes()),
    )
    .expect("saves snapshot");
    let pristine = std::fs::read(&spath).expect("snapshot bytes");

    // Helper: the current snapshot must be ignored — open_indexed
    // returns Cold without error, as if no snapshot existed.
    let assert_cold = |why: &str| {
        match failindex::open_indexed(&path, None).expect("log itself is readable") {
            failindex::IndexedLoad::Cold { source } => {
                assert_eq!(source.bytes, text.len() as u64, "{why}");
            }
            other => panic!("{why}: expected a cold fallback, got {other:?}"),
        }
    };

    // Truncated snapshot (mid-body and mid-header).
    std::fs::write(&spath, &pristine[..pristine.len() / 2]).expect("writes");
    assert_cold("truncated body");
    std::fs::write(&spath, &pristine[..20]).expect("writes");
    assert_cold("truncated header");

    // Flipped header byte: the header checksum catches it.
    let mut bad = pristine.clone();
    bad[10] ^= 0xFF;
    std::fs::write(&spath, &bad).expect("writes");
    assert_cold("flipped header byte");

    // Flipped body byte: the header validates, the body checksum
    // catches it — and the strict loader names the problem.
    let mut bad = pristine.clone();
    bad[60] ^= 0xFF;
    std::fs::write(&spath, &bad).expect("writes");
    assert_cold("flipped body byte");
    let err = failindex::load(&spath).expect_err("strict load surfaces the reason");
    assert!(err.to_string().contains("checksum"), "{err}");

    // A future format version is not ours to read.
    let mut bad = pristine.clone();
    bad[6] = 0xFF;
    std::fs::write(&spath, &bad).expect("writes");
    assert_cold("future format version");
    let err = failindex::load(&spath).expect_err("strict load surfaces the reason");
    assert!(err.to_string().contains("version"), "{err}");

    // Stale hash: the snapshot is fine but the *log* was edited in
    // place (same length), so the fingerprint no longer matches.
    std::fs::write(&spath, &pristine).expect("writes");
    let mut edited = text.clone().into_bytes();
    let comma = text.rfind(',').expect("csv has commas");
    edited[comma - 1] ^= 0x01;
    std::fs::write(&path, &edited).expect("writes");
    assert_cold("edited log, same length");
    assert!(matches!(
        failindex::probe(&path).expect("probe reads"),
        failindex::Freshness::Stale { .. }
    ));

    // A log that *shrank* can never match a snapshot prefix.
    std::fs::write(&path, &text.as_bytes()[..text.len() / 2]).expect("writes");
    match failindex::probe(&path).expect("probe reads") {
        failindex::Freshness::Stale { reason } => {
            assert!(reason.contains("shrank"), "{reason}")
        }
        other => panic!("expected stale, got {other:?}"),
    }

    // And with no snapshot at all, probe says so.
    std::fs::remove_file(&spath).expect("cleanup");
    assert!(matches!(
        failindex::probe(&path).expect("probe reads"),
        failindex::Freshness::Missing
    ));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Grow a log one record at a time; after every append, opening
    // through the snapshot must yield exactly the index a cold
    // rebuild of the current file produces, and the rewritten
    // snapshot must be an exact hit for the next reader.
    #[test]
    fn record_by_record_growth_extends_exactly_like_a_cold_rebuild(
        seed in 0u64..1024,
        nodes in 4u32..24,
    ) {
        let model = ScenarioBuilder::new("prop-snapshot")
            .nodes(nodes)
            .gpus_per_node(4)
            .system_mtbf_hours(40.0)
            .window_days(30)
            .build()
            .expect("scenario parameters are valid");
        let log = Simulator::new(model, seed).generate().expect("simulates");
        let text = faillog::to_string(&log).expect("serializes");
        let lines: Vec<&str> = text.lines().collect();
        // Body rows start after the '#' preamble and the column header.
        let body_start = lines.iter().position(|l| !l.starts_with('#')).expect("has header") + 1;

        let dir = temp_dir(&format!("grow-{seed}-{nodes}"));
        let path = dir.join("grow.fslog");

        let mut contents = lines[..body_start].join("\n");
        contents.push('\n');
        for (step, row) in lines[body_start..].iter().enumerate() {
            contents.push_str(row);
            contents.push('\n');
            std::fs::write(&path, &contents).expect("writes log");

            let expected = cold_view(&faillog::load(&path).expect("cold parse"));
            match failindex::open_indexed(&path, None).expect("opens") {
                // First touch: nothing on disk yet — seed the snapshot
                // the way `--index auto` does after a cold parse.
                failindex::IndexedLoad::Cold { source } if step == 0 => {
                    failindex::save(failindex::snapshot_path(&path), &expected, source)
                        .expect("saves snapshot");
                }
                failindex::IndexedLoad::Extended { snapshot, added } if step > 0 => {
                    prop_assert_eq!(added, 1, "exactly the appended record is parsed");
                    prop_assert_eq!(snapshot.view(), &expected, "step {}", step);
                }
                other => panic!("step {step}: unexpected load {other:?}"),
            }

            // The extension rewrote the snapshot: a second reader hits
            // exactly, with zero parsing.
            match failindex::open_indexed(&path, None).expect("re-opens") {
                failindex::IndexedLoad::Exact(snap) => {
                    prop_assert_eq!(snap.view(), &expected, "re-open at step {}", step);
                }
                other => panic!("step {step}: expected exact hit, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
