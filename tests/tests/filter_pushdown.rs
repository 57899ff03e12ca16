//! Cross-crate guarantees for predicate pushdown (`--where`).
//!
//! The contract, across the whole workspace:
//!
//! 1. **Parser pushdown is transparent** — a filtered parallel parse is
//!    identical to a filtered serial parse at any thread count and
//!    chunk size, and both equal the post-hoc filter of an unfiltered
//!    parse (property-tested over corpora and a predicate pool).
//! 2. **Streaming equals batch under a filter** — a [`StreamView`]
//!    filtered after incremental ingest matches the bulk-built view
//!    of the post-hoc-filtered log, on every sampled prefix.
//! 3. **Snapshots compose with filters** — a `.fsidx` snapshot always
//!    stores unfiltered state; applying a predicate to the decoded
//!    view renders byte-identical reports to a filtered cold parse,
//!    for both canonical seed logs at 1–4 threads.

use failfilter::CompiledPredicate;
use failscope::{render_text_sections, select_sections, SectionCtx, StreamView};
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use faillog::ParseOptions;
use failtypes::FailureLog;
use proptest::prelude::*;

/// Expressions spanning every field family and operator the language
/// offers; all are valid over both generations' vocabularies.
const PREDICATES: &[&str] = &[
    "ttr > 12",
    "category == gpu",
    "category != software && recovery <= 24",
    "gpus >= 2 || slot in (0, 1)",
    "time < 500",
    "month in (1, 2, 3, 4, 5, 6)",
    "node ~ \"rack1\"",
    "!(category ~ \"net\") && ttr >= 1",
];

/// Every analysis section — the full report minus `metrics`, whose
/// counters legitimately differ between a parse and a snapshot hit.
const ANALYSIS: &str =
    "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failsuite-filter").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn render(index: &StreamView, threads: usize) -> String {
    let sections = select_sections(ANALYSIS).expect("section spec is valid");
    render_text_sections(&sections, &SectionCtx::new(index), threads)
}

fn scenario_log(seed: u64) -> FailureLog {
    let model = ScenarioBuilder::new("filter-pushdown")
        .nodes(24)
        .gpus_per_node(4)
        .system_mtbf_hours(30.0)
        .window_days(120)
        .build()
        .expect("scenario parameters are valid");
    Simulator::new(model, seed).generate().expect("simulates")
}

/// The post-hoc oracle: filter a fully-parsed log's records.
fn post_hoc(log: &FailureLog, pred: &CompiledPredicate) -> FailureLog {
    let (spec, window) = (log.spec().clone(), log.window());
    log.filtered(|r| pred.matches(r, &spec, window))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Pushing the predicate into the chunked parser changes nothing
    // but the record set: filtered parallel == filtered serial ==
    // post-hoc filter, at arbitrary thread counts and chunk sizes.
    #[test]
    fn filtered_parallel_parse_matches_filtered_serial_and_post_hoc(
        threads in 1usize..=4,
        chunk_bytes in (0usize..4, 1usize..8192).prop_map(|(pick, random)| match pick {
            0 => 1,
            1 => random,
            2 => faillog::DEFAULT_CHUNK_BYTES,
            _ => usize::MAX,
        }),
        seed in 0u64..16,
        pred_idx in 0usize..PREDICATES.len(),
    ) {
        let log = scenario_log(seed);
        let text = faillog::to_string(&log).expect("serializes");
        let pred = failfilter::compile(PREDICATES[pred_idx]).expect("predicate compiles");

        let serial = faillog::from_str_with(&text, &ParseOptions::serial().filter(pred.clone()))
            .expect("filtered serial parse succeeds");
        let opts = ParseOptions::new()
            .threads(threads)
            .chunk_bytes(chunk_bytes)
            .filter(pred.clone());
        let parallel = faillog::from_str_with(&text, &opts)
            .expect("filtered parallel parse succeeds");
        prop_assert_eq!(&parallel, &serial);

        let unfiltered = faillog::from_str_with(&text, &ParseOptions::serial())
            .expect("unfiltered parse succeeds");
        prop_assert_eq!(&serial, &post_hoc(&unfiltered, &pred));
    }

    // Incremental (streaming) ingest followed by a filtered rebuild
    // matches the bulk-built view of the post-hoc-filtered log on every
    // sampled prefix, and renders identically at the end.
    #[test]
    fn filtered_stream_view_matches_filtered_batch_on_prefixes(
        seed in 0u64..8,
        pred_idx in 0usize..PREDICATES.len(),
    ) {
        let log = scenario_log(seed);
        let pred = failfilter::compile(PREDICATES[pred_idx]).expect("predicate compiles");
        let (spec, window) = (log.spec().clone(), log.window());

        let mut view = StreamView::empty_like(&log);
        let total = log.records().len();
        for (i, rec) in log.records().iter().enumerate() {
            view.push(rec.clone()).expect("valid record");
            if i % 29 == 7 || i + 1 == total {
                let filtered = view.filtered(|r| pred.matches(r, &spec, window));
                let prefix = FailureLog::with_spec(
                    log.generation(),
                    spec.clone(),
                    window,
                    log.records()[..=i].to_vec(),
                )
                .expect("prefix of a valid log is valid");
                prop_assert_eq!(filtered.to_log(), post_hoc(&prefix, &pred));
            }
        }
        let filtered = view.filtered(|r| pred.matches(r, &spec, window));
        let oracle = post_hoc(&log, &pred);
        prop_assert_eq!(render(&filtered, 2), render(&StreamView::from(oracle), 2));
    }
}

#[test]
fn warm_filtered_reports_match_cold_filtered_byte_for_byte() {
    let dir = temp_dir("warm-vs-cold");
    for (model, seed, expected) in [
        (SystemModel::tsubame2(), 42u64, 897usize),
        (SystemModel::tsubame3(), 43, 338),
    ] {
        let log = Simulator::new(model, seed).generate().expect("simulates");
        assert_eq!(log.len(), expected);
        let text = faillog::to_string(&log).expect("serializes");
        let path = dir.join(format!("{}.fslog", log.generation()));
        std::fs::write(&path, &text).expect("writes log");
        let source = failindex::SourceInfo::of_bytes(text.as_bytes());
        failindex::save(failindex::snapshot_path(&path), &StreamView::new(&log), source)
            .expect("saves snapshot");

        for expr in ["category == gpu && ttr > 24", "month in (6, 7, 8)", "node ~ \"rack1\""] {
            let pred = failfilter::compile(expr).expect("predicate compiles");
            // The snapshot holds unfiltered state: the predicate
            // composes by filtering the decoded view, with no parsing.
            let snap = match failindex::open_indexed(&path, None).expect("opens") {
                failindex::IndexedLoad::Exact(snap) => snap,
                other => panic!("fresh snapshot must be an exact hit, got {other:?}"),
            };
            let view = snap.into_view();
            let (spec, window) = (view.spec().clone(), view.window());
            let warm = view.filtered(|r| pred.matches(r, &spec, window));

            for threads in 1usize..=4 {
                let opts = ParseOptions::new().threads(threads).filter(pred.clone());
                let cold =
                    faillog::load_with(&path, &opts).expect("filtered cold parse succeeds");
                assert_eq!(
                    render(&warm, threads),
                    render(&StreamView::from(cold), threads),
                    "warm vs cold diverged for `{expr}` at {threads} threads on {}",
                    log.generation()
                );
            }
        }
    }
}
