//! Streaming/batch equivalence guarantees of the `failwatch` subsystem.
//!
//! The contract: feeding a finished log record by record through
//! `WatchState` must land in exactly the state the batch pipeline
//! computes from the whole log at once —
//!
//! 1. **Index equivalence** — the state's incrementally built
//!    `StreamView` equals the bulk build of the same log on every index,
//!    on canonical logs, on arbitrary seeds, and on every prefix of a
//!    log (property-tested).
//! 2. **Estimate equivalence** — MTBF, mean gap, MTTR, and the TTR
//!    quantiles are bit-identical to `TbfAnalysis`/`TtrAnalysis` at
//!    every stream length, including a ~10k-record year.
//! 3. **Alert correctness** — a full accelerated replay stays quiet on
//!    a clean stream's MTTR and fires on an injected regression.
//! 4. **Golden output** — the canonical regression replay prints
//!    byte-identical text and NDJSON to the checked-in files under
//!    `golden/`.

use failapi::{OutputFormat, WatchRequest};
use failscope::{StreamView, TbfAnalysis, TtrAnalysis};
use failsim::{ReplayClock, ScenarioBuilder, Simulator, SystemModel};
use failtypes::{AlertKind, FailureLog};
use failwatch::{
    Baseline, DriftDetector, SimSource, StateConfig, WatchConfig, WatchState,
};
use proptest::prelude::*;

fn ingest_all(log: &FailureLog) -> WatchState {
    let mut state = WatchState::for_log(log, StateConfig::default());
    for rec in log.iter() {
        state
            .ingest(rec.clone())
            .expect("replaying a valid log never fails");
    }
    state
}

/// The full equivalence contract between a streamed state and the batch
/// pipeline over the same records.
fn assert_stream_matches_batch(log: &FailureLog) {
    let state = ingest_all(log);
    let view = StreamView::new(log);

    // Index structures are identical, not merely equivalent.
    assert_eq!(state.view(), &view);

    // Headline estimates are bit-identical to the batch analyses. The
    // one deliberate divergence: the closed-form streaming MTBF
    // (window / n) is already defined at n = 1, where the batch
    // analysis returns `None` for lack of inter-arrival times.
    let tbf = TbfAnalysis::from_index(&view);
    let ttr = TtrAnalysis::from_index(&view);
    match &tbf {
        Some(t) => {
            assert_eq!(
                state.mtbf_hours().map(f64::to_bits),
                Some(t.mtbf_hours().to_bits())
            );
            assert_eq!(
                state.mean_gap_hours().map(f64::to_bits),
                Some(t.mean_gap_hours().to_bits())
            );
        }
        None => {
            let expected =
                (log.len() == 1).then(|| log.window().duration().get().to_bits());
            assert_eq!(state.mtbf_hours().map(f64::to_bits), expected);
            assert_eq!(state.mean_gap_hours(), None);
        }
    }
    assert_eq!(
        state.mttr_hours().map(f64::to_bits),
        ttr.as_ref().map(|t| t.mttr_hours().to_bits())
    );
    for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        assert_eq!(
            state.ttr_quantile(p).map(f64::to_bits),
            ttr.as_ref().map(|t| t.quantile(p).to_bits()),
            "ttr quantile p={p}"
        );
    }
}

const GOLDEN_WATCH_TEXT: &str = include_str!("golden/watch_tsubame2_seed42_mttr5.txt");
const GOLDEN_WATCH_JSON: &str = include_str!("golden/watch_tsubame2_seed42_mttr5.ndjson");

/// `failctl watch sim:tsubame2 --accel max --inject-mttr 5` (seed 42):
/// the canonical regression replay, rendered in `format`.
fn canonical_watch(format: OutputFormat) -> String {
    let mut req = WatchRequest::new("sim:tsubame2");
    req.accel = Some("max".to_string());
    req.inject_mttr = Some("5".to_string());
    req.format = format;
    let mut out = Vec::new();
    failapi::watch::run(&req, &mut out).expect("canonical watch runs");
    String::from_utf8(out).expect("watch output is UTF-8")
}

#[test]
fn watch_output_matches_golden_snapshots() {
    assert_eq!(
        canonical_watch(OutputFormat::Text),
        GOLDEN_WATCH_TEXT,
        "text watch output drifted from golden"
    );
    assert_eq!(
        canonical_watch(OutputFormat::Json),
        GOLDEN_WATCH_JSON,
        "JSON watch output drifted from golden"
    );
}

/// A prefix log: the first `k` records under the same window.
fn prefix(log: &FailureLog, k: usize) -> FailureLog {
    let recs: Vec<_> = log.iter().take(k).cloned().collect();
    FailureLog::new(log.generation(), log.window(), recs)
        .expect("a prefix of a valid log is valid")
}

#[test]
fn stream_matches_batch_on_canonical_logs() {
    for model in [SystemModel::tsubame2(), SystemModel::tsubame3()] {
        let log = Simulator::new(model, 42).generate().unwrap();
        assert_stream_matches_batch(&log);
    }
}

#[test]
fn stream_matches_batch_on_degenerate_logs() {
    let log = Simulator::new(SystemModel::tsubame3(), 42).generate().unwrap();
    // Empty stream.
    assert_stream_matches_batch(&log.filtered(|_| false));
    // Single record.
    assert_stream_matches_batch(&prefix(&log, 1));
    // Single-category slice.
    assert_stream_matches_batch(&log.filtered(|r| r.category().is_gpu()));
}

#[test]
fn stream_matches_batch_on_a_ten_thousand_record_year() {
    let model = ScenarioBuilder::new("stream-10k")
        .nodes(1408)
        .gpus_per_node(4)
        .system_mtbf_hours(0.876)
        .window_days(365)
        .build()
        .unwrap();
    let log = Simulator::new(model, 42).generate().unwrap();
    assert!(log.len() > 8192, "{} records", log.len());
    assert_stream_matches_batch(&log);
    // Chunked ingest lands in the same state as the per-record feed.
    let mut chunked = WatchState::for_log(&log, StateConfig::default());
    for chunk in log.records().chunks(256) {
        chunked.ingest_batch(chunk.to_vec()).unwrap();
    }
    assert_eq!(chunked, ingest_all(&log));
}

#[test]
fn clean_accelerated_replay_stays_quiet_on_mttr() {
    let mut source =
        SimSource::new(SystemModel::tsubame3(), 3, ReplayClock::unpaced()).unwrap();
    let baseline = Baseline::from_model(SystemModel::tsubame3(), 1).unwrap();
    let detector = DriftDetector::new(baseline);
    let mut sink = Vec::new();
    let outcome =
        failwatch::run(&mut source, Some(detector), &WatchConfig::default(), &mut sink).unwrap();
    assert!(outcome.records > 0);
    assert!(
        !outcome
            .alerts
            .iter()
            .any(|a| a.kind == AlertKind::MttrRegression),
        "clean replay raised an MTTR regression"
    );
}

#[test]
fn injected_regression_alerts_and_state_still_counts_every_record() {
    let model = SystemModel::tsubame2();
    let clean_len = Simulator::new(model.clone(), 42).generate().unwrap().len();
    let mut source = SimSource::new(model.clone(), 42, ReplayClock::unpaced())
        .unwrap()
        .with_mttr_injection(5.0, 0.5);
    let baseline = Baseline::from_model(model, 1).unwrap();
    let detector = DriftDetector::new(baseline);
    let mut sink = Vec::new();
    let outcome =
        failwatch::run(&mut source, Some(detector), &WatchConfig::default(), &mut sink).unwrap();
    // Injection rescales repair times; it never adds or drops events.
    assert_eq!(outcome.records, clean_len);
    assert_eq!(outcome.state.len(), clean_len);
    let regressions: Vec<_> = outcome
        .alerts
        .iter()
        .filter(|a| a.kind == AlertKind::MttrRegression)
        .collect();
    assert!(!regressions.is_empty(), "injected regression went undetected");
    for alert in &regressions {
        assert!(alert.metric > alert.threshold);
    }
    // The NDJSON stream carries the same alert.
    let text = String::from_utf8(sink).unwrap();
    assert!(text.contains("\"kind\":\"mttr_regression\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn stream_equivalence_holds_for_arbitrary_seeds(seed in 0u64..10_000) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        assert_stream_matches_batch(&log);
    }

    #[test]
    fn stream_equivalence_holds_on_every_prefix(
        seed in 0u64..10_000,
        frac in 0.0..1.0f64,
    ) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        let k = (log.len() as f64 * frac) as usize;
        assert_stream_matches_batch(&prefix(&log, k));
    }

    // Batched ingest is bit-identical to per-record ingest on every
    // prefix that falls on a chunk boundary: the complete state
    // (incremental index with its deferred sorted runs, and the
    // per-category EWMAs) compares equal, and drift detectors
    // evaluated at the same boundaries emit the same alerts.
    #[test]
    fn batched_ingest_matches_per_record_at_every_chunk_boundary(
        seed in 0u64..10_000,
        chunk_sizes in proptest::collection::vec(1usize..48, 1..24),
    ) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        let baseline = Baseline::from_model(SystemModel::tsubame3(), 1).unwrap();
        let mut det_batched = DriftDetector::new(baseline.clone());
        let mut det_single = DriftDetector::new(baseline);
        let mut batched = WatchState::for_log(&log, StateConfig::default());
        let mut per_record = WatchState::for_log(&log, StateConfig::default());

        let mut pos = 0;
        let mut turn = 0;
        while pos < log.len() {
            let size = chunk_sizes[turn % chunk_sizes.len()].min(log.len() - pos);
            turn += 1;
            let chunk = &log.records()[pos..pos + size];
            let accepted = batched.ingest_batch(chunk.to_vec()).unwrap();
            prop_assert_eq!(accepted, size);
            for rec in chunk {
                per_record.ingest(rec.clone()).unwrap();
            }
            pos += size;
            prop_assert_eq!(&batched, &per_record, "diverged after {} records", pos);
            let alerts_batched = det_batched.evaluate(&batched);
            let alerts_single = det_single.evaluate(&per_record);
            prop_assert_eq!(alerts_batched, alerts_single, "alerts diverged after {} records", pos);
        }
        prop_assert_eq!(batched.len(), log.len());
    }
}
