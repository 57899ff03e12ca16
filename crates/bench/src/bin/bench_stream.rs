//! Benchmarks the streaming subsystem against the batch pipeline and
//! verifies their equivalence, writing `BENCH_stream.json`.
//!
//! Usage:
//!
//! ```sh
//! cargo run -p failbench --bin bench_stream --release           # default path
//! cargo run -p failbench --bin bench_stream -- --json PATH
//! ```
//!
//! Three measurements per calibrated model (Tsubame 2.5 and 3.0):
//!
//! 1. **batch** — bulk-building the full `StreamView` index from a
//!    finished log (records cloned in), the cost the batch report
//!    pipeline pays;
//! 2. **stream** — feeding the same records through
//!    `failwatch::WatchState::ingest_batch` (index + EWMAs), records
//!    *moved* in as a live source delivers them, with the deferred sorted-run merges materialized inside the
//!    timed region;
//! 3. **watch** — a full `failwatch::run` replay with drift detection
//!    and the injected MTTR-regression scenario, checking that the
//!    canonical alert fires.
//!
//! A scaling sweep (1k/10k/100k/1M synthetic records over one year)
//! records the per-size rec/s curve, which amortized-O(1) ingest keeps
//! near flat; the `scaled_*` fields gate the ~100k tier that
//! `scripts/verify.sh` enforces a throughput floor on.
//!
//! Equivalence is checked the same way the test suite does, on every
//! log and tier: the incrementally built index must equal the
//! bulk-built one, and MTBF / mean gap / MTTR / TTR p50 and p90 must
//! match the batch analyses bit for bit. Exits non-zero when any
//! equivalence or alert check fails.

use std::time::Instant;

use failscope::{StreamView, TbfAnalysis, TtrAnalysis};
use failsim::{ReplayClock, ScenarioBuilder, Simulator, SystemModel};
use failtypes::{AlertKind, FailureLog};
use failwatch::{
    Baseline, DriftConfig, DriftDetector, SimSource, StateConfig, WatchConfig, WatchState,
};

/// Timing repetitions; the reported seconds are for the fastest pass.
const REPS: usize = 10;

fn main() {
    let mut json_path = String::from("BENCH_stream.json");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = path,
                None => {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; usage: bench_stream [--json PATH]");
                std::process::exit(2);
            }
        }
    }

    let mut total_records = 0usize;
    let mut batch_seconds = 0.0f64;
    let mut stream_seconds = 0.0f64;
    let mut all_equivalent = true;

    for model in [SystemModel::tsubame2(), SystemModel::tsubame3()] {
        let log = Simulator::new(model.clone(), 42)
            .generate()
            .expect("calibrated model simulates");
        total_records += log.len();

        let batch = best_of(REPS, || {
            let view = StreamView::new(&log);
            assert!(view.len() == log.len());
        });
        let stream = time_stream_ingest(REPS, &log);
        batch_seconds += batch;
        stream_seconds += stream;

        let equivalent = check_equivalence(&log, &ingest_all(&log));
        all_equivalent &= equivalent;
        println!(
            "{}: {} records | batch index {:.1} us | stream ingest {:.1} us | equivalent: {equivalent}",
            log.spec().name(),
            log.len(),
            batch * 1e6,
            stream * 1e6,
        );
    }

    // Scaled throughput: a synthetic ~100k-record year so the
    // records-per-second figure is not dominated by the 1,235-record
    // canonical logs.
    const SCALED_REPS: usize = 5;
    let scaled_log = scale_log(0.08);
    let scaled_records = scaled_log.len();
    assert!(
        scaled_records >= 100_000,
        "scaled log too small: {scaled_records} records"
    );
    // The equivalence ingest doubles as an untimed warm-up pass, so
    // first-touch page faults on the process's first large allocations
    // never land inside the timed region.
    let scaled_state = ingest_all(&scaled_log);
    let scaled_equivalent = check_equivalence(&scaled_log, &scaled_state);
    drop(scaled_state);
    let scaled_batch_seconds = best_of(SCALED_REPS, || {
        let view = StreamView::new(&scaled_log);
        assert!(view.len() == scaled_log.len());
    });
    let scaled_stream_seconds = time_stream_ingest(SCALED_REPS, &scaled_log);
    let scaled_rate = scaled_records as f64 / scaled_stream_seconds.max(f64::MIN_POSITIVE);
    println!(
        "scaled: {} records | batch index {:.1} ms | stream ingest {:.1} ms | {:.0} rec/s | equivalent: {scaled_equivalent}",
        scaled_records,
        scaled_batch_seconds * 1e3,
        scaled_stream_seconds * 1e3,
        scaled_rate,
    );

    // Per-size scaling curve: four synthetic years at ~1k/10k/100k/1M
    // records. Amortized-O(1) ingest keeps rec/s near flat across three
    // orders of magnitude (the old O(n) sorted-insert path collapsed
    // ~13x between the first and last tier).
    let mut scaling_rows = Vec::new();
    let mut all_tiers_equivalent = true;
    for mtbf_hours in [8.76, 0.876, 0.0876, 0.00876] {
        let tier_log = scale_log(mtbf_hours);
        let reps = if tier_log.len() >= 500_000 { 3 } else { SCALED_REPS };
        let tier_state = ingest_all(&tier_log);
        let tier_equivalent = check_equivalence(&tier_log, &tier_state);
        drop(tier_state);
        let seconds = time_stream_ingest(reps, &tier_log);
        let rate = tier_log.len() as f64 / seconds.max(f64::MIN_POSITIVE);
        all_tiers_equivalent &= tier_equivalent;
        println!(
            "tier: {} records | stream ingest {:.1} ms | {:.0} rec/s | equivalent: {tier_equivalent}",
            tier_log.len(),
            seconds * 1e3,
            rate,
        );
        scaling_rows.push(format!(
            "{{\"records\": {}, \"stream_seconds\": {seconds:.6}, \
             \"records_per_second\": {rate:.0}, \"equivalent\": {tier_equivalent}}}",
            tier_log.len(),
        ));
    }

    // Full watch replay with the injected regression scenario, run
    // under a trace collector so the loop's own counters (records
    // ingested, alerts raised) land in the JSON.
    let collector = failtrace::Collector::new();
    let start = Instant::now();
    let mut source = SimSource::new(SystemModel::tsubame2(), 42, ReplayClock::unpaced())
        .expect("simulates")
        .with_mttr_injection(5.0, 0.5);
    let baseline = Baseline::from_model(SystemModel::tsubame2(), 1).expect("simulates");
    let detector = DriftDetector::new(baseline, DriftConfig::default());
    let config = WatchConfig::builder()
        .trace(collector.clone())
        .build()
        .expect("default watch config is valid");
    let mut sink = Vec::new();
    let outcome = failwatch::run(&mut source, Some(detector), &config, &mut sink)
        .expect("watch replay runs");
    let watch_seconds = start.elapsed().as_secs_f64();
    let regression_alerts = outcome
        .alerts
        .iter()
        .filter(|a| a.kind == AlertKind::MttrRegression)
        .count();
    println!(
        "watch replay: {} records, {} alert(s), {} MTTR-regression, {:.3} s",
        outcome.records,
        outcome.alerts.len(),
        regression_alerts,
        watch_seconds
    );

    let records_per_second = total_records as f64 / stream_seconds.max(f64::MIN_POSITIVE);
    let trace = collector.to_json(true).render();
    let json = format!(
        "{{\n  \"records\": {total_records},\n  \"batch_seconds\": {batch_seconds:.6},\n  \
         \"stream_seconds\": {stream_seconds:.6},\n  \
         \"stream_records_per_second\": {records_per_second:.0},\n  \
         \"equivalent\": {all_equivalent},\n  \
         \"scaled_records\": {scaled_records},\n  \
         \"scaled_batch_seconds\": {scaled_batch_seconds:.6},\n  \
         \"scaled_stream_seconds\": {scaled_stream_seconds:.6},\n  \
         \"scaled_stream_records_per_second\": {scaled_rate:.0},\n  \
         \"scaled_equivalent\": {scaled_equivalent},\n  \
         \"scaling\": [\n    {scaling}\n  ],\n  \
         \"watch_replay_seconds\": {watch_seconds:.6},\n  \
         \"injected_regression_alerts\": {regression_alerts},\n  \
         \"trace\": {trace}\n}}\n",
        scaling = scaling_rows.join(",\n    "),
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(err) => {
            eprintln!("failed to write {json_path}: {err}");
            std::process::exit(1);
        }
    }
    if !all_equivalent {
        eprintln!("streaming state diverged from the batch pipeline");
        std::process::exit(1);
    }
    if !scaled_equivalent || !all_tiers_equivalent {
        eprintln!("scaled streaming state diverged from the batch pipeline");
        std::process::exit(1);
    }
    if regression_alerts == 0 {
        eprintln!("injected MTTR regression did not alert");
        std::process::exit(1);
    }
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// A one-year synthetic fleet whose record count is ~`8760 / mtbf_hours`
/// (the scaling-tier generator).
fn scale_log(mtbf_hours: f64) -> FailureLog {
    let model = ScenarioBuilder::new("bench-scale")
        .nodes(1408)
        .gpus_per_node(4)
        .system_mtbf_hours(mtbf_hours)
        .window_days(365)
        .build()
        .expect("scaled scenario parameters are valid");
    Simulator::new(model, 42)
        .generate()
        .expect("scaled scenario simulates")
}

/// Times batched stream ingest with records *moved* into the state, the
/// way a live source hands them over — the record copies are prepared
/// outside the timed region, and the deferred sorted-run merges are
/// materialized inside it so every cost of the stream path is counted.
fn time_stream_ingest(reps: usize, log: &FailureLog) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let records = log.records().to_vec();
        let start = Instant::now();
        let mut state = WatchState::for_log(log, StateConfig::default());
        state.ingest_batch(records).expect("valid in-order records");
        state.materialize();
        assert!(state.len() == log.len());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn ingest_all(log: &FailureLog) -> WatchState {
    let mut state = WatchState::for_log(log, StateConfig::default());
    state
        .ingest_batch(log.records().to_vec())
        .expect("valid in-order records");
    state
}

/// Streamed state vs the batch pipeline: the incremental index equals
/// the bulk-built one, and the headline estimates are bit-identical.
fn check_equivalence(log: &FailureLog, state: &WatchState) -> bool {
    let view = StreamView::new(log);
    let tbf = TbfAnalysis::from_index(&view).expect("non-empty log");
    let ttr = TtrAnalysis::from_index(&view).expect("non-empty log");
    let bits = |x: f64| Some(x.to_bits());
    *state.view() == view
        && state.mtbf_hours().map(f64::to_bits) == bits(tbf.mtbf_hours())
        && state.mean_gap_hours().map(f64::to_bits) == bits(tbf.mean_gap_hours())
        && state.mttr_hours().map(f64::to_bits) == bits(ttr.mttr_hours())
        && [0.5, 0.9]
            .iter()
            .all(|&p| state.ttr_quantile(p).map(f64::to_bits) == bits(ttr.quantile(p)))
}
