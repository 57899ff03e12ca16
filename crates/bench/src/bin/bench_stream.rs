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
//! The same scenario, replayed for seeds 1, 2 and 3, gives the
//! **detection delay**: the records from the injected onset to the first
//! MTTR-regression alert. Drift checks run at refresh ticks, so the
//! delay is a function of the records and the refresh cadence alone.
//!
//! A scaling sweep (1k/10k/100k/1M synthetic records over one year)
//! records the per-size rec/s curve, which amortized-O(1) ingest keeps
//! near flat, and the per-size cost of one watch summary refresh; the
//! `scaled_*` fields gate the ~100k tier that `scripts/verify.sh`
//! enforces throughput floors on.
//!
//! A summary refresh is what `failctl watch` does every 100 records:
//! ingest them, settle the TTR run, and render all four summary
//! sections on the calling thread. Each tier ingests all but its last
//! 2,000 records untimed, then times the 20 refreshes that consume them
//! (a tier shorter than that times the refreshes of its whole stream)
//! and reports microseconds per refresh. Those 20 start right after a
//! full settle, with the tail empty, so the scaled year also reports
//! `scaled_replay_tick_us`: the mean refresh over every tick of the
//! whole stream, from the first record, which counts each tick's settle
//! into the tail and every tail merge into the run.
//!
//! Equivalence is checked the same way the test suite does, on every
//! log and tier: the incrementally built index must equal the
//! bulk-built one, and MTBF / mean gap / MTTR / TTR p50 and p90 must
//! match the batch analyses bit for bit. Exits non-zero when any
//! equivalence or alert check fails.

use std::time::Instant;

use failscope::{StreamView, TbfAnalysis, TtrAnalysis};
use failsim::{ReplayClock, ScenarioBuilder, Simulator, SystemModel};
use failtypes::{AlertKind, FailureLog, FailureRecord};
use failwatch::{
    Baseline, DriftDetector, SimSource, StateConfig, WatchConfig, WatchOutcome, WatchState,
};

/// Timing repetitions; the reported seconds are for the fastest pass.
const REPS: usize = 10;

/// Summary refreshes timed at the end of each scaled stream.
const SUMMARY_CYCLES: usize = 20;

/// Replay seeds whose detection delay is reported.
const DELAY_SEEDS: [u64; 3] = [1, 2, 3];

/// The injected scenario slows repairs from this fraction of the
/// replay onward.
const INJECT_FROM: f64 = 0.5;

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
    let scaled_summary_us = time_summaries(SCALED_REPS, &scaled_log);
    let scaled_summary_rate = 1e6 / scaled_summary_us.max(f64::MIN_POSITIVE);
    let scaled_tick_us = time_replay_ticks(SCALED_REPS, &scaled_log);
    println!(
        "scaled: {} records | batch index {:.1} ms | stream ingest {:.1} ms | {:.0} rec/s | summary {:.1} us ({:.0}/s) | replay tick {:.1} us | equivalent: {scaled_equivalent}",
        scaled_records,
        scaled_batch_seconds * 1e3,
        scaled_stream_seconds * 1e3,
        scaled_rate,
        scaled_summary_us,
        scaled_summary_rate,
        scaled_tick_us,
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
        let summary_us = time_summaries(reps, &tier_log);
        all_tiers_equivalent &= tier_equivalent;
        println!(
            "tier: {} records | stream ingest {:.1} ms | {:.0} rec/s | summary {summary_us:.1} us | equivalent: {tier_equivalent}",
            tier_log.len(),
            seconds * 1e3,
            rate,
        );
        scaling_rows.push(format!(
            "{{\"records\": {}, \"stream_seconds\": {seconds:.6}, \
             \"records_per_second\": {rate:.0}, \"summary_us\": {summary_us:.1}, \
             \"equivalent\": {tier_equivalent}}}",
            tier_log.len(),
        ));
    }

    // Full watch replay with the injected regression scenario, run
    // under a trace collector so the loop's own counters (records
    // ingested, alerts raised) land in the JSON.
    let collector = failtrace::Collector::new();
    let start = Instant::now();
    let config = WatchConfig::builder()
        .trace(collector.clone())
        .build()
        .expect("default watch config is valid");
    let outcome = injected_replay(42, &config);
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

    let delays: Vec<usize> = DELAY_SEEDS
        .iter()
        .filter_map(|&s| detection_delay(s))
        .collect();
    let delay_list = delays
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    println!("detection delay (records from onset, seeds {DELAY_SEEDS:?}): [{delay_list}]");

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
         \"scaled_summary_us\": {scaled_summary_us:.1},\n  \
         \"scaled_summaries_per_second\": {scaled_summary_rate:.0},\n  \
         \"scaled_replay_tick_us\": {scaled_tick_us:.1},\n  \
         \"scaled_equivalent\": {scaled_equivalent},\n  \
         \"scaling\": [\n    {scaling}\n  ],\n  \
         \"watch_replay_seconds\": {watch_seconds:.6},\n  \
         \"injected_regression_alerts\": {regression_alerts},\n  \
         \"detection_delay_records\": [{delay_list}],\n  \
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
    if delays.len() < DELAY_SEEDS.len() {
        eprintln!("an injected MTTR regression went undetected (seeds {DELAY_SEEDS:?})");
        std::process::exit(1);
    }
}

/// Replays Tsubame 2.5 simulated with `seed`, repairs 5x slower from
/// [`INJECT_FROM`] of the replay onward, through the watch loop against
/// the calibrated baseline.
fn injected_replay(seed: u64, config: &WatchConfig) -> WatchOutcome {
    let mut source = SimSource::new(SystemModel::tsubame2(), seed, ReplayClock::unpaced())
        .expect("simulates")
        .with_mttr_injection(5.0, INJECT_FROM);
    let baseline = Baseline::from_model(SystemModel::tsubame2(), 1).expect("simulates");
    failwatch::run(
        &mut source,
        Some(DriftDetector::new(baseline)),
        config,
        &mut std::io::sink(),
    )
    .expect("watch replay runs")
}

/// Records from the injected onset to the first MTTR-regression alert
/// of [`injected_replay`] (`None` when none fires).
fn detection_delay(seed: u64) -> Option<usize> {
    let outcome = injected_replay(seed, &WatchConfig::default());
    let alert = outcome
        .alerts
        .iter()
        .find(|a| a.kind == AlertKind::MttrRegression)?;
    // The injection starts at this record (see
    // `SimSource::with_mttr_injection`). An alert's time is that of the
    // newest record ingested when it fired; replay times are distinct.
    let times = outcome.state.view().times();
    let onset = (times.len() as f64 * INJECT_FROM) as usize;
    let fired_at = times.partition_point(|&t| t <= alert.time_h);
    Some(fired_at.saturating_sub(onset))
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

/// Microseconds per watch summary refresh at the end of `log`'s stream
/// (see the module docs), fastest of `reps` passes. Each pass ingests the
/// untimed prefix afresh, so the state's buffers grow as a live stream's
/// do.
fn time_summaries(reps: usize, log: &FailureLog) -> f64 {
    let records = log.records();
    let refresh = WatchConfig::default().refresh_every;
    let cut = records.len().saturating_sub(SUMMARY_CYCLES * refresh);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut state = WatchState::for_log(log, StateConfig::default());
        state
            .ingest_batch(records[..cut].to_vec())
            .expect("valid in-order records");
        state.materialize();
        let chunks: Vec<Vec<FailureRecord>> =
            records[cut..].chunks(refresh).map(<[_]>::to_vec).collect();
        let cycles = chunks.len().max(1);
        let start = Instant::now();
        for chunk in chunks {
            state.ingest_batch(chunk).expect("valid in-order records");
            state.materialize();
            std::hint::black_box(failwatch::render_summary(&state, 1));
        }
        best = best.min(start.elapsed().as_secs_f64() / cycles as f64);
    }
    best * 1e6
}

/// Microseconds per watch tick over the whole of `log`'s stream: every
/// refresh period's ingest, settle and render, from the first record to
/// the last, as `failctl watch` runs them (see the module docs); the
/// fastest of `reps` passes. The record copies are made untimed.
fn time_replay_ticks(reps: usize, log: &FailureLog) -> f64 {
    let refresh = WatchConfig::default().refresh_every;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let chunks: Vec<Vec<FailureRecord>> =
            log.records().chunks(refresh).map(<[_]>::to_vec).collect();
        let ticks = chunks.len().max(1);
        let start = Instant::now();
        let mut state = WatchState::for_log(log, StateConfig::default());
        for chunk in chunks {
            state.ingest_batch(chunk).expect("valid in-order records");
            state.materialize();
            std::hint::black_box(failwatch::render_summary(&state, 1));
        }
        best = best.min(start.elapsed().as_secs_f64() / ticks as f64);
    }
    best * 1e6
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
