//! The CLI workloads: one `failctl` process at a time in a closed loop,
//! each timed from spawn to exit and its stdout checked against the
//! in-process reference.

use std::time::{Duration, Instant};

use failapi::{OutputFormat, QueryRequest, QuerySource};
use failindex::IndexMode;

use crate::inputs::{self, Workdir};
use crate::process::Failctl;
use crate::reference;
use crate::stats::{self, Samples};
use crate::{Metric, Outcome, Res, Tally};

/// The filter of the `report-warm-where` op (and of the filtered
/// requests in the serve workloads).
pub const WHERE: &str = "category == gpu && ttr > 24";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Closed-loop ops below which a run keeps going past its duration.
const MIN_OPS: usize = 5;

/// The op each CLI workload repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliOp {
    ReportCold,
    ReportColdGz,
    ReportWarm,
    ReportWarmWhere,
    WatchReplay,
}

impl CliOp {
    /// The input the op reads: the plain or the gzip `year-a`.
    fn input(self, year: &inputs::YearA) -> String {
        match self {
            CliOp::ReportColdGz | CliOp::WatchReplay => year.gz.clone(),
            _ => year.plain.clone(),
        }
    }

    fn args(self, input: &str) -> Vec<String> {
        let mut args: Vec<&str> = match self {
            CliOp::WatchReplay => vec!["watch", input],
            _ => vec!["report", input],
        };
        args.extend_from_slice(match self {
            CliOp::ReportCold | CliOp::ReportColdGz => &["--index", "off"][..],
            CliOp::ReportWarm => &["--index", "require"],
            CliOp::ReportWarmWhere => &[
                "--index",
                "require",
                "--where",
                WHERE,
                "--sections",
                "tbf,ttr",
                "--format",
                "json",
            ],
            CliOp::WatchReplay => &[],
        });
        args.into_iter().map(String::from).collect()
    }

    /// The in-process equivalent of [`CliOp::args`].
    fn reference(self, input: &str) -> Res<String> {
        let report = QueryRequest::report(QuerySource::file(input));
        let req = match self {
            CliOp::ReportCold | CliOp::ReportColdGz => report.index(IndexMode::Off),
            CliOp::ReportWarm => report.index(IndexMode::Require),
            CliOp::ReportWarmWhere => report
                .index(IndexMode::Require)
                .where_expr(WHERE)
                .sections("tbf,ttr")
                .format(OutputFormat::Json),
            CliOp::WatchReplay => return reference::watch(input),
        };
        reference::query(&req)
    }
}

/// Runs one CLI workload: set-up (`failctl index build` on the op's
/// input, [`SETUP_REPS`] times), one untimed warm-up op, then the closed
/// loop for `seconds`.
pub fn run(op: CliOp, dir: &Workdir, seed: u64, seconds: f64) -> Res<Outcome> {
    let failctl = Failctl::locate()?;
    let mut tally = Tally::default();
    // Only the file names outlive input generation, so the measured
    // loop runs beside a small benchmark process.
    let (input, built) = {
        let year = inputs::year_a(dir, seed)?;
        let input = op.input(&year);
        let built = format!(
            "indexed {} records -> {} ({} bytes)\n",
            year.log.len(),
            failindex::snapshot_path(&input).display(),
            year.snapshot_bytes
        );
        (input, built)
    };

    let build = vec!["index".to_string(), "build".to_string(), input.clone()];
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let run = failctl.run(&build).and_then(|(ms, out)| {
            reference::check_stdout(&out, &built)?;
            Ok(ms)
        });
        if let Some(ms) = tally.record(run) {
            setup.push(ms / 1e3);
        }
    }

    let args = op.args(&input);
    let expected = op.reference(&input)?;
    let once = |tally: &mut Tally| {
        tally.record(failctl.run(&args).and_then(|(ms, out)| {
            reference::check_stdout(&out, &expected)?;
            Ok(ms)
        }))
    };
    once(&mut tally);

    let mut samples = Samples::default();
    let mut completed = 0u32;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || samples.len() < MIN_OPS {
        match once(&mut tally) {
            Some(ms) => {
                samples.push(ms);
                completed += 1;
            }
            None => samples.push_failed(),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = samples.len();
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&setup), setup.len()),
        Metric::new("p10_ms", "ms", samples.percentile(10.0), n),
    ];
    crate::print_tail(&mut samples);
    println!(
        "info: {:.3} ops/s (n={completed})",
        f64::from(completed) / elapsed
    );
    Ok(Outcome { tally, metrics })
}
