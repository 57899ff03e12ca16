//! `loadbench`: one benchmark for the three delays a user of this stack
//! feels — a `failctl report` (cold and warm), a `failctl watch` replay
//! and a `faild` query. It drives the real, unmodified `failctl` binary
//! as a separate process and times it from outside, checks every output
//! byte for byte against the in-process `failapi` path, and then, in a
//! separate traced phase, attributes each path's time to the crate that
//! spends it.
//!
//! # Running
//!
//! `bash loadbench/run.sh` builds `failctl` (repository workspace) and
//! this package into one target directory, then runs every workload and
//! the traced phase, about two and a half minutes on a 2-core host. It
//! prints every metric with its unit and sample count.
//!
//! * `--workload NAME` runs one workload; with `--trace 1` it runs the
//!   traced phase instead, on that run's inputs.
//! * `--seed N` (default 42) generates every input. The system only
//!   ever sees the generated files.
//! * `--seconds S` (default 10) is how long one run measures.
//! * `--out FILE` appends each run's result, with sample counts, as one
//!   JSON line, and writes the traced phase's spans to
//!   `FILE.spans.ndjson`.
//! * `compare A B`, run from the repository root, reads two such files
//!   and prints, per workload and end-to-end metric, each side's median
//!   and quartiles, flagging a change beyond the metric's bound in
//!   `BENCHMARK.json`.
//!
//! The last line of standard output is the run's result object
//! (`correct`, `attempted`, `failed`, `metrics`). The exit code is
//! non-zero when any operation failed: a non-zero exit, an error
//! envelope, output differing from the reference, or no result within
//! the 30 s client deadline.
//!
//! # Inputs
//!
//! Generated in-process from the seed `S` and never timed:
//!
//! * `year-a`: the bench-scale year (1408 nodes × 4 GPUs, system MTBF
//!   0.08 h, 365 days, seed `S`; about 109.5k records and 7 MB), as
//!   `.fslog`, as `.fslog.gz`, and with an exact `.fsidx`.
//! * `year-b`: the same scenario at seed `S+1`, with its last 5 × 950
//!   records held back and appended during `serve-year`.
//! * `fleet`: 16 small logs, Tsubame-2 and Tsubame-3 at seeds `S..S+7`.
//!
//! # Workloads
//!
//! Each workload stresses different layers, so that a change to one
//! layer has a workload that exercises it and one that predicts no
//! change.
//!
//! * `report-cold`: closed loop of `failctl report year-a --index off`
//!   (default threads). Read, chunked parse, view build and section
//!   render do all the work; the render cache, the wire protocol and the
//!   reactor do none, so a server-side change predicts no change here.
//! * `report-cold-gz`: the same on `year-a.fslog.gz`. The difference
//!   from `report-cold` is inflate.
//! * `report-warm`: `--index require`: fingerprint, probe, snapshot
//!   decode and render, with no parsing.
//! * `report-warm-where`: `--index require --where 'category == gpu &&
//!   ttr > 24' --sections tbf,ttr --format json`: the snapshot-view
//!   filter and the JSON renderer in place of the full text render.
//! * `watch-replay`: closed loop of `failctl watch year-a.fslog.gz`. The
//!   only workload through `failwatch`: stream parse, `WatchState`
//!   ingest, drift detection and about 1095 summaries.
//! * `serve-fleet`: one `faild`, 64 distinct requests (text, JSON,
//!   `--where` and section reports over the 16 fleet logs, plus
//!   compares) in a fixed rotation, all render-cache hits on small
//!   files, so wire codec, reactor, worker handoff and cache probe are
//!   the whole cost. Open loop at a fixed rate on one pipelined
//!   connection, then saturation with 32 requests outstanding.
//! * `serve-year`: the same server setup with four shapes in equal
//!   shares: report `year-a --index auto`, report `year-b --index off`,
//!   the filtered JSON report on `year-b`, and `compare year-a year-b`.
//!   Hits pay the per-hit fingerprint (and probe) of a 7 MB file. Five
//!   appends to `year-b` during the open loop invalidate three shapes
//!   and force re-parses and re-renders that stall the pipelined
//!   connection: writes beside reads. Saturation runs without appends.
//!
//! A run of a serve workload spends three quarters of `--seconds` in
//! the open loop and the rest in saturation. Open-loop latency runs from
//! each request's due time to the end of its reply, so a stall counts
//! against every request queued behind it; the run also prints the
//! saturation throughput, how late the generator sent, its deepest
//! backlog, the server's render-cache hit ratio and its peak RSS.
//!
//! # Calibration
//!
//! The offered rates are constants, so that a parent and a change face
//! the same load. They were set at this commit on a 2-core host to about
//! a third of what the saturation phase completes: `serve-fleet`
//! saturates at 10–13k q/s and is offered 4000 q/s; `serve-year`
//! saturates at 160–180 q/s and is offered 50 q/s.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off, on every workload:
//!
//! * `setup_s`: the median of five set-ups: `failctl index build` of
//!   the workload's input for the CLI workloads; for the serve
//!   workloads, `faild` spawn to ready line plus a warm-up pass sending
//!   each distinct request until it is cached.
//! * `p10_ms`: the 10th-percentile latency of the workload's operation
//!   (a failed one counts as +inf), with `n` samples: process spawn to
//!   exit for the CLI workloads; due time to the end of the reply in the
//!   serve open loop. It is what an operation costs when nothing else
//!   interferes.
//!
//! The median, the highest percentile with at least ten samples beyond
//! it, and the throughput (closed loop, or the serve saturation phase)
//! are printed with `n` for information only. On the shared 2-core host
//! this benchmark was built on, other tenants' load slows the whole
//! machine, CPU time as much as wall time, by up to a half for minutes
//! at a time. Over ten runs the median then spreads by up to 29%, the
//! throughput by up to 33% and serve-year's p90 by 25%, and longer runs
//! do not help because the slow spells outlast them. The 10th
//! percentile spreads least (2–21%); even so, two sets of runs a few
//! minutes apart can differ by a quarter, which is why every bound is
//! the largest allowed.
//!
//! # Per-layer metrics
//!
//! From the traced phase ([`traced`]), which calls each crate's public
//! functions on the run's inputs. Each should move the end-to-end
//! metrics of the workloads listed:
//!
//! * `faillog.read_input_ms`, `faillog.parse_ms`,
//!   `failscope.logview_ms`: `report-cold`, `report-cold-gz`; parse also
//!   `serve-year` through the re-parses after each append.
//! * `faillog.inflate_ms`: `report-cold-gz` and `watch-replay`; no
//!   change on `report-cold`.
//! * `failfilter.compile_us`, `failfilter.view_filter_ms`,
//!   `failscope.render_json_ms`: `report-warm-where`.
//!   `failfilter.pushdown_parse_ms`: `serve-year`.
//!   `failfilter.kept_ratio`: records kept per record parsed.
//! * `failscope.render_text_ms` and `failscope.render.<section>_ms`
//!   (nine sections): every `report-*` workload except
//!   `report-warm-where`, and `serve-year`. `failscope.render_warm_ms`
//!   (the render from a decoded snapshot): `report-warm`.
//!   `failscope.compare_ms`: `serve-year`.
//! * `failindex.fingerprint_ms`, `failindex.probe_ms`: `report-warm`
//!   and the `serve-year` latency. `failindex.fingerprint_small_us`:
//!   the `serve-fleet` latency. `failindex.decode_ms`,
//!   `failindex.open_exact_ms`: `report-warm`, `report-warm-where`.
//!   `failindex.save_ms`: `setup_s` of the CLI workloads.
//!   `failindex.snapshot_bytes`: the snapshot's size.
//! * `failapi.execute_cold_ms`, `failapi.execute_warm_ms`: the
//!   in-process `report-cold` and `report-warm` paths.
//!   `failapi.execute_hit_year_ms`: `serve-year` latency.
//!   `failapi.execute_hit_small_us`: `serve-fleet` latency.
//! * `failapi.wire_parse_request_us`, `failapi.wire_encode_ok_us`:
//!   `serve-fleet` latency and saturation throughput.
//!   `failapi.wire_parse_response_us` is the generator's own cost per
//!   reply.
//! * `failserver.ping_rtt_us` (the reactor floor) and
//!   `failserver.hit_rtt_us`: `serve-fleet` latency and saturation
//!   throughput.
//! * `failwatch.ingest_ms`, `failwatch.summary_ms`, `failwatch.run_ms`:
//!   `watch-replay`.
//! * `failctl.process_floor_ms` (a `failctl report` of one section of a
//!   small log): every CLI workload. `failctl.report_cold_ms`: the
//!   `report-cold` op itself, timed in the traced phase.
//! * Residuals, each a path total minus the layers it crosses:
//!   `failapi.cold_unattributed_ms`, `failapi.warm_unattributed_ms`,
//!   `failapi.hit_unattributed_ms`, `failserver.hit_unattributed_us`,
//!   `failwatch.unattributed_ms` and `failctl.cold_overhead_ms`.
//!   `loadbench.span_overhead_pct` is the share of the traced phase
//!   spent recording spans.

mod cli;
mod compare;
mod inputs;
mod process;
mod reference;
mod serve;
mod stats;
mod traced;

use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use failtypes::JsonValue;

use crate::cli::CliOp;
use crate::inputs::Workdir;
use crate::serve::ServeKind;

pub type Res<T> = Result<T, String>;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Cli(CliOp),
    Serve(ServeKind),
}

/// Every workload, in the order a full run measures them.
const WORKLOADS: &[(&str, Kind)] = &[
    ("report-cold", Kind::Cli(CliOp::ReportCold)),
    ("report-cold-gz", Kind::Cli(CliOp::ReportColdGz)),
    ("report-warm", Kind::Cli(CliOp::ReportWarm)),
    ("report-warm-where", Kind::Cli(CliOp::ReportWarmWhere)),
    ("watch-replay", Kind::Cli(CliOp::WatchReplay)),
    ("serve-fleet", Kind::Serve(ServeKind::Fleet)),
    ("serve-year", Kind::Serve(ServeKind::Year)),
];

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str =
    "usage: loadbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       loadbench compare A.ndjson B.ndjson";

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the figure.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
        }
    }
}

/// Operations attempted and failed. An operation fails on a non-zero
/// exit, an error envelope, output that differs from the reference, or
/// the client deadline.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("loadbench: operation failed: {why}");
        }
    }

    pub fn record<T>(&mut self, result: Res<T>) -> Option<T> {
        match result {
            Ok(value) => {
                self.ok();
                Some(value)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// Prints the median and the highest percentile with at least ten
/// samples beyond it, with the sample count, for information: on a
/// shared host they vary too much from run to run to carry a bound.
pub fn print_tail(samples: &mut stats::Samples) {
    print!("info: p50 = {:.3} ms", samples.median());
    if let Some((p, ms)) = samples.tail() {
        print!(", p{p} = {ms:.3} ms");
    }
    println!(" (n={})", samples.len());
}

/// What one run of a workload (or of the traced phase) produced.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

#[derive(Debug)]
struct Args {
    workload: Option<(&'static str, Kind)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|(w, _)| w == name).copied();
                args.workload = Some(known.ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where runs put their inputs: beside the executable, inside the
/// build's target directory.
fn work_base() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| format!("locating loadbench: {e}"))?;
    Ok(exe.with_file_name("loadbench-work"))
}

/// Runs one workload, or with `kind == None` the traced phase.
fn run(label: &str, kind: Option<Kind>, args: &Args) -> Res<Outcome> {
    let dir = Workdir::create(&work_base()?, &format!("{label}-{}", args.seed))?;
    let (seed, seconds) = (args.seed, args.seconds);
    match kind {
        Some(Kind::Cli(op)) => cli::run(op, &dir, seed, seconds),
        Some(Kind::Serve(kind)) => serve::run(kind, &dir, seed, seconds),
        None => {
            let spans = args.out.as_ref().map(|out| format!("{out}.spans.ndjson"));
            traced::run(&dir, seed, seconds, spans.as_deref())
        }
    }
}

/// Prints every metric with its unit and sample count, appends the run
/// to `--out` when given, and prints the result object as the last line.
fn report(label: &str, args: &Args, trace: bool, outcome: &Outcome) -> Res<()> {
    let tally = &outcome.tally;
    for m in &outcome.metrics {
        println!(
            "{label}: {:<36} {:>14.4} {:<5} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "{label}: {} operations, {} failed",
        tally.attempted, tally.failed
    );
    let metrics = |with_n: bool| {
        let fields = outcome.metrics.iter().map(|m| {
            let mut v = JsonValue::object()
                .field("value", m.value)
                .field("unit", m.unit);
            if with_n {
                v = v.field("n", m.n);
            }
            (m.name.to_string(), v.build())
        });
        JsonValue::Object(fields.collect())
    };
    let result = |with_n: bool| {
        JsonValue::object()
            .field("correct", tally.failed == 0)
            .field("attempted", tally.attempted)
            .field("failed", tally.failed)
            .field("metrics", metrics(with_n))
    };
    if let Some(path) = &args.out {
        let line = result(true)
            .field("workload", label)
            .field("seed", args.seed)
            .field("trace", u64::from(trace))
            .build();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", result(false).build());
    Ok(())
}

/// `loadbench compare A B`, run where `BENCHMARK.json` is: exits 1 when
/// a metric regressed beyond its bound, 2 on a usage or input error.
fn compare_main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match compare::run(a, b, "BENCHMARK.json") {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `--trace 1` runs the traced phase in place of the end-to-end one;
    // with no `--workload`, every workload runs and then the traced phase.
    let traced = ("traced", None);
    let jobs: Vec<(&str, Option<Kind>)> = match (args.workload, args.trace) {
        (Some((name, _)), true) => vec![(name, None)],
        (Some((name, kind)), false) => vec![(name, Some(kind))],
        (None, true) => vec![traced],
        (None, false) => WORKLOADS
            .iter()
            .map(|&(name, kind)| (name, Some(kind)))
            .chain([traced])
            .collect(),
    };
    let mut failed = 0;
    for (label, kind) in jobs {
        let outcome = run(label, kind, &args).and_then(|o| {
            report(label, &args, kind.is_none(), &o)?;
            Ok(o)
        });
        match outcome {
            Ok(o) => failed += o.tally.failed,
            Err(e) => {
                eprintln!("loadbench: {label}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed > 0 {
        eprintln!("loadbench: {failed} operation(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
