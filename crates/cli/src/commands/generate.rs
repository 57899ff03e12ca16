//! `failctl generate` / `scenario` / `summary`: producing calibrated
//! and what-if logs, and the one-paragraph structural summary.

use std::fmt::Write as _;

use failscope::TbfAnalysis;
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::{Error, FailureLog, Generation, Result};

use crate::args::ParsedArgs;

/// `failctl generate`.
pub fn generate(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["system", "seed", "out"])?;
    let system = args.flag("system").unwrap_or("tsubame3");
    let generation = match system {
        "tsubame2" => Generation::Tsubame2,
        "tsubame3" => Generation::Tsubame3,
        other => {
            return Err(Error::run(format!(
                "unknown system `{other}` (use tsubame2 or tsubame3)"
            )))
        }
    };
    let seed: u64 = args.flag_or("seed", 42)?;
    let log = Simulator::new(SystemModel::for_generation(generation), seed).generate()?;
    finish_generate(args, log)
}

/// `failctl scenario`.
pub fn scenario(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[
        "nodes",
        "gpus",
        "mtbf",
        "days",
        "seed",
        "out",
        "multi",
        "trend-start",
        "trend-end",
    ])?;
    let mut builder = ScenarioBuilder::new("failctl-scenario")
        .nodes(args.flag_or("nodes", 540u32)?)
        .gpus_per_node(args.flag_or("gpus", 4u8)?)
        .system_mtbf_hours(args.flag_or("mtbf", 72.0f64)?)
        .window_days(args.flag_or("days", 365u32)?);
    if let Some(raw) = args.flag("multi") {
        let f: f64 = raw
            .parse()
            .map_err(|_| Error::args(format!("invalid --multi value `{raw}`")))?;
        builder = builder.multi_gpu_fraction(f);
    }
    let trend_start: f64 = args.flag_or("trend-start", 1.0)?;
    let trend_end: f64 = args.flag_or("trend-end", 1.0)?;
    builder = builder.reliability_trend(trend_start, trend_end);
    let model = builder
        .build()
        .ok_or_else(|| Error::run("scenario parameters out of range"))?;
    let seed: u64 = args.flag_or("seed", 42)?;
    let log = Simulator::new(model, seed).generate()?;
    finish_generate(args, log)
}

fn finish_generate(args: &ParsedArgs, log: FailureLog) -> Result<String> {
    match args.flag("out") {
        Some(path) => {
            faillog::save(path, &log)?;
            Ok(format!("wrote {} failures to {path}\n", log.len()))
        }
        None => Ok(faillog::to_string(&log)?),
    }
}

/// `failctl summary`.
pub fn summary(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[])?;
    let log = super::load(args.positional(0, "file")?)?;
    let s = faillog::summarize(&log);
    let mut out = String::new();
    let _ = writeln!(out, "system:            {}", s.system);
    let _ = writeln!(out, "window:            {} ({:.0} days)", log.window(), s.window_days);
    let _ = writeln!(out, "failures:          {}", s.failures);
    let _ = writeln!(out, "failing nodes:     {}", s.failing_nodes);
    let _ = writeln!(out, "gpu failures:      {}", s.gpu_failures);
    let _ = writeln!(out, "multi-gpu:         {}", s.multi_gpu_failures);
    let view = failscope::StreamView::from(log);
    if let Some(tbf) = TbfAnalysis::from_index(&view) {
        let _ = writeln!(out, "mtbf:              {:.1} h", tbf.mtbf_hours());
    }
    if let Some(ttr) = failscope::TtrAnalysis::from_index(&view) {
        let _ = writeln!(out, "mttr:              {:.1} h", ttr.mttr_hours());
    }
    Ok(out)
}
