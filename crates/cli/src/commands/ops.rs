//! The operational planning commands: `anonymize`, `checkpoint`,
//! `spares`, `availability`, `survival`, `staffing`, `plan`, `racks`.

use std::fmt::Write as _;

use failmitigate::{
    required_crews, simulate_staffing, CheckpointPlan, OperationsPlan, PlanConfig, SparePolicy,
};
use failscope::{AvailabilityAnalysis, NodeSurvival, StreamView};
use failtypes::{ComponentClass, Error, Result};

use super::load;
use crate::args::ParsedArgs;

/// `failctl anonymize`.
pub fn anonymize(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["key"])?;
    let input = args.positional(0, "in")?;
    let output = args.positional(1, "out")?;
    let key: u64 = args.flag_or("key", 0xFA11_5C0F)?;
    let log = load(input)?;
    let anon = faillog::anonymize_nodes(&log, key);
    faillog::save(output, &anon)?;
    Ok(format!("anonymized {} records -> {output}\n", anon.len()))
}

/// `failctl checkpoint`.
pub fn checkpoint(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["cost"])?;
    let log = load(args.positional(0, "file")?)?;
    let cost: f64 = args.flag_or("cost", 0.25)?;
    let plan = CheckpointPlan::from_index(&StreamView::from(log), cost)
        .map_err(|e| Error::run(e.to_string()))?;
    let daly = plan.daly_interval_hours();
    let mut out = String::new();
    let _ = writeln!(out, "mtbf:            {:.1} h", plan.mtbf_hours());
    let _ = writeln!(out, "checkpoint cost: {:.2} h", plan.checkpoint_cost_hours());
    let _ = writeln!(out, "young interval:  {:.2} h", plan.young_interval_hours());
    let _ = writeln!(out, "daly interval:   {daly:.2} h");
    let _ = writeln!(out, "efficiency:      {:.1}%", plan.efficiency(daly) * 100.0);
    Ok(out)
}

/// `failctl spares`.
pub fn spares(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["class", "lead-days", "risk"])?;
    let log = load(args.positional(0, "file")?)?;
    let class = match args.flag("class").unwrap_or("gpu") {
        "gpu" => ComponentClass::Gpu,
        "cpu" => ComponentClass::Cpu,
        "memory" => ComponentClass::Memory,
        "storage" => ComponentClass::Storage,
        "power" => ComponentClass::Power,
        "board" => ComponentClass::Board,
        other => return Err(Error::args(format!("unknown component class `{other}`"))),
    };
    let lead_days: f64 = args.flag_or("lead-days", 14.0)?;
    let risk: f64 = args.flag_or("risk", 0.05)?;
    if !(risk > 0.0 && risk < 1.0) {
        return Err(Error::args("--risk must be in (0, 1)"));
    }
    let policy = SparePolicy::from_index(&StreamView::from(log), class, lead_days * 24.0)
        .ok_or_else(|| Error::run(format!("no {} failures in the log", class.name())))?;
    let spares = policy.required_spares(risk);
    let mut out = String::new();
    let _ = writeln!(out, "class:            {}", class.name());
    let _ = writeln!(out, "lead time:        {lead_days:.1} days");
    let _ = writeln!(out, "lead-time demand: {:.2} failures", policy.lead_time_demand());
    let _ = writeln!(out, "required spares:  {spares} (stockout <= {:.1}%)", risk * 100.0);
    let _ = writeln!(
        out,
        "residual risk:    {:.2}%",
        policy.stockout_probability(spares) * 100.0
    );
    Ok(out)
}

/// `failctl availability`.
pub fn availability(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[])?;
    let log = load(args.positional(0, "file")?)?;
    let a = AvailabilityAnalysis::from_index(&StreamView::from(log))
        .ok_or_else(|| Error::run("log is empty"))?;
    let mut out = String::new();
    let _ = writeln!(out, "repair overlap probability:  {:.1}%", a.overlap_probability() * 100.0);
    let _ = writeln!(out, "mean concurrent repairs:     {:.2}", a.mean_concurrent_repairs());
    let _ = writeln!(out, "max concurrent repairs:      {}", a.max_concurrent_repairs());
    let _ = writeln!(out, "time with repairs open:      {:.1}%", a.repair_busy_fraction() * 100.0);
    let _ = writeln!(out, "node-hours lost:             {:.0}", a.node_hours_lost());
    let _ = writeln!(out, "node availability:           {:.3}%", a.node_availability() * 100.0);
    Ok(out)
}

/// `failctl survival`.
pub fn survival(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[])?;
    let log = load(args.positional(0, "file")?)?;
    let horizon = log.window().duration().get();
    let s = NodeSurvival::from_index(&StreamView::from(log))
        .ok_or_else(|| Error::run("cannot fit a survival curve"))?;
    let mut out = String::new();
    let _ = writeln!(out, "nodes that failed:       {}", s.observed_failures());
    let _ = writeln!(out, "nodes never failed:      {}", s.censored_nodes());
    for frac in [0.25, 0.5, 0.75, 1.0] {
        let t = horizon * frac;
        let _ = writeln!(
            out,
            "S({:>6.0} h) = {:.3}",
            t,
            s.survival_at(t)
        );
    }
    match s.median_hours() {
        Some(m) => {
            let _ = writeln!(out, "median time to first failure: {m:.0} h");
        }
        None => {
            let _ = writeln!(out, "median time to first failure: beyond the window");
        }
    }
    Ok(out)
}

/// `failctl staffing`.
pub fn staffing(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["crews", "target"])?;
    let log = load(args.positional(0, "file")?)?;
    let target: f64 = args.flag_or("target", 1.05)?;
    if target < 1.0 {
        return Err(Error::args("--target must be at least 1.0"));
    }
    let mut out = String::new();
    if let Some(raw) = args.flag("crews") {
        let crews: u32 = raw
            .parse()
            .map_err(|_| Error::args(format!("invalid --crews value `{raw}`")))?;
        let o = simulate_staffing(&log, crews)
            .ok_or_else(|| Error::run("log is empty or crews is zero"))?;
        let _ = writeln!(out, "crews:            {}", o.crews);
        let _ = writeln!(out, "hands-on mttr:    {:.1} h", o.hands_on_mttr_hours);
        let _ = writeln!(out, "effective mttr:   {:.1} h ({:.2}x)", o.effective_mttr_hours, o.inflation());
        let _ = writeln!(out, "mean wait:        {:.1} h", o.mean_wait_hours);
        let _ = writeln!(out, "delayed failures: {:.1}%", o.delayed_fraction * 100.0);
    } else {
        let _ = writeln!(out, "crews  effective mttr  inflation  delayed");
        for crews in 1..=10 {
            let o = simulate_staffing(&log, crews)
                .ok_or_else(|| Error::run("log is empty"))?;
            let _ = writeln!(
                out,
                "{:>5}  {:>12.1} h  {:>8.2}x  {:>6.1}%",
                crews,
                o.effective_mttr_hours,
                o.inflation(),
                o.delayed_fraction * 100.0
            );
        }
        match required_crews(&log, target, 64) {
            Some(c) => {
                let _ = writeln!(out, "crews for <= {:.0}% queueing overhead: {c}", (target - 1.0) * 100.0);
            }
            None => {
                let _ = writeln!(out, "no crew count up to 64 meets the target");
            }
        }
    }
    Ok(out)
}

/// `failctl plan`.
pub fn plan(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[])?;
    let log = load(args.positional(0, "file")?)?;
    let plan = OperationsPlan::from_index(&StreamView::from(log), PlanConfig::default())
        .ok_or_else(|| Error::run("log too small to plan from"))?;
    Ok(plan.render())
}

/// `failctl racks`.
pub fn racks(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&[])?;
    let log = load(args.positional(0, "file")?)?;
    let d = failscope::RackDistribution::from_index(&StreamView::from(log));
    let mut out = String::new();
    let mut rows: Vec<_> = d.shares().to_vec();
    rows.sort_by_key(|share| std::cmp::Reverse(share.count));
    for share in rows.iter().take(10) {
        let _ = writeln!(
            out,
            "{:<8} {:>4} failures over {:>3} nodes",
            share.rack.to_string(),
            share.count,
            share.nodes
        );
    }
    if d.shares().len() > 10 {
        let _ = writeln!(out, "... ({} racks total)", d.shares().len());
    }
    if let Some(test) = d.uniformity_test() {
        let _ = writeln!(
            out,
            "uniformity: chi2 = {:.1}, dof = {}, p = {:.4} -> {}",
            test.statistic,
            test.dof,
            test.p_value,
            if test.rejects_at(0.01) {
                "non-uniform"
            } else {
                "consistent with uniform"
            }
        );
    }
    Ok(out)
}
