//! `loadbench compare A B`: two sets of runs side by side, per workload
//! and end-to-end metric, flagging every difference beyond the metric's
//! bound in `BENCHMARK.json`.

use std::collections::BTreeMap;

use failtypes::JsonValue;

use crate::stats;
use crate::Res;

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    bound: f64,
    lower_is_better: bool,
}

fn read_json_lines(path: &str) -> Res<Vec<JsonValue>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| JsonValue::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn rules(bench: &str) -> Res<Vec<Rule>> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("reading {bench}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{bench}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{bench} has no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
                lower_is_better: m.get("better")?.as_str()? == "lower",
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{bench}: malformed end_to_end entry"))
}

/// Every end-to-end value in a results file (lines appended by
/// `--out`), keyed by workload and metric.
fn values(path: &str) -> Res<BTreeMap<(String, String), Vec<f64>>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in read_json_lines(path)? {
        if run.get("trace").and_then(JsonValue::as_i64) != Some(0) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            run.get("workload").and_then(JsonValue::as_str),
            run.get("metrics").and_then(JsonValue::as_object),
        ) else {
            return Err(format!("{path}: a run line lacks workload or metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Prints the comparison; returns whether any metric moved the wrong
/// way by more than its bound.
pub fn run(a: &str, b: &str, bench: &str) -> Res<bool> {
    let rules = rules(bench)?;
    let (va, vb) = (values(a)?, values(b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = va.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "{:<18} {:<10} {:>30} {:>30} {:>8} {:>6}",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound"
    );
    let mut flagged = false;
    for workload in workloads {
        for rule in &rules {
            let key = (workload.clone(), rule.name.clone());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            let side = |x: &[f64]| {
                let (q1, med, q3) = stats::quartiles(x);
                (med, format!("{med:.4} [{q1:.4}, {q3:.4}] {}", x.len()))
            };
            let ((ma, sa), (mb, sb)) = (side(xa), side(xb));
            let change = (mb - ma) / ma;
            let worse = if rule.lower_is_better {
                change
            } else {
                -change
            };
            let flag = worse > rule.bound;
            flagged |= flag;
            println!(
                "{workload:<18} {:<10} {sa:>30} {sb:>30} {:>7.1}% {:>5.0}%{}",
                rule.name,
                worse * 100.0,
                rule.bound * 100.0,
                if flag { "  REGRESSION" } else { "" }
            );
        }
    }
    Ok(flagged)
}
