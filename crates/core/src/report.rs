//! Operator-facing reports assembled from a typed section registry.
//!
//! The report is a fixed sequence of independent [`Section`]s, each a
//! pure function of a shared [`FleetIndex`] with **two** renderers: the
//! operator text block and a structured [`JsonValue`] with a stable
//! schema (documented per section in `DESIGN.md`). The registry is the
//! single source of truth — `failctl report`, `failctl compare`, the
//! bench binaries, and the test suites all dispatch through
//! [`SECTIONS`] instead of hand-wiring their own tables.
//!
//! [`render_text_sections`] / [`render_json_sections`] render any
//! selection on a worker pool and concatenate in declaration order, so
//! the output is byte-identical at every thread count;
//! [`render_report`] is the single-threaded whole-report entry point.

use std::fmt;
use std::fmt::Write as _;

use failtrace::Collector;
use failtypes::{FailureLog, JsonValue};

use crate::availability::AvailabilityAnalysis;
use crate::categories::{CategoryBreakdown, LocusBreakdown};
use crate::index::FleetIndex;
use crate::multigpu::InvolvementTable;
use crate::pep::PepComparison;
use crate::seasonal::SeasonalAnalysis;
use crate::spatial::{NodeDistribution, RackDistribution, SlotDistribution};
use crate::streamview::StreamView;
use crate::survival::NodeSurvival;
use crate::tbf::{per_category_tbf_index, TbfAnalysis};
use crate::temporal::MultiGpuTemporal;
use crate::ttr::{per_category_ttr_index, TtrAnalysis};

/// Shared context handed to every section renderer: the fleet index the
/// section reports on, plus an optional [`Collector`] whose contents the
/// [`METRICS_SECTION_ID`] section surfaces.
#[derive(Clone, Copy)]
pub struct SectionCtx<'a> {
    index: &'a (dyn FleetIndex + Sync),
    trace: Option<&'a Collector>,
}

impl<'a> SectionCtx<'a> {
    /// A context over `index` with no trace collector: the `metrics`
    /// section renders empty.
    pub fn new(index: &'a (dyn FleetIndex + Sync)) -> Self {
        SectionCtx { index, trace: None }
    }

    /// A context over `index` that also records section-render spans
    /// into `trace` and surfaces it through the `metrics` section.
    pub fn with_trace(index: &'a (dyn FleetIndex + Sync), trace: &'a Collector) -> Self {
        SectionCtx {
            index,
            trace: Some(trace),
        }
    }

    /// The fleet index the sections report on.
    pub fn index(&self) -> &'a dyn FleetIndex {
        self.index
    }

    /// The trace collector, when one is attached.
    pub fn trace(&self) -> Option<&'a Collector> {
        self.trace
    }
}

impl fmt::Debug for SectionCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SectionCtx")
            .field("records", &self.index.len())
            .field("traced", &self.trace.is_some())
            .finish_non_exhaustive()
    }
}

/// One report section: a stable machine id, a human title, and two
/// renderers over the shared [`SectionCtx`].
///
/// Both renderers must be pure functions of the context so the threaded
/// renderers stay byte-identical at any worker count. An empty section
/// renders as `""` / [`JsonValue::Null`].
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Stable identifier — the `--sections` / JSON `"id"` vocabulary.
    pub id: &'static str,
    /// Human-readable title, carried on every JSON line.
    pub title: &'static str,
    /// Structured renderer (`null` when the section has nothing to say).
    pub json: fn(&SectionCtx<'_>) -> JsonValue,
    /// Plain-text renderer (`""` when the section has nothing to say).
    pub text: fn(&SectionCtx<'_>) -> String,
}

/// Stable id of the runtime self-measurement section, which renders the
/// attached [`Collector`] and is therefore computed serially *after*
/// every other section in a selection has finished.
pub const METRICS_SECTION_ID: &str = "metrics";

/// The report sections in print order. Each is independent, so the
/// threaded renderers can compute them concurrently.
pub const SECTIONS: &[Section] = &[
    Section {
        id: "header",
        title: "Reliability report",
        json: json_header,
        text: section_header,
    },
    Section {
        id: "categories",
        title: "Failure categories (RQ1)",
        json: json_categories,
        text: section_categories,
    },
    Section {
        id: "spatial",
        title: "Per-node and per-slot distribution (RQ2)",
        json: json_spatial,
        text: section_spatial,
    },
    Section {
        id: "involvement",
        title: "Multi-GPU involvement (RQ3)",
        json: json_involvement,
        text: section_involvement,
    },
    Section {
        id: "tbf",
        title: "Time between failures (RQ4)",
        json: json_tbf,
        text: section_tbf,
    },
    Section {
        id: "ttr",
        title: "Time to recovery (RQ5)",
        json: json_ttr,
        text: section_ttr_and_racks,
    },
    Section {
        id: "availability",
        title: "Repair overlap and availability",
        json: json_availability,
        text: section_availability,
    },
    Section {
        id: "survival",
        title: "Node survival",
        json: json_survival,
        text: section_survival,
    },
    Section {
        id: "seasonal",
        title: "Seasonal behaviour",
        json: json_seasonal,
        text: section_seasonal,
    },
    Section {
        id: METRICS_SECTION_ID,
        title: "Runtime metrics",
        json: json_metrics,
        text: section_metrics,
    },
];

/// Looks up one section by its stable id.
pub fn section_by_id(id: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.id == id)
}

/// Resolves a comma-separated id list (e.g. `"tbf,ttr"`) against the
/// registry, preserving the requested order.
///
/// # Errors
///
/// Rejects unknown or empty selections with a
/// [`failtypes::Error::Args`] naming the known vocabulary.
pub fn select_sections(spec: &str) -> failtypes::Result<Vec<&'static Section>> {
    let known = || {
        SECTIONS
            .iter()
            .map(|s| s.id)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = Vec::new();
    for id in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match section_by_id(id) {
            Some(section) => out.push(section),
            None => {
                return Err(failtypes::Error::args(format!(
                    "unknown section `{id}` (known: {})",
                    known()
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(failtypes::Error::args(format!(
            "no sections selected (known: {})",
            known()
        )));
    }
    Ok(out)
}

/// Runs one section renderer, recording a `render.<id>` span (items =
/// output bytes) and bumping `report.sections_rendered` when the
/// context carries a trace collector. The `metrics` section itself is
/// never instrumented, so its counters stay deterministic.
fn rendered_instrumented(
    ctx: &SectionCtx<'_>,
    section: &Section,
    render: impl FnOnce() -> String,
) -> String {
    match ctx.trace() {
        Some(trace) if section.id != METRICS_SECTION_ID => {
            let mut span = trace.span(&format!("render.{}", section.id));
            let out = render();
            span.add_items(out.len() as u64);
            drop(span);
            trace.incr("report.sections_rendered", 1);
            out
        }
        _ => render(),
    }
}

/// Replaces the placeholder output of any `metrics` sections in the
/// selection with a serial render taken *after* the worker pool has
/// finished, so the self-measurement reflects every other section.
fn splice_metrics(
    sections: &[&Section],
    rendered: &mut [String],
    render: impl Fn(&Section) -> String,
) {
    for (slot, section) in rendered.iter_mut().zip(sections) {
        if section.id == METRICS_SECTION_ID {
            *slot = render(section);
        }
    }
}

/// Renders a section selection as the operator text report, computing
/// sections on up to `threads` workers and concatenating in selection
/// order — byte-identical at any thread count. The `metrics` section,
/// if selected, is rendered serially after the pool so it observes the
/// other sections' instrumentation.
pub fn render_text_sections(
    sections: &[&Section],
    ctx: &SectionCtx<'_>,
    threads: usize,
) -> String {
    let mut rendered = failstats::par_map_ordered(sections.len(), threads, |i| {
        let section = sections[i];
        if section.id == METRICS_SECTION_ID {
            String::new()
        } else {
            rendered_instrumented(ctx, section, || (section.text)(ctx))
        }
    });
    splice_metrics(sections, &mut rendered, |section| (section.text)(ctx));
    rendered.concat()
}

/// Renders a section selection as NDJSON — one
/// `{"id":...,"title":...,"data":...}` line per section, in selection
/// order, byte-identical at any thread count. Empty sections carry
/// `"data":null`; the `metrics` section is rendered serially after the
/// pool, like in [`render_text_sections`].
pub fn render_json_sections(
    sections: &[&Section],
    ctx: &SectionCtx<'_>,
    threads: usize,
) -> String {
    let json_line = |section: &Section| {
        let mut line = JsonValue::object()
            .field("id", section.id)
            .field("title", section.title)
            .field("data", (section.json)(ctx))
            .build()
            .render();
        line.push('\n');
        line
    };
    let mut rendered = failstats::par_map_ordered(sections.len(), threads, |i| {
        let section = sections[i];
        if section.id == METRICS_SECTION_ID {
            String::new()
        } else {
            rendered_instrumented(ctx, section, || json_line(section))
        }
    });
    splice_metrics(sections, &mut rendered, json_line);
    rendered.concat()
}

fn all_sections() -> Vec<&'static Section> {
    SECTIONS.iter().collect()
}

// ---------------------------------------------------------------------
// Text renderers (one per section, byte-stable).
// ---------------------------------------------------------------------

fn section_header(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    let _ = writeln!(out, "=== Reliability report: {} ===", index.spec().name());
    let _ = writeln!(
        out,
        "{} failures over {} ({:.0} days)",
        index.len(),
        index.window(),
        index.window().duration().days()
    );
    out
}

fn section_categories(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    let cats = CategoryBreakdown::from_index(index);
    let _ = writeln!(out, "\n-- Failure categories (RQ1) --");
    for share in cats.shares() {
        let _ = writeln!(
            out,
            "  {:<16} {:>5}  {:>6.2}%",
            share.category.label(),
            share.count,
            share.fraction * 100.0
        );
    }
    let loci = LocusBreakdown::from_index(index);
    if loci.total() > 0 {
        let _ = writeln!(out, "\n-- Software root loci (Fig. 3) --");
        for share in loci.shares() {
            let _ = writeln!(
                out,
                "  {:<22} {:>4}  {:>6.2}%",
                share.locus.label(),
                share.count,
                share.fraction * 100.0
            );
        }
    }
    out
}

fn section_spatial(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    let nodes = NodeDistribution::from_index(index);
    let _ = writeln!(out, "\n-- Per-node distribution (RQ2) --");
    let _ = writeln!(
        out,
        "  {} of {} nodes failed at least once",
        nodes.failing_nodes(),
        nodes.total_nodes()
    );
    let _ = writeln!(
        out,
        "  exactly 1 failure: {:>5.1}%   exactly 2: {:>5.1}%   more than 1: {:>5.1}%",
        nodes.fraction_with_exactly(1) * 100.0,
        nodes.fraction_with_exactly(2) * 100.0,
        nodes.fraction_with_multiple() * 100.0
    );
    let slots = SlotDistribution::from_index(index);
    if slots.total_involvements() > 0 {
        let _ = writeln!(out, "  GPU slot shares:");
        for s in slots.shares() {
            let _ = writeln!(
                out,
                "    {}: {:>5.1}% ({:+.0}% vs mean)",
                s.slot,
                s.fraction * 100.0,
                (s.relative_to_mean - 1.0) * 100.0
            );
        }
    }
    out
}

fn section_involvement(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    let inv = InvolvementTable::from_index(index);
    if inv.known() > 0 {
        let _ = writeln!(out, "\n-- Multi-GPU involvement (RQ3, Table III) --");
        for row in inv.rows() {
            let _ = writeln!(
                out,
                "  {} GPU(s): {:>4} ({:>5.2}%)",
                row.gpus,
                row.count,
                row.fraction * 100.0
            );
        }
        let _ = writeln!(out, "  unknown involvement: {}", inv.unknown());
    }
    out
}

fn section_tbf(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    if let Some(tbf) = TbfAnalysis::from_index(index) {
        let _ = writeln!(out, "\n-- Time between failures (RQ4) --");
        let (mtbf_lo, mtbf_hi) = tbf.mtbf_ci_hours(0.95);
        let _ = writeln!(
            out,
            "  MTBF {:.1} h (95% CI {:.1}-{:.1})   p25 {:.1} h   median {:.1} h   p75 {:.1} h",
            tbf.mtbf_hours(),
            mtbf_lo,
            mtbf_hi,
            tbf.quantile(0.25),
            tbf.quantile(0.5),
            tbf.p75_hours()
        );
        let rows = per_category_tbf_index(index, 5);
        for row in rows.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<16} mean TBF {:>8.1} h (n = {})",
                row.category.label(),
                row.summary.mean(),
                row.summary.n() + 1
            );
        }
    }

    if let Some(t) = MultiGpuTemporal::from_index(index, 96.0) {
        let _ = writeln!(
            out,
            "  multi-GPU clustering: CV {:.2}, follow-up within {:.0} h: {:.0}% (poisson {:.0}%)",
            t.report.cv,
            t.report.follow_up_window,
            t.follow_up_probability * 100.0,
            t.poisson_baseline * 100.0
        );
    }
    out
}

fn section_ttr_and_racks(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    if let Some(ttr) = TtrAnalysis::from_index(index) {
        let _ = writeln!(out, "\n-- Time to recovery (RQ5) --");
        let _ = writeln!(
            out,
            "  MTTR {:.1} h   median {:.1} h   p90 {:.1} h   max {:.1} h",
            ttr.mttr_hours(),
            ttr.median_hours(),
            ttr.quantile(0.9),
            ttr.max_hours()
        );
        let rows = per_category_ttr_index(index);
        if let Some(worst) = rows.last() {
            let _ = writeln!(
                out,
                "  slowest category: {} (mean {:.1} h, max {:.1} h, {:.1}% of failures)",
                worst.category.label(),
                worst.summary.mean(),
                worst.summary.max(),
                worst.share_of_failures * 100.0
            );
        }
    }

    // Rack-level distribution (related-work generalizability claim).
    let racks = RackDistribution::from_index(index);
    if let Some(test) = racks.uniformity_test() {
        let k = (racks.shares().len() as f64 * 0.2).round().max(1.0) as usize;
        let _ = writeln!(
            out,
            "  rack uniformity: chi2 = {:.0} (p = {:.3}) across {} racks; top {} racks hold {:.0}%",
            test.statistic,
            test.p_value,
            racks.shares().len(),
            k,
            racks.top_rack_share(k) * 100.0
        );
    }
    out
}

fn section_availability(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    if let Some(avail) = AvailabilityAnalysis::from_index(index) {
        let _ = writeln!(out, "\n-- Repair overlap and availability --");
        let _ = writeln!(
            out,
            "  {:.0}% of failures arrive with repairs still open; mean {:.2} concurrent (max {})",
            avail.overlap_probability() * 100.0,
            avail.mean_concurrent_repairs(),
            avail.max_concurrent_repairs()
        );
        let _ = writeln!(
            out,
            "  node availability {:.3}% ({:.0} node-hours lost)",
            avail.node_availability() * 100.0,
            avail.node_hours_lost()
        );
    }
    out
}

fn section_survival(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    if let Some(surv) = NodeSurvival::from_index(index) {
        let horizon = index.window().duration().get();
        let _ = writeln!(out, "\n-- Node survival (time to first failure) --");
        let _ = writeln!(
            out,
            "  {} of {} nodes failed at least once; S(quarter)={:.2} S(half)={:.2} S(end)={:.2}",
            surv.observed_failures(),
            surv.observed_failures() + surv.censored_nodes(),
            surv.survival_at(horizon * 0.25),
            surv.survival_at(horizon * 0.5),
            surv.survival_at(horizon)
        );
    }
    out
}

fn section_seasonal(ctx: &SectionCtx<'_>) -> String {
    let index = ctx.index();
    let mut out = String::new();
    let seasonal = SeasonalAnalysis::from_index(index);
    if let Some(r) = seasonal.density_ttr_correlation() {
        let _ = writeln!(out, "\n-- Seasonal (Figs. 11-12) --");
        let counts = seasonal.monthly_failure_counts();
        let _ = writeln!(
            out,
            "  monthly failures: min {} / max {} across {} months",
            counts.iter().min().unwrap_or(&0),
            counts.iter().max().unwrap_or(&0),
            counts.len()
        );
        let _ = writeln!(out, "  corr(failure count, mean TTR) = {r:+.2}");
        if let Some((h1, h2)) = seasonal.half_year_ttr_means() {
            let _ = writeln!(
                out,
                "  mean TTR Jan-Jun {h1:.1} h vs Jul-Dec {h2:.1} h"
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// JSON renderers (one per section, stable schema — see DESIGN.md).
// ---------------------------------------------------------------------

fn json_header(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    JsonValue::object()
        .field("system", index.spec().name())
        .field("nodes", index.spec().nodes())
        .field("gpus_per_node", index.spec().gpus_per_node())
        .field("failures", index.len())
        .field("window", index.window().to_string())
        .field("days", index.window().duration().days())
        .build()
}

fn json_categories(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let cats = CategoryBreakdown::from_index(index);
    let loci = LocusBreakdown::from_index(index);
    JsonValue::object()
        .field(
            "categories",
            JsonValue::Array(
                cats.shares()
                    .iter()
                    .map(|s| {
                        JsonValue::object()
                            .field("category", s.category.label())
                            .field("count", s.count)
                            .field("fraction", s.fraction)
                            .build()
                    })
                    .collect(),
            ),
        )
        .field(
            "loci",
            JsonValue::Array(
                loci.shares()
                    .iter()
                    .map(|s| {
                        JsonValue::object()
                            .field("locus", s.locus.label())
                            .field("count", s.count)
                            .field("fraction", s.fraction)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

fn json_spatial(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let nodes = NodeDistribution::from_index(index);
    let slots = SlotDistribution::from_index(index);
    JsonValue::object()
        .field(
            "nodes",
            JsonValue::object()
                .field("failing", nodes.failing_nodes())
                .field("total", nodes.total_nodes())
                .field("fraction_exactly_one", nodes.fraction_with_exactly(1))
                .field("fraction_exactly_two", nodes.fraction_with_exactly(2))
                .field("fraction_multiple", nodes.fraction_with_multiple())
                .build(),
        )
        .field(
            "slots",
            JsonValue::Array(
                slots
                    .shares()
                    .iter()
                    .map(|s| {
                        JsonValue::object()
                            .field("slot", s.slot.index())
                            .field("count", s.count)
                            .field("fraction", s.fraction)
                            .field("relative_to_mean", s.relative_to_mean)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

fn json_involvement(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let inv = InvolvementTable::from_index(index);
    if inv.known() == 0 {
        return JsonValue::Null;
    }
    JsonValue::object()
        .field("known", inv.known())
        .field("unknown", inv.unknown())
        .field(
            "rows",
            JsonValue::Array(
                inv.rows()
                    .iter()
                    .map(|row| {
                        JsonValue::object()
                            .field("gpus", row.gpus)
                            .field("count", row.count)
                            .field("fraction", row.fraction)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

fn json_tbf(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let tbf = TbfAnalysis::from_index(index);
    let temporal = MultiGpuTemporal::from_index(index, 96.0);
    if tbf.is_none() && temporal.is_none() {
        return JsonValue::Null;
    }
    let tbf_json = tbf.map_or(JsonValue::Null, |t| {
        let (lo, hi) = t.mtbf_ci_hours(0.95);
        JsonValue::object()
            .field("mtbf_hours", t.mtbf_hours())
            .field("mtbf_ci95_hours", JsonValue::array([lo, hi]))
            .field("p25_hours", t.quantile(0.25))
            .field("median_hours", t.quantile(0.5))
            .field("p75_hours", t.p75_hours())
            .field(
                "per_category",
                JsonValue::Array(
                    per_category_tbf_index(index, 5)
                        .iter()
                        .take(5)
                        .map(|row| {
                            JsonValue::object()
                                .field("category", row.category.label())
                                .field("mean_tbf_hours", row.summary.mean())
                                .field("events", row.summary.n() + 1)
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    });
    let temporal_json = temporal.map_or(JsonValue::Null, |t| {
        JsonValue::object()
            .field("cv", t.report.cv)
            .field("follow_up_window_hours", t.report.follow_up_window)
            .field("follow_up_probability", t.follow_up_probability)
            .field("poisson_baseline", t.poisson_baseline)
            .build()
    });
    JsonValue::object()
        .field("tbf", tbf_json)
        .field("multi_gpu_clustering", temporal_json)
        .build()
}

fn json_ttr(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let ttr = TtrAnalysis::from_index(index);
    let racks = RackDistribution::from_index(index);
    let rack_test = racks.uniformity_test();
    if ttr.is_none() && rack_test.is_none() {
        return JsonValue::Null;
    }
    let ttr_json = ttr.map_or(JsonValue::Null, |t| {
        JsonValue::object()
            .field("mttr_hours", t.mttr_hours())
            .field("median_hours", t.median_hours())
            .field("p90_hours", t.quantile(0.9))
            .field("max_hours", t.max_hours())
            .field(
                "per_category",
                JsonValue::Array(
                    per_category_ttr_index(index)
                        .iter()
                        .map(|row| {
                            JsonValue::object()
                                .field("category", row.category.label())
                                .field("mean_hours", row.summary.mean())
                                .field("max_hours", row.summary.max())
                                .field("share_of_failures", row.share_of_failures)
                                .field("n", row.summary.n())
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    });
    let racks_json = rack_test.map_or(JsonValue::Null, |test| {
        let k = (racks.shares().len() as f64 * 0.2).round().max(1.0) as usize;
        JsonValue::object()
            .field("chi2", test.statistic)
            .field("p_value", test.p_value)
            .field("racks", racks.shares().len())
            .field("top_racks", k)
            .field("top_share", racks.top_rack_share(k))
            .build()
    });
    JsonValue::object()
        .field("ttr", ttr_json)
        .field("racks", racks_json)
        .build()
}

fn json_availability(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    AvailabilityAnalysis::from_index(index).map_or(JsonValue::Null, |a| {
        JsonValue::object()
            .field("overlap_probability", a.overlap_probability())
            .field("mean_concurrent_repairs", a.mean_concurrent_repairs())
            .field("max_concurrent_repairs", a.max_concurrent_repairs())
            .field("repair_busy_fraction", a.repair_busy_fraction())
            .field("node_hours_lost", a.node_hours_lost())
            .field("node_availability", a.node_availability())
            .build()
    })
}

fn json_survival(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    NodeSurvival::from_index(index).map_or(JsonValue::Null, |s| {
        let horizon = index.window().duration().get();
        JsonValue::object()
            .field("observed_failures", s.observed_failures())
            .field("censored_nodes", s.censored_nodes())
            .field("survival_quarter", s.survival_at(horizon * 0.25))
            .field("survival_half", s.survival_at(horizon * 0.5))
            .field("survival_end", s.survival_at(horizon))
            .field("median_hours", s.median_hours())
            .build()
    })
}

fn json_seasonal(ctx: &SectionCtx<'_>) -> JsonValue {
    let index = ctx.index();
    let seasonal = SeasonalAnalysis::from_index(index);
    let Some(r) = seasonal.density_ttr_correlation() else {
        return JsonValue::Null;
    };
    let counts = seasonal.monthly_failure_counts();
    JsonValue::object()
        .field(
            "months",
            JsonValue::Array(
                seasonal
                    .buckets()
                    .iter()
                    .map(|b| {
                        JsonValue::object()
                            .field("year", b.year)
                            .field("month", b.month.number())
                            .field("failures", b.failures)
                            .field("mean_ttr_hours", b.ttr.map(|s| s.mean()))
                            .build()
                    })
                    .collect(),
            ),
        )
        .field("min_monthly_failures", counts.iter().min().copied())
        .field("max_monthly_failures", counts.iter().max().copied())
        .field("density_ttr_correlation", r)
        .field(
            "half_year_ttr_means",
            seasonal
                .half_year_ttr_means()
                .map_or(JsonValue::Null, |(h1, h2)| JsonValue::array([h1, h2])),
        )
        .build()
}

fn section_metrics(ctx: &SectionCtx<'_>) -> String {
    match ctx.trace() {
        Some(trace) if !trace.is_empty() => {
            format!("\n-- Runtime metrics --\n{}", trace.render_text())
        }
        _ => String::new(),
    }
}

fn json_metrics(ctx: &SectionCtx<'_>) -> JsonValue {
    match ctx.trace() {
        Some(trace) if !trace.is_empty() => trace.to_json(false),
        _ => JsonValue::Null,
    }
}

// ---------------------------------------------------------------------
// Whole-report entry points.
// ---------------------------------------------------------------------

/// Renders the full single-system reliability report (all five research
/// questions) as plain text.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let text = failscope::render_report(&log);
/// assert!(text.contains("Failure categories"));
/// assert!(text.contains("MTBF"));
/// ```
pub fn render_report(log: &FailureLog) -> String {
    render_report_threaded(log, 1)
}

/// [`render_report`] with the sections rendered on up to `threads`
/// workers. The sections are concatenated in declaration order, so the
/// output is byte-identical to the serial render at any thread count.
pub fn render_report_threaded(log: &FailureLog, threads: usize) -> String {
    let view = StreamView::new(log);
    render_text_sections(&all_sections(), &SectionCtx::new(&view), threads)
}

/// Renders the full report as NDJSON — one line per registry section,
/// byte-identical at every thread count.
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let ndjson = failscope::render_report_json(&log, 1);
/// assert_eq!(ndjson.lines().count(), failscope::SECTIONS.len());
/// assert!(ndjson.starts_with(r#"{"id":"header""#));
/// ```
pub fn render_report_json(log: &FailureLog, threads: usize) -> String {
    let view = StreamView::new(log);
    render_json_sections(&all_sections(), &SectionCtx::new(&view), threads)
}

/// Renders the two-generation comparison (MTBF/MTTR factors and the
/// performance-error-proportionality argument).
pub fn render_comparison(older: &FailureLog, newer: &FailureLog) -> String {
    render_comparison_threaded(older, newer, 1)
}

/// [`render_comparison`] with the per-log analyses computed on up to
/// `threads` workers; output is identical at any thread count.
pub fn render_comparison_threaded(
    older: &FailureLog,
    newer: &FailureLog,
    threads: usize,
) -> String {
    render_comparison_index(&StreamView::new(older), &StreamView::new(newer), threads)
}

/// [`render_comparison_threaded`] over two prebuilt indexes.
pub fn render_comparison_index(older: &StreamView, newer: &StreamView, threads: usize) -> String {
    let views = [older, newer];
    let ttrs = failstats::par_map_ordered(2, threads, |i| TtrAnalysis::from_index(views[i]));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Generation comparison: {} -> {} ===",
        older.spec().name(),
        newer.spec().name()
    );
    if let Some(c) = PepComparison::from_indexes(older, newer) {
        let _ = writeln!(out, "  compute (Rpeak): {:>6.2}x", c.compute_factor());
        let _ = writeln!(out, "  MTBF:            {:>6.2}x", c.mtbf_factor());
        let _ = writeln!(
            out,
            "  PEP (FLOP/MTBF): {:>6.2}x  ({:.0} -> {:.0} EFLOP per failure-free period)",
            c.pep_factor(),
            c.older.exaflop_per_failure_free_period(),
            c.newer.exaflop_per_failure_free_period()
        );
        if c.reliability_lags_compute() {
            let _ = writeln!(
                out,
                "  note: reliability improved more slowly than raw compute"
            );
        }
    }
    if let [Some(a), Some(b)] = &ttrs[..] {
        let _ = writeln!(
            out,
            "  MTTR: {:.1} h -> {:.1} h (time to recovery is not improving)",
            a.mttr_hours(),
            b.mttr_hours()
        );
    }
    out
}

/// The comparison of two indexes as one structured, newline-terminated
/// JSON line — the `failctl compare --format json` output. `"pep"` and
/// `"mttr_hours"` are `null` when the underlying analysis is undefined
/// for the pair.
pub fn render_comparison_json(older: &StreamView, newer: &StreamView, threads: usize) -> String {
    let views = [older, newer];
    let ttrs = failstats::par_map_ordered(2, threads, |i| TtrAnalysis::from_index(views[i]));

    let pep = PepComparison::from_indexes(older, newer).map_or(
        JsonValue::Null,
        |c| {
            JsonValue::object()
                .field("compute_factor", c.compute_factor())
                .field("mtbf_factor", c.mtbf_factor())
                .field("pep_factor", c.pep_factor())
                .field(
                    "older_eflop_per_period",
                    c.older.exaflop_per_failure_free_period(),
                )
                .field(
                    "newer_eflop_per_period",
                    c.newer.exaflop_per_failure_free_period(),
                )
                .field("reliability_lags_compute", c.reliability_lags_compute())
                .build()
        },
    );
    let mttr = if let [Some(a), Some(b)] = &ttrs[..] {
        JsonValue::object()
            .field("older", a.mttr_hours())
            .field("newer", b.mttr_hours())
            .build()
    } else {
        JsonValue::Null
    };
    let mut line = JsonValue::object()
        .field("older", older.spec().name())
        .field("newer", newer.spec().name())
        .field("pep", pep)
        .field("mttr_hours", mttr)
        .build()
        .render();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let text = render_report(&t3());
        for needle in [
            "Reliability report: Tsubame-3",
            "Failure categories",
            "Software root loci",
            "Per-node distribution",
            "Multi-GPU involvement",
            "Time between failures",
            "Time to recovery",
            "Repair overlap and availability",
            "Node survival",
            "Seasonal",
        ] {
            assert!(text.contains(needle), "missing section {needle}\n{text}");
        }
    }

    #[test]
    fn t2_report_has_no_locus_section() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let text = render_report(&log);
        assert!(!text.contains("Software root loci"));
        assert!(text.contains("GPU slot shares"));
    }

    #[test]
    fn threaded_render_is_byte_identical() {
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let serial = render_report(&log);
        for threads in [2, 4, 8] {
            assert_eq!(serial, render_report_threaded(&log, threads));
        }
    }

    #[test]
    fn json_report_is_one_line_per_section_and_thread_identical() {
        let log = t3();
        let serial = render_report_json(&log, 1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, render_report_json(&log, threads));
        }
        let lines: Vec<&str> = serial.lines().collect();
        assert_eq!(lines.len(), SECTIONS.len());
        for (line, section) in lines.iter().zip(SECTIONS) {
            assert!(
                line.starts_with(&format!(r#"{{"id":"{}","title":"#, section.id)),
                "line does not open with its section id: {line}"
            );
            assert!(line.ends_with('}'), "unterminated JSON line: {line}");
        }
    }

    #[test]
    fn registry_lookup_and_selection() {
        assert_eq!(section_by_id("tbf").map(|s| s.title), Some("Time between failures (RQ4)"));
        assert!(section_by_id("bogus").is_none());

        let picked = select_sections("ttr, header").expect("valid ids");
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].id, "ttr");
        assert_eq!(picked[1].id, "header");

        assert!(select_sections("header,bogus").is_err());
        assert!(select_sections(" , ").is_err());
    }

    #[test]
    fn selected_sections_render_just_those() {
        let view = StreamView::from(t3());
        let picked = select_sections("header,tbf").expect("valid ids");
        let ctx = SectionCtx::new(&view);
        let text = render_text_sections(&picked, &ctx, 2);
        assert!(text.contains("Reliability report"));
        assert!(text.contains("Time between failures"));
        assert!(!text.contains("Time to recovery"));
        let json = render_json_sections(&picked, &ctx, 2);
        assert_eq!(json.lines().count(), 2);
    }

    #[test]
    fn sections_agree_between_batch_and_stream_views() {
        let log = t3();
        let view = StreamView::new(&log);
        let mut sv = StreamView::empty_like(&log);
        for rec in log.iter() {
            sv.push(rec.clone()).unwrap();
        }
        let batch = SectionCtx::new(&view);
        let stream = SectionCtx::new(&sv);
        for section in SECTIONS {
            assert_eq!(
                (section.json)(&batch).render(),
                (section.json)(&stream).render(),
                "JSON diverges for section {}",
                section.id
            );
            assert_eq!(
                (section.text)(&batch),
                (section.text)(&stream),
                "text diverges for section {}",
                section.id
            );
        }
    }

    #[test]
    fn comparison_report() {
        let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let t3 = t3();
        let text = render_comparison(&t2, &t3);
        assert!(text.contains("compute (Rpeak)"));
        assert!(text.contains("MTTR"));
        assert!(text.contains("reliability improved more slowly"));
        assert_eq!(text, render_comparison_threaded(&t2, &t3, 4));

        let (v2, v3) = (StreamView::from(t2), StreamView::from(t3));
        assert_eq!(text, render_comparison_index(&v2, &v3, 2));
        let json = render_comparison_json(&v2, &v3, 1);
        assert_eq!(json, render_comparison_json(&v2, &v3, 4));
        assert!(json.contains(r#""pep":{"compute_factor":"#), "{json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_log_report_does_not_panic() {
        let log = t3().filtered(|_| false);
        let text = render_report(&log);
        assert!(text.contains("0 failures"));
        // Empty sections degrade to data:null on the JSON side.
        let json = render_report_json(&log, 1);
        assert!(json.contains(r#"{"id":"tbf","title":"Time between failures (RQ4)","data":null}"#));
        // Survival still has data: every node is a censored lifetime.
        assert!(json.contains(r#"{"id":"survival","title":"Node survival","data":{"observed_failures":0"#));
    }
}
