//! Pipeline-wide tracing guarantees, end to end:
//!
//! * **Golden trace snapshot** — the deterministic NDJSON export of a
//!   fully traced report pass (generate → index → render) over the
//!   canonical Tsubame-2 log is byte-identical to the checked-in
//!   golden file, at every thread count.
//! * **Metrics section** — `--sections metrics` surfaces the same
//!   collector through the section registry as structured JSON.
//! * **Thread invariance** — counters and histograms accumulate to the
//!   same values no matter how many workers render the report
//!   (property-tested over arbitrary seeds).

use failscope::{Section, SectionCtx, StreamView, METRICS_SECTION_ID, SECTIONS};
use failsim::{Simulator, SystemModel};
use failtrace::Collector;
use proptest::prelude::*;

const GOLDEN_TRACE: &str = include_str!("golden/trace_report_tsubame2_seed42.ndjson");

/// One fully traced pipeline pass: simulate, index, render every
/// registry section as NDJSON on `threads` workers. Returns the report
/// and the collector.
fn traced_pass(model: SystemModel, seed: u64, threads: usize) -> (String, Collector) {
    let trace = Collector::new();
    let log = Simulator::new(model, seed)
        .generate_traced(Some(&trace))
        .expect("calibrated model simulates");
    let view = StreamView::from(log);
    view.trace_index(&trace);
    let ctx = SectionCtx::with_trace(&view, &trace);
    let sections: Vec<&Section> = SECTIONS.iter().collect();
    let report = failscope::render_json_sections(&sections, &ctx, threads);
    (report, trace)
}

#[test]
fn trace_export_matches_golden_at_every_thread_count() {
    for threads in 1..=4 {
        let (_, trace) = traced_pass(SystemModel::tsubame2(), 42, threads);
        assert_eq!(
            trace.export(),
            GOLDEN_TRACE,
            "trace export drifted from golden at threads={threads}"
        );
    }
}

#[test]
fn trace_export_is_valid_ndjson_with_known_kinds() {
    let (_, trace) = traced_pass(SystemModel::tsubame3(), 43, 2);
    let export = trace.export();
    for (i, line) in export.lines().enumerate() {
        assert!(
            line.starts_with(r#"{"kind":"counter""#)
                || line.starts_with(r#"{"kind":"hist""#)
                || line.starts_with(r#"{"kind":"span""#),
            "line {i} has an unknown kind: {line}"
        );
        assert!(line.contains(&format!(r#""id":{i},"#)), "ids not sequential: {line}");
        assert!(line.contains(r#""stage":""#), "{line}");
        // The deterministic export never carries wall-clock fields.
        assert!(!line.contains("wall_ms"), "{line}");
    }
    assert!(export.contains(r#""stage":"sim.generate""#));
    assert!(export.contains(r#""stage":"index.logview""#));
    assert!(export.contains(r#""stage":"report.sections_rendered","value":9"#));
}

#[test]
fn metrics_section_surfaces_the_collector_through_the_registry() {
    let (report, trace) = traced_pass(SystemModel::tsubame2(), 42, 3);
    let metrics_line = report
        .lines()
        .find(|l| l.contains(r#""id":"metrics""#))
        .expect("metrics section rendered");
    assert!(
        metrics_line.starts_with(r#"{"id":"metrics","title":"Runtime metrics","data":{"#),
        "{metrics_line}"
    );
    for key in [r#""counters":"#, r#""hists":"#, r#""spans":"#] {
        assert!(metrics_line.contains(key), "{metrics_line}");
    }
    assert!(
        metrics_line.contains(r#""stage":"sim.records_generated","value":897"#),
        "{metrics_line}"
    );
    // The registry carries the section like any other.
    let section = failscope::section_by_id(METRICS_SECTION_ID).expect("registered");
    assert_eq!(section.title, "Runtime metrics");
    // Without a trace the section renders empty text and null JSON.
    let view = StreamView::from(Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap());
    let ctx = SectionCtx::new(&view);
    assert_eq!((section.text)(&ctx), "");
    assert_eq!((section.json)(&ctx).render(), "null");
    // The traced collector renders a human-readable block too.
    assert!(trace.render_text().contains("counter sim.records_generated = 897"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The deterministic export is a pure function of the work done,
    // not of how many threads did it.
    #[test]
    fn trace_export_is_thread_invariant_for_any_seed(
        seed in 0u64..10_000,
        tsubame2 in any::<bool>(),
        threads in 2usize..6,
    ) {
        let model = || if tsubame2 {
            SystemModel::tsubame2()
        } else {
            SystemModel::tsubame3()
        };
        let (serial_report, serial_trace) = traced_pass(model(), seed, 1);
        let (threaded_report, threaded_trace) = traced_pass(model(), seed, threads);
        prop_assert_eq!(serial_report, threaded_report);
        prop_assert_eq!(serial_trace.export(), threaded_trace.export());
        prop_assert_eq!(
            serial_trace.counter("sim.records_generated"),
            threaded_trace.counter("sim.records_generated")
        );
    }
}
