//! Section-registry guarantees, end to end:
//!
//! * **Golden snapshots** — the text and NDJSON reports for the two
//!   canonical logs are byte-identical to the checked-in files under
//!   `golden/`, at every thread count. Any formatting drift in any
//!   section shows up as a snapshot diff. A scaled ~11k-record log,
//!   large enough for heavy ties and many multi-failure nodes, must
//!   render its golden from a bulk, a streamed and a snapshot-restored
//!   view alike.
//! * **Batch/stream equivalence** — every registry section renders the
//!   same JSON and text from a bulk-built [`failscope::StreamView`] and
//!   one fed record by record, on the canonical logs and on
//!   arbitrary-seed simulations.
//! * **Mitigation from the index** — the integrated operations plan
//!   built from a mid-stream index matches the batch plan, without a
//!   raw-log rescan.

use failmitigate::{OperationsPlan, PlanConfig};
use failscope::{
    render_json_sections, render_text_sections, Section, SectionCtx, StreamView, SECTIONS,
};
use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::FailureLog;
use proptest::prelude::*;

const GOLDEN_T2_TEXT: &str = include_str!("golden/report_tsubame2_seed42.txt");
const GOLDEN_T3_TEXT: &str = include_str!("golden/report_tsubame3_seed43.txt");
const GOLDEN_T2_JSON: &str = include_str!("golden/report_tsubame2_seed42.ndjson");
const GOLDEN_T3_JSON: &str = include_str!("golden/report_tsubame3_seed43.ndjson");
const GOLDEN_SCALED_TEXT: &str = include_str!("golden/report_scaled1408_seed42.txt");
const GOLDEN_SCALED_JSON: &str = include_str!("golden/report_scaled1408_seed42.ndjson");

fn t2() -> FailureLog {
    Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
}

fn t3() -> FailureLog {
    Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
}

fn all_sections() -> Vec<&'static Section> {
    SECTIONS.iter().collect()
}

fn streamed(log: &FailureLog) -> StreamView {
    let mut sv = StreamView::empty_like(log);
    for rec in log.iter() {
        sv.push(rec.clone()).expect("in-order records");
    }
    sv
}

#[test]
fn text_reports_match_golden_snapshots_at_every_thread_count() {
    for (log, golden) in [(t2(), GOLDEN_T2_TEXT), (t3(), GOLDEN_T3_TEXT)] {
        let view = StreamView::new(&log);
        for threads in 1..=4 {
            assert_eq!(
                render_text_sections(&all_sections(), &SectionCtx::new(&view), threads),
                golden,
                "{} text report drifted from golden at threads={threads}",
                log.spec().name()
            );
        }
    }
}

#[test]
fn json_reports_match_golden_snapshots_at_every_thread_count() {
    for (log, golden) in [(t2(), GOLDEN_T2_JSON), (t3(), GOLDEN_T3_JSON)] {
        let view = StreamView::new(&log);
        for threads in 1..=4 {
            assert_eq!(
                render_json_sections(&all_sections(), &SectionCtx::new(&view), threads),
                golden,
                "{} JSON report drifted from golden at threads={threads}",
                log.spec().name()
            );
        }
    }
}

/// A year of a 1408-node, 4-GPU fleet at a 0.8 h system MTBF: 10,950
/// records, with many nodes failing more than once.
fn scaled() -> FailureLog {
    let model = ScenarioBuilder::new("Scaled-1408x4")
        .nodes(1408)
        .gpus_per_node(4)
        .system_mtbf_hours(0.8)
        .window_days(365)
        .build()
        .expect("scenario parameters are valid");
    Simulator::new(model, 42).generate().expect("simulates")
}

#[test]
fn scaled_log_renders_its_golden_from_bulk_streamed_and_restored_views() {
    let log = scaled();
    assert_eq!(log.len(), 10_950);
    let text = faillog::to_string(&log).expect("serializes");
    let dir = std::env::temp_dir().join("failsuite-scaled-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spath = dir.join("scaled.fslog.fsidx");
    failindex::save(
        &spath,
        &StreamView::new(&log),
        failindex::SourceInfo::of_bytes(text.as_bytes()),
    )
    .expect("saves snapshot");
    let restored = failindex::load(&spath).expect("loads snapshot").into_view();
    std::fs::remove_dir_all(&dir).ok();

    let views = [
        ("bulk", StreamView::new(&log)),
        ("streamed", streamed(&log)),
        ("restored", restored),
    ];
    for (how, view) in &views {
        let ctx = SectionCtx::new(view);
        for threads in 1..=2 {
            assert_eq!(
                render_text_sections(&all_sections(), &ctx, threads),
                GOLDEN_SCALED_TEXT,
                "scaled text report from the {how} view drifted at threads={threads}"
            );
            assert_eq!(
                render_json_sections(&all_sections(), &ctx, threads),
                GOLDEN_SCALED_JSON,
                "scaled JSON report from the {how} view drifted at threads={threads}"
            );
        }
    }
}

#[test]
fn every_section_agrees_between_batch_and_stream_on_canonical_logs() {
    for log in [t2(), t3()] {
        let view = StreamView::new(&log);
        let sv = streamed(&log);
        let batch = SectionCtx::new(&view);
        let stream = SectionCtx::new(&sv);
        for section in SECTIONS {
            assert_eq!(
                (section.json)(&batch).render(),
                (section.json)(&stream).render(),
                "section `{}` JSON diverges on {}",
                section.id,
                log.spec().name()
            );
            assert_eq!(
                (section.text)(&batch),
                (section.text)(&stream),
                "section `{}` text diverges on {}",
                section.id,
                log.spec().name()
            );
        }
    }
}

#[test]
fn operations_plan_from_stream_index_matches_batch_plan() {
    for log in [t2(), t3()] {
        let sv = streamed(&log);
        let from_stream = OperationsPlan::from_index(&sv, PlanConfig::default())
            .expect("canonical logs are plannable");
        let from_batch = OperationsPlan::from_index(&StreamView::new(&log), PlanConfig::default())
            .expect("canonical logs are plannable");
        assert_eq!(from_stream, from_batch, "{}", log.spec().name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Section JSON/text is a pure function of the index contents:
    // batch and stream construction agree for any simulated history.
    #[test]
    fn sections_agree_between_batch_and_stream_for_any_seed(
        seed in 0u64..10_000,
        tsubame2 in any::<bool>(),
    ) {
        let model = if tsubame2 {
            SystemModel::tsubame2()
        } else {
            SystemModel::tsubame3()
        };
        let log = Simulator::new(model, seed).generate().unwrap();
        let view = StreamView::new(&log);
        let sv = streamed(&log);
        let batch = SectionCtx::new(&view);
        let stream = SectionCtx::new(&sv);
        for section in SECTIONS {
            prop_assert_eq!(
                (section.json)(&batch).render(),
                (section.json)(&stream).render(),
                "section `{}` JSON diverges at seed {}", section.id, seed
            );
            prop_assert_eq!(
                (section.text)(&batch),
                (section.text)(&stream),
                "section `{}` text diverges at seed {}", section.id, seed
            );
        }
    }

    // The NDJSON report is byte-identical at any thread count for any
    // simulated history, not just the canonical seeds.
    #[test]
    fn json_report_is_thread_identical_for_any_seed(seed in 0u64..10_000) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        let view = StreamView::new(&log);
        let ctx = SectionCtx::new(&view);
        let serial = render_json_sections(&all_sections(), &ctx, 1);
        prop_assert_eq!(&serial, &render_json_sections(&all_sections(), &ctx, 3));
        prop_assert_eq!(serial.lines().count(), SECTIONS.len());
    }
}
