//! Section-registry guarantees, end to end:
//!
//! * **Golden snapshots** — the text and NDJSON reports for the two
//!   canonical logs are byte-identical to the checked-in files under
//!   `golden/`, at every thread count. Any formatting drift in any
//!   section shows up as a snapshot diff.
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
use failsim::{Simulator, SystemModel};
use failtypes::FailureLog;
use proptest::prelude::*;

const GOLDEN_T2_TEXT: &str = include_str!("golden/report_tsubame2_seed42.txt");
const GOLDEN_T3_TEXT: &str = include_str!("golden/report_tsubame3_seed43.txt");
const GOLDEN_T2_JSON: &str = include_str!("golden/report_tsubame2_seed42.ndjson");
const GOLDEN_T3_JSON: &str = include_str!("golden/report_tsubame3_seed43.ndjson");

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
