//! Determinism guarantees of the parallel execution engine.
//!
//! Three layers, three contracts:
//!
//! 1. **One index, two builds** — the bulk build of a finished log
//!    equals the record-by-record build of the same records, split into
//!    arbitrary chunks, and a filtered view equals the bulk build of
//!    the kept records (property-tested).
//! 2. **Thread-count invariance** — the threaded report renderer and
//!    the sharded seed sweeps return bit-identical results at any
//!    worker count.
//! 3. **Shared-store invariance** — experiments built from the shared
//!    `LogStore` match experiments built from freshly simulated logs.

use failbench::experiments;
use failbench::runner;
use failscope::{
    render_report, render_text_sections, Section, SectionCtx, StreamView, TbfAnalysis, SECTIONS,
};
use failsim::{Simulator, SystemModel};
use failtypes::{FailureLog, FailureRecord};
use proptest::prelude::*;

/// The whole report rendered from `view` on up to `threads` workers.
fn report_threaded(view: &StreamView, threads: usize) -> String {
    let all: Vec<&Section> = SECTIONS.iter().collect();
    render_text_sections(&all, &SectionCtx::new(view), threads)
}

#[test]
fn report_is_identical_at_every_thread_count() {
    let (t2, t3) = experiments::standard_logs();
    for view in [&t2, &t3] {
        let serial = render_report(&view.to_log());
        for threads in 1..=8 {
            assert_eq!(
                serial,
                report_threaded(view, threads),
                "report diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn seed_sweeps_are_bit_identical_across_thread_counts() {
    let mtbf = |log: &StreamView| {
        TbfAnalysis::from_index(log).map_or(0.0, |t| t.mtbf_hours())
    };
    let serial = experiments::seed_average_with(SystemModel::tsubame3, 7000, 6, 1, mtbf);
    for threads in [2, 3, 4, 8] {
        let parallel =
            experiments::seed_average_with(SystemModel::tsubame3, 7000, 6, threads, mtbf);
        assert_eq!(serial.to_bits(), parallel.to_bits(), "threads = {threads}");
    }
}

#[test]
fn parallel_catalog_run_matches_serial_byte_for_byte() {
    // A representative slice: cheap figures plus one seed-sweep-heavy one.
    let catalog = experiments::catalog();
    let slice: Vec<_> = catalog
        .into_iter()
        .filter(|(id, _)| ["table1", "fig2", "fig5", "fig9", "pep"].contains(id))
        .collect();
    let serial = runner::run_catalog_with(&slice, 1);
    let parallel = runner::run_catalog_with(&slice, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.render(), p.render(), "{} diverged across thread counts", s.id);
    }
}

#[test]
fn store_backed_logs_equal_fresh_simulations() {
    let (t2, t3) = experiments::standard_logs();
    let fresh2 = Simulator::new(SystemModel::tsubame2(), experiments::T2_SEED)
        .generate()
        .unwrap();
    let fresh3 = Simulator::new(SystemModel::tsubame3(), experiments::T3_SEED)
        .generate()
        .unwrap();
    assert_eq!(*t2, StreamView::from(fresh2));
    assert_eq!(*t3, StreamView::from(fresh3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bulk_build_equals_incremental_build(
        seed in 0u64..10_000,
        tsubame2 in any::<bool>(),
        splits in proptest::collection::vec(1usize..300, 1..12),
        modulus in 1u32..7,
    ) {
        let model = if tsubame2 { SystemModel::tsubame2() } else { SystemModel::tsubame3() };
        let log = Simulator::new(model, seed).generate().unwrap();
        // Feed the records in chunks whose sizes cycle through `splits`.
        let mut pushed = StreamView::empty_like(&log);
        let mut rest = log.records();
        for &size in splits.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (part, tail) = rest.split_at(size.min(rest.len()));
            prop_assert_eq!(pushed.extend(part.to_vec()).unwrap(), part.len());
            rest = tail;
        }
        let bulk = StreamView::new(&log);
        prop_assert_eq!(&pushed, &bulk);

        let keep = |r: &FailureRecord| r.id().is_multiple_of(modulus);
        let kept: Vec<FailureRecord> = log.records().iter().filter(|r| keep(r)).cloned().collect();
        let kept_log =
            FailureLog::with_spec(log.generation(), log.spec().clone(), log.window(), kept)
                .unwrap();
        prop_assert_eq!(bulk.filtered(keep), StreamView::from(kept_log));
    }

    #[test]
    fn threaded_report_is_deterministic_for_arbitrary_seeds(
        seed in 0u64..10_000,
        threads in 1usize..6,
    ) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        prop_assert_eq!(render_report(&log), report_threaded(&StreamView::new(&log), threads));
    }
}
