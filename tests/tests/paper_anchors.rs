//! The paper's headline claims, verified end to end through the
//! `failbench` experiment harness — the same code path that generates
//! EXPERIMENTS.md.

use failbench::experiments::{self, ablations, ALL_IDS};

#[test]
fn every_table_and_figure_reproduces() {
    let mut failures = Vec::new();
    for id in ALL_IDS {
        let exp = experiments::run(id).expect("known id");
        if !exp.passes() {
            failures.push(exp.render());
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_ablation_reproduces() {
    for exp in ablations::all() {
        assert!(exp.passes(), "{} failed:\n{}", exp.id, exp.render());
    }
}

#[test]
fn headline_narrative_claims() {
    let (t2, t3) = experiments::standard_logs();

    // "GPU failures are significantly higher in number than CPU failures
    // on both the systems."
    let b2 = failscope::CategoryBreakdown::from_index(&t2);
    let b3 = failscope::CategoryBreakdown::from_index(&t3);
    assert!(b2.gpu_fraction() > 10.0 * b2.cpu_fraction());
    assert!(b3.gpu_fraction() > 5.0 * b3.cpu_fraction());

    // "software failures are becoming the dominant failure type": top T3
    // category is Software, top T2 category is GPU.
    assert_eq!(b3.shares()[0].category.label(), "Software");
    assert_eq!(b2.shares()[0].category.label(), "GPU");

    // "up to 4x improvement in overall system MTBF" / "the mean time to
    // recovery remains largely similar".
    let tbf2 = failscope::TbfAnalysis::from_index(&t2).expect("analysable");
    let tbf3 = failscope::TbfAnalysis::from_index(&t3).expect("analysable");
    assert!(tbf3.mtbf_hours() / tbf2.mtbf_hours() > 4.0);
    let ttr2 = failscope::TtrAnalysis::from_index(&t2).expect("non-empty");
    let ttr3 = failscope::TtrAnalysis::from_index(&t3).expect("non-empty");
    assert!((ttr2.mttr_hours() - ttr3.mttr_hours()).abs() < 10.0);

    // "no failure affected all four GPUs attached to a node" (T3).
    let mut gpu_records = t3.rows().filter(|r| r.category().is_gpu());
    assert!(gpu_records.all(|r| r.gpus().len() < 4));

    // "in ~70% of the failures more than one GPU was affected" (T2).
    let inv2 = failscope::InvolvementTable::from_index(&t2);
    assert!((inv2.multi_gpu_fraction() - 0.6956).abs() < 0.01);
}

#[test]
fn repro_harness_ids_are_unique_and_stable() {
    let mut ids: Vec<&str> = ALL_IDS.to_vec();
    ids.extend(ablations::all().iter().map(|e| e.id));
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "duplicate experiment ids");
    // The paper has 3 tables, 11 data figures (2-12), and the PEP
    // walkthrough.
    assert_eq!(ALL_IDS.len(), 15);
}
