//! What-if study: how do failures scale as nodes pack more GPUs?
//!
//! The paper's RQ3 warns that "the number of GPUs per node is likely to
//! increase" (Summit, Sierra). This example sweeps hypothetical
//! Tsubame-3 successors from 1 to 8 GPUs per node, generates a year of
//! failures for each, and reports the multi-GPU failure exposure plus the
//! scheduling and checkpointing consequences.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failmitigate --example multi_gpu_what_if
//! ```

use failmitigate::{evaluate_policy, AllocationPolicy, SlotRiskModel};
use failscope::{InvolvementTable, StreamView, TbfAnalysis};
use failsim::{ScenarioBuilder, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("one year of a hypothetical 540-node system, varying GPUs per node\n");
    println!(
        "{:>4} {:>9} {:>10} {:>12} {:>14}",
        "GPUs", "failures", "MTBF (h)", "multi-GPU %", "first-fit risk"
    );

    for gpus in 1..=8u8 {
        let model = ScenarioBuilder::new(format!("hypo-{gpus}gpu"))
            .gpus_per_node(gpus)
            .window_days(365)
            // Hold the per-GPU failure rate constant: more GPUs per node
            // means proportionally more GPU failures system-wide.
            .system_mtbf_hours(72.4 * 4.0 / gpus as f64)
            .multi_gpu_fraction(0.07 * gpus as f64 / 4.0)
            .build()
            .expect("valid scenario");
        let view = StreamView::from(Simulator::new(model, 1000 + gpus as u64).generate()?);

        let tbf = TbfAnalysis::from_index(&view).expect("enough failures");
        let inv = InvolvementTable::from_index(&view);
        let risk = SlotRiskModel::from_index(&view).map(|m| {
            let jobs: Vec<(usize, f64)> = (0..100).map(|i| (1 + i % 2, 48.0)).collect();
            evaluate_policy(&m, AllocationPolicy::FirstFit, &jobs)
                .mean_interruption_probability
        });

        println!(
            "{:>4} {:>9} {:>10.1} {:>11.1}% {:>13.2}%",
            gpus,
            view.len(),
            tbf.mtbf_hours(),
            (inv.multi_gpu_fraction() * 100.0).max(0.0),
            risk.unwrap_or(0.0) * 100.0
        );
    }

    println!(
        "\nreading: packing more GPUs per node both shortens the system MTBF\n\
         (more components per node) and raises the simultaneous multi-GPU\n\
         share — the failure mode RQ3 tells operators to watch."
    );
    Ok(())
}
