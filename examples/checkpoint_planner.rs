//! Checkpoint planner: derive optimal checkpoint intervals (Young/Daly)
//! from the measured MTBF of each system generation, and show how the
//! 4x MTBF improvement changes the plan.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failmitigate --example checkpoint_planner
//! ```

use failmitigate::{sweep_costs, CheckpointPlan};
use failscope::StreamView;
use failsim::{Simulator, SystemModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let systems = [
        ("Tsubame-2", SystemModel::tsubame2(), 42u64),
        ("Tsubame-3", SystemModel::tsubame3(), 43u64),
    ];

    for (name, model, seed) in systems {
        let view = StreamView::from(Simulator::new(model, seed).generate()?);
        println!("=== {name} ===");

        // A 0.25 h (15-minute) checkpoint of a large GPU job.
        let plan = CheckpointPlan::from_index(&view, 0.25)?;
        let young = plan.young_interval_hours();
        let daly = plan.daly_interval_hours();
        println!(
            "MTBF {:.1} h -> checkpoint every {:.2} h (Young) / {:.2} h (Daly)",
            plan.mtbf_hours(),
            young,
            daly
        );
        println!(
            "efficiency at the Daly interval: {:.1}%",
            plan.efficiency(daly) * 100.0
        );
        println!(
            "1000 h of compute takes {:.0} wall-clock hours",
            plan.expected_makespan_hours(1000.0, daly)
        );

        // Sweep checkpoint costs: cheaper checkpoints buy efficiency.
        println!("cost sweep (cost h -> interval h, efficiency):");
        for (cost, tau, eff) in sweep_costs(plan.mtbf_hours(), &[0.05, 0.1, 0.25, 0.5, 1.0]) {
            println!("  {cost:>5.2} -> {tau:>6.2} h, {:>5.1}%", eff * 100.0);
        }
        println!();
    }
    Ok(())
}
