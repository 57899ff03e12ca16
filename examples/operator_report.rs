//! Operator report: the full five-RQ reliability report for both Tsubame
//! generations, the cross-generation comparison, and serialized logs an
//! operations team could archive.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failmitigate --example operator_report
//! ```

use failsim::{Simulator, SystemModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate()?;
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate()?;

    println!("{}", failscope::render_report(&t2));
    println!("{}", failscope::render_report(&t3));
    println!("{}", failscope::render_comparison(&t2, &t3));

    // What the analyses imply operationally, per system.
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        if let Some(plan) = failmitigate::OperationsPlan::from_index(
            &failscope::StreamView::new(log),
            failmitigate::PlanConfig::default(),
        ) {
            println!("--- {name} ---");
            println!("{}", plan.render());
        }
    }

    // Archive anonymized copies, as a center would before sharing data.
    let dir = std::env::temp_dir().join("failscope-operator-report");
    std::fs::create_dir_all(&dir)?;
    for (name, log) in [("tsubame2", &t2), ("tsubame3", &t3)] {
        let anon = faillog::anonymize_nodes(log, 0xFA11_5C0F);
        let path = dir.join(format!("{name}.fslog"));
        faillog::save(&path, &anon)?;
        let summary = faillog::summarize(&anon);
        println!(
            "archived {} ({} failures, {} failing nodes) -> {}",
            name,
            summary.failures,
            summary.failing_nodes,
            path.display()
        );
    }
    Ok(())
}
