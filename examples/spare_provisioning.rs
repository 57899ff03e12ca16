//! Spare provisioning: size on-site spare pools for the components with
//! long repair tails (Fig. 10's power-board/SSD examples), and validate
//! the analytic sizing with the inventory simulation.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failmitigate --example spare_provisioning
//! ```

use failmitigate::{simulate_inventory, SparePolicy};
use failscope::StreamView;
use failsim::{Simulator, SystemModel};
use failtypes::ComponentClass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let view = StreamView::from(Simulator::new(SystemModel::tsubame3(), 43).generate()?);
    println!("sizing spare pools from the measured Tsubame-3 log\n");

    let classes = [
        ComponentClass::Gpu,
        ComponentClass::Memory,
        ComponentClass::Storage,
        ComponentClass::Power,
        ComponentClass::Board,
    ];
    let lead_times = [7.0 * 24.0, 14.0 * 24.0, 28.0 * 24.0];

    println!(
        "{:<10} {:>12} | {:>8} {:>8} {:>8}   (spares for <=5% stockout)",
        "class", "MTBF (h)", "1 wk", "2 wk", "4 wk"
    );
    for class in classes {
        let Some(mtbf) = failscope::class_mtbf_hours_index(&view, class) else {
            continue;
        };
        let mut row = format!("{:<10} {:>12.1} |", class.name(), mtbf);
        for lead in lead_times {
            let policy = SparePolicy::from_index(&view, class, lead).expect("class failed");
            row.push_str(&format!(" {:>8}", policy.required_spares(0.05)));
        }
        println!("{row}");
    }

    // Validate the GPU sizing by simulating two years of operations.
    let policy = SparePolicy::from_index(&view, ComponentClass::Gpu, 14.0 * 24.0).unwrap();
    let spares = policy.required_spares(0.05);
    let outcome = simulate_inventory(policy, spares, 2.0 * 8760.0, 7);
    println!(
        "\nvalidation: {} GPU spares, 2-week lead time, 2 simulated years:",
        spares
    );
    println!(
        "  {} demands served from stock, {} stockouts ({:.1}%)",
        outcome.served_immediately,
        outcome.stockouts,
        outcome.stockout_fraction * 100.0
    );

    // The trade-off the paper warns about: excessive spares are dead
    // capital. Show the marginal benefit per extra spare.
    println!("\nmarginal stockout probability per spare (2-week lead time):");
    for s in 0..=spares + 2 {
        println!("  {s} spares -> {:>6.2}%", policy.stockout_probability(s) * 100.0);
    }
    Ok(())
}
