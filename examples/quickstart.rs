//! Quickstart: generate a calibrated Tsubame-3 failure log, run the core
//! analyses, and print the headline numbers.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failscope --example quickstart
//! ```

use failscope::{CategoryBreakdown, InvolvementTable, StreamView, TbfAnalysis, TtrAnalysis};
use failsim::{Simulator, SystemModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a log statistically shaped like the paper's Tsubame-3
    //    dataset (the real logs are closed data).
    let log = Simulator::new(SystemModel::tsubame3(), 43).generate()?;
    println!("{log}");

    // 2. Index the log once; every analysis reads the same index.
    let view = StreamView::new(&log);

    // 3. RQ1 — which failure categories dominate?
    let cats = CategoryBreakdown::from_index(&view);
    println!("\nTop failure categories:");
    for share in cats.shares().iter().take(5) {
        println!(
            "  {:<12} {:>4} failures ({:>5.2}%)",
            share.category.label(),
            share.count,
            share.fraction * 100.0
        );
    }

    // 4. RQ3 — do multiple GPUs fail simultaneously?
    let inv = InvolvementTable::from_index(&view);
    println!(
        "\nMulti-GPU failures: {:.1}% of GPU failures with known involvement",
        inv.multi_gpu_fraction() * 100.0
    );

    // 5. RQ4/RQ5 — how reliable, and how fast to repair?
    let tbf = TbfAnalysis::from_index(&view).expect("log has many failures");
    let ttr = TtrAnalysis::from_index(&view).expect("log is non-empty");
    println!("\nMTBF {:.1} h (p75 {:.1} h)", tbf.mtbf_hours(), tbf.p75_hours());
    println!("MTTR {:.1} h (median {:.1} h)", ttr.mttr_hours(), ttr.median_hours());

    // 6. Serialize the log for later analysis.
    let text = faillog::to_string(&log)?;
    println!("\nSerialized log: {} bytes of failscope-log v1", text.len());
    Ok(())
}
