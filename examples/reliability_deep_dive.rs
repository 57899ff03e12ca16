//! Reliability deep dive: the analyses that go beyond the paper's
//! figures — node survival curves, repair overlap/availability, failure
//! rate trends, and distribution fitting of the TBF/TTR samples.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p failmitigate --example reliability_deep_dive
//! ```

use failmitigate::{required_crews, simulate_staffing};
use failscope::{
    laplace_trend, node_lifetimes, rolling_rate, AvailabilityAnalysis, NodeSurvival, StreamView,
};
use failsim::{Simulator, SystemModel};
use failstats::fit::select_best_family;
use failstats::mann_whitney;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate()?;
    let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate()?;
    let (v2, v3) = (StreamView::new(&t2), StreamView::new(&t3));

    // 1. Node survival: how long does a node live before its first
    //    failure?
    println!("== Node survival (Kaplan-Meier) ==");
    for (name, view) in [("Tsubame-2", &v2), ("Tsubame-3", &v3)] {
        let s = NodeSurvival::from_index(view).expect("nodes exist");
        let horizon = view.window().duration().get();
        println!(
            "{name}: {} of {} nodes failed; S(1000h)={:.3}  S(5000h)={:.3}  S(end)={:.3}",
            s.observed_failures(),
            s.observed_failures() + s.censored_nodes(),
            s.survival_at(1000.0),
            s.survival_at(5000.0),
            s.survival_at(horizon),
        );
    }

    // 2. Repair overlap: the RQ5 warning quantified.
    println!("\n== Repair overlap (MTTR ~ MTBF) ==");
    for (name, view) in [("Tsubame-2", &v2), ("Tsubame-3", &v3)] {
        let a = AvailabilityAnalysis::from_index(view).expect("non-empty");
        println!(
            "{name}: {:.0}% of failures land on open repairs; mean {:.2} in flight (max {}); availability {:.3}%",
            a.overlap_probability() * 100.0,
            a.mean_concurrent_repairs(),
            a.max_concurrent_repairs(),
            a.node_availability() * 100.0,
        );
    }

    // 3. Failure-rate trend over the system's life.
    println!("\n== Failure-rate trend ==");
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        let trend = laplace_trend(log).expect("enough failures");
        let monthly = rolling_rate(log, 730.0);
        let rates: Vec<String> = monthly
            .iter()
            .step_by(3)
            .map(|b| format!("{:.2}", b.rate_per_hour * 24.0))
            .collect();
        println!(
            "{name}: Laplace U = {:+.2} (p = {:.2}) — {}; failures/day every 3rd month: {}",
            trend.u,
            trend.p_value,
            if trend.increasing_at(0.05) {
                "rate increasing"
            } else if trend.decreasing_at(0.05) {
                "rate decreasing"
            } else {
                "no significant trend"
            },
            rates.join(" "),
        );
    }

    // 4. Which family fits each system's inter-failure gaps?
    println!("\n== TBF distribution fitting (AIC) ==");
    for (name, log) in [("Tsubame-2", &t2), ("Tsubame-3", &t3)] {
        let times: Vec<f64> = log.times().map(|h| h.get()).collect();
        let gaps: Vec<f64> = failstats::inter_arrival_times(&times)
            .into_iter()
            .filter(|&g| g > 0.0)
            .collect();
        let ranked = select_best_family(&gaps);
        let list: Vec<String> = ranked
            .iter()
            .map(|m| format!("{} (AIC {:.0})", m.family, m.aic))
            .collect();
        println!("{name}: {}", list.join("  >  "));
    }

    // 5. Staffing: how many repair crews keep queueing negligible?
    println!("\n== Repair-crew staffing ==");
    for (name, view) in [("Tsubame-2", &v2), ("Tsubame-3", &v3)] {
        let one = simulate_staffing(view, 1).expect("non-empty");
        let crews = required_crews(view, 1.05, 64).expect("achievable");
        println!(
            "{name}: one crew inflates MTTR {:.1}x; {crews} crews keep overhead under 5%",
            one.inflation(),
        );
    }

    // 6. Do the generations differ in per-node hazard? (log-rank)
    println!("\n== Node-lifetime comparison (log-rank) ==");
    let lr = failstats::log_rank(&node_lifetimes(&v2), &node_lifetimes(&v3)).expect("events");
    println!(
        "chi2 = {:.1}, p = {:.4} -> {}",
        lr.statistic,
        lr.p_value,
        if lr.rejects_at(0.05) {
            "node hazards differ across generations"
        } else {
            "no detectable difference"
        }
    );

    // 7. Are the two generations' repair-time distributions the same?
    println!("\n== TTR comparison across generations (Mann-Whitney) ==");
    let ttr2: Vec<f64> = t2.iter().map(|r| r.ttr().get()).collect();
    let ttr3: Vec<f64> = t3.iter().map(|r| r.ttr().get()).collect();
    let test = mann_whitney(&ttr2, &ttr3).expect("non-empty");
    println!(
        "U = {:.0}, p = {:.3}, effect size = {:.2} -> {}",
        test.u,
        test.p_value,
        test.effect_size,
        if test.rejects_at(0.05) {
            "distributions differ"
        } else {
            "no significant difference (the paper's point: MTTR did not improve)"
        }
    );
    Ok(())
}
