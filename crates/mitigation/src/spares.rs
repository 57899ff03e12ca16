//! Spare-part provisioning.
//!
//! The paper's RQ5 discussion: "The longer recovery times highlight the
//! need for appropriate spare provisioning of parts", balanced against
//! the cost of "keeping an excessive number of spare components on-site".
//! This module sizes a spare pool analytically (Poisson demand during the
//! replenishment lead time) and validates the sizing with a discrete-event
//! inventory simulation.

use failscope::StreamView;
use failstats::{sample_poisson, ContinuousDist, Exponential};
use failtypes::ComponentClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A spare-provisioning policy for one component class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparePolicy {
    /// Mean failures (spare demands) per hour.
    pub demand_rate_per_hour: f64,
    /// Hours to replenish a consumed spare (procurement lead time).
    pub lead_time_hours: f64,
}

impl SparePolicy {
    /// Creates a policy; `None` for non-positive inputs.
    pub fn new(demand_rate_per_hour: f64, lead_time_hours: f64) -> Option<Self> {
        (demand_rate_per_hour > 0.0
            && demand_rate_per_hour.is_finite()
            && lead_time_hours > 0.0
            && lead_time_hours.is_finite())
        .then_some(SparePolicy {
            demand_rate_per_hour,
            lead_time_hours,
        })
    }

    /// Derives the demand rate from a measured [`StreamView`] for one
    /// component class (replacement-driven categories).
    ///
    /// Returns `None` when the class never failed.
    pub fn from_index(
        index: &StreamView,
        class: ComponentClass,
        lead_time_hours: f64,
    ) -> Option<Self> {
        let mtbf = failscope::class_mtbf_hours(index, class)?;
        Self::new(1.0 / mtbf, lead_time_hours)
    }

    /// Mean demand during one replenishment lead time.
    pub fn lead_time_demand(&self) -> f64 {
        self.demand_rate_per_hour * self.lead_time_hours
    }

    /// Probability that a demand finds no spare on hand with a base stock
    /// of `s`: `P(X >= s)` for Poisson lead-time demand `X` (a demand
    /// stocks out when at least `s` replenishments are already
    /// outstanding).
    pub fn stockout_probability(&self, spares: u32) -> f64 {
        if spares == 0 {
            return 1.0;
        }
        let lambda = self.lead_time_demand();
        // P(X >= s) = 1 - P(X <= s-1); Poisson CDF via the regularized
        // incomplete gamma: P(X <= k) = Q(k+1, λ).
        1.0 - failstats::special::gamma_q(spares as f64, lambda)
    }

    /// Smallest spare count whose stockout probability is at most
    /// `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 1)`.
    pub fn required_spares(&self, epsilon: f64) -> u32 {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "stockout tolerance must be in (0,1)"
        );
        let mut s = 0u32;
        while self.stockout_probability(s) > epsilon {
            s += 1;
            if s > 1_000_000 {
                unreachable!("stockout probability is monotone decreasing in s");
            }
        }
        s
    }
}

/// The outcome of a stochastic inventory simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InventoryOutcome {
    /// Demands that found a spare on hand.
    pub served_immediately: u64,
    /// Demands that had to wait for a replenishment.
    pub stockouts: u64,
    /// Fraction of demands that stocked out.
    pub stockout_fraction: f64,
}

/// Simulates a spare pool of size `spares` against Poisson failure demand
/// for `horizon_hours`, with one replenishment order (taking the policy's
/// lead time) per consumed spare.
///
/// Deterministic for a fixed seed; used to validate
/// [`SparePolicy::required_spares`].
pub fn simulate_inventory(
    policy: SparePolicy,
    spares: u32,
    horizon_hours: f64,
    seed: u64,
) -> InventoryOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let gap = Exponential::new(policy.demand_rate_per_hour).expect("validated rate");
    // Outstanding replenishment arrival times, unsorted (small).
    let mut arrivals: Vec<f64> = Vec::new();
    let mut on_hand = spares as i64;
    let mut t = 0.0;
    let mut served = 0u64;
    let mut stockouts = 0u64;
    loop {
        t += gap.sample(&mut rng);
        if t >= horizon_hours {
            break;
        }
        // Receive any replenishments that arrived by now.
        arrivals.retain(|&a| {
            if a <= t {
                on_hand += 1;
                false
            } else {
                true
            }
        });
        if on_hand > 0 {
            served += 1;
        } else {
            stockouts += 1;
        }
        // Consume (or owe) a spare and order a replacement.
        on_hand -= 1;
        arrivals.push(t + policy.lead_time_hours);
    }
    let total = served + stockouts;
    InventoryOutcome {
        served_immediately: served,
        stockouts,
        stockout_fraction: if total > 0 {
            stockouts as f64 / total as f64
        } else {
            0.0
        },
    }
}

/// Convenience: expected number of demands over a horizon (for sizing
/// simulation lengths in examples and benches).
pub fn expected_demands(policy: SparePolicy, horizon_hours: f64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_poisson(policy.demand_rate_per_hour * horizon_hours, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use failscope::StreamView;
    use failsim::{Simulator, SystemModel};

    #[test]
    fn policy_construction() {
        assert!(SparePolicy::new(0.0, 10.0).is_none());
        assert!(SparePolicy::new(0.1, 0.0).is_none());
        assert!(SparePolicy::new(f64::NAN, 1.0).is_none());
        let p = SparePolicy::new(0.05, 100.0).unwrap();
        assert!((p.lead_time_demand() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stockout_probability_matches_poisson() {
        let p = SparePolicy::new(0.02, 100.0).unwrap(); // λ = 2
        // No spares: every demand stocks out.
        assert_eq!(p.stockout_probability(0), 1.0);
        // P(X >= 1) = 1 - e^-2.
        assert!((p.stockout_probability(1) - (1.0 - (-2.0f64).exp())).abs() < 1e-9);
        // P(X >= 2) = 1 - e^-2 (1 + 2).
        let expected = 1.0 - (-2.0f64).exp() * 3.0;
        assert!((p.stockout_probability(2) - expected).abs() < 1e-9);
        // Monotone decreasing.
        for s in 0..20 {
            assert!(p.stockout_probability(s + 1) <= p.stockout_probability(s) + 1e-12);
        }
    }

    #[test]
    fn required_spares_thresholds() {
        let p = SparePolicy::new(0.02, 100.0).unwrap(); // λ = 2
        let s = p.required_spares(0.05);
        assert!(p.stockout_probability(s) <= 0.05);
        if s > 0 {
            assert!(p.stockout_probability(s - 1) > 0.05);
        }
        // Tighter tolerance needs at least as many spares.
        assert!(p.required_spares(0.001) >= s);
    }

    #[test]
    fn simulation_validates_analytic_sizing() {
        let p = SparePolicy::new(0.05, 50.0).unwrap(); // λ = 2.5
        let s = p.required_spares(0.05);
        let outcome = simulate_inventory(p, s, 2_000_000.0, 9);
        // The analytic model slightly overestimates risk (it ignores that
        // multiple outstanding orders overlap); the simulated rate must be
        // within the tolerance with margin for noise.
        assert!(
            outcome.stockout_fraction < 0.08,
            "stockout fraction {}",
            outcome.stockout_fraction
        );
        assert!(outcome.served_immediately > 0);
    }

    #[test]
    fn zero_spares_stock_out_heavily() {
        let p = SparePolicy::new(0.05, 50.0).unwrap();
        let none = simulate_inventory(p, 0, 500_000.0, 10);
        let plenty = simulate_inventory(p, 20, 500_000.0, 10);
        assert!(none.stockout_fraction > 0.5);
        assert!(plenty.stockout_fraction < 0.01);
    }

    #[test]
    fn from_measured_log() {
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let view = StreamView::new(&t3);
        let p = SparePolicy::from_index(&view, ComponentClass::Gpu, 14.0 * 24.0).unwrap();
        // GPU MTBF ≈ 260 h, lead time 336 h → λ ≈ 1.3.
        assert!((p.lead_time_demand() - 1.29).abs() < 0.1);
        let s = p.required_spares(0.05);
        assert!((2..=6).contains(&s), "spares {s}");
        // A class that never fails yields None.
        let empty = t3.filtered(|_| false);
        let view = StreamView::new(&empty);
        assert!(SparePolicy::from_index(&view, ComponentClass::Gpu, 100.0).is_none());
    }

    #[test]
    fn deterministic_simulation() {
        let p = SparePolicy::new(0.01, 100.0).unwrap();
        let a = simulate_inventory(p, 2, 100_000.0, 5);
        let b = simulate_inventory(p, 2, 100_000.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn required_spares_rejects_bad_epsilon() {
        let p = SparePolicy::new(0.01, 10.0).unwrap();
        let _ = p.required_spares(0.0);
    }

    #[test]
    fn expected_demands_scales_with_horizon() {
        let p = SparePolicy::new(0.01, 10.0).unwrap();
        let d = expected_demands(p, 1_000_000.0, 3);
        assert!((d as f64 - 10_000.0).abs() < 500.0, "demands {d}");
    }
}
