//! Exact confidence intervals for Poisson event rates (and therefore for
//! MTBF estimates).
//!
//! A field study quoting "MTBF ≈ 15 h" from 897 events should also say
//! how tight that estimate is; the chi-square (Garwood) interval is the
//! standard exact answer.

use crate::special::gamma_p_inv;

/// Chi-square quantile with `dof` degrees of freedom (via the regularized
/// incomplete gamma inverse).
///
/// # Panics
///
/// Panics if `dof <= 0` or `p` is outside `[0, 1)`.
pub fn chi_square_quantile(dof: f64, p: f64) -> f64 {
    assert!(dof > 0.0, "degrees of freedom must be positive");
    2.0 * gamma_p_inv(dof / 2.0, p)
}

/// An exact (Garwood) confidence interval for a Poisson rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateInterval {
    /// Point estimate: events / exposure.
    pub rate: f64,
    /// Lower bound of the rate.
    pub lower: f64,
    /// Upper bound of the rate.
    pub upper: f64,
    /// Confidence level.
    pub level: f64,
}

impl RateInterval {
    /// The interval for the *mean time between events* implied by the
    /// rate interval: `(1/upper, 1/lower)`; the upper MTBF bound is
    /// infinite when zero events were observed.
    pub fn mtbf_interval(&self) -> (f64, f64) {
        let hi = if self.lower > 0.0 {
            1.0 / self.lower
        } else {
            f64::INFINITY
        };
        (1.0 / self.upper, hi)
    }

    /// The MTBF point estimate `1/rate` (infinite for zero events).
    pub fn mtbf(&self) -> f64 {
        if self.rate > 0.0 {
            1.0 / self.rate
        } else {
            f64::INFINITY
        }
    }
}

/// Exact two-sided confidence interval for a Poisson rate from `events`
/// observed over `exposure` (e.g. hours, node-hours).
///
/// Returns `None` when `exposure` is not positive or `level` is outside
/// `(0, 1)`. Zero events yield a zero lower bound.
///
/// # Examples
///
/// ```
/// use failstats::poisson_rate_ci;
///
/// // 897 failures over 13728 hours: the rate is tightly determined.
/// let ci = poisson_rate_ci(897, 13728.0, 0.95).unwrap();
/// assert!(ci.lower < ci.rate && ci.rate < ci.upper);
/// let (mtbf_lo, mtbf_hi) = ci.mtbf_interval();
/// assert!(mtbf_lo > 14.0 && mtbf_hi < 17.0);
/// ```
pub fn poisson_rate_ci(events: u64, exposure: f64, level: f64) -> Option<RateInterval> {
    if exposure <= 0.0 || !exposure.is_finite() || !(level > 0.0 && level < 1.0) {
        return None;
    }
    let alpha = 1.0 - level;
    let n = events as f64;
    let lower = if events == 0 {
        0.0
    } else {
        chi_square_quantile(2.0 * n, alpha / 2.0) / 2.0 / exposure
    };
    let upper = chi_square_quantile(2.0 * n + 2.0, 1.0 - alpha / 2.0) / 2.0 / exposure;
    Some(RateInterval {
        rate: n / exposure,
        lower,
        upper,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_quantiles_match_tables() {
        // Standard table values.
        assert!((chi_square_quantile(1.0, 0.95) - 3.841).abs() < 0.01);
        assert!((chi_square_quantile(2.0, 0.95) - 5.991).abs() < 0.01);
        assert!((chi_square_quantile(10.0, 0.5) - 9.342).abs() < 0.01);
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let ci = poisson_rate_ci(338, 24_456.0, 0.95).unwrap();
        assert!(ci.lower < ci.rate);
        assert!(ci.rate < ci.upper);
        assert!((ci.rate - 338.0 / 24_456.0).abs() < 1e-12);
        // MTBF point estimate ≈ 72.4 h with a tight band.
        assert!((ci.mtbf() - 72.35).abs() < 0.1);
        let (lo, hi) = ci.mtbf_interval();
        assert!(lo > 64.0 && lo < ci.mtbf());
        assert!(hi > ci.mtbf() && hi < 82.0);
    }

    #[test]
    fn more_events_tighten_the_interval() {
        let small = poisson_rate_ci(10, 1000.0, 0.95).unwrap();
        let large = poisson_rate_ci(1000, 100_000.0, 0.95).unwrap();
        // Same rate, different widths (relative).
        let rel = |ci: &RateInterval| (ci.upper - ci.lower) / ci.rate;
        assert!(rel(&large) < rel(&small));
    }

    #[test]
    fn zero_events_has_zero_lower_and_finite_upper() {
        let ci = poisson_rate_ci(0, 1000.0, 0.95).unwrap();
        assert_eq!(ci.lower, 0.0);
        assert!(ci.upper > 0.0);
        assert_eq!(ci.rate, 0.0);
        assert_eq!(ci.mtbf(), f64::INFINITY);
        let (lo, hi) = ci.mtbf_interval();
        assert!(lo.is_finite());
        assert_eq!(hi, f64::INFINITY);
        // Classic "rule of three": upper ≈ 3/T at 95%.
        assert!((ci.upper * 1000.0 - 3.0).abs() < 0.7);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(poisson_rate_ci(5, 0.0, 0.95).is_none());
        assert!(poisson_rate_ci(5, -1.0, 0.95).is_none());
        assert!(poisson_rate_ci(5, f64::NAN, 0.95).is_none());
        assert!(poisson_rate_ci(5, 10.0, 0.0).is_none());
        assert!(poisson_rate_ci(5, 10.0, 1.0).is_none());
    }

    #[test]
    fn coverage_sanity_via_duality() {
        // For n events, the lower bound L satisfies
        // P(Poisson(L·T) >= n) = α/2: check via the gamma identity.
        let ci = poisson_rate_ci(20, 100.0, 0.9).unwrap();
        let lt = ci.lower * 100.0;
        // P(X >= 20 | λ = lt) = P(20, lt) regularized gamma.
        let p = crate::special::gamma_p(20.0, lt);
        assert!((p - 0.05).abs() < 1e-6, "duality p = {p}");
    }
}
