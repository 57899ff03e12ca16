//! Survival analysis: the Kaplan–Meier estimator and derived summaries.
//!
//! Field studies of GPU fleets (e.g. the Titan GPU-lifetimes study the
//! paper cites) characterize component reliability with survival curves
//! over possibly right-censored lifetimes; `failscope` uses this module
//! for node/GPU lifetime analyses.

/// One observed lifetime: the duration and whether the event (failure)
/// was observed or the observation was censored (still alive at the end
/// of the window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lifetime {
    /// Observed duration.
    pub duration: f64,
    /// `true` when the failure was observed; `false` when censored.
    pub observed: bool,
}

impl Lifetime {
    /// An observed (uncensored) failure at `duration`.
    pub const fn observed(duration: f64) -> Self {
        Lifetime {
            duration,
            observed: true,
        }
    }

    /// A right-censored observation at `duration`.
    pub const fn censored(duration: f64) -> Self {
        Lifetime {
            duration,
            observed: false,
        }
    }
}

/// A step of the Kaplan–Meier survival curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalStep {
    /// Event time.
    pub time: f64,
    /// Survival probability `S(t)` just after this time.
    pub survival: f64,
    /// Subjects at risk just before this time.
    pub at_risk: usize,
    /// Events (failures) at this time.
    pub events: usize,
}

/// The Kaplan–Meier product-limit estimator.
///
/// # Examples
///
/// ```
/// use failstats::{KaplanMeier, Lifetime};
///
/// let km = KaplanMeier::fit(&[
///     Lifetime::observed(2.0),
///     Lifetime::observed(4.0),
///     Lifetime::censored(5.0),
///     Lifetime::observed(8.0),
/// ]).unwrap();
/// assert!((km.survival_at(3.0) - 0.75).abs() < 1e-12);
/// assert!(km.survival_at(9.0) < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KaplanMeier {
    steps: Vec<SurvivalStep>,
    n: usize,
}

impl KaplanMeier {
    /// Fits the estimator.
    ///
    /// Returns `None` for an empty sample or any negative/non-finite
    /// duration.
    pub fn fit(lifetimes: &[Lifetime]) -> Option<Self> {
        if lifetimes.is_empty()
            || lifetimes
                .iter()
                .any(|l| l.duration < 0.0 || !l.duration.is_finite())
        {
            return None;
        }
        let mut sorted = lifetimes.to_vec();
        sorted.sort_by(|a, b| a.duration.partial_cmp(&b.duration).expect("finite"));
        let n = sorted.len();
        let mut steps = Vec::new();
        let mut survival = 1.0;
        let mut i = 0;
        while i < n {
            let t = sorted[i].duration;
            let at_risk = n - i;
            let mut events = 0;
            // Consume all observations at this exact time.
            let mut j = i;
            while j < n && sorted[j].duration == t {
                if sorted[j].observed {
                    events += 1;
                }
                j += 1;
            }
            if events > 0 {
                survival *= 1.0 - events as f64 / at_risk as f64;
                steps.push(SurvivalStep {
                    time: t,
                    survival,
                    at_risk,
                    events,
                });
            }
            i = j;
        }
        Some(KaplanMeier { steps, n })
    }

    /// The survival curve steps (only event times appear).
    pub fn steps(&self) -> &[SurvivalStep] {
        &self.steps
    }

    /// Number of subjects.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// `S(t)`: the probability of surviving beyond `t`.
    pub fn survival_at(&self, t: f64) -> f64 {
        let mut s = 1.0;
        for step in &self.steps {
            if step.time <= t {
                s = step.survival;
            } else {
                break;
            }
        }
        s
    }

    /// Median survival time: the first event time where `S(t)` drops to
    /// 0.5 or below. `None` when the curve never reaches 0.5 (heavy
    /// censoring).
    pub fn median_survival(&self) -> Option<f64> {
        self.steps
            .iter()
            .find(|s| s.survival <= 0.5)
            .map(|s| s.time)
    }

    /// Restricted mean survival time up to `horizon`: the area under the
    /// survival curve on `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn restricted_mean(&self, horizon: f64) -> f64 {
        assert!(horizon > 0.0, "horizon must be positive");
        let mut area = 0.0;
        let mut prev_t = 0.0;
        let mut prev_s = 1.0;
        for step in &self.steps {
            if step.time >= horizon {
                break;
            }
            area += prev_s * (step.time - prev_t);
            prev_t = step.time;
            prev_s = step.survival;
        }
        area + prev_s * (horizon - prev_t)
    }
}

/// A step of the Nelson–Aalen cumulative-hazard curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardStep {
    /// Event time.
    pub time: f64,
    /// Cumulative hazard `H(t)` just after this time.
    pub cumulative_hazard: f64,
    /// Subjects at risk just before this time.
    pub at_risk: usize,
    /// Events at this time.
    pub events: usize,
}

/// The Nelson–Aalen cumulative-hazard estimator, the additive companion
/// of [`KaplanMeier`] (`S(t) ≈ exp(-H(t))`).
///
/// # Examples
///
/// ```
/// use failstats::{Lifetime, NelsonAalen};
///
/// let na = NelsonAalen::fit(&[
///     Lifetime::observed(2.0),
///     Lifetime::observed(4.0),
///     Lifetime::censored(5.0),
/// ]).unwrap();
/// // H(2) = 1/3; H(4) = 1/3 + 1/2.
/// assert!((na.cumulative_hazard_at(3.0) - 1.0 / 3.0).abs() < 1e-12);
/// assert!((na.cumulative_hazard_at(4.5) - (1.0 / 3.0 + 0.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NelsonAalen {
    steps: Vec<HazardStep>,
    n: usize,
}

impl NelsonAalen {
    /// Fits the estimator.
    ///
    /// Returns `None` for an empty sample or any negative/non-finite
    /// duration.
    pub fn fit(lifetimes: &[Lifetime]) -> Option<Self> {
        if lifetimes.is_empty()
            || lifetimes
                .iter()
                .any(|l| l.duration < 0.0 || !l.duration.is_finite())
        {
            return None;
        }
        let mut sorted = lifetimes.to_vec();
        sorted.sort_by(|a, b| a.duration.partial_cmp(&b.duration).expect("finite"));
        let n = sorted.len();
        let mut steps = Vec::new();
        let mut hazard = 0.0;
        let mut i = 0;
        while i < n {
            let t = sorted[i].duration;
            let at_risk = n - i;
            let mut events = 0;
            let mut j = i;
            while j < n && sorted[j].duration == t {
                if sorted[j].observed {
                    events += 1;
                }
                j += 1;
            }
            if events > 0 {
                hazard += events as f64 / at_risk as f64;
                steps.push(HazardStep {
                    time: t,
                    cumulative_hazard: hazard,
                    at_risk,
                    events,
                });
            }
            i = j;
        }
        Some(NelsonAalen { steps, n })
    }

    /// The cumulative-hazard steps (only event times appear).
    pub fn steps(&self) -> &[HazardStep] {
        &self.steps
    }

    /// Number of subjects.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// `H(t)`: the cumulative hazard up to and including `t`.
    pub fn cumulative_hazard_at(&self, t: f64) -> f64 {
        let mut h = 0.0;
        for step in &self.steps {
            if step.time <= t {
                h = step.cumulative_hazard;
            } else {
                break;
            }
        }
        h
    }

    /// Average hazard rate over `(a, b]`:
    /// `(H(b) - H(a)) / (b - a)` — an empirical failure rate usable for
    /// piecewise-exponential models.
    ///
    /// # Panics
    ///
    /// Panics if `b <= a`.
    pub fn mean_hazard_rate(&self, a: f64, b: f64) -> f64 {
        assert!(b > a, "interval must have positive length");
        (self.cumulative_hazard_at(b) - self.cumulative_hazard_at(a)) / (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Exponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_input() {
        assert!(KaplanMeier::fit(&[]).is_none());
        assert!(KaplanMeier::fit(&[Lifetime::observed(-1.0)]).is_none());
        assert!(KaplanMeier::fit(&[Lifetime::observed(f64::NAN)]).is_none());
    }

    #[test]
    fn no_censoring_matches_empirical_survival() {
        // Without censoring, KM is 1 - ECDF.
        let data = [1.0, 2.0, 3.0, 4.0];
        let km = KaplanMeier::fit(
            &data.map(Lifetime::observed),
        )
        .unwrap();
        assert!((km.survival_at(0.5) - 1.0).abs() < 1e-12);
        assert!((km.survival_at(1.0) - 0.75).abs() < 1e-12);
        assert!((km.survival_at(2.5) - 0.5).abs() < 1e-12);
        assert!((km.survival_at(4.0) - 0.0).abs() < 1e-12);
        assert_eq!(km.median_survival(), Some(2.0));
        assert_eq!(km.n(), 4);
    }

    #[test]
    fn censoring_keeps_curve_higher() {
        let observed = [2.0, 4.0, 6.0, 8.0].map(Lifetime::observed);
        let censored = [
            Lifetime::observed(2.0),
            Lifetime::censored(4.0),
            Lifetime::observed(6.0),
            Lifetime::censored(8.0),
        ];
        let km_obs = KaplanMeier::fit(&observed).unwrap();
        let km_cen = KaplanMeier::fit(&censored).unwrap();
        for &t in &[3.0, 5.0, 7.0] {
            assert!(km_cen.survival_at(t) >= km_obs.survival_at(t));
        }
    }

    #[test]
    fn ties_are_handled() {
        let km = KaplanMeier::fit(&[
            Lifetime::observed(3.0),
            Lifetime::observed(3.0),
            Lifetime::observed(5.0),
            Lifetime::censored(3.0),
        ])
        .unwrap();
        // At t=3: 4 at risk, 2 events → S = 1/2.
        assert!((km.survival_at(3.0) - 0.5).abs() < 1e-12);
        assert_eq!(km.steps()[0].at_risk, 4);
        assert_eq!(km.steps()[0].events, 2);
    }

    #[test]
    fn heavily_censored_median_is_none() {
        let km = KaplanMeier::fit(&[
            Lifetime::observed(1.0),
            Lifetime::censored(10.0),
            Lifetime::censored(10.0),
            Lifetime::censored(10.0),
        ])
        .unwrap();
        assert!(km.survival_at(20.0) > 0.5);
        assert!(km.median_survival().is_none());
    }

    #[test]
    fn restricted_mean_of_exponential_sample() {
        // RMST over a long horizon approaches the exponential mean.
        let d = Exponential::with_mean(10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let lifetimes: Vec<Lifetime> = (0..5000)
            .map(|_| Lifetime::observed(d.sample(&mut rng)))
            .collect();
        let km = KaplanMeier::fit(&lifetimes).unwrap();
        let rmst = km.restricted_mean(100.0);
        assert!((rmst - 10.0).abs() < 0.5, "rmst {rmst}");
        // Median of exponential = mean·ln2.
        let median = km.median_survival().unwrap();
        assert!((median - 10.0 * 2.0f64.ln()).abs() < 0.5, "median {median}");
    }

    #[test]
    fn restricted_mean_short_horizon() {
        let km = KaplanMeier::fit(&[Lifetime::observed(10.0)]).unwrap();
        // Everything survives past 5, so RMST(5) = 5.
        assert!((km.restricted_mean(5.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn restricted_mean_rejects_zero_horizon() {
        let km = KaplanMeier::fit(&[Lifetime::observed(1.0)]).unwrap();
        let _ = km.restricted_mean(0.0);
    }

    #[test]
    fn nelson_aalen_matches_km_exponentiation() {
        // For modest hazards, S(t) ≈ exp(-H(t)).
        let d = Exponential::with_mean(10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let lifetimes: Vec<Lifetime> = (0..2000)
            .map(|_| Lifetime::observed(d.sample(&mut rng)))
            .collect();
        let km = KaplanMeier::fit(&lifetimes).unwrap();
        let na = NelsonAalen::fit(&lifetimes).unwrap();
        for &t in &[2.0, 5.0, 10.0, 20.0] {
            let s = km.survival_at(t);
            let h = na.cumulative_hazard_at(t);
            assert!(((-h).exp() - s).abs() < 0.02, "t = {t}: exp(-H) = {}, S = {s}", (-h).exp());
        }
    }

    #[test]
    fn nelson_aalen_constant_hazard_of_exponential() {
        // The exponential's hazard is flat at 1/mean.
        let d = Exponential::with_mean(10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let lifetimes: Vec<Lifetime> = (0..20_000)
            .map(|_| Lifetime::observed(d.sample(&mut rng)))
            .collect();
        let na = NelsonAalen::fit(&lifetimes).unwrap();
        for (a, b) in [(0.0, 5.0), (5.0, 10.0), (10.0, 20.0)] {
            let rate = na.mean_hazard_rate(a, b);
            assert!((rate - 0.1).abs() < 0.01, "({a},{b}): rate {rate}");
        }
    }

    #[test]
    fn nelson_aalen_rejects_bad_input() {
        assert!(NelsonAalen::fit(&[]).is_none());
        assert!(NelsonAalen::fit(&[Lifetime::observed(-1.0)]).is_none());
        let na = NelsonAalen::fit(&[Lifetime::censored(5.0)]).unwrap();
        assert_eq!(na.cumulative_hazard_at(100.0), 0.0);
        assert_eq!(na.n(), 1);
        assert!(na.steps().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn mean_hazard_rejects_empty_interval() {
        let na = NelsonAalen::fit(&[Lifetime::observed(1.0)]).unwrap();
        let _ = na.mean_hazard_rate(5.0, 5.0);
    }
}
