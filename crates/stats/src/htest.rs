//! Additional hypothesis tests: chi-square goodness of fit and the
//! Mann–Whitney U (Wilcoxon rank-sum) test.
//!
//! Used by the analyses to compare category mixes between generated and
//! expected distributions, and to compare TTR samples across groups
//! (generations, half-years) without normality assumptions.

use crate::special::{gamma_q, std_normal_cdf};

/// The result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareTest {
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom.
    pub dof: usize,
    /// Upper-tail p-value.
    pub p_value: f64,
}

impl ChiSquareTest {
    /// Returns `true` when the observed counts are inconsistent with the
    /// expected distribution at significance `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Chi-square goodness of fit of observed counts against expected
/// *proportions* (normalized internally).
///
/// Returns `None` when the slices differ in length, have fewer than two
/// cells, contain a non-positive expected proportion, or the observed
/// total is zero.
///
/// # Examples
///
/// ```
/// use failstats::chi_square_gof;
///
/// // A fair die, 600 rolls, roughly uniform counts.
/// let observed = [95u64, 105, 99, 101, 102, 98];
/// let test = chi_square_gof(&observed, &[1.0; 6]).unwrap();
/// assert!(!test.rejects_at(0.05));
/// ```
pub fn chi_square_gof(observed: &[u64], expected_weights: &[f64]) -> Option<ChiSquareTest> {
    if observed.len() != expected_weights.len() || observed.len() < 2 {
        return None;
    }
    if expected_weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
        return None;
    }
    let total: u64 = observed.iter().sum();
    if total == 0 {
        return None;
    }
    let weight_sum: f64 = expected_weights.iter().sum();
    let mut stat = 0.0;
    for (&o, &w) in observed.iter().zip(expected_weights) {
        let e = total as f64 * w / weight_sum;
        stat += (o as f64 - e).powi(2) / e;
    }
    let dof = observed.len() - 1;
    Some(ChiSquareTest {
        statistic: stat,
        dof,
        // Upper tail of chi-square(k) = Q(k/2, x/2).
        p_value: gamma_q(dof as f64 / 2.0, stat / 2.0),
    })
}

/// The result of a Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitneyTest {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Normal-approximation z-score (tie-corrected).
    pub z: f64,
    /// Two-sided p-value (normal approximation).
    pub p_value: f64,
    /// The common-language effect size `P(X > Y) + ½P(X = Y)`.
    pub effect_size: f64,
}

impl MannWhitneyTest {
    /// Returns `true` when the two samples' distributions differ at
    /// significance `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-sided Mann–Whitney U test with tie correction and normal
/// approximation (adequate for the sample sizes in failure logs).
///
/// Returns `None` when either sample is empty or the joint sample is
/// constant.
///
/// # Examples
///
/// ```
/// use failstats::mann_whitney;
///
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let b = [10.0, 11.0, 12.0, 13.0, 14.0];
/// let test = mann_whitney(&a, &b).unwrap();
/// assert!(test.rejects_at(0.05));
/// assert!(test.effect_size < 0.1); // a is almost always below b
/// ```
pub fn mann_whitney(a: &[f64], b: &[f64]) -> Option<MannWhitneyTest> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let na = a.len() as f64;
    let nb = b.len() as f64;
    // Rank the pooled sample with mid-ranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&x| (x, 0usize))
        .chain(b.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN in test data"));
    let n = pooled.len();
    let mut ranks = vec![0.0; n];
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = rank;
        }
        i = j + 1;
    }
    let ra: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, g), _)| *g == 0)
        .map(|(_, &r)| r)
        .sum();
    let u = ra - na * (na + 1.0) / 2.0;
    let mean_u = na * nb / 2.0;
    let nn = na + nb;
    let var_u = na * nb / 12.0 * ((nn + 1.0) - tie_term / (nn * (nn - 1.0)));
    if var_u <= 0.0 {
        return None; // constant joint sample
    }
    // Continuity-corrected z.
    let z = (u - mean_u - 0.5 * (u - mean_u).signum()) / var_u.sqrt();
    let p = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    Some(MannWhitneyTest {
        u,
        z,
        p_value: p.clamp(0.0, 1.0),
        effect_size: u / (na * nb),
    })
}

/// Lag-`k` sample autocorrelation of a series.
///
/// Returns `None` when the series is shorter than `k + 2` or has zero
/// variance.
///
/// ```
/// // A strongly periodic series has high lag-2 autocorrelation.
/// let series: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// assert!(failstats::autocorrelation(&series, 2).unwrap() > 0.9);
/// assert!(failstats::autocorrelation(&series, 1).unwrap() < -0.9);
/// ```
pub fn autocorrelation(series: &[f64], k: usize) -> Option<f64> {
    if series.len() < k + 2 {
        return None;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = (0..n - k)
        .map(|i| (series[i] - mean) * (series[i + k] - mean))
        .sum();
    Some(num / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_accepts_matching_counts() {
        let observed = [100u64, 200, 300];
        let test = chi_square_gof(&observed, &[1.0, 2.0, 3.0]).unwrap();
        assert!(test.statistic < 1e-9);
        assert!(test.p_value > 0.99);
        assert_eq!(test.dof, 2);
    }

    #[test]
    fn chi_square_rejects_skewed_counts() {
        let observed = [300u64, 200, 100];
        let test = chi_square_gof(&observed, &[1.0, 2.0, 3.0]).unwrap();
        assert!(test.rejects_at(0.001), "p = {}", test.p_value);
    }

    #[test]
    fn chi_square_degenerate_inputs() {
        assert!(chi_square_gof(&[1, 2], &[1.0]).is_none());
        assert!(chi_square_gof(&[1], &[1.0]).is_none());
        assert!(chi_square_gof(&[1, 2], &[1.0, 0.0]).is_none());
        assert!(chi_square_gof(&[0, 0], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn chi_square_p_value_calibration() {
        // The 95th percentile of chi-square(1) is 3.841.
        let p_at_crit = gamma_q(0.5, 3.841 / 2.0);
        assert!((p_at_crit - 0.05).abs() < 1e-3);
    }

    #[test]
    fn mann_whitney_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let test = mann_whitney(&a, &a).unwrap();
        assert!(!test.rejects_at(0.05));
        assert!((test.effect_size - 0.5).abs() < 0.01);
    }

    #[test]
    fn mann_whitney_shifted_samples() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 20.0).collect();
        let test = mann_whitney(&a, &b).unwrap();
        assert!(test.rejects_at(0.001), "p = {}", test.p_value);
        assert!(test.effect_size < 0.3);
    }

    #[test]
    fn mann_whitney_handles_ties() {
        let a = [1.0, 1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 2.0, 3.0, 3.0, 4.0];
        let test = mann_whitney(&a, &b).unwrap();
        assert!(test.p_value > 0.0 && test.p_value <= 1.0);
        assert!(test.effect_size < 0.5);
    }

    #[test]
    fn mann_whitney_degenerate_inputs() {
        assert!(mann_whitney(&[], &[1.0]).is_none());
        assert!(mann_whitney(&[1.0], &[]).is_none());
        assert!(mann_whitney(&[2.0, 2.0], &[2.0, 2.0]).is_none());
    }

    #[test]
    fn autocorrelation_of_iid_noise_is_small() {
        use crate::dist::ContinuousDist;
        use rand::SeedableRng;
        let d = crate::dist::Exponential::with_mean(1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let series: Vec<f64> = (0..5000).map(|_| d.sample(&mut rng)).collect();
        for k in 1..5 {
            let r = autocorrelation(&series, k).unwrap();
            assert!(r.abs() < 0.05, "lag {k}: {r}");
        }
    }

    #[test]
    fn autocorrelation_degenerate_inputs() {
        assert!(autocorrelation(&[1.0, 2.0], 3).is_none());
        assert!(autocorrelation(&[5.0, 5.0, 5.0, 5.0], 1).is_none());
        // Lag 0 is exactly 1 for any non-constant series.
        assert!((autocorrelation(&[1.0, 2.0, 3.0], 0).unwrap() - 1.0).abs() < 1e-12);
    }
}
