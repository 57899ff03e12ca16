//! Descriptive statistics: means, variances, quantiles, and five-number
//! summaries.

use std::fmt;

/// Arithmetic mean; `None` for an empty slice.
///
/// ```
/// assert_eq!(failstats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(failstats::mean(&[]), None);
/// ```
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    Some(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased sample variance (n-1 denominator); `None` for fewer than two
/// observations.
pub fn variance(data: &[f64]) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
    let m = mean(data)?;
    Some(data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (data.len() - 1) as f64)
}

/// Sample standard deviation; `None` for fewer than two observations.
pub fn std_dev(data: &[f64]) -> Option<f64> {
    variance(data).map(f64::sqrt)
}

/// Coefficient of variation `σ / μ`; `None` when undefined (fewer than two
/// observations or zero mean).
///
/// The paper's temporal-clustering analysis (Fig. 8) uses the CV of
/// inter-arrival times: CV > 1 indicates burstier-than-Poisson arrivals.
pub fn coefficient_of_variation(data: &[f64]) -> Option<f64> {
    let m = mean(data)?;
    if m == 0.0 {
        return None;
    }
    Some(std_dev(data)? / m)
}

/// Type-7 (linear interpolation) quantile of *sorted* data, `p` in
/// `[0, 1]`.
///
/// This matches the default of NumPy/R, the stacks field studies typically
/// use, so percentile statements in the paper compare directly.
///
/// Returns `None` for empty data.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or the data is not sorted ascending
/// (checked with `debug_assert`).
///
/// ```
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(failstats::quantile_sorted(&data, 0.5), Some(2.5));
/// assert_eq!(failstats::quantile_sorted(&data, 0.0), Some(1.0));
/// assert_eq!(failstats::quantile_sorted(&data, 1.0), Some(4.0));
/// ```
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted requires ascending data"
    );
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Sorts a copy of the data and evaluates [`quantile_sorted`].
pub fn quantile(data: &[f64], p: f64) -> Option<f64> {
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile data must not contain NaN"));
    quantile_sorted(&v, p)
}

/// Median (50th percentile).
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// A five-number-plus summary of a sample: the box-plot statistics used by
/// Figs. 7 and 10 plus mean and standard deviation.
///
/// # Examples
///
/// ```
/// use failstats::Summary;
///
/// let s = Summary::from_data(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(s.n(), 5);
/// assert_eq!(s.median(), 3.0);
/// assert_eq!(s.max(), 100.0);
/// assert!(s.iqr() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    max: f64,
}

impl Summary {
    /// Computes the summary; `None` for empty data.
    ///
    /// A single observation yields zero standard deviation.
    pub fn from_data(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("summary data must not contain NaN"));
        Some(Summary {
            n: data.len(),
            mean: mean(data)?,
            std_dev: std_dev(data).unwrap_or(0.0),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25)?,
            median: quantile_sorted(&sorted, 0.5)?,
            q3: quantile_sorted(&sorted, 0.75)?,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Number of observations.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Arithmetic mean.
    pub const fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (zero for a single observation).
    pub const fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Minimum.
    pub const fn min(&self) -> f64 {
        self.min
    }

    /// First quartile (25th percentile).
    pub const fn q1(&self) -> f64 {
        self.q1
    }

    /// Median.
    pub const fn median(&self) -> f64 {
        self.median
    }

    /// Third quartile (75th percentile).
    pub const fn q3(&self) -> f64 {
        self.q3
    }

    /// Maximum.
    pub const fn max(&self) -> f64 {
        self.max
    }

    /// Interquartile range `q3 - q1`, the "spread" measure the paper uses
    /// when comparing failure types.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} q1={:.2} med={:.2} q3={:.2} max={:.2}",
            self.n, self.mean, self.std_dev, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(variance(&[2.0, 4.0]), Some(2.0));
        assert_eq!(std_dev(&[2.0, 4.0]), Some(2.0f64.sqrt()));
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn variance_is_translation_invariant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = a.iter().map(|x| x + 1000.0).collect();
        assert!((variance(&a).unwrap() - variance(&b).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn cv_of_exponential_like_data_is_one_ish() {
        // For a constant sample CV = 0.
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), None);
        assert_eq!(coefficient_of_variation(&[1.0]), None);
        let cv = coefficient_of_variation(&[1.0, 3.0]).unwrap();
        assert!((cv - 2.0f64.sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_type7_matches_reference() {
        // Reference values from R's quantile(type = 7).
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&data, 0.25), Some(20.0));
        assert_eq!(quantile(&data, 0.5), Some(30.0));
        assert_eq!(quantile(&data, 0.1), Some(14.0));
        assert_eq!(quantile(&data, 0.9), Some(46.0));
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.25), Some(1.75));
        assert_eq!(quantile(&data, 0.75), Some(3.25));
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        // Unsorted input is handled by `quantile`.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "p in [0,1]")]
    fn quantile_rejects_bad_p() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_computes_all_fields() {
        let s = Summary::from_data(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.q1(), 1.75);
        assert_eq!(s.q3(), 3.25);
        assert!((s.iqr() - 1.5).abs() < 1e-12);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    fn summary_single_observation() {
        let s = Summary::from_data(&[42.0]).unwrap();
        assert_eq!(s.n(), 1);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_data(&[]).is_none());
    }

    #[test]
    fn summary_display() {
        let s = Summary::from_data(&[1.0, 2.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("med=1.50"));
    }
}
