//! Empirical cumulative distribution functions.
//!
//! The paper's headline plots (Figs. 6 and 9) are CDFs of time between
//! failures and time to recovery; [`Ecdf`] is the structure that backs
//! them.

use crate::desc::quantile_sorted;

/// An empirical CDF over a sample.
///
/// # Examples
///
/// ```
/// use failstats::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]).unwrap();
/// assert_eq!(e.eval(0.5), 0.0);
/// assert_eq!(e.eval(2.0), 0.75);
/// assert_eq!(e.eval(100.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// assert_eq!(e.quantile(0.75), 4.0); // type-7 interpolation toward the tail
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF, sorting the sample.
    ///
    /// Returns `None` when the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|x| x.is_nan()) {
            return None;
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Some(Ecdf { sorted: sample })
    }

    /// Builds an ECDF from a sample that is already sorted ascending,
    /// skipping the `O(n log n)` sort of [`Ecdf::new`] — the fast path
    /// for pre-indexed log views.
    ///
    /// Returns `None` when the sample is empty, contains NaN, or is not
    /// actually nondecreasing (so a bad caller degrades to `None`, never
    /// to a silently wrong CDF).
    pub fn from_sorted(sample: Vec<f64>) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|x| x.is_nan()) {
            return None;
        }
        if sample.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        Some(Ecdf { sorted: sample })
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Evaluates `F(x) = #(observations <= x) / n`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile (type-7 interpolation), `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        quantile_sorted(&self.sorted, p).expect("ECDF is never empty")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The sorted sample underlying the ECDF.
    pub fn sorted_sample(&self) -> &[f64] {
        &self.sorted
    }

    /// Returns `(x, F(x))` step points suitable for plotting the CDF curve:
    /// one point per observation, using the right-continuous convention.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Samples the CDF on an evenly spaced grid of `resolution` points from
    /// min to max — the form the figure harness prints for CDF plots.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2`.
    pub fn curve(&self, resolution: usize) -> Vec<(f64, f64)> {
        assert!(resolution >= 2, "curve needs at least two points");
        let (lo, hi) = (self.min(), self.max());
        let step = (hi - lo) / (resolution - 1) as f64;
        (0..resolution)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Dvoretzky–Kiefer–Wolfowitz confidence band half-width: with
    /// probability at least `level`, the true CDF lies within `±ε` of
    /// this ECDF everywhere, `ε = sqrt(ln(2/α) / (2n))`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `(0, 1)`.
    ///
    /// ```
    /// use failstats::Ecdf;
    /// let e = Ecdf::new((1..=200).map(f64::from).collect()).unwrap();
    /// let eps = e.dkw_band(0.95);
    /// assert!(eps > 0.0 && eps < 0.12);
    /// ```
    pub fn dkw_band(&self, level: f64) -> f64 {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1)"
        );
        let alpha = 1.0 - level;
        ((2.0 / alpha).ln() / (2.0 * self.sorted.len() as f64)).sqrt()
    }

    /// Kolmogorov–Smirnov distance to another ECDF (two-sample statistic).
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in &self.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        for &x in &other.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(vec![]).is_none());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_none());
    }

    #[test]
    fn from_sorted_matches_new() {
        let sample = vec![9.0, 1.0, 4.0, 4.0, 2.5];
        let via_new = Ecdf::new(sample.clone()).unwrap();
        let mut sorted = sample;
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let via_sorted = Ecdf::from_sorted(sorted).unwrap();
        assert_eq!(via_new, via_sorted);
    }

    #[test]
    fn from_sorted_rejects_bad_input() {
        assert!(Ecdf::from_sorted(vec![]).is_none());
        assert!(Ecdf::from_sorted(vec![1.0, f64::NAN]).is_none());
        assert!(Ecdf::from_sorted(vec![2.0, 1.0]).is_none());
    }

    #[test]
    fn eval_is_right_continuous_step() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.eval(0.99), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(1.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(vec![5.0, 5.0, 5.0, 6.0]).unwrap();
        assert_eq!(e.eval(5.0), 0.75);
        assert_eq!(e.eval(4.9), 0.0);
        assert_eq!(e.n(), 4);
    }

    #[test]
    fn quantile_and_moments() {
        let e = Ecdf::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.quantile(0.5), 2.5);
        assert_eq!(e.mean(), 2.5);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert_eq!(e.sorted_sample(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn points_are_monotone() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
        let pts = e.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn curve_spans_range() {
        let e = Ecdf::new(vec![0.0, 10.0]).unwrap();
        let c = e.curve(11);
        assert_eq!(c.len(), 11);
        assert_eq!(c[0].0, 0.0);
        assert_eq!(c[10].0, 10.0);
        assert_eq!(c[10].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn curve_rejects_tiny_resolution() {
        let e = Ecdf::new(vec![1.0]).unwrap();
        let _ = e.curve(1);
    }

    #[test]
    fn dkw_band_shrinks_with_n_and_grows_with_level() {
        let small = Ecdf::new((1..=20).map(f64::from).collect()).unwrap();
        let large = Ecdf::new((1..=2000).map(f64::from).collect()).unwrap();
        assert!(large.dkw_band(0.95) < small.dkw_band(0.95));
        assert!(small.dkw_band(0.99) > small.dkw_band(0.90));
        // Known value: n = 200, 95% -> sqrt(ln(40)/400) ~ 0.0961.
        let e = Ecdf::new((1..=200).map(f64::from).collect()).unwrap();
        assert!((e.dkw_band(0.95) - 0.0961).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn dkw_band_rejects_bad_level() {
        let e = Ecdf::new(vec![1.0]).unwrap();
        let _ = e.dkw_band(1.0);
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]).unwrap();
        let b = Ecdf::new(vec![10.0, 20.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }
}
