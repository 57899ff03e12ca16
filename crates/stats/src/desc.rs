//! Descriptive statistics: means, variances, quantiles, and five-number
//! summaries.

use std::fmt;

use crate::ExactSum;

/// Arithmetic mean; `None` for an empty slice.
///
/// The sum is exact and rounded once ([`ExactSum`]), so the mean does
/// not depend on the order of `data`.
///
/// ```
/// assert_eq!(failstats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(failstats::mean(&[]), None);
/// ```
pub fn mean(data: &[f64]) -> Option<f64> {
    data.iter().copied().collect::<ExactSum>().mean()
}

/// Unbiased sample variance (n-1 denominator); `None` for fewer than two
/// observations.
pub fn variance(data: &[f64]) -> Option<f64> {
    variance_about(data, mean(data)?)
}

/// [`variance`] about an already computed mean `m` of `data`, so a
/// caller that needs both sums the data once.
fn variance_about(data: &[f64], m: f64) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
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
    Some(variance_about(data, m)?.sqrt() / m)
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
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted requires ascending data"
    );
    quantile_by(sorted.len(), p, |k| sorted[k])
}

/// Type-7 quantile `p` of `n` ascending values read through `at`, which
/// returns the value of rank `k` (0-based) — the one interpolation
/// behind [`quantile_sorted`] (`at` indexes a slice) and any order
/// statistic a caller can find without a sorted array, so the two reads
/// are equal by construction. `at` is called at most twice, and only
/// with `k < n`. Returns `None` for `n == 0`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// ```
/// let data = [1.0, 2.0, 3.0, 4.0];
/// let by_rank = failstats::quantile_by(data.len(), 0.5, |k| data[k]);
/// assert_eq!(by_rank, failstats::quantile_sorted(&data, 0.5));
/// ```
pub fn quantile_by(n: usize, p: f64, at: impl Fn(usize) -> f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
    match n {
        0 => None,
        1 => Some(at(0)),
        _ => {
            let (lo, hi, frac) = type7_position(n, p);
            Some(interpolate(at(lo), at(hi), frac))
        }
    }
}

/// Where the type-7 quantile `p` of `n >= 2` sorted values sits: the
/// order statistics `lo` and `hi` (`hi` is `lo` or `lo + 1`) and the
/// interpolation weight between them.
fn type7_position(n: usize, p: f64) -> (usize, usize, f64) {
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    (lo, hi, h - lo as f64)
}

/// The type-7 interpolation between order statistics `lo` and `hi`.
fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    lo + frac * (hi - lo)
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
/// [`Summary::from_data`] never sorts. `mean` is the exactly rounded
/// [`mean`], the same for any order of the input; `std_dev` folds the
/// squared deviations in the input's order, so it can depend on that
/// order in the last bits, exactly as [`std_dev`] does. `min`, `q1`,
/// `median`, `q3` and `max` are order statistics found by selection
/// (`select_nth_unstable_by`, expected O(n)); they equal the type-7
/// quantiles [`quantile_sorted`] reads from the sorted sample, bit for
/// bit, for any input without a mix of `-0.0` and `+0.0` (selection
/// orders `-0.0` below `+0.0`; a sort treats them as equal).
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
    /// A single observation yields zero standard deviation. The order
    /// statistics come from selection on one scratch copy, not a sort
    /// (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the data contains NaN.
    pub fn from_data(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        assert!(
            !data.iter().any(|x| x.is_nan()),
            "summary data must not contain NaN"
        );
        let n = data.len();
        let mut scratch = data.to_vec();
        let positions = [0.25, 0.5, 0.75].map(|p| type7_position(n, p));
        // Every rank the summary reads, ascending: the extremes and the
        // order statistics around each quartile. Selection then fixes
        // each one in place.
        let mut ranks = vec![0];
        ranks.extend(positions.iter().flat_map(|&(lo, hi, _)| [lo, hi]));
        ranks.push(n - 1);
        ranks.sort_unstable();
        ranks.dedup();
        select_ranks(&mut scratch, 0, &ranks);
        let quartiles = if n == 1 {
            [scratch[0]; 3]
        } else {
            positions.map(|(lo, hi, frac)| interpolate(scratch[lo], scratch[hi], frac))
        };
        let [q1, median, q3] = quartiles;
        let mean = mean(data)?;
        Some(Summary {
            n,
            mean,
            std_dev: variance_about(data, mean).map_or(0.0, f64::sqrt),
            min: scratch[0],
            q1,
            median,
            q3,
            max: scratch[n - 1],
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

/// Rearranges `data`, which holds the ranks `offset..offset + len` of
/// a larger sample, so that `data[r - offset]` holds the value of rank
/// `r` in ascending order for every `r` in `ranks` (ascending, distinct,
/// all in range). Selects the middle rank, then recurses into the
/// partitions on either side of it, so a handful of ranks costs a few
/// linear passes rather than a sort.
fn select_ranks(data: &mut [f64], offset: usize, ranks: &[usize]) {
    let mid = ranks.len() / 2;
    let Some(&rank) = ranks.get(mid) else {
        return;
    };
    let (below, _, above) = data.select_nth_unstable_by(rank - offset, f64::total_cmp);
    select_ranks(below, offset, &ranks[..mid]);
    select_ranks(above, rank + 1, &ranks[mid + 1..]);
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

    /// The sort-based summary `from_data` replaced, kept as the oracle.
    fn sorted_summary(data: &[f64]) -> Summary {
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Summary {
            n: data.len(),
            mean: mean(data).unwrap(),
            std_dev: std_dev(data).unwrap_or(0.0),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25).unwrap(),
            median: quantile_sorted(&sorted, 0.5).unwrap(),
            q3: quantile_sorted(&sorted, 0.75).unwrap(),
            max: sorted[sorted.len() - 1],
        }
    }

    fn bits(s: &Summary) -> [u64; 8] {
        [
            s.n as u64,
            s.mean.to_bits(),
            s.std_dev.to_bits(),
            s.min.to_bits(),
            s.q1.to_bits(),
            s.median.to_bits(),
            s.q3.to_bits(),
            s.max.to_bits(),
        ]
    }

    #[test]
    fn selection_summary_matches_the_sorted_one_on_edge_shapes() {
        let cases: &[&[f64]] = &[
            &[7.5],
            &[2.0, 1.0],
            &[3.0, 1.0, 2.0],
            &[1.0, 1.0, 1.0],
            &[4.0; 9],
            // n = 5 and n = 9: every quartile lands exactly on an index.
            &[5.0, 1.0, 4.0, 2.0, 3.0],
            &[9.0, 2.0, 2.0, 7.0, 1.0, 7.0, 3.0, 2.0, 0.0],
            &[0.0, f64::INFINITY, 1.0, 2.0],
            &[-3.0, 5.0, -1.0, 0.0, 2.0, 2.0],
        ];
        for data in cases {
            let got = Summary::from_data(data).unwrap();
            assert_eq!(bits(&got), bits(&sorted_summary(data)), "{data:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn summary_rejects_nan() {
        let _ = Summary::from_data(&[1.0, f64::NAN]);
    }

    mod selection {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // Selection equals the sorted summary field for field, bit
            // for bit. Values come from a small integer range, so ties
            // are heavy; lengths start at 1, so n = 1, 2, 3 and the
            // lengths where a quartile lands on an index (n = 4k + 1)
            // all occur.
            #[test]
            fn selection_summary_equals_the_sorted_summary(
                values in vec(0u32..12, 1..80),
                shift in 0u32..6,
                scale in 0.125f64..64.0,
            ) {
                let data: Vec<f64> = values
                    .iter()
                    .map(|&v| (f64::from(v) - f64::from(shift)) * scale)
                    .collect();
                let got = Summary::from_data(&data).unwrap();
                prop_assert_eq!(bits(&got), bits(&sorted_summary(&data)));
            }

            #[test]
            fn selection_summary_equals_the_sorted_summary_on_wide_values(
                data in vec(-1e6f64..1e6, 1..300),
            ) {
                let got = Summary::from_data(&data).unwrap();
                prop_assert_eq!(bits(&got), bits(&sorted_summary(&data)));
            }
        }
    }

    #[test]
    fn summary_display() {
        let s = Summary::from_data(&[1.0, 2.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("med=1.50"));
    }
}
