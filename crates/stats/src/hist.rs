//! Histograms: continuous equal-width bins and discrete count histograms.

use std::collections::BTreeMap;

/// An equal-width histogram over `[lo, hi)` with values outside the range
/// clamped into the edge bins.
///
/// # Examples
///
/// ```
/// use failstats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.extend([1.0, 1.5, 7.0, 9.9, 100.0]); // 100.0 clamps into the last bin
/// assert_eq!(h.count(0), 2);
/// assert_eq!(h.count(4), 2);
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// Returns `None` when `bins == 0`, the bounds are not finite, or
    /// `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return None;
        }
        Some(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        })
    }

    /// Adds one observation (clamped into the edge bins when outside the
    /// range; NaN is ignored).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let nbins = self.counts.len();
        let raw = ((x - self.lo) / (self.hi - self.lo) * nbins as f64).floor();
        let idx = raw.clamp(0.0, (nbins - 1) as f64) as usize;
        self.counts[idx] += 1;
    }

    /// Adds many observations.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `[left, right)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Relative frequency of bin `i` (zero when the histogram is empty).
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(i) as f64 / total as f64
        }
    }
}

/// A histogram over non-negative integer values (e.g. failures per node).
///
/// Backed by a sorted map so iteration yields ascending keys — the order
/// Fig. 4 tabulates "nodes with exactly k failures".
///
/// # Examples
///
/// ```
/// use failstats::CountHistogram;
///
/// let mut h = CountHistogram::new();
/// h.extend([1u64, 1, 2, 5]);
/// assert_eq!(h.count_of(1), 2);
/// assert_eq!(h.fraction_of(1), 0.5);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountHistogram {
    counts: BTreeMap<u64, u64>,
}

impl CountHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
    }

    /// Records many observations.
    pub fn extend(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Number of observations equal to `value`.
    pub fn count_of(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Fraction of observations equal to `value` (zero when empty).
    pub fn fraction_of(&self, value: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count_of(value) as f64 / total as f64
        }
    }

    /// Fraction of observations strictly greater than `value`.
    pub fn fraction_above(&self, value: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = self
            .counts
            .range(value + 1..)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / total as f64
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Largest observed value (`None` when empty).
    pub fn max_value(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Iterates `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Returns `true` when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl FromIterator<u64> for CountHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = CountHistogram::new();
        h.extend(iter);
        h
    }
}

impl Extend<u64> for CountHistogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_rejects_bad_config() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add(0.0);
        h.add(0.999);
        h.add(9.999);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.bins(), 10);
        assert_eq!(h.bin_edges(0), (0.0, 1.0));
        assert_eq!(h.bin_edges(9), (9.0, 10.0));
        assert!((h.fraction(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(-100.0);
        h.add(1e9);
        h.add(f64::NAN); // ignored
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts(), &[1, 0, 0, 0, 1]);
    }

    #[test]
    fn histogram_empty_fraction_is_zero() {
        let h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert_eq!(h.fraction(0), 0.0);
    }

    #[test]
    fn count_histogram_basics() {
        let h: CountHistogram = [1u64, 1, 1, 2, 3, 3].into_iter().collect();
        assert_eq!(h.count_of(1), 3);
        assert_eq!(h.count_of(2), 1);
        assert_eq!(h.count_of(99), 0);
        assert_eq!(h.total(), 6);
        assert_eq!(h.max_value(), Some(3));
        assert!((h.fraction_of(1) - 0.5).abs() < 1e-12);
        assert!((h.fraction_above(1) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_above(3), 0.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn count_histogram_iteration_is_sorted() {
        let h: CountHistogram = [5u64, 1, 3, 1].into_iter().collect();
        let items: Vec<_> = h.iter().collect();
        assert_eq!(items, vec![(1, 2), (3, 1), (5, 1)]);
    }

    #[test]
    fn count_histogram_empty() {
        let h = CountHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.fraction_of(1), 0.0);
        assert_eq!(h.fraction_above(0), 0.0);
    }

    #[test]
    fn extend_trait_impl() {
        let mut h = CountHistogram::new();
        Extend::extend(&mut h, vec![2u64, 2]);
        assert_eq!(h.count_of(2), 2);
    }
}
