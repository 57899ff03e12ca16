//! Order statistics over latency samples and over run results.

/// Percentiles the tail report may pick from, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples beyond a percentile needed before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Latency samples in milliseconds. A failed operation is recorded as
/// `+inf`, so it sorts above every success and misses every limit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
        self.sorted = false;
    }

    pub fn push_failed(&mut self) {
        self.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// The median, interpolated between the middle pair for even counts.
    pub fn median(&mut self) -> f64 {
        median_sorted(self.sorted())
    }

    /// The nearest-rank percentile `p` (0–100).
    pub fn percentile(&mut self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        v[nearest_rank(p, v.len())]
    }

    /// The highest percentile in [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_MIN_BEYOND`] samples above its rank, as `(p, value)`.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let n = self.len();
        let p = TAIL_PERCENTILES
            .iter()
            .copied()
            .rfind(|&p| n > TAIL_MIN_BEYOND && n - 1 - nearest_rank(p, n) >= TAIL_MIN_BEYOND)?;
        Some((p, self.percentile(p)))
    }
}

/// Zero-based index of the nearest-rank percentile `p` among `n > 0`
/// sorted samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    // Integer arithmetic in thousandths of a percent, so that e.g. p99
    // of 1000 samples is rank 990 exactly, never 991 by rounding.
    let milli = (p * 1000.0).round() as usize;
    (milli * n).div_ceil(100_000).clamp(1, n) - 1
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match that definition.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // n=40: p75 has 10 above it, p90 only 4.
        let mut s = samples((1..=40).map(f64::from));
        assert_eq!(s.tail(), Some((75.0, 30.0)));
        // n=1000: p99 has exactly 10 above it, p99.9 has 1.
        let mut s = samples((1..=1000).map(f64::from));
        assert_eq!(s.tail(), Some((99.0, 990.0)));
        // Too few samples for even the median.
        let mut s = samples((1..=19).map(f64::from));
        assert_eq!(s.tail(), None);
        assert_eq!(Samples::default().tail(), None);
    }

    #[test]
    fn failed_ops_sort_as_infinity() {
        let mut s = samples([5.0, 1.0, 3.0]);
        s.push_failed();
        s.push_failed();
        // Sorted: 1 3 5 inf inf.
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.percentile(80.0), f64::INFINITY);
        assert_eq!(s.percentile(60.0), 5.0);
        let mut s = samples((1..=39).map(f64::from));
        s.push_failed();
        assert_eq!(s.tail(), Some((75.0, 30.0)));
        assert_eq!(s.percentile(100.0), f64::INFINITY);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
