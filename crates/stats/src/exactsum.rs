//! Exactly rounded summation: [`ExactSum`], the accumulator every mean in
//! the workspace sums through.
//!
//! A left-to-right `f64` sum rounds after every addition, so its last
//! bits depend on the order the values arrive in: a sorted array and the
//! same values in arrival order can disagree, and a running sum kept
//! beside a stream has to re-add its whole history to match a batch
//! re-sum. [`ExactSum`] instead keeps the sum exactly, as a fixed-point
//! integer wide enough for any finite `f64` (a Kulisch-style long
//! accumulator), and rounds once when it is read. The read is the
//! correctly rounded (round-to-nearest, ties-to-even) value of the true
//! sum, so it is the same for any order of the values and any way of
//! splitting them across accumulators.

use std::fmt;

/// Bits of value each limb holds once carries are propagated.
const LIMB_BITS: u32 = 32;

/// The value bits of a limb.
const LIMB_MASK: i64 = (1 << LIMB_BITS) - 1;

/// A finite `f64` is `m · 2^(p - 1074)` with `m < 2^53` and
/// `0 <= p <= 2045`, so its bits lie in positions `0..2098` of the
/// accumulator: limbs `0..=65`. The last limb takes the carries out of
/// them and holds the sign.
const LIMBS: usize = 67;

/// Adds between carry propagations. One add moves a limb by less than
/// `2^32`, so a limb that starts in `0..2^32` stays far inside `i64`
/// over this many adds.
const CARRY_EVERY: u32 = 1 << 30;

/// An exact running sum of `f64` values with a correctly rounded read.
///
/// * [`add`](ExactSum::add) is O(1) and allocation-free: it splits the
///   value's 53-bit significand across three 32-bit limbs at its
///   exponent's position (every 2^30 adds, one O(limbs) pass propagates
///   the carries).
/// * [`sum`](ExactSum::sum) rounds the exact total to the nearest `f64`
///   (ties to even) in O(limbs), whatever order the values came in.
/// * The size is fixed (67 limbs, about 560 bytes) however many values
///   are added.
///
/// Non-finite values give the IEEE result of a plain sum: NaN if any
/// value is NaN or both infinities occur, otherwise the infinity that
/// occurs. A zero total is `-0.0` only when every value added was
/// `-0.0` (or none was), as in IEEE round-to-nearest arithmetic. A
/// finite total beyond `f64::MAX` rounds to an infinity.
///
/// # Examples
///
/// ```
/// use failstats::ExactSum;
///
/// let values = [1e16, 1.0, -1e16, 0.5];
/// // A left-to-right sum loses the 1.0 against 1e16.
/// assert_eq!(values.iter().sum::<f64>(), 0.5);
/// let exact: ExactSum = values.iter().copied().collect();
/// assert_eq!(exact.sum(), 1.5);
/// assert_eq!(exact.mean(), Some(0.375));
/// ```
#[derive(Clone)]
pub struct ExactSum {
    /// Limb `i` counts units of `2^(32 i - 1074)`.
    limbs: [i64; LIMBS],
    /// Values added, non-finite ones included.
    count: u64,
    /// Adds since the last carry propagation.
    pending: u32,
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
    /// Every value added so far was `-0.0`.
    all_neg_zero: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// An empty sum.
    pub const fn new() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            count: 0,
            pending: 0,
            nan: false,
            pos_inf: false,
            neg_inf: false,
            all_neg_zero: true,
        }
    }

    /// Adds one value, exactly.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let bits = x.to_bits();
        let negative = bits >> 63 != 0;
        let biased = ((bits >> 52) & 0x7ff) as u32;
        let fraction = bits & ((1 << 52) - 1);
        if biased == 0x7ff {
            if fraction != 0 {
                self.nan = true;
            } else if negative {
                self.neg_inf = true;
            } else {
                self.pos_inf = true;
            }
            return;
        }
        if bits != 1 << 63 {
            self.all_neg_zero = false;
        }
        // x = significand · 2^(position - 1074).
        let (significand, position) = if biased == 0 {
            (fraction, 0)
        } else {
            (fraction | 1 << 52, biased - 1)
        };
        let limb = (position / LIMB_BITS) as usize;
        let wide = u128::from(significand) << (position % LIMB_BITS);
        let parts = [
            wide as i64 & LIMB_MASK,
            (wide >> LIMB_BITS) as i64 & LIMB_MASK,
            (wide >> (2 * LIMB_BITS)) as i64,
        ];
        let slots = &mut self.limbs[limb..limb + 3];
        if negative {
            for (slot, part) in slots.iter_mut().zip(parts) {
                *slot -= part;
            }
        } else {
            for (slot, part) in slots.iter_mut().zip(parts) {
                *slot += part;
            }
        }
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            self.carry();
        }
    }

    /// Adds every value `other` holds, exactly, in O(limbs): the result
    /// reads as if each of `other`'s values had been added here.
    pub fn merge(&mut self, other: &ExactSum) {
        self.carry();
        for (limb, theirs) in self.limbs.iter_mut().zip(other.carried_limbs()) {
            *limb += theirs;
        }
        self.carry();
        self.count += other.count;
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.all_neg_zero &= other.all_neg_zero;
    }

    /// Number of values added.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// The sum of every value added, correctly rounded to the nearest
    /// `f64` (ties to even); `-0.0` when nothing was added.
    pub fn sum(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let mut limbs = self.carried_limbs();
        let negative = limbs[LIMBS - 1] < 0;
        if negative {
            for limb in &mut limbs {
                *limb = -*limb;
            }
            carry_limbs(&mut limbs);
        }
        let magnitude = round_magnitude(&limbs);
        let sign = if negative { 1 << 63 } else { 0 };
        if magnitude == 0 && self.all_neg_zero {
            return -0.0;
        }
        f64::from_bits(sign | magnitude)
    }

    /// The mean of the values added — the correctly rounded sum divided
    /// by the count; `None` when nothing was added.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum() / self.count as f64)
    }

    /// Propagates carries so every limb but the last lies in `0..2^32`.
    fn carry(&mut self) {
        carry_limbs(&mut self.limbs);
        self.pending = 0;
    }

    /// The limbs with carries propagated: the canonical form of the
    /// exact total.
    fn carried_limbs(&self) -> [i64; LIMBS] {
        let mut limbs = self.limbs;
        carry_limbs(&mut limbs);
        limbs
    }
}

/// Moves each limb's bits above [`LIMB_BITS`] into the next limb, so
/// every limb but the last lies in `0..2^32` and the last carries the
/// sign of the total.
fn carry_limbs(limbs: &mut [i64; LIMBS]) {
    for i in 0..LIMBS - 1 {
        let carry = limbs[i] >> LIMB_BITS;
        limbs[i] &= LIMB_MASK;
        limbs[i + 1] += carry;
    }
}

/// The bit pattern of the nonnegative total held in carried `limbs`,
/// rounded to the nearest `f64` (ties to even); `+inf`'s pattern when
/// it rounds past `f64::MAX`.
fn round_magnitude(limbs: &[i64; LIMBS]) -> u64 {
    const INFINITY_BITS: u64 = 0x7ff << 52;
    let Some(top) = limbs.iter().rposition(|&limb| limb != 0) else {
        return 0;
    };
    // The top nonzero limb and the two below it: at least 65 bits when
    // any limb lies below them, so every bit the rounding needs is here
    // and the lower limbs only say whether anything is left over.
    let low = top.saturating_sub(2);
    let window = limbs[low..=top]
        .iter()
        .rev()
        .fold(0u128, |acc, &limb| acc << LIMB_BITS | limb as u128);
    let sticky = limbs[..low].iter().any(|&limb| limb != 0);
    let width = 128 - window.leading_zeros();
    if width <= 53 {
        // Fits the significand (only when nothing lies below the
        // window): a subnormal's bits, or the smallest normal binade's.
        return window as u64;
    }
    let shift = width - 53;
    let significand = (window >> shift) as u64;
    let rest = window & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    let round_up = rest > half || (rest == half && (sticky || significand & 1 == 1));
    // value = significand · 2^(exponent - 1074), so the biased exponent
    // field is `exponent + 1` and the pattern is `exponent << 52` plus
    // the significand (whose bit 52 supplies the `+ 1`); a round-up that
    // carries out of the significand lands in the exponent.
    let exponent = u64::from(32 * low as u32 + shift);
    if exponent >= 2046 {
        return INFINITY_BITS;
    }
    ((exponent << 52) + significand + u64::from(round_up)).min(INFINITY_BITS)
}

impl PartialEq for ExactSum {
    /// Two sums are equal when they hold the same exact total of the
    /// same number of values (with the same non-finite and zero-sign
    /// flags), however those values were added.
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.nan == other.nan
            && self.pos_inf == other.pos_inf
            && self.neg_inf == other.neg_inf
            && self.all_neg_zero == other.all_neg_zero
            && self.carried_limbs() == other.carried_limbs()
    }
}

impl fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactSum")
            .field("count", &self.count)
            .field("sum", &self.sum())
            .finish()
    }
}

impl FromIterator<f64> for ExactSum {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sum = ExactSum::new();
        for x in values {
            sum.add(x);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn exact(values: &[f64]) -> f64 {
        values.iter().copied().collect::<ExactSum>().sum()
    }

    /// Shewchuk's non-overlapping partials with the final half-way
    /// correction (the algorithm of Python's `math.fsum`): an
    /// independent, correctly rounded oracle for finite sums whose
    /// partials stay finite.
    fn fsum(values: &[f64]) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for &value in values {
            let mut x = value;
            let mut kept = 0;
            for i in 0..partials.len() {
                let mut y = partials[i];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[kept] = lo;
                    kept += 1;
                }
                x = hi;
            }
            partials.truncate(kept);
            partials.push(x);
        }
        let Some(mut hi) = partials.pop() else {
            return 0.0;
        };
        let mut lo = 0.0;
        while let Some(y) = partials.pop() {
            let x = hi;
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Round half-way cases by the sign of what lies below them.
        if let Some(&next) = partials.last() {
            if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
                let y = lo * 2.0;
                let x = hi + y;
                if y == x - hi {
                    hi = x;
                }
            }
        }
        hi
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn zeros_keep_the_ieee_sign() {
        assert!(same(exact(&[]), -0.0));
        assert!(same(exact(&[-0.0]), -0.0));
        assert!(same(exact(&[-0.0, -0.0]), -0.0));
        assert!(same(exact(&[0.0]), 0.0));
        assert!(same(exact(&[-0.0, 0.0]), 0.0));
        assert!(same(exact(&[1.0, -1.0]), 0.0));
        assert!(same(exact(&[-1.0, 1.0, -0.0]), 0.0));
        assert_eq!(ExactSum::new().mean(), None);
    }

    #[test]
    fn subnormals_add_exactly() {
        let tiny = f64::from_bits(1);
        assert!(same(exact(&[tiny, tiny, tiny]), f64::from_bits(3)));
        assert!(same(exact(&[tiny, -tiny]), 0.0));
        // Crossing from the subnormal range into the normals.
        let largest_subnormal = f64::from_bits((1 << 52) - 1);
        assert!(same(exact(&[largest_subnormal, tiny]), f64::MIN_POSITIVE));
        assert!(same(exact(&[f64::MIN_POSITIVE, -tiny]), largest_subnormal));
        assert!(same(exact(&[-tiny; 5]), -f64::from_bits(5)));
    }

    #[test]
    fn mixed_magnitudes_round_once() {
        let big = 2f64.powi(1000);
        let small = 2f64.powi(-1000);
        // Exact total big + small rounds to big; subtracting big leaves
        // small, which a left-to-right sum loses.
        assert!(same(exact(&[big, small, -big]), small));
        assert!(same(exact(&[big, small]), big));
        assert!(same(exact(&[small, big, small, -big, -small]), small));
        // Half an ulp of 1.0 ties to even (down); a hair more rounds up.
        let half_ulp = f64::EPSILON / 2.0;
        assert!(same(exact(&[1.0, half_ulp]), 1.0));
        assert!(same(exact(&[1.0, half_ulp, small]), 1.0 + f64::EPSILON));
        assert!(same(
            exact(&[1.0 + f64::EPSILON, half_ulp]),
            1.0 + 2.0 * f64::EPSILON
        ));
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        assert!(same(exact(&[1e16, 1.0, -1e16]), 1.0));
        assert!(same(exact(&[1e308, 1e-308, -1e308]), 1e-308));
        let values = [0.1; 10];
        assert!(same(exact(&values), 1.0));
        let mut alternating = Vec::new();
        for k in 0..1000 {
            alternating.push(1e100 * f64::from(k));
            alternating.push(0.25);
            alternating.push(-1e100 * f64::from(k));
        }
        assert!(same(exact(&alternating), 250.0));
    }

    #[test]
    fn overflow_and_non_finite_values() {
        assert!(same(exact(&[f64::MAX, f64::MAX]), f64::INFINITY));
        assert!(same(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX));
        assert!(same(exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY));
        // Half an ulp above MAX ties to the even neighbour, infinity.
        let ulp = 2f64.powi(971);
        assert!(same(exact(&[f64::MAX, ulp / 2.0]), f64::INFINITY));
        assert!(same(exact(&[f64::MAX, ulp / 4.0]), f64::MAX));
        for case in [
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 1.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![f64::NAN, 1.0],
            vec![f64::INFINITY, f64::NAN],
            vec![1.0, f64::INFINITY, -f64::MAX],
        ] {
            let naive: f64 = case.iter().sum();
            assert!(same(exact(&case), naive), "{case:?}");
        }
        let mut counted: ExactSum = [1.0, f64::NAN].into_iter().collect();
        assert_eq!(counted.count(), 2);
        counted.add(2.0);
        assert!(counted.mean().unwrap().is_nan());
    }

    #[test]
    fn carries_never_change_the_total() {
        let values: Vec<f64> = (0..500)
            .map(|i| f64::from(i).sin() * 10f64.powi(i % 40 - 20))
            .collect();
        let mut stepped = ExactSum::new();
        for (i, &x) in values.iter().enumerate() {
            stepped.add(x);
            if i % 7 == 0 {
                stepped.carry();
            }
        }
        let plain: ExactSum = values.iter().copied().collect();
        assert_eq!(stepped, plain);
        assert!(same(stepped.sum(), fsum(&values)));
    }

    /// Finite values drawn from every binade, both signs (an all-ones
    /// exponent field is cleared to a finite one).
    fn finite() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        })
    }

    /// Values on a dyadic grid `k · 2^-20`, |k| < 2^40: their exact
    /// sum is an integer multiple of 2^-20 that fits an `i128`.
    fn dyadic() -> impl Strategy<Value = i64> {
        -(1i64 << 40)..(1i64 << 40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Any order and any split across accumulators merged back
        // together read the same bits, and compare equal.
        #[test]
        fn order_and_split_never_change_the_read(
            values in vec(finite(), 0..64),
            seed in any::<u64>(),
            cuts in vec(any::<usize>(), 0..6),
        ) {
            let whole: ExactSum = values.iter().copied().collect();
            let mut shuffled = values.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let permuted: ExactSum = shuffled.iter().copied().collect();
            prop_assert!(same(whole.sum(), permuted.sum()));
            prop_assert_eq!(&whole, &permuted);

            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| c % (shuffled.len() + 1)).collect();
            bounds.push(0);
            bounds.push(shuffled.len());
            bounds.sort_unstable();
            let mut merged = ExactSum::new();
            for pair in bounds.windows(2) {
                let part: ExactSum = shuffled[pair[0]..pair[1]].iter().copied().collect();
                merged.merge(&part);
            }
            prop_assert!(same(whole.sum(), merged.sum()));
            prop_assert_eq!(&whole, &merged);
        }

        // Correct rounding against exact integer arithmetic.
        #[test]
        fn dyadic_sums_match_integer_arithmetic(
            grid in vec(dyadic(), 1..200),
        ) {
            let scale = 2f64.powi(-20);
            let values: Vec<f64> = grid.iter().map(|&k| k as f64 * scale).collect();
            let total: i128 = grid.iter().map(|&k| i128::from(k)).sum();
            // `as f64` rounds an integer to nearest, ties to even; the
            // power-of-two scale is exact.
            let expected = total as f64 * scale;
            let got = exact(&values);
            prop_assert!(same(got, expected) || (got == 0.0 && expected == 0.0),
                "{} vs {}", got, expected);
        }

        // Correct rounding against the independent partials oracle,
        // on magnitudes where the partials cannot overflow.
        #[test]
        fn sums_match_the_partials_oracle(
            values in vec(
                (any::<bool>(), 0u64..1 << 52, 0i32..600)
                    .prop_map(|(neg, m, e)| {
                        let x = (1.0 + m as f64 / (1u64 << 52) as f64) * 2f64.powi(e - 300);
                        if neg { -x } else { x }
                    }),
                0..80,
            ),
        ) {
            let got = exact(&values);
            let want = fsum(&values);
            prop_assert!(same(got, want) || (got == 0.0 && want == 0.0),
                "{} vs {}", got, want);
        }
    }
}
