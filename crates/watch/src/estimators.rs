//! Online estimators: EWMA smoothing and trailing-window aggregates.
//!
//! [`WatchState`](crate::WatchState) keeps one [`Ewma`] per category for
//! smoothed TTRs and inter-arrival gaps — the only figures it keeps
//! beside its `StreamView`, since reading one back from the view would
//! refold every record of the category. The trailing windows are plain
//! functions over the tail of the view's arrays: a window is a slice of
//! what the view already holds, never a second buffer.

/// The trailing window: the last `window` items, in arrival order.
pub(crate) fn trailing<T>(items: &[T], window: usize) -> &[T] {
    &items[items.len().saturating_sub(window)..]
}

/// Events per hour over the trailing `window_hours` of a time-ordered
/// slice of event times. Until the events span a full window the
/// denominator is the span actually observed (so early rates are not
/// diluted); a window holding a single instant reports `None`.
pub(crate) fn rate_per_hour(times: &[f64], window_hours: f64) -> Option<f64> {
    let last = *times.last()?;
    let recent = &times[times.partition_point(|&t| t < last - window_hours)..];
    let span = (last - recent[0]).min(window_hours);
    (span > 0.0).then(|| recent.len() as f64 / span)
}

/// Exponentially weighted moving average with smoothing factor `alpha`
/// (weight of the newest observation; `1.0` tracks the last value,
/// small values smooth heavily). The first observation seeds the value.
///
/// # Examples
///
/// ```
/// use failwatch::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// assert!(e.value().is_none());
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.value(), Some(15.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
    n: u64,
}

impl Ewma {
    /// A new estimator with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Ewma {
            alpha,
            value: None,
            n: 0,
        }
    }

    /// Incorporates one observation.
    pub fn update(&mut self, x: f64) {
        self.n += 1;
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current smoothed value; `None` before any observation.
    pub const fn value(&self) -> Option<f64> {
        self.value
    }

    /// Number of observations incorporated.
    pub const fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_and_smooths() {
        let mut e = Ewma::new(0.2);
        e.update(100.0);
        assert_eq!(e.value(), Some(100.0));
        e.update(0.0);
        assert_eq!(e.value(), Some(80.0));
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn ewma_alpha_one_tracks_last_value() {
        let mut e = Ewma::new(1.0);
        e.update(3.0);
        e.update(7.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn window_mean_evicts_oldest() {
        let window = trailing(&[1.0, 2.0, 3.0, 4.0], 3);
        assert_eq!(window, [2.0, 3.0, 4.0]);
        assert_eq!(failstats::mean(window), Some(3.0));
    }

    #[test]
    fn window_mean_empty() {
        let window = trailing::<f64>(&[], 5);
        assert!(window.is_empty());
        assert_eq!(failstats::mean(window), None);
    }

    #[test]
    fn rate_window_evicts_and_reports() {
        // Span covered so far is 8 h.
        let times = [0.0, 2.0, 4.0, 6.0, 8.0];
        assert!((rate_per_hour(&times, 10.0).unwrap() - 5.0 / 8.0).abs() < 1e-12);
        // At t = 13 the events at 0 and 2 fall out: 4 events over 9 h.
        let later = [0.0, 2.0, 4.0, 6.0, 8.0, 13.0];
        assert_eq!(rate_per_hour(&later, 10.0), Some(4.0 / 9.0));
    }

    #[test]
    fn rate_window_single_event_has_no_rate() {
        assert_eq!(rate_per_hour(&[5.0], 10.0), None);
    }
}
