//! Point-process statistics for arrival-time sequences.
//!
//! The temporal-clustering analysis of multi-GPU failures (Fig. 8) needs
//! measures of how "bursty" an event sequence is relative to a Poisson
//! process: the coefficient of variation of inter-arrival times, the
//! dispersion (Fano) index of windowed counts, and the burstiness index.

use crate::desc::{coefficient_of_variation, mean, variance};

/// Inter-arrival times of a strictly or weakly increasing event-time
/// sequence.
///
/// Returns an empty vector for sequences with fewer than two events.
///
/// # Panics
///
/// Panics if the sequence is not non-decreasing.
///
/// ```
/// let gaps = failstats::inter_arrival_times(&[1.0, 3.0, 6.0]);
/// assert_eq!(gaps, vec![2.0, 3.0]);
/// ```
pub fn inter_arrival_times(times: &[f64]) -> Vec<f64> {
    assert!(
        times.windows(2).all(|w| w[1] >= w[0]),
        "event times must be non-decreasing"
    );
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Counts events per consecutive window of length `window` over `[0,
/// horizon)`.
///
/// # Panics
///
/// Panics if `window <= 0` or `horizon <= 0`.
pub fn windowed_counts(times: &[f64], window: f64, horizon: f64) -> Vec<u64> {
    assert!(window > 0.0, "window must be positive");
    assert!(horizon > 0.0, "horizon must be positive");
    let n_windows = (horizon / window).ceil() as usize;
    let mut counts = vec![0u64; n_windows];
    for &t in times {
        if t >= 0.0 && t < horizon {
            let idx = ((t / window) as usize).min(n_windows - 1);
            counts[idx] += 1;
        }
    }
    counts
}

/// A bundle of burstiness measures for one event sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstinessReport {
    /// Number of events.
    pub events: usize,
    /// Coefficient of variation of inter-arrival times (1 for Poisson,
    /// > 1 for clustered arrivals).
    pub cv: f64,
    /// Dispersion (Fano) index of windowed counts: variance/mean (1 for
    /// Poisson, > 1 for clustered arrivals).
    pub dispersion_index: f64,
    /// Goh–Barabási burstiness `B = (σ - μ)/(σ + μ)` of inter-arrival
    /// times (0 for Poisson, → 1 for extreme bursts, < 0 for regular).
    pub burstiness: f64,
    /// Fraction of inter-arrival gaps shorter than `follow_up_window`.
    pub short_gap_fraction: f64,
    /// The follow-up window used for `short_gap_fraction`, in the same
    /// time unit as the input.
    pub follow_up_window: f64,
}

/// Computes burstiness measures for an event sequence over `[0, horizon)`.
///
/// `count_window` sizes the windows for the dispersion index;
/// `follow_up_window` is the "another failure soon after" threshold used in
/// the Fig. 8 discussion.
///
/// Returns `None` with fewer than three events (the measures are
/// meaningless below that).
///
/// # Panics
///
/// Panics if windows or horizon are non-positive, or times are not
/// non-decreasing.
pub fn burstiness_report(
    times: &[f64],
    horizon: f64,
    count_window: f64,
    follow_up_window: f64,
) -> Option<BurstinessReport> {
    assert!(follow_up_window > 0.0, "follow-up window must be positive");
    if times.len() < 3 {
        return None;
    }
    let gaps = inter_arrival_times(times);
    let cv = coefficient_of_variation(&gaps)?;
    let counts: Vec<f64> = windowed_counts(times, count_window, horizon)
        .into_iter()
        .map(|c| c as f64)
        .collect();
    let cm = mean(&counts)?;
    let cvr = variance(&counts)?;
    let dispersion_index = if cm > 0.0 { cvr / cm } else { 0.0 };
    let gm = mean(&gaps)?;
    let gs = crate::desc::std_dev(&gaps)?;
    let burstiness = if gs + gm > 0.0 { (gs - gm) / (gs + gm) } else { 0.0 };
    let short = gaps.iter().filter(|&&g| g < follow_up_window).count() as f64;
    Some(BurstinessReport {
        events: times.len(),
        cv,
        dispersion_index,
        burstiness,
        short_gap_fraction: short / gaps.len() as f64,
        follow_up_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Exponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn poisson_times(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
        let d = Exponential::new(rate).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += d.sample(&mut rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn inter_arrival_basics() {
        assert!(inter_arrival_times(&[]).is_empty());
        assert!(inter_arrival_times(&[5.0]).is_empty());
        assert_eq!(inter_arrival_times(&[1.0, 1.0, 4.0]), vec![0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn inter_arrival_rejects_unsorted() {
        inter_arrival_times(&[2.0, 1.0]);
    }

    #[test]
    fn windowed_counts_bucketing() {
        let counts = windowed_counts(&[0.5, 1.5, 1.9, 9.99], 1.0, 10.0);
        assert_eq!(counts.len(), 10);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[9], 1);
        assert_eq!(counts.iter().sum::<u64>(), 4);
        // Out-of-horizon events are dropped.
        let counts = windowed_counts(&[-1.0, 10.0, 11.0], 1.0, 10.0);
        assert_eq!(counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn poisson_process_is_not_bursty() {
        let times = poisson_times(1.0, 5000.0, 21);
        let r = burstiness_report(&times, 5000.0, 10.0, 1.0).unwrap();
        assert!((r.cv - 1.0).abs() < 0.1, "cv {}", r.cv);
        assert!((r.dispersion_index - 1.0).abs() < 0.15, "D {}", r.dispersion_index);
        assert!(r.burstiness.abs() < 0.06, "B {}", r.burstiness);
    }

    #[test]
    fn clustered_process_is_bursty() {
        // Bursts of 5 events 0.01 apart, bursts separated by ~100.
        let mut times = Vec::new();
        let mut t = 0.0;
        for _ in 0..200 {
            for k in 0..5 {
                times.push(t + k as f64 * 0.01);
            }
            t += 100.0;
        }
        let horizon = t + 1.0;
        let r = burstiness_report(&times, horizon, 10.0, 1.0).unwrap();
        assert!(r.cv > 1.5, "cv {}", r.cv);
        assert!(r.dispersion_index > 2.0, "D {}", r.dispersion_index);
        assert!(r.burstiness > 0.3, "B {}", r.burstiness);
        assert!(r.short_gap_fraction > 0.7, "frac {}", r.short_gap_fraction);
    }

    #[test]
    fn regular_process_has_negative_burstiness() {
        let times: Vec<f64> = (0..500).map(|i| i as f64 * 10.0).collect();
        let r = burstiness_report(&times, 5000.0, 50.0, 1.0).unwrap();
        assert!(r.cv < 0.01);
        assert!(r.burstiness < -0.9);
        assert_eq!(r.short_gap_fraction, 0.0);
    }

    #[test]
    fn too_few_events_is_none() {
        assert!(burstiness_report(&[1.0, 2.0], 10.0, 1.0, 1.0).is_none());
    }
}
