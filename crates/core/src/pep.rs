//! Performance-error-proportionality (PEP): the paper's proposed
//! benchmarking metric — useful work per failure-free period, e.g. total
//! FLOP per MTBF.

use crate::tbf::TbfAnalysis;
use crate::StreamView;

/// The performance-error-proportionality of one system.
///
/// # Examples
///
/// ```
/// use failscope::{Pep, StreamView};
/// use failsim::{Simulator, SystemModel};
///
/// let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
/// let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let p2 = Pep::from_index(&StreamView::from(t2)).unwrap();
/// let p3 = Pep::from_index(&StreamView::from(t3)).unwrap();
/// // Tsubame-3 does far more useful work per failure-free period.
/// assert!(p3.flop_per_failure_free_period() > 10.0 * p2.flop_per_failure_free_period());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pep {
    /// Theoretical peak in PFLOP/s.
    pub rpeak_pflops: f64,
    /// System MTBF in hours.
    pub mtbf_hours: f64,
}

impl Pep {
    /// Computes the metric from a [`StreamView`]; `None` with fewer
    /// than two failures.
    pub fn from_index(index: &StreamView) -> Option<Self> {
        let tbf = TbfAnalysis::from_index(index)?;
        Some(Pep {
            rpeak_pflops: index.spec().rpeak_pflops(),
            mtbf_hours: tbf.mtbf_hours(),
        })
    }

    /// Maximum useful computation during a mean failure-free period:
    /// `Rpeak × MTBF`, in FLOP.
    pub fn flop_per_failure_free_period(&self) -> f64 {
        self.rpeak_pflops * 1e15 * self.mtbf_hours * 3600.0
    }

    /// The same quantity in exaFLOP, a readable magnitude for reports.
    pub fn exaflop_per_failure_free_period(&self) -> f64 {
        self.flop_per_failure_free_period() / 1e18
    }
}

/// The cross-generation PEP comparison the paper walks through: compute
/// grew ~8x (the paper's figure; ~5.3x by Rpeak), MTBF grew ~4x, so
/// useful work per failure-free period grew multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PepComparison {
    /// The older system's metric.
    pub older: Pep,
    /// The newer system's metric.
    pub newer: Pep,
}

impl PepComparison {
    /// Builds the comparison from two views (e.g. a bulk-built view of a
    /// finished log against a live one); `None` when either side is too
    /// small.
    pub fn new(older: &StreamView, newer: &StreamView) -> Option<Self> {
        Some(PepComparison {
            older: Pep::from_index(older)?,
            newer: Pep::from_index(newer)?,
        })
    }

    /// Compute-capability ratio (newer / older) by Rpeak.
    pub fn compute_factor(&self) -> f64 {
        self.newer.rpeak_pflops / self.older.rpeak_pflops
    }

    /// MTBF improvement factor (newer / older).
    pub fn mtbf_factor(&self) -> f64 {
        self.newer.mtbf_hours / self.older.mtbf_hours
    }

    /// PEP improvement factor — the product of the two.
    pub fn pep_factor(&self) -> f64 {
        self.newer.flop_per_failure_free_period() / self.older.flop_per_failure_free_period()
    }

    /// The paper's observation that reliability does not scale with
    /// compute: `true` when MTBF grew more slowly than Rpeak.
    pub fn reliability_lags_compute(&self) -> bool {
        self.mtbf_factor() < self.compute_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};

    fn comparison() -> PepComparison {
        let t2 = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        PepComparison::new(&StreamView::new(&t2), &StreamView::new(&t3)).unwrap()
    }

    #[test]
    fn factors_match_paper() {
        let c = comparison();
        // Rpeak: 12.1 / 2.3 ≈ 5.26 (the paper quotes ~8x compute).
        assert!((c.compute_factor() - 5.26).abs() < 0.01);
        // MTBF: ≈ 72.4 / 15.3 ≈ 4.7 ("more than 4x improvement").
        assert!(c.mtbf_factor() > 4.0 && c.mtbf_factor() < 5.2);
        // PEP improves by the product.
        assert!(
            (c.pep_factor() - c.compute_factor() * c.mtbf_factor()).abs()
                < 1e-9 * c.pep_factor()
        );
    }

    #[test]
    fn reliability_lags_compute_on_tsubame() {
        // The paper's resilience-proportionality point: MTBF grew less
        // than raw compute.
        let c = comparison();
        assert!(c.reliability_lags_compute());
    }

    #[test]
    fn flop_magnitudes() {
        let c = comparison();
        // T2: 2.3 PF · 15.3 h ≈ 0.127 ZFLOP? Sanity: 2.3e15 · 55080 s.
        let t2 = c.older.flop_per_failure_free_period();
        assert!((t2 - 2.3e15 * c.older.mtbf_hours * 3600.0).abs() < 1e9);
        assert!(c.older.exaflop_per_failure_free_period() > 100.0);
        assert!(c.newer.exaflop_per_failure_free_period() > 1000.0);
    }

    #[test]
    fn too_small_logs_are_none() {
        let t3 = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let empty = t3.filtered(|_| false);
        let (empty, t3) = (StreamView::new(&empty), StreamView::new(&t3));
        assert!(Pep::from_index(&empty).is_none());
        assert!(PepComparison::new(&empty, &t3).is_none());
        assert!(PepComparison::new(&t3, &empty).is_none());
    }
}
