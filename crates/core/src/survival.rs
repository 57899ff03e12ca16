//! Node survival analysis: time to first failure per node, with
//! right-censoring for nodes that never failed in the window.
//!
//! Complements RQ2: the Fig. 4 histogram says how *often* nodes fail;
//! the survival curve says how *soon*. This mirrors the survival-analysis
//! methodology of the Titan GPU-lifetimes study the paper cites as
//! related work.

use failstats::{KaplanMeier, Lifetime};

use crate::StreamView;

/// Extracts the per-node time-to-first-failure lifetimes of a
/// [`StreamView`] (one per node; censored at the window end for nodes
/// that never failed) — the input both [`NodeSurvival`] and cross-system
/// comparisons via [`failstats::log_rank`] consume.
///
/// Reads the view's per-node tallies, so it costs O(nodes). Failing
/// nodes come first, in node-id order, then one censored lifetime per
/// node that never failed.
pub fn node_lifetimes(index: &StreamView) -> Vec<Lifetime> {
    let horizon = index.window().duration().get();
    let tallies = index.node_tallies();
    let mut lifetimes: Vec<Lifetime> = tallies
        .iter()
        .filter(|t| t.failures > 0)
        .map(|t| Lifetime::observed(t.first_failure))
        .collect();
    let censored = tallies.len() - lifetimes.len();
    lifetimes.extend(std::iter::repeat_n(Lifetime::censored(horizon), censored));
    lifetimes
}

/// Kaplan–Meier analysis of node time-to-first-failure.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSurvival {
    km: KaplanMeier,
    observed_failures: usize,
    censored_nodes: usize,
}

impl NodeSurvival {
    /// Fits the estimator from a [`StreamView`]: every node
    /// contributes one lifetime — the offset of its first failure, or a
    /// censored observation at the window end if it never failed.
    ///
    /// Returns `None` for systems with zero nodes (impossible for
    /// validated logs).
    pub fn from_index(index: &StreamView) -> Option<Self> {
        let lifetimes = node_lifetimes(index);
        let observed = lifetimes.iter().filter(|l| l.observed).count();
        Some(NodeSurvival {
            km: KaplanMeier::fit(&lifetimes)?,
            observed_failures: observed,
            censored_nodes: lifetimes.len() - observed,
        })
    }

    /// The fitted Kaplan–Meier curve.
    pub fn curve(&self) -> &KaplanMeier {
        &self.km
    }

    /// Probability a node survives its first `t` hours without any
    /// failure.
    pub fn survival_at(&self, t: f64) -> f64 {
        self.km.survival_at(t)
    }

    /// Nodes that failed at least once.
    pub const fn observed_failures(&self) -> usize {
        self.observed_failures
    }

    /// Nodes that never failed (censored at the window end).
    pub const fn censored_nodes(&self) -> usize {
        self.censored_nodes
    }

    /// Median node time-to-first-failure; `None` when most nodes never
    /// failed.
    pub fn median_hours(&self) -> Option<f64> {
        self.km.median_survival()
    }

    /// Mean failure-free node hours over the first `horizon` hours.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn restricted_mean_hours(&self, horizon: f64) -> f64 {
        self.km.restricted_mean(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::FailureLog;

    fn t2() -> FailureLog {
        Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
    }

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn counts_add_up() {
        let log = t3();
        let s = NodeSurvival::from_index(&StreamView::new(&log)).unwrap();
        assert_eq!(
            s.observed_failures() + s.censored_nodes(),
            log.spec().nodes() as usize
        );
        assert_eq!(s.curve().n(), log.spec().nodes() as usize);
    }

    #[test]
    fn survival_is_monotone_and_bounded() {
        let s = NodeSurvival::from_index(&StreamView::new(&t2())).unwrap();
        let horizon = 13_728.0;
        let mut prev = 1.0;
        for i in 0..20 {
            let t = horizon * i as f64 / 19.0;
            let v = s.survival_at(t);
            assert!(v <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn most_nodes_survive_the_whole_window() {
        // Both systems: the majority of nodes never fail, so the curve
        // ends above 0.5 and the median is undefined.
        for log in [t2(), t3()] {
            let s = NodeSurvival::from_index(&StreamView::new(&log)).unwrap();
            let horizon = log.window().duration().get();
            assert!(s.survival_at(horizon) > 0.5);
            assert!(s.median_hours().is_none());
        }
    }

    #[test]
    fn t2_nodes_fail_sooner_than_t3_nodes() {
        // T2 has 2.6x the nodes but 2.7x the failures, and a hot pool;
        // its early-life survival is lower.
        let s2 = NodeSurvival::from_index(&StreamView::new(&t2())).unwrap();
        let s3 = NodeSurvival::from_index(&StreamView::new(&t3())).unwrap();
        // Compare at the same absolute age.
        assert!(s2.survival_at(5_000.0) < s3.survival_at(5_000.0));
    }

    #[test]
    fn restricted_mean_reflects_reliability() {
        let log = t3();
        let s = NodeSurvival::from_index(&StreamView::new(&log)).unwrap();
        let horizon = log.window().duration().get();
        let rmst = s.restricted_mean_hours(horizon);
        // Mean failure-free time is positive, below the horizon, and
        // large (most nodes never fail).
        assert!(rmst > 0.6 * horizon && rmst < horizon, "rmst {rmst}");
    }

    #[test]
    fn log_rank_separates_the_generations_per_node_hazard() {
        // Per-node failure hazard differs between the systems; the
        // log-rank test over the node lifetimes picks it up.
        let a = node_lifetimes(&StreamView::new(&t2()));
        let b = node_lifetimes(&StreamView::new(&t3()));
        let test = failstats::log_rank(&a, &b).unwrap();
        assert!(test.rejects_at(0.05), "p = {}", test.p_value);
    }

    #[test]
    fn lifetimes_cover_every_node() {
        let log = t3();
        let lt = node_lifetimes(&StreamView::new(&log));
        assert_eq!(lt.len(), 540);
        let horizon = log.window().duration().get();
        for l in &lt {
            assert!(l.duration >= 0.0 && l.duration <= horizon);
            if !l.observed {
                assert_eq!(l.duration, horizon);
            }
        }
    }

    #[test]
    fn empty_log_is_all_censored() {
        let log = t3().filtered(|_| false);
        let s = NodeSurvival::from_index(&StreamView::new(&log)).unwrap();
        assert_eq!(s.observed_failures(), 0);
        assert_eq!(s.censored_nodes(), 540);
        assert_eq!(s.survival_at(1e9), 1.0);
    }
}
