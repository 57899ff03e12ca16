//! RQ2 — spatial distribution of failures: per-node occupancy (Fig. 4)
//! and per-GPU-slot distribution (Fig. 5).

use failstats::{chi_square_gof, ChiSquareTest, CountHistogram};
use failtypes::{Domain, GpuSlot, RackId};

use crate::FleetIndex;

/// Per-node failure-count distribution (Fig. 4).
///
/// # Examples
///
/// ```
/// use failscope::{NodeDistribution, StreamView};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
/// let dist = NodeDistribution::from_index(&StreamView::from(log));
/// // Fig. 4a: ~60% of failing Tsubame-2 nodes saw exactly one failure.
/// assert!((dist.fraction_with_exactly(1) - 0.6).abs() < 0.06);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDistribution {
    histogram: CountHistogram,
    failing_nodes: usize,
    total_nodes: u32,
    /// Failures on multi-failure nodes, split by domain — the paper's
    /// "352 hardware and 1 software" observation for Tsubame-2.
    multi_node_hardware: usize,
    multi_node_software: usize,
}

impl NodeDistribution {
    /// Computes the distribution from any [`FleetIndex`], reusing its
    /// per-node counts.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let counts = index.node_counts();
        let histogram: CountHistogram = counts.values().copied().collect();
        let mut multi_node_hardware = 0;
        let mut multi_node_software = 0;
        for rec in index.records() {
            if counts[&rec.node()] > 1 {
                match rec.category().domain() {
                    Domain::Hardware => multi_node_hardware += 1,
                    Domain::Software => multi_node_software += 1,
                    Domain::Unknown => {}
                }
            }
        }
        NodeDistribution {
            failing_nodes: counts.len(),
            histogram,
            total_nodes: index.spec().nodes(),
            multi_node_hardware,
            multi_node_software,
        }
    }

    /// Fraction of failing nodes with exactly `k` failures.
    pub fn fraction_with_exactly(&self, k: u64) -> f64 {
        self.histogram.fraction_of(k)
    }

    /// Fraction of failing nodes with more than one failure.
    pub fn fraction_with_multiple(&self) -> f64 {
        self.histogram.fraction_above(1)
    }

    /// Number of nodes with at least one failure.
    pub const fn failing_nodes(&self) -> usize {
        self.failing_nodes
    }

    /// Number of nodes in the system.
    pub const fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Largest per-node failure count.
    pub fn max_failures_on_a_node(&self) -> u64 {
        self.histogram.max_value().unwrap_or(0)
    }

    /// The underlying `(failures, node count)` histogram, ascending.
    pub fn histogram(&self) -> &CountHistogram {
        &self.histogram
    }

    /// Hardware-domain failures that landed on multi-failure nodes.
    pub const fn multi_node_hardware_failures(&self) -> usize {
        self.multi_node_hardware
    }

    /// Software-domain failures that landed on multi-failure nodes.
    pub const fn multi_node_software_failures(&self) -> usize {
        self.multi_node_software
    }
}

/// One GPU slot's failure share (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotShare {
    /// The slot.
    pub slot: GpuSlot,
    /// GPU-failure involvements on this slot.
    pub count: usize,
    /// Share among all slot involvements.
    pub fraction: f64,
    /// Count relative to the per-slot mean (1.0 = average slot).
    pub relative_to_mean: f64,
}

/// Per-GPU-slot failure distribution within a node (Fig. 5).
///
/// Counts every slot involvement: a failure touching GPUs 0 and 3 adds
/// one to each slot, matching how the paper counts per-GPU failures.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotDistribution {
    shares: Vec<SlotShare>,
    total_involvements: usize,
}

impl SlotDistribution {
    /// Computes the distribution from any [`FleetIndex`], reusing its
    /// per-slot counts.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let counts = index.slot_counts();
        let slots = counts.len();
        let total: usize = counts.iter().sum();
        let mean = total as f64 / slots.max(1) as f64;
        let shares = counts
            .iter()
            .enumerate()
            .map(|(i, &count)| SlotShare {
                slot: GpuSlot::new(i as u8),
                count,
                fraction: count as f64 / total.max(1) as f64,
                relative_to_mean: if mean > 0.0 { count as f64 / mean } else { 0.0 },
            })
            .collect();
        SlotDistribution {
            shares,
            total_involvements: total,
        }
    }

    /// Per-slot rows in slot order.
    pub fn shares(&self) -> &[SlotShare] {
        &self.shares
    }

    /// All slot involvements counted.
    pub const fn total_involvements(&self) -> usize {
        self.total_involvements
    }

    /// Ratio of the largest to the smallest slot count (∞-safe: returns
    /// `None` when a slot has zero involvements or there are no slots).
    pub fn imbalance_ratio(&self) -> Option<f64> {
        let max = self.shares.iter().map(|s| s.count).max()?;
        let min = self.shares.iter().map(|s| s.count).min()?;
        (min > 0).then(|| max as f64 / min as f64)
    }
}

/// One rack's failure share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackShare {
    /// The rack.
    pub rack: RackId,
    /// Failures on nodes of this rack.
    pub count: usize,
    /// Nodes housed in the rack (partial final racks are smaller).
    pub nodes: u32,
}

/// Rack-level failure distribution.
///
/// The paper's generalizability discussion: "the non-uniform distribution
/// of failures among racks is also present in multi-GPU-per-node
/// systems". [`RackDistribution::uniformity_test`] makes that claim
/// testable: a chi-square of the per-rack counts against the rack sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct RackDistribution {
    shares: Vec<RackShare>,
    total: usize,
}

impl RackDistribution {
    /// Computes the distribution from any [`FleetIndex`], reusing its
    /// per-rack counts (every rack appears, including failure-free
    /// ones).
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let spec = index.spec();
        let shares = index
            .rack_counts()
            .iter()
            .enumerate()
            .map(|(i, &count)| RackShare {
                rack: RackId::new(i as u32),
                count,
                nodes: spec.rack_nodes(RackId::new(i as u32)).count() as u32,
            })
            .collect();
        RackDistribution {
            shares,
            total: index.len(),
        }
    }

    /// Per-rack rows in rack order.
    pub fn shares(&self) -> &[RackShare] {
        &self.shares
    }

    /// Total failures counted.
    pub const fn total(&self) -> usize {
        self.total
    }

    /// Chi-square test of the per-rack counts against a size-proportional
    /// uniform distribution. Rejection means the racks fail non-uniformly.
    ///
    /// Returns `None` when the log is empty or has fewer than two racks.
    pub fn uniformity_test(&self) -> Option<ChiSquareTest> {
        let observed: Vec<u64> = self.shares.iter().map(|s| s.count as u64).collect();
        let expected: Vec<f64> = self.shares.iter().map(|s| s.nodes as f64).collect();
        chi_square_gof(&observed, &expected)
    }

    /// Fraction of all failures on the busiest `k` racks.
    pub fn top_rack_share(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut counts: Vec<usize> = self.shares.iter().map(|s| s.count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.iter().take(k).sum::<usize>() as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failtypes::FailureLog;
    use crate::StreamView;
    use failsim::{Simulator, SystemModel};

    fn t2() -> FailureLog {
        Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
    }

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn fig4_t2_anchors() {
        let d = NodeDistribution::from_index(&StreamView::new(&t2()));
        // ~60% exactly one, ~10% exactly two.
        assert!(
            (d.fraction_with_exactly(1) - 0.60).abs() < 0.06,
            "f1 = {}",
            d.fraction_with_exactly(1)
        );
        assert!(
            (d.fraction_with_exactly(2) - 0.10).abs() < 0.05,
            "f2 = {}",
            d.fraction_with_exactly(2)
        );
        assert!(d.failing_nodes() > 0);
        assert!(d.failing_nodes() as u32 <= d.total_nodes());
    }

    #[test]
    fn fig4_t3_anchors() {
        let d = NodeDistribution::from_index(&StreamView::new(&t3()));
        // ~60% of failing Tsubame-3 nodes saw more than one failure.
        assert!(
            (d.fraction_with_multiple() - 0.60).abs() < 0.08,
            "f>1 = {}",
            d.fraction_with_multiple()
        );
        assert!((d.fraction_with_exactly(2) - 0.10).abs() < 0.05);
    }

    #[test]
    fn fig4_three_failure_ratio() {
        // Averages over seeds to tame small-sample noise; Tsubame-3's
        // three-failure share is ~1.5x Tsubame-2's.
        let avg = |gen: fn() -> SystemModel| -> f64 {
            failstats::par_map_ordered(8, failstats::available_threads(), |s| {
                let log = Simulator::new(gen(), 1000 + s as u64).generate().unwrap();
                NodeDistribution::from_index(&StreamView::new(&log)).fraction_with_exactly(3)
            })
            .iter()
            .sum::<f64>()
                / 8.0
        };
        let ratio = avg(SystemModel::tsubame3) / avg(SystemModel::tsubame2);
        assert!((1.15..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn t2_multi_failure_nodes_are_hardware_dominated() {
        // The paper: 352 hardware and 1 software failure on Tsubame-2
        // multi-failure nodes. The fresh-node rule makes software
        // recurrences rare; hardware dominates by a wide margin.
        let d = NodeDistribution::from_index(&StreamView::new(&t2()));
        assert!(
            d.multi_node_hardware_failures() > 30 * d.multi_node_software_failures().max(1),
            "hw {} sw {}",
            d.multi_node_hardware_failures(),
            d.multi_node_software_failures()
        );
    }

    #[test]
    fn t3_multi_failure_nodes_mix_domains() {
        // The paper: 104 hardware and 95 software on Tsubame-3.
        let d = NodeDistribution::from_index(&StreamView::new(&t3()));
        let hw = d.multi_node_hardware_failures() as f64;
        let sw = d.multi_node_software_failures() as f64;
        assert!(sw > 0.5 * hw, "hw {hw} sw {sw}");
    }

    #[test]
    fn fig5_t2_slot_skew() {
        let d = SlotDistribution::from_index(&StreamView::new(&t2()));
        assert_eq!(d.shares().len(), 3);
        let c: Vec<usize> = d.shares().iter().map(|s| s.count).collect();
        // GPU 1 ≈ 20% above GPU 0 / GPU 2.
        let mid_vs_edge = c[1] as f64 / ((c[0] + c[2]) as f64 / 2.0);
        assert!((mid_vs_edge - 1.2).abs() < 0.12, "ratio {mid_vs_edge}");
        assert!(d.total_involvements() > 700); // 112 + 2·128 + 3·128
    }

    #[test]
    fn fig5_t3_slot_skew() {
        // Only ~100 slot involvements exist on Tsubame-3, so a single
        // seed is noisy; accumulate across seeds.
        let mut c = [0usize; 4];
        let per_seed = failstats::par_map_ordered(8, failstats::available_threads(), |seed| {
            let log = Simulator::new(SystemModel::tsubame3(), 43 + seed as u64 * 997)
                .generate()
                .unwrap();
            let d = SlotDistribution::from_index(&StreamView::new(&log));
            assert_eq!(d.shares().len(), 4);
            let mut counts = [0usize; 4];
            for (i, share) in d.shares().iter().enumerate() {
                counts[i] = share.count;
            }
            counts
        });
        for counts in per_seed {
            for (i, count) in counts.into_iter().enumerate() {
                c[i] += count;
            }
        }
        // Outer slots (0, 3) considerably above inner (1, 2).
        assert!(c[0] + c[3] > (c[1] + c[2]) * 3 / 2, "counts {c:?}");
    }

    #[test]
    fn slot_fractions_sum_to_one() {
        let d = SlotDistribution::from_index(&StreamView::new(&t2()));
        let sum: f64 = d.shares().iter().map(|s| s.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let mean: f64 =
            d.shares().iter().map(|s| s.relative_to_mean).sum::<f64>() / d.shares().len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        assert!(d.imbalance_ratio().unwrap() >= 1.0);
    }

    #[test]
    fn racks_fail_non_uniformly_on_both_systems() {
        // The related-work claim: rack-level non-uniformity persists on
        // multi-GPU-per-node systems.
        for (log, racks) in [(t2(), 44u32), (t3(), 15u32)] {
            let d = RackDistribution::from_index(&StreamView::new(&log));
            assert_eq!(d.shares().len(), racks as usize);
            let total: usize = d.shares().iter().map(|s| s.count).sum();
            assert_eq!(total, d.total());
            let test = d.uniformity_test().expect("non-empty");
            assert!(
                test.rejects_at(0.01),
                "{} racks look uniform (p = {})",
                racks,
                test.p_value
            );
        }
    }

    #[test]
    fn hot_racks_hold_disproportionate_share() {
        let d = RackDistribution::from_index(&StreamView::new(&t2()));
        // The busiest 30% of racks hold well over 30% of failures.
        let k = (d.shares().len() as f64 * 0.3).round() as usize;
        let share = d.top_rack_share(k);
        assert!(share > 0.45, "top {k} racks hold {share}");
    }

    #[test]
    fn uniform_placement_passes_the_uniformity_test() {
        let mut model = SystemModel::tsubame2();
        model.node_selection = failsim::NodeSelection::Uniform;
        model.software_prefers_fresh_nodes = false;
        // A single seed can reject at 1% by luck; demand most seeds pass.
        let passes: usize = failstats::par_map_ordered(8, failstats::available_threads(), |seed| {
            let log = Simulator::new(model.clone(), 9000 + seed as u64).generate().unwrap();
            let d = RackDistribution::from_index(&StreamView::new(&log));
            usize::from(!d.uniformity_test().expect("non-empty").rejects_at(0.01))
        })
        .iter()
        .sum();
        assert!(passes >= 6, "only {passes}/8 uniform runs looked uniform");
    }

    #[test]
    fn empty_log_distributions() {
        let log = t3().filtered(|_| false);
        let d = NodeDistribution::from_index(&StreamView::new(&log));
        assert_eq!(d.failing_nodes(), 0);
        assert_eq!(d.fraction_with_exactly(1), 0.0);
        assert_eq!(d.max_failures_on_a_node(), 0);
        let s = SlotDistribution::from_index(&StreamView::new(&log));
        assert_eq!(s.total_involvements(), 0);
        assert!(s.imbalance_ratio().is_none());
        let r = RackDistribution::from_index(&StreamView::new(&log));
        assert!(r.uniformity_test().is_none());
        assert_eq!(r.top_rack_share(3), 0.0);
    }
}
