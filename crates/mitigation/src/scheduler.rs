//! GPU-slot-aware scheduling.
//!
//! RQ2's implication: "HPC centers should inform and help end-users take
//! advantage of all the GPUs in a node in a load-balanced manner". This
//! module models per-slot failure rates (from Fig. 5's measured skew) and
//! compares slot-allocation policies by the expected interruption
//! probability of the jobs they place.

use failscope::{SlotDistribution, StreamView};
use failtypes::GpuSlot;

/// Per-slot failure rates of one node architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRiskModel {
    /// Failures per hour for each slot of a node.
    rates_per_hour: Vec<f64>,
}

impl SlotRiskModel {
    /// Creates a model from per-slot failure rates (per hour, per node).
    ///
    /// Returns `None` when empty or any rate is negative/non-finite.
    pub fn new(rates_per_hour: Vec<f64>) -> Option<Self> {
        if rates_per_hour.is_empty()
            || rates_per_hour.iter().any(|r| *r < 0.0 || !r.is_finite())
        {
            return None;
        }
        Some(SlotRiskModel { rates_per_hour })
    }

    /// Derives per-slot rates from a measured [`StreamView`]: slot
    /// involvements over the window, divided across the system's nodes.
    ///
    /// Returns `None` when the index records no slot involvements.
    pub fn from_index(index: &StreamView) -> Option<Self> {
        let dist = SlotDistribution::from_index(index);
        if dist.total_involvements() == 0 {
            return None;
        }
        let node_hours = index.window().duration().get() * index.spec().nodes() as f64;
        Self::new(
            dist.shares()
                .iter()
                .map(|s| s.count as f64 / node_hours)
                .collect(),
        )
    }

    /// Number of GPU slots per node.
    pub fn slots(&self) -> usize {
        self.rates_per_hour.len()
    }

    /// Failure rate of one slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn rate(&self, slot: GpuSlot) -> f64 {
        self.rates_per_hour[slot.index() as usize]
    }

    /// Probability that a job occupying `slots` for `duration_hours` is
    /// interrupted by a failure of any of them (independent exponential
    /// slot lifetimes).
    pub fn interruption_probability(&self, slots: &[GpuSlot], duration_hours: f64) -> f64 {
        let total_rate: f64 = slots.iter().map(|&s| self.rate(s)).sum();
        1.0 - (-total_rate * duration_hours).exp()
    }
}

/// A slot-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// Fill slots in index order (what naive tooling does).
    FirstFit,
    /// Prefer the historically least failure-prone slots.
    RiskAware,
    /// Round-robin across slots regardless of risk (pure load balance).
    RoundRobin,
}

/// Allocates `k` slots of a fresh node under a policy.
///
/// `rr_state` carries the round-robin cursor between calls (pass `0`
/// initially and reuse the returned state).
///
/// # Panics
///
/// Panics if `k` exceeds the slot count.
pub fn allocate(
    model: &SlotRiskModel,
    policy: AllocationPolicy,
    k: usize,
    rr_state: &mut usize,
) -> Vec<GpuSlot> {
    assert!(k <= model.slots(), "requested more GPUs than the node has");
    match policy {
        AllocationPolicy::FirstFit => (0..k).map(|i| GpuSlot::new(i as u8)).collect(),
        AllocationPolicy::RiskAware => {
            let mut order: Vec<usize> = (0..model.slots()).collect();
            order.sort_by(|&a, &b| {
                model.rates_per_hour[a]
                    .partial_cmp(&model.rates_per_hour[b])
                    .expect("rates are finite")
            });
            let mut chosen: Vec<GpuSlot> =
                order[..k].iter().map(|&i| GpuSlot::new(i as u8)).collect();
            chosen.sort();
            chosen
        }
        AllocationPolicy::RoundRobin => {
            let n = model.slots();
            let mut chosen: Vec<GpuSlot> = (0..k)
                .map(|i| GpuSlot::new(((*rr_state + i) % n) as u8))
                .collect();
            *rr_state = (*rr_state + k) % n;
            chosen.sort();
            chosen
        }
    }
}

/// The outcome of evaluating a policy on a stream of single-node jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// The policy evaluated.
    pub policy: AllocationPolicy,
    /// Mean interruption probability per job.
    pub mean_interruption_probability: f64,
    /// Largest per-slot share of allocations (1/slots = perfectly
    /// balanced).
    pub max_slot_load_share: f64,
}

/// Evaluates a policy over a job stream of `(gpus, duration_hours)`
/// requests, each placed on a fresh node.
pub fn evaluate_policy(
    model: &SlotRiskModel,
    policy: AllocationPolicy,
    jobs: &[(usize, f64)],
) -> PolicyOutcome {
    let mut rr = 0usize;
    let mut risk_sum = 0.0;
    let mut slot_loads = vec![0usize; model.slots()];
    for &(k, duration) in jobs {
        let slots = allocate(model, policy, k.min(model.slots()), &mut rr);
        risk_sum += model.interruption_probability(&slots, duration);
        for s in &slots {
            slot_loads[s.index() as usize] += 1;
        }
    }
    let total_loads: usize = slot_loads.iter().sum();
    PolicyOutcome {
        policy,
        mean_interruption_probability: risk_sum / jobs.len().max(1) as f64,
        max_slot_load_share: slot_loads
            .iter()
            .map(|&l| l as f64 / total_loads.max(1) as f64)
            .fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failscope::StreamView;
    use failsim::{Simulator, SystemModel};

    fn t3_model() -> SlotRiskModel {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        SlotRiskModel::from_index(&StreamView::new(&log)).unwrap()
    }

    fn jobs() -> Vec<(usize, f64)> {
        (0..200)
            .map(|i| (1 + i % 3, 24.0 + (i % 7) as f64 * 12.0))
            .collect()
    }

    #[test]
    fn model_construction() {
        assert!(SlotRiskModel::new(vec![]).is_none());
        assert!(SlotRiskModel::new(vec![0.1, -0.1]).is_none());
        assert!(SlotRiskModel::new(vec![0.1, f64::NAN]).is_none());
        let m = SlotRiskModel::new(vec![0.001, 0.002]).unwrap();
        assert_eq!(m.slots(), 2);
        assert_eq!(m.rate(GpuSlot::new(1)), 0.002);
    }

    #[test]
    fn interruption_probability_behaviour() {
        let m = SlotRiskModel::new(vec![0.001, 0.002]).unwrap();
        let one = m.interruption_probability(&[GpuSlot::new(0)], 100.0);
        let both =
            m.interruption_probability(&[GpuSlot::new(0), GpuSlot::new(1)], 100.0);
        assert!(one > 0.0 && one < 1.0);
        assert!(both > one, "more GPUs, more risk");
        // Exact value: 1 - e^{-0.1}.
        assert!((one - (1.0 - (-0.1f64).exp())).abs() < 1e-12);
        // Zero duration, zero risk.
        assert_eq!(m.interruption_probability(&[GpuSlot::new(0)], 0.0), 0.0);
    }

    #[test]
    fn risk_aware_beats_first_fit_on_skewed_nodes() {
        // Tsubame-3 slots 0 and 3 are the risky ones; FirstFit always
        // grabs slot 0.
        let model = t3_model();
        let ff = evaluate_policy(&model, AllocationPolicy::FirstFit, &jobs());
        let ra = evaluate_policy(&model, AllocationPolicy::RiskAware, &jobs());
        assert!(
            ra.mean_interruption_probability < ff.mean_interruption_probability,
            "risk-aware {} vs first-fit {}",
            ra.mean_interruption_probability,
            ff.mean_interruption_probability
        );
    }

    #[test]
    fn round_robin_balances_load() {
        let model = t3_model();
        let ff = evaluate_policy(&model, AllocationPolicy::FirstFit, &jobs());
        let rr = evaluate_policy(&model, AllocationPolicy::RoundRobin, &jobs());
        assert!(rr.max_slot_load_share < ff.max_slot_load_share);
        // Perfectly balanced stream would be 0.25 per slot.
        assert!(rr.max_slot_load_share < 0.30, "{}", rr.max_slot_load_share);
    }

    #[test]
    fn allocation_shapes() {
        let model = SlotRiskModel::new(vec![0.3, 0.1, 0.2, 0.05]).unwrap();
        let mut rr = 0;
        let ff = allocate(&model, AllocationPolicy::FirstFit, 2, &mut rr);
        assert_eq!(ff, vec![GpuSlot::new(0), GpuSlot::new(1)]);
        let ra = allocate(&model, AllocationPolicy::RiskAware, 2, &mut rr);
        // Cheapest two slots: 3 (0.05) and 1 (0.1).
        assert_eq!(ra, vec![GpuSlot::new(1), GpuSlot::new(3)]);
        let mut rr = 0;
        let a = allocate(&model, AllocationPolicy::RoundRobin, 3, &mut rr);
        let b = allocate(&model, AllocationPolicy::RoundRobin, 3, &mut rr);
        assert_eq!(a, vec![GpuSlot::new(0), GpuSlot::new(1), GpuSlot::new(2)]);
        assert_eq!(b, vec![GpuSlot::new(0), GpuSlot::new(1), GpuSlot::new(3)]);
    }

    #[test]
    #[should_panic(expected = "more GPUs")]
    fn allocate_rejects_oversized_requests() {
        let model = SlotRiskModel::new(vec![0.1, 0.1]).unwrap();
        let mut rr = 0;
        let _ = allocate(&model, AllocationPolicy::FirstFit, 3, &mut rr);
    }

    #[test]
    fn from_log_requires_involvements() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let no_gpus = log.filtered(|r| !r.category().is_gpu());
        assert!(SlotRiskModel::from_index(&StreamView::new(&no_gpus)).is_none());
        let m = SlotRiskModel::from_index(&StreamView::new(&log)).unwrap();
        assert_eq!(m.slots(), 4);
        // Slot 0 and 3 carry higher measured rates (Fig. 5b).
        assert!(m.rate(GpuSlot::new(0)) > m.rate(GpuSlot::new(1)));
        assert!(m.rate(GpuSlot::new(3)) > m.rate(GpuSlot::new(2)));
    }
}
