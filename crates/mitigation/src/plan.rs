//! An integrated operations plan: every mitigation the paper's
//! implications call for, derived from one measured log.
//!
//! [`OperationsPlan::from_index`] runs the whole "measure, then act" loop:
//! checkpoint intervals from the MTBF, spare pools from the per-class
//! rates, repair-crew staffing from the overlap profile, co-location
//! policy from the multi-GPU share, and the slot-scheduling policy from
//! the Fig. 5 skew — the one-call API an operations team would script
//! against.

use failscope::FleetIndex;
use failtypes::ComponentClass;

use crate::checkpoint::CheckpointPlan;
use crate::colocation::NodeFailureModel;
use crate::scheduler::{evaluate_policy, AllocationPolicy, SlotRiskModel};
use crate::spares::SparePolicy;
use crate::staffing::required_crews_index;

/// Tunables of an [`OperationsPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Per-checkpoint cost in hours.
    pub checkpoint_cost_hours: f64,
    /// Spare replenishment lead time in hours.
    pub spare_lead_time_hours: f64,
    /// Acceptable stockout probability per spare class.
    pub spare_stockout_tolerance: f64,
    /// Acceptable MTTR inflation from repair-crew queueing.
    pub staffing_inflation_target: f64,
    /// Correlated-double-kill tolerance per week-long co-located job
    /// pair (the default, 3e-4, permits roughly one fleet-wide double
    /// kill per year on a Tsubame-3-sized system and forbids dense
    /// packing on a Tsubame-2-like multi-GPU failure mix).
    pub colocation_tolerance: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            checkpoint_cost_hours: 0.25,
            spare_lead_time_hours: 14.0 * 24.0,
            spare_stockout_tolerance: 0.05,
            staffing_inflation_target: 1.05,
            colocation_tolerance: 3e-4,
        }
    }
}

/// One component class's spare recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpareLine {
    /// The component class.
    pub class: ComponentClass,
    /// Measured MTBF of the class in hours.
    pub class_mtbf_hours: f64,
    /// Recommended on-site spares.
    pub spares: u32,
}

/// The integrated plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationsPlan {
    /// Checkpoint plan from the measured system MTBF.
    pub checkpoint: CheckpointPlan,
    /// Daly-optimal checkpoint interval in hours.
    pub checkpoint_interval_hours: f64,
    /// Spare recommendations for every class that failed.
    pub spares: Vec<SpareLine>,
    /// Repair crews needed to keep queueing inflation under the target
    /// (`None` when even 64 crews cannot).
    pub repair_crews: Option<u32>,
    /// Whether dense job co-location is acceptable under the correlated
    /// multi-GPU kill tolerance.
    pub colocation_acceptable: bool,
    /// Interruption-probability advantage of risk-aware slot scheduling
    /// over first-fit on a reference job mix (positive = risk-aware
    /// wins).
    pub slot_scheduling_gain: f64,
}

impl OperationsPlan {
    /// Derives the full plan from any measured [`FleetIndex`] in a
    /// single indexed pass — a [`failscope::StreamView`] bulk-built from
    /// a finished log or one mid-ingestion work the same way.
    ///
    /// Returns `None` when the index is too small to measure an MTBF or
    /// has no GPU failures (both needed by most of the plan).
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V, config: PlanConfig) -> Option<Self> {
        let checkpoint = CheckpointPlan::from_index(index, config.checkpoint_cost_hours).ok()?;

        let mut spares = Vec::new();
        for class in ComponentClass::ALL {
            if let Some(policy) =
                SparePolicy::from_index(index, class, config.spare_lead_time_hours)
            {
                spares.push(SpareLine {
                    class,
                    class_mtbf_hours: 1.0 / policy.demand_rate_per_hour,
                    spares: policy.required_spares(config.spare_stockout_tolerance),
                });
            }
        }

        let repair_crews =
            required_crews_index(index, config.staffing_inflation_target, 64);

        let node_model = NodeFailureModel::from_index(index)?;
        let colocation_acceptable = crate::colocation::colocation_acceptable(
            node_model,
            168.0,
            config.colocation_tolerance,
        );

        let slot_scheduling_gain = match SlotRiskModel::from_index(index) {
            Some(risk) => {
                let jobs: Vec<(usize, f64)> = (0..200).map(|i| (1 + i % 2, 48.0)).collect();
                let ff = evaluate_policy(&risk, AllocationPolicy::FirstFit, &jobs);
                let ra = evaluate_policy(&risk, AllocationPolicy::RiskAware, &jobs);
                ff.mean_interruption_probability - ra.mean_interruption_probability
            }
            None => 0.0,
        };

        Some(OperationsPlan {
            checkpoint_interval_hours: checkpoint.daly_interval_hours(),
            checkpoint,
            spares,
            repair_crews,
            colocation_acceptable,
            slot_scheduling_gain,
        })
    }

    /// Renders the plan as an operator-facing text block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== Operations plan ===");
        let _ = writeln!(
            out,
            "checkpoint every {:.2} h (MTBF {:.1} h, cost {:.2} h, efficiency {:.1}%)",
            self.checkpoint_interval_hours,
            self.checkpoint.mtbf_hours(),
            self.checkpoint.checkpoint_cost_hours(),
            self.checkpoint.efficiency(self.checkpoint_interval_hours) * 100.0
        );
        let _ = writeln!(out, "spares (on-site):");
        for line in &self.spares {
            let _ = writeln!(
                out,
                "  {:<10} {:>3}  (class MTBF {:.0} h)",
                line.class.name(),
                line.spares,
                line.class_mtbf_hours
            );
        }
        match self.repair_crews {
            Some(c) => {
                let _ = writeln!(out, "repair crews: {c}");
            }
            None => {
                let _ = writeln!(out, "repair crews: target unachievable with 64 crews");
            }
        }
        let _ = writeln!(
            out,
            "co-location of multi-GPU jobs: {}",
            if self.colocation_acceptable {
                "acceptable"
            } else {
                "avoid (correlated multi-GPU failures)"
            }
        );
        let _ = writeln!(
            out,
            "risk-aware slot scheduling gain: {:.2} pp interruption probability",
            self.slot_scheduling_gain * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failscope::StreamView;
    use failsim::{Simulator, SystemModel};

    fn plan_for(model: SystemModel, seed: u64) -> OperationsPlan {
        let log = Simulator::new(model, seed).generate().expect("valid model");
        OperationsPlan::from_index(&StreamView::from(log), PlanConfig::default())
            .expect("plannable log")
    }

    #[test]
    fn plans_differ_across_generations_in_the_right_direction() {
        let p2 = plan_for(SystemModel::tsubame2(), 42);
        let p3 = plan_for(SystemModel::tsubame3(), 43);
        // Higher MTBF -> longer checkpoint intervals.
        assert!(p3.checkpoint_interval_hours > p2.checkpoint_interval_hours);
        // Higher failure rate -> more crews and more GPU spares.
        assert!(p2.repair_crews.expect("achievable") > p3.repair_crews.expect("achievable"));
        let gpu_spares = |p: &OperationsPlan| {
            p.spares
                .iter()
                .find(|l| l.class == ComponentClass::Gpu)
                .expect("GPUs fail")
                .spares
        };
        assert!(gpu_spares(&p2) > gpu_spares(&p3));
        // T2's 70% multi-GPU share forbids dense co-location; T3 allows it.
        assert!(!p2.colocation_acceptable);
        assert!(p3.colocation_acceptable);
    }

    #[test]
    fn every_failing_class_gets_a_spare_line() {
        let p = plan_for(SystemModel::tsubame3(), 43);
        let classes: Vec<ComponentClass> = p.spares.iter().map(|l| l.class).collect();
        for class in [ComponentClass::Gpu, ComponentClass::Cpu, ComponentClass::Memory] {
            assert!(classes.contains(&class), "missing {class}");
        }
        for line in &p.spares {
            assert!(line.class_mtbf_hours > 0.0);
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let p = plan_for(SystemModel::tsubame3(), 43);
        let text = p.render();
        for needle in [
            "checkpoint every",
            "spares (on-site):",
            "repair crews:",
            "co-location",
            "slot scheduling gain",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
    }

    #[test]
    fn slot_gain_is_positive_on_skewed_systems() {
        let p = plan_for(SystemModel::tsubame3(), 43);
        assert!(p.slot_scheduling_gain > 0.0);
    }

    #[test]
    fn empty_log_is_unplannable() {
        let log = Simulator::new(SystemModel::tsubame3(), 43)
            .generate()
            .expect("valid model")
            .filtered(|_| false);
        let view = StreamView::new(&log);
        assert!(OperationsPlan::from_index(&view, PlanConfig::default()).is_none());
    }
}
