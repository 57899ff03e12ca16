//! Mitigation strategies derived from failure-log analysis.
//!
//! The DSN 2021 Tsubame study ends each research question with an
//! operational implication; this crate turns those implications into
//! executable policies, all parameterized by measured
//! [`failtypes::FailureLog`]s:
//!
//! * [`CheckpointPlan`] — Young/Daly checkpoint-interval optimization
//!   from measured MTBF (the paper's cited mitigation for GPU failures).
//! * [`SparePolicy`] / [`simulate_inventory`] — spare-part pool sizing
//!   against the long repair tails of Fig. 10 ("appropriate spare
//!   provisioning of parts").
//! * [`SlotRiskModel`] / [`evaluate_policy`] — GPU-slot-aware scheduling
//!   that load-balances away from the failure-prone slots of Fig. 5.
//! * [`Predictor`] / [`evaluate_proactive`] — prediction-triggered
//!   proactive recovery, the paper's proposed lever against the stagnant
//!   MTTR of Fig. 9.
//! * [`rotate_exposure`] — periodic GPU rearrangement during maintenance,
//!   equalizing per-card wear across the skewed slots of Fig. 5.
//! * [`NodeFailureModel`] / [`evaluate_placement`] — co-location-aware
//!   node scheduling under the simultaneous multi-GPU failure mode of
//!   Table III.
//!
//! # Examples
//!
//! ```
//! use failmitigate::CheckpointPlan;
//! use failscope::StreamView;
//! use failsim::{Simulator, SystemModel};
//!
//! let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
//! let plan = CheckpointPlan::from_index(&StreamView::from(log), 0.25)?;
//! let tau = plan.daly_interval_hours();
//! assert!(tau > 4.0 && tau < 10.0);
//! # Ok::<(), failmitigate::InvalidCheckpointParams>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod checkpoint;
mod colocation;
mod plan;
mod proactive;
mod rotation;
mod scheduler;
mod spares;
mod staffing;

pub use checkpoint::{sweep_costs, CheckpointPlan, InvalidCheckpointParams};
pub use colocation::{
    colocation_acceptable, evaluate_placement, ColocationOutcome, NodeFailureModel, Placement,
};
pub use plan::{OperationsPlan, PlanConfig, SpareLine};
pub use rotation::{rotate_exposure, RotationOutcome};
pub use proactive::{default_proactive_ttr, evaluate_proactive, Predictor, ProactiveOutcome};
pub use scheduler::{
    allocate, evaluate_policy, AllocationPolicy, PolicyOutcome, SlotRiskModel,
};
pub use spares::{expected_demands, simulate_inventory, InventoryOutcome, SparePolicy};
pub use staffing::{
    required_crews, required_crews_index, simulate_staffing, simulate_staffing_index,
    StaffingOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CheckpointPlan>();
        assert_send_sync::<SparePolicy>();
        assert_send_sync::<SlotRiskModel>();
        assert_send_sync::<Predictor>();
    }
}
