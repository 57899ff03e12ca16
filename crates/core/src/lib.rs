//! `failscope` — failure and repair analysis for supercomputers with
//! multi-GPU compute nodes.
//!
//! This crate is the primary contribution of the workspace: a toolkit
//! that answers the five research questions of the DSN 2021 field study
//! *"Examining Failures and Repairs on Supercomputers with Multi-GPU
//! Compute Nodes"* (Taherin, Patel, Georgakoudis, Laguna, Tiwari) on any
//! [`failtypes::FailureLog`]:
//!
//! | RQ | Question | Entry points |
//! |----|----------|--------------|
//! | RQ1 | Which failure types dominate? (Figs. 2-3) | [`CategoryBreakdown`], [`DomainBreakdown`], [`LocusBreakdown`] |
//! | RQ2 | Do some nodes/GPU slots fail more? (Figs. 4-5) | [`NodeDistribution`], [`SlotDistribution`] |
//! | RQ3 | Do multiple GPUs fail simultaneously? (Table III) | [`InvolvementTable`] |
//! | RQ4 | How are failures spaced in time? (Figs. 6-8) | [`TbfAnalysis`], [`per_category_tbf`], [`MultiGpuTemporal`] |
//! | RQ5 | How long does recovery take? (Figs. 9-12) | [`TtrAnalysis`], [`per_category_ttr`], [`SeasonalAnalysis`] |
//!
//! plus the paper's proposed metric, performance-error-proportionality
//! ([`Pep`] / [`PepComparison`]), and plain-text report rendering
//! ([`render_report`] / [`render_comparison_threaded`]).
//!
//! Every analysis reads one index, [`StreamView`]: build it once per log
//! (`StreamView::from(log)`, record by record for a live stream, or
//! decoded from an on-disk `.fsidx` snapshot, whose body the view writes
//! and reads itself: [`StreamView::encode_body`],
//! [`StreamView::decode_body`], [`FORMAT_VERSION`]) and hand it to each
//! analysis's `from_index` constructor.
//!
//! # Examples
//!
//! Answer RQ1 and RQ4 on a generated Tsubame-3 log:
//!
//! ```
//! use failscope::{CategoryBreakdown, TbfAnalysis};
//! use failsim::{Simulator, SystemModel};
//!
//! let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
//!
//! let view = failscope::StreamView::from(log);
//! let cats = CategoryBreakdown::from_index(&view);
//! assert!(cats.shares()[0].fraction > 0.5); // software dominates
//!
//! let tbf = TbfAnalysis::from_index(&view).unwrap();
//! assert!(tbf.mtbf_hours() > 70.0); // "more than 70 hours"
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod availability;
mod categories;
mod multigpu;
mod rates;
mod survival;
mod pep;
mod report;
mod seasonal;
mod spatial;
mod streamview;
mod tbf;
mod temporal;
mod ttr;

pub use availability::AvailabilityAnalysis;
pub use categories::{
    CategoryBreakdown, CategoryShare, ClassBreakdown, DomainBreakdown, LocusBreakdown, LocusShare,
};
pub use rates::{laplace_trend, rolling_rate, LaplaceTrend, RateBin};
pub use survival::{node_lifetimes, NodeSurvival};
pub use multigpu::{InvolvementRow, InvolvementTable};
pub use pep::{Pep, PepComparison};
pub use report::{
    json_section_line, render_comparison_index, render_comparison_json,
    render_comparison_threaded, render_json_sections, render_report, render_text_sections,
    section_by_id, select_by_id, select_sections, Section, SectionCtx, METRICS_SECTION_ID,
    SECTIONS,
};
pub use seasonal::{MonthBucket, SeasonalAnalysis};
pub use spatial::{NodeDistribution, RackDistribution, RackShare, SlotDistribution, SlotShare};
pub use streamview::{NodeTally, RecordRef, StreamView, StreamViewError, FORMAT_VERSION};
pub use tbf::{
    class_mtbf_hours, gpu_involvement_mtbf_hours, per_category_tbf, CategoryTbf, TbfAnalysis,
};
pub use temporal::MultiGpuTemporal;
pub use ttr::{domain_ttr_spread, per_category_ttr, rare_but_costly, CategoryTtr, TtrAnalysis};

/// The name of the batch index [`StreamView`] replaced. Kept solely
/// because the `loadbench/` benchmark crate, whose sources stay frozen
/// between benchmark revisions, calls `failscope::LogView::new(&log)`.
pub type LogView = StreamView;

/// The canonical API surface in one import: the index, the section
/// registry, the render entry points, and every analysis type's
/// `from_index` home.
///
/// ```
/// use failscope::prelude::*;
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let view = StreamView::from(log);
/// assert!(TbfAnalysis::from_index(&view).unwrap().mtbf_hours() > 70.0);
/// ```
pub mod prelude {
    pub use crate::availability::AvailabilityAnalysis;
    pub use crate::categories::{
        CategoryBreakdown, ClassBreakdown, DomainBreakdown, LocusBreakdown,
    };
    pub use crate::multigpu::InvolvementTable;
    pub use crate::pep::{Pep, PepComparison};
    pub use crate::report::{
        render_json_sections, render_report, render_text_sections, section_by_id,
        select_sections, Section, SectionCtx, METRICS_SECTION_ID, SECTIONS,
    };
    pub use crate::seasonal::SeasonalAnalysis;
    pub use crate::spatial::{NodeDistribution, RackDistribution, SlotDistribution};
    pub use crate::streamview::{StreamView, StreamViewError};
    pub use crate::survival::NodeSurvival;
    pub use crate::tbf::{per_category_tbf, TbfAnalysis};
    pub use crate::temporal::MultiGpuTemporal;
    pub use crate::ttr::{per_category_ttr, TtrAnalysis};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CategoryBreakdown>();
        assert_send_sync::<NodeDistribution>();
        assert_send_sync::<InvolvementTable>();
        assert_send_sync::<TbfAnalysis>();
        assert_send_sync::<TtrAnalysis>();
        assert_send_sync::<SeasonalAnalysis>();
        assert_send_sync::<PepComparison>();
    }
}
