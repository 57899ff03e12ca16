//! Domain model for analyzing failures and repairs on supercomputers with
//! multi-GPU compute nodes.
//!
//! This crate is the vocabulary shared by the whole `failscope` workspace,
//! which reproduces the DSN 2021 field study *"Examining Failures and
//! Repairs on Supercomputers with Multi-GPU Compute Nodes"* (Taherin et al.)
//! on the Tsubame-2 and Tsubame-3 systems:
//!
//! * [`SystemSpec`] / [`Generation`] — the node and system architecture of
//!   the two studied machines (Table I), plus a builder for hypothetical
//!   systems used in what-if studies.
//! * [`T2Category`] / [`T3Category`] / [`Category`] — the failure category
//!   vocabularies of the two logs (Table II), mapped onto shared
//!   [`ComponentClass`] and [`Domain`] axes.
//! * [`SoftwareLocus`] — the root loci of Tsubame-3 software failures
//!   (Fig. 3).
//! * [`FailureRecord`] / [`FailureLog`] — validated failure events with
//!   occurrence time, time to recovery, affected node, and GPU involvement.
//! * [`Hours`], [`Date`], [`ObservationWindow`] — the time model.
//!
//! # Examples
//!
//! Build a tiny log and inspect it:
//!
//! ```
//! use failtypes::{
//!     Category, Date, FailureLog, FailureRecord, Generation, GpuSlot, Hours,
//!     NodeId, ObservationWindow, T3Category,
//! };
//!
//! let window = ObservationWindow::new(
//!     Date::new(2017, 5, 9).unwrap(),
//!     Date::new(2020, 2, 22).unwrap(),
//! )
//! .unwrap();
//!
//! let records = vec![
//!     FailureRecord::new(
//!         0,
//!         Hours::new(100.0),
//!         Hours::new(55.0),
//!         Category::T3(T3Category::Gpu),
//!         NodeId::new(42),
//!     )
//!     .with_gpus([GpuSlot::new(0), GpuSlot::new(3)]),
//! ];
//!
//! let log = FailureLog::new(Generation::Tsubame3, window, records)?;
//! assert_eq!(log.gpu_records().count(), 1);
//! assert!(log.records()[0].is_multi_gpu());
//! # Ok::<(), failtypes::InvalidRecordError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod category;
mod error;
mod json;
mod record;
mod software;
mod stream;
mod system;
mod time;

pub use category::{Category, ComponentClass, Domain, T2Category, T3Category};
pub use error::{Error, InvalidRecordError, InvalidSpecError, ParseCategoryError, Result};
pub use json::{JsonObjectBuilder, JsonParseError, JsonValue};
pub use record::{FailureLog, FailureRecord};
pub use software::SoftwareLocus;
pub use stream::{Alert, AlertKind, AlertSeverity};
pub use system::{Generation, GpuSlot, NodeId, RackId, SystemSpec, SystemSpecBuilder};
pub use time::{days_in_month, is_leap_year, Date, Hours, Month, ObservationWindow};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FailureLog>();
        assert_send_sync::<FailureRecord>();
        assert_send_sync::<SystemSpec>();
        assert_send_sync::<Category>();
        assert_send_sync::<ObservationWindow>();
    }

    #[test]
    fn observation_windows_of_the_paper() {
        // Dataset section: Tsubame-2 log covers 2012-01-07 .. 2013-08-01,
        // Tsubame-3 log covers 2017-05-09 .. 2020-02-22.
        let t2 = ObservationWindow::new(
            Date::new(2012, 1, 7).unwrap(),
            Date::new(2013, 8, 1).unwrap(),
        )
        .unwrap();
        let t3 = ObservationWindow::new(
            Date::new(2017, 5, 9).unwrap(),
            Date::new(2020, 2, 22).unwrap(),
        )
        .unwrap();
        // 897 failures over 572 days gives the paper's ~15 h system MTBF;
        // 338 failures over 1019 days gives the ~72 h system MTBF.
        assert!((t2.duration().get() / 897.0 - 15.3).abs() < 0.1);
        assert!((t3.duration().get() / 338.0 - 72.35).abs() < 0.1);
    }
}
