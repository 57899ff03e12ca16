//! Benchmark harness and paper-figure regeneration for the `failscope`
//! reproduction.
//!
//! * [`experiments`] regenerates every table and figure of the paper's
//!   evaluation (Table I-III, Figs. 2-12, and the
//!   performance-error-proportionality walkthrough) and compares the
//!   measured values against the paper's, plus the ablation studies
//!   behind the simulator's design choices.
//! * [`check`] is the paper-vs-measured comparison framework.
//! * [`logstore`] memoizes simulated logs process-wide so each
//!   `(model, seed)` log is simulated exactly once and shared as an
//!   `Arc`.
//! * [`runner`] executes the experiment catalog on a worker pool with
//!   declaration-order collection, so parallel output is byte-identical
//!   to serial.
//! * The `repro` binary prints any (or all) of the experiments:
//!   `cargo run -p failbench --bin repro -- all`; `repro bench` times
//!   the regeneration pipelines themselves.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod check;
pub mod experiments;
pub mod logstore;
pub mod runner;

pub use check::{Check, Experiment, Tolerance};
pub use logstore::LogStore;
