//! `rf-model`: a static analytic estimator for the rfstudy machine.
//!
//! The simulator answers the paper's sizing questions by running every
//! configuration cycle by cycle. This crate answers the same questions
//! *analytically*, in microseconds: given a machine shape
//! ([`rf_core::MachineConfig`]) and a schedule-independent summary of
//! the workload ([`WorkloadSummary`], which [`summarize`] extracts for
//! the [`rf_core::RunSpec`] the simulator would run), [`evaluate`]
//! predicts committed IPC, functional-unit and dispatch-queue
//! occupancy, and the mean / peak register pressure, without executing
//! a single simulated cycle.
//!
//! The model is an M/G/c-flavoured bound hierarchy in the style of
//! Carroll & Lin (arXiv 1807.08586): throughput is the minimum of the
//! issue-width, insert-bandwidth, dataflow-critical-path, finite-window
//! and per-pool service bounds, then degraded by additive CPI
//! corrections for branch mispredictions and cache-miss stalls (the
//! memory-level-parallelism divisor follows Diavastos & Carlson, arXiv
//! 2109.03112). Register pressure comes from Little's law over the
//! static oracle's lifetime decomposition ([`rf_check::oracle`]), and
//! every peak estimate is clamped into the oracle's sound
//! `[floor, ceiling]` bracket, so the cross-validation gate of
//! `rfstudy model --check` holds by construction.
//!
//! The estimator is a cross-check, never a stand-in: every number in a
//! report comes from a simulation, and `rfstudy model --check` measures
//! how far the model's predictions fall from those simulations.

pub mod estimate;
pub mod summary;

pub use estimate::{evaluate, ModelEstimate};
pub use summary::{summarize, summarize_profile, WorkloadSummary};
