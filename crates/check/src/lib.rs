//! `rf-check`: a static dataflow oracle and a dynamic invariant
//! sanitizer for the `rfstudy` register-file simulator.
//!
//! The simulator's headline numbers — live-register distributions,
//! register-scarcity IPC curves — are only as trustworthy as its rename
//! and freeing machinery. This crate checks that machinery two
//! independent ways:
//!
//! * [`oracle`] analyses a committed instruction stream *statically*,
//!   in one pass without collecting it: def-use chains, live ranges, a
//!   schedule-independent lower bound on physical-register demand, the
//!   kind mix, and an ideal-schedule decomposition into the paper's
//!   liveness categories (the schedule is [`rf_core::dataflow`]'s).
//! * [`Sanitizer`] rides the zero-cost [`Observer`](rf_core::Observer)
//!   hooks *dynamically*, replaying every rename, free, commit and
//!   squash against its own model of the register files and flagging any
//!   divergence (double alloc/free, freelist conservation, rename-map
//!   bijectivity, commit order, squash completeness).
//!
//! [`crosscheck`] ties the two together: one sanitized simulation of an
//! [`rf_core::RunSpec`], reconciled against the static analysis of the
//! same trace prefix (the two run on two threads, each over its own copy
//! of the trace), surfaced as the `rfstudy check` subcommand and as the
//! experiment suite's audit of a sample of its own answers. A point of
//! the check matrix ([`default_matrix`]) is a [`CheckParams`], and the
//! run it names is [`CheckParams::spec`]. [`inject`] proves every
//! sanitizer checker can actually fail. [`wstats`] adds the windowed
//! dataflow limits to the oracle's pass, as the schedule-independent
//! workload summary the `rf-model` analytic estimator consumes.
//!
//! Nothing here perturbs measurement: the sanitizer only runs when a
//! caller attaches it, and an unobserved pipeline compiles the hooks
//! away entirely. This crate reads no environment.

pub mod crosscheck;
pub mod inject;
pub mod oracle;
pub mod sanitizer;
pub mod wstats;

pub use crosscheck::{config_for, cross_validate, cross_validate_cancellable, default_matrix, CheckParams, CheckReport};
pub use inject::{Fault, FaultInjector};
pub use oracle::{analyze, ClassOracle, TraceOracle};
pub use sanitizer::{Sanitizer, Violation, ViolationKind};
pub use wstats::{workload_stats, WorkloadStats, DATAFLOW_WINDOWS};
