//! `rf-check`: a static dataflow oracle and a dynamic invariant
//! sanitizer for the `rfstudy` register-file simulator.
//!
//! The simulator's headline numbers — live-register distributions,
//! register-scarcity IPC curves — are only as trustworthy as its rename
//! and freeing machinery. This crate checks that machinery two
//! independent ways:
//!
//! * [`oracle`] analyses a committed instruction stream *statically*:
//!   def-use chains, live ranges, a schedule-independent lower bound on
//!   physical-register demand, and an ideal-schedule decomposition into
//!   the paper's liveness categories.
//! * [`Sanitizer`] rides the zero-cost [`Observer`](rf_core::Observer)
//!   hooks *dynamically*, replaying every rename, free, commit and
//!   squash against its own model of the register files and flagging any
//!   divergence (double alloc/free, freelist conservation, rename-map
//!   bijectivity, commit order, squash completeness).
//!
//! [`crosscheck`] ties the two together: one sanitized simulation per
//! configuration, reconciled against the static analysis of the same
//! trace prefix, surfaced as the `rfstudy check` subcommand and as
//! sanitized probe runs in the experiment suite. A configuration is a
//! [`CheckParams`], one point of the check matrix ([`default_matrix`]),
//! and the run it names is [`CheckParams::spec`], an
//! [`rf_core::RunSpec`] like every other simulation's. [`inject`] proves every
//! sanitizer checker can actually fail. [`wstats`] repackages the
//! oracle together with the instruction mix and windowed dataflow
//! limits as the schedule-independent workload summary the `rf-model`
//! analytic estimator consumes.
//!
//! Nothing here perturbs measurement: the sanitizer only runs when a
//! caller attaches it, and an unobserved pipeline compiles the hooks
//! away entirely. This crate reads no environment.

pub mod crosscheck;
pub mod inject;
pub mod oracle;
pub mod sanitizer;
pub mod wstats;

pub use crosscheck::{config_for, cross_validate, cross_validate_cancellable, default_matrix, suite_probe, CheckParams, CheckReport, SuiteSanitizer};
pub use inject::{Fault, FaultInjector};
pub use oracle::{analyze, ClassOracle, TraceOracle};
pub use sanitizer::{Sanitizer, Violation, ViolationKind};
pub use wstats::{workload_stats, WorkloadStats, DATAFLOW_WINDOWS};
