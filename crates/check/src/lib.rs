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
//! sanitized probe runs in the experiment suite. [`inject`] proves every
//! sanitizer checker can actually fail. [`wstats`] repackages the
//! oracle together with the instruction mix and windowed dataflow
//! limits as the schedule-independent workload summary the `rf-model`
//! analytic estimator consumes.
//!
//! Nothing here perturbs measurement: the sanitizer only runs when
//! explicitly requested ([`sanitize_enabled`]), and an unobserved
//! pipeline compiles the hooks away entirely.

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

/// Parses the `RF_SANITIZE` switch strictly: `Ok(false)` when unset,
/// `1/on/true/yes` or `0/off/false/no` (case-insensitive) otherwise.
/// Binaries call this from their environment validators so a typo exits
/// with a usage error instead of silently picking a mode.
///
/// # Errors
///
/// Returns a message naming the malformed value.
pub fn env_mode() -> Result<bool, String> {
    match std::env::var("RF_SANITIZE") {
        Err(_) => Ok(false),
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "no" => Ok(false),
            "1" | "on" | "true" | "yes" => Ok(true),
            _ => Err(format!(
                "RF_SANITIZE={raw:?} is not recognized (use 0/off/false/no or 1/on/true/yes)"
            )),
        },
    }
}

/// Whether sanitized simulation was requested, either at compile time
/// (the `sanitize` cargo feature) or at run time (`RF_SANITIZE`, see
/// [`env_mode`]).
///
/// # Panics
///
/// Panics on a malformed `RF_SANITIZE` without the `sanitize` feature;
/// binaries pre-validate with [`env_mode`] to report that cleanly.
pub fn sanitize_enabled() -> bool {
    cfg!(feature = "sanitize") || env_mode().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn sanitize_feature_forces_enabled() {
        // With the feature off, the env var governs; either way the call
        // must not panic.
        let _ = super::sanitize_enabled();
    }
}
