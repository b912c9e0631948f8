//! # rf-obs — pipeline observability
//!
//! Recorders, metrics, and trace exporters built on the zero-cost
//! [`Observer`](rf_core::Observer) hook that
//! [`Pipeline`](rf_core::Pipeline) is generic over.
//!
//! The moving parts:
//!
//! - [`Recorder`] implements `Observer`: it assembles per-instruction
//!   lifecycle events into [`InstRecord`]s inside a bounded cycle window,
//!   attributes stall cycles to [`StallCause`](rf_core::StallCause)s, and
//!   feeds a [`MetricsRegistry`] of latency, register-lifetime, and
//!   stall-burst [`Histogram`]s. Windowed detail is pruned; run-wide
//!   aggregates are not, so they reconcile exactly with
//!   [`SimStats`](rf_core::SimStats) (see [`report::reconcile`]).
//! - [`chrome::chrome_trace`] renders a recorded window as Chrome
//!   trace-event JSON (Perfetto / `chrome://tracing` loadable), one track
//!   per pipeline stage and per functional-unit class.
//! - [`report::summary`] and [`report::text_timeline`] are the text
//!   renderings used by `rfstudy trace`.
//! - [`json::validate`] is the dependency-free JSON recogniser the tests
//!   and CI smoke step use to prove the exporter's output parses;
//!   [`json::parse`] builds a [`json::Value`] tree for readers.
//!
//! Longitudinal observability (the cross-run layer):
//!
//! - [`ledger`] owns the append-only run-history record schema
//!   (`results/history/suite.jsonl`) and its atomic JSONL append.
//! - [`fidelity`] pins the paper's headline numbers (Table 1, Figures
//!   3–10) and scores each run's extracted headlines against them.
//! - [`trend`] compares the latest ledger record against a baseline with
//!   MAD-based noise bands, one row shape and one comparison rule for
//!   every section, and renders text or markdown reports through one
//!   table writer — the engine behind `rfstudy report [--check]`.
//! - [`profile`] consumes `rf-prof` self-profile trees: the ledger's
//!   JSON encoding, collapsed-stack flamegraph export, the text table
//!   behind `rfstudy profile`, and the phase-share extraction feeding
//!   the report's profile-drift section.
//! - [`alloc`] is an optional counting global allocator for suite
//!   self-profiling (installed behind `rf-experiments`'s `profile-alloc`
//!   feature).
//! - [`live`] is the real-time layer: a sampler thread that renders the
//!   `rf-prof` counter registry, the run pool's per-worker busy cells and
//!   the suite's specs answered of specs planned as snapshots in
//!   `results/telemetry/live.jsonl`, the suite's one progress stream,
//!   which the `rfstudy top` terminal view follows.
//!
//! A traced run is driven through `Pipeline::with_observer` +
//! `Pipeline::run`, which hands the observer back; because the observer only receives copies of pipeline
//! state, a traced run's `SimStats` are byte-identical to an untraced
//! run's (asserted by this crate's determinism tests).

pub mod alloc;
pub mod chrome;
pub mod fidelity;
pub mod json;
pub mod ledger;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod trend;

pub use chrome::chrome_trace;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{InstRecord, Recorder};
pub use report::{reconcile, summary, text_timeline};
