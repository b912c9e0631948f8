//! Synthetic workload generation for the HPCA'96 register-file study.
//!
//! The original study drove its simulator with ATOM-instrumented Alpha
//! traces of nine SPEC92 benchmarks. Neither SPEC92, ATOM, nor Alpha
//! binaries are available, so this crate substitutes *calibrated synthetic
//! trace generators*: each benchmark becomes a [`BenchmarkProfile`] whose
//! parameters are tuned so the generated instruction stream reproduces the
//! per-benchmark characteristics that drive the paper's register-file
//! phenomena:
//!
//! * **instruction mix** (integer/FP/load/store/branch fractions — Table 1),
//! * **loop and branch structure** (static branch sites with stable PCs,
//!   biased / patterned / data-dependent behaviours, loop trip counts),
//!   yielding the target conditional-branch misprediction rate under the
//!   modelled McFarling predictor,
//! * **memory locality** (hot regions, sequential array walks, large
//!   scattered working sets), yielding the target load miss rate on the
//!   baseline 64 KB 2-way cache,
//! * **dependency structure** (per-slot register reuse distances), yielding
//!   the benchmark's instruction-level parallelism.
//!
//! A generated program is *static*: a set of synthesized loop bodies with
//! fixed PCs, fixed per-slot operation kinds, fixed dependence distances
//! and fixed branch-site behaviours. The dynamic trace walks those loops,
//! which is what lets the simulated branch predictor and cache behave the
//! way they would on real code (the same sites recur, the same patterns
//! repeat).
//!
//! All generation is deterministic given `(profile, seed)`. That is what
//! lets a [`SharedTrace`] generate one committed path once, pack it, and
//! replay it through every simulation of the same `(profile, seed)`, as
//! the original study replayed each ATOM trace through every machine.
//!
//! # Examples
//!
//! ```
//! use rf_workload::{spec92, TraceGenerator};
//!
//! let profile = spec92::compress();
//! let mut gen = TraceGenerator::new(&profile, 42);
//! let first_thousand: Vec<_> = (&mut gen).take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
//!
//! // Determinism: the same seed yields the same trace.
//! let again: Vec<_> = TraceGenerator::new(&profile, 42).take(1000).collect();
//! assert_eq!(first_thousand, again);
//! ```

#![warn(missing_docs)]

mod branch;
mod generator;
mod memstream;
mod mix;
mod profile;
mod program;
mod shared;
pub mod spec92;
mod trace_io;

pub use branch::BranchBehavior;
pub use generator::{TraceGenerator, WrongPathGenerator};
pub use memstream::{MemoryModel, StreamKind};
pub use mix::InstructionMix;
pub use profile::{BenchmarkProfile, BranchModel, DependencyModel, LoopModel};
pub use program::{Slot, StaticProgram};
pub use shared::{SharedTrace, TraceCursor};
