//! Experiment harnesses for the HPCA'96 register-file study.
//!
//! Each table and figure of the paper's evaluation has a module here that
//! reruns the underlying simulations and renders the same rows/series the
//! paper reports:
//!
//! | module  | paper content |
//! |---------|---------------|
//! | [`table1`] | per-benchmark dynamic statistics at both issue widths |
//! | [`fig3`]   | IPC and 90th-percentile live registers vs dispatch-queue size, with the four-category breakdown |
//! | [`fig4`]   | average live-register run-time coverage, precise vs imprecise |
//! | [`fig5`]   | tomcatv FP-register coverage (8-way), precise vs imprecise |
//! | [`fig6`]   | commit IPC and no-free-register fraction vs register count |
//! | [`fig7`]   | commit IPC for perfect / lockup-free / lockup caches |
//! | [`fig8`]   | compress integer-register coverage for the three caches |
//! | [`fig10`]  | register-file cycle time and BIPS vs register count |
//! | [`ablation`] | design-choice ablations (scheduler policy, insertion bandwidth) |
//! | [`extensions`] | extensions: Alpha-style hybrid exceptions, split dispatch queues |
//! | [`sensitivity`] | fetch latency / cache capacity / I-cache sensitivity |
//! | [`dataflow`] | Wall-style dataflow ILP limits vs achieved IPC |
//!
//! (The paper's Figure 9 is the multiported cell schematic; it is encoded
//! as [`rf_timing::RegFileGeometry`]'s line-count rules rather than
//! reproduced as an experiment.)
//!
//! Every module exposes `plan(&Scale) -> Vec<RunSpec>`, the simulation
//! points its report reads, and `render(&Scale, &Answers) -> String`, the
//! report built from their answers. [`suite::HARNESSES`] lists them in
//! suite order; the crate's one binary, `all`, answers the union of their
//! plans in one batch and writes each report (`all --only fig3,fig6`
//! renders a subset). [`Scale`] controls the number of committed
//! instructions per simulation so CI can run the suite quickly while the
//! real suite uses longer runs (`RF_COMMITS` in the environment, or the
//! first argument of `all`).
//!
//! # Examples
//!
//! ```
//! use rf_experiments::{runner::{RunSpec, Scale}};
//!
//! let spec = RunSpec::baseline("compress", 4).commits(5_000);
//! let stats = rf_experiments::runner::simulate(&spec);
//! assert_eq!(stats.committed, 5_000);
//! # let _ = Scale::fast();
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod aggregate;
pub mod args;
pub mod bench;
pub mod codec;
pub mod dataflow;
pub mod extensions;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod plot;
pub mod runner;
pub mod sensitivity;
pub mod suite;
pub mod table;
pub mod table1;

pub use runner::{RunCache, RunSpec, Scale, SimPool};
pub use suite::Answers;
