//! # rfstudy — register file design in dynamically scheduled processors
//!
//! A reproduction of Farkas, Jouppi, and Chow, *Register File Design
//! Considerations in Dynamically Scheduled Processors* (HPCA 1996 / DEC WRL
//! Research Report 95/10), built as a family of Rust crates:
//!
//! * [`isa`] — the abstract Alpha-like micro-op ISA,
//! * [`bpred`] — the McFarling combining branch predictor,
//! * [`mem`] — perfect / lockup / lockup-free data caches with inverted MSHRs,
//! * [`workload`] — synthetic SPEC92-profile trace generators,
//! * [`core`] — the cycle-level out-of-order pipeline and register-file
//!   liveness accounting,
//! * [`timing`] — the multiported register-file cycle-time and BIPS model,
//! * [`experiments`] — harnesses that regenerate every table and figure of
//!   the paper's evaluation.
//!
//! This facade crate re-exports each sub-crate under a short module name, so
//! a downstream user can depend on `rfstudy` alone.
//!
//! # Quickstart
//!
//! ```
//! use rfstudy::core::{ExceptionModel, MachineConfig, Pipeline};
//! use rfstudy::mem::CacheOrg;
//! use rfstudy::workload::{spec92, SharedTrace};
//!
//! // Four-way issue machine: 32-entry dispatch queue, 64+64 physical
//! // registers, precise exceptions, lockup-free cache.
//! let config = MachineConfig::new(4)
//!     .dispatch_queue(32)
//!     .physical_regs(64)
//!     .exceptions(ExceptionModel::Precise)
//!     .cache(CacheOrg::LockupFree);
//!
//! // The committed path of (compress, seed 1), replayed by any number of
//! // simulations, each reading it through its own cursor.
//! let trace = SharedTrace::new(&spec92::compress(), 1, 20_000);
//! let (stats, _) = Pipeline::new(config)
//!     .run(&mut trace.cursor(), &mut trace.wrong_path(), 20_000)
//!     .expect("no cancel token attached");
//! assert!(stats.commit_ipc() > 0.5);
//! ```

#![warn(missing_docs)]

pub use rf_bpred as bpred;
pub use rf_core as core;
pub use rf_experiments as experiments;
pub use rf_isa as isa;
pub use rf_mem as mem;
pub use rf_timing as timing;
pub use rf_workload as workload;
