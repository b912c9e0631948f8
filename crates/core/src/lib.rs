//! Cycle-level out-of-order processor model for the HPCA'96 register-file
//! study.
//!
//! This crate implements the machine of Section 2 of the paper:
//!
//! * a RISC superscalar core issuing 4 or 8 instructions per cycle under
//!   per-class limits, fed by a **single unified dispatch queue** with an
//!   insertion bandwidth of 1.5x the issue width and a commit bandwidth of
//!   2x the issue width;
//! * **register renaming** (modelled after the IBM ES/9000 scheme) onto
//!   separate integer and floating-point physical register files of equal,
//!   configurable size; insertion stalls when no register is free;
//! * **greedy oldest-first scheduling** with dynamic memory disambiguation
//!   (memory operations may issue out of order when their addresses
//!   provably differ);
//! * **speculative execution** past predicted branches (McFarling combining
//!   predictor from [`rf_bpred`]), including execution of *wrong-path*
//!   instructions until the mispredicted branch executes, and full
//!   recovery: rename-map rollback, squashed-register freeing, global
//!   history restoration, and cancellation of in-flight cache fills;
//! * both of the paper's **exception models** driving physical-register
//!   freeing:
//!   [`ExceptionModel::Precise`] — the previous mapping of a destination
//!   register frees when the overwriting instruction *commits* — and
//!   [`ExceptionModel::Imprecise`] — a register frees as soon as its writer
//!   and readers have *completed* and any later writer of the same virtual
//!   register completes with all of its preceding branches complete;
//! * per-cycle **register-liveness accounting** in the paper's four
//!   categories (writer in dispatch queue; writer in flight; waiting for
//!   imprecise freeing conditions; waiting for precise conditions), with
//!   full per-cycle histograms for the percentile and coverage analyses of
//!   Figures 3–8.
//!
//! # Quickstart
//!
//! ```
//! use rf_core::{ExceptionModel, MachineConfig, Pipeline};
//! use rf_mem::CacheOrg;
//! use rf_workload::{spec92, SharedTrace};
//!
//! let config = MachineConfig::new(4)
//!     .dispatch_queue(32)
//!     .physical_regs(64)
//!     .exceptions(ExceptionModel::Precise)
//!     .cache(CacheOrg::LockupFree);
//!
//! // The committed path of (compress, seed 1) and its wrong-path stream.
//! let trace = SharedTrace::new(&spec92::compress(), 1, 10_000);
//! let (stats, _) = Pipeline::new(config)
//!     .run(&mut trace.cursor(), &mut trace.wrong_path(), 10_000)
//!     .expect("no cancel token attached");
//! assert_eq!(stats.committed, 10_000);
//! assert!(stats.commit_ipc() > 0.5 && stats.issue_ipc() >= stats.commit_ipc());
//! ```

#![warn(missing_docs)]

mod active;
mod arena;
mod hazard;
pub mod dataflow;
mod config;
mod fu;
mod imprecise;
pub mod obs;
mod pipeline;
mod regfile;
mod select;
mod stats;
mod wheel;

pub use active::{ActiveEntry, ActiveList, ColdEntry, Src, Stage};
pub use config::{
    ExceptionModel, MachineConfig, RunSpec, SchedPolicy, DEFAULT_COMMITS, DEFAULT_SEED,
};
pub use fu::DividerPool;
pub use hazard::{AddrHashBuilder, AddrHasher};
pub use imprecise::{KillEngine, Killed, WriterChain};
pub use obs::{EventKind, NullObserver, Observer, StallCause, TraceEvent};
pub use pipeline::{skip_telemetry, CancelToken, Cancelled, Pipeline};
pub use regfile::{Category, Condition, PhysRegFile, RegState};
pub use stats::{LiveModel, SimStats};
