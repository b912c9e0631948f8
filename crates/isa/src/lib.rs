//! Abstract RISC micro-op ISA for the rfstudy simulator.
//!
//! The HPCA'96 register-file study simulated a RISC superscalar processor
//! whose instruction set is "based on the DEC Alpha instruction set". The
//! study never depends on instruction encodings — only on each operation's
//! *class* (which determines issue constraints and functional-unit latency)
//! and on its *register usage* (which drives renaming and register-file
//! pressure). This crate therefore models an abstract micro-op ISA with:
//!
//! * an Alpha-like register architecture: 32 integer and 32 floating-point
//!   architectural registers, with `r31`/`f31` hardwired to zero (never
//!   renamed), leaving 31 renameable registers per file;
//! * operation kinds covering the classes the paper's machine distinguishes
//!   (integer ALU, integer multiply, FP add-class, non-pipelined FP divide,
//!   loads, stores, conditional branches, other control flow);
//! * the paper's per-cycle issue-class limits and functional-unit latencies.
//!
//! # Examples
//!
//! ```
//! use rf_isa::{ArchReg, Instruction, OpKind, RegClass};
//!
//! let inst = Instruction::int_alu(
//!     ArchReg::int(1),
//!     [Some(ArchReg::int(2)), Some(ArchReg::int(3))],
//! );
//! assert_eq!(inst.kind(), OpKind::IntAlu);
//! assert_eq!(inst.dest().unwrap().class(), RegClass::Int);
//! assert_eq!(inst.kind().latency(), 1);
//! ```

#![warn(missing_docs)]

mod inst;
mod issue;
mod op;
mod parse;
mod reg;

pub use inst::{Instruction, MemAccess, PackedInst};
pub use issue::{IssueClass, IssueLimits};
pub use op::OpKind;
pub use parse::ParseInstructionError;
pub use reg::{ArchReg, RegClass, RENAMEABLE_REGS_PER_CLASS, ZERO_REG_INDEX};
