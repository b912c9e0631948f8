//! Dataflow ILP-limit analysis.
//!
//! The paper situates itself against Wall's *Limits of Instruction-Level
//! Parallelism* (the 64-issue, 2048-entry-window datapoint it cites when
//! discussing register requirements). This module provides the matching
//! analysis for our traces: the IPC an *idealised* machine — perfect
//! branch prediction, perfect (always-hit) memory, unlimited functional
//! units and registers — could achieve, limited only by true data
//! dependences and, optionally, a finite instruction window.
//!
//! Comparing a benchmark's dataflow limit against the achieved IPC of the
//! simulated 4-/8-way machines shows how much of the available
//! parallelism the realistic configurations harvest.

use crate::AddrHashBuilder;
use rf_isa::{Instruction, OpKind};
use std::collections::HashMap;

/// The result of a dataflow-limit analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataflowLimit {
    /// Instructions analysed.
    pub instructions: u64,
    /// Length of the critical path in cycles (the idealised run time).
    pub critical_path: u64,
}

impl DataflowLimit {
    /// The dataflow-limited IPC.
    pub fn ipc(&self) -> f64 {
        if self.critical_path == 0 {
            0.0
        } else {
            self.instructions as f64 / self.critical_path as f64
        }
    }
}

/// Computes the dataflow limit of a trace.
///
/// Model: every instruction starts the cycle all of its register inputs
/// (and, for loads, any older same-address store) are available, and
/// finishes `latency` cycles later; loads always hit (perfect memory);
/// branches never disturb fetch (perfect prediction). With
/// `window = Some(w)`, instruction `i` additionally cannot start before
/// instruction `i - w` has finished — a sliding-window approximation of a
/// finite instruction buffer, in the spirit of Wall's windowed
/// configurations. `None` is the unbounded dataflow limit.
///
/// # Examples
///
/// ```
/// use rf_core::dataflow::analyze;
/// use rf_isa::{ArchReg, Instruction};
///
/// // A serial chain: dataflow IPC ~= 1 per 1-cycle link.
/// let chain: Vec<_> = (0..100u8)
///     .map(|i| {
///         Instruction::int_alu(ArchReg::int(i % 8), [Some(ArchReg::int((i + 7) % 8)), None])
///     })
///     .collect();
/// let limit = analyze(chain.into_iter(), None);
/// assert!(limit.ipc() < 1.2);
/// ```
pub fn analyze(
    trace: impl Iterator<Item = Instruction>,
    window: Option<usize>,
) -> DataflowLimit {
    // Completion time of the current value of each architectural register
    // (class-major indexing: 31 int + 31 fp).
    let mut reg_finish = [0u64; 62];
    // Completion time of the last store to each (8-byte) address.
    let mut store_finish: HashMap<u64, u64, AddrHashBuilder> = HashMap::default();
    // Ring of the last `w` finish times for the window constraint.
    let mut ring: Vec<u64> = window.map(|w| vec![0; w.max(1)]).unwrap_or_default();
    let mut n = 0u64;
    let mut critical = 0u64;

    for inst in trace {
        let mut ready = 0u64;
        for src in inst.renameable_srcs() {
            let idx = src.class().index() * 31 + src.index() as usize;
            ready = ready.max(reg_finish[idx]);
        }
        if inst.kind() == OpKind::Load {
            if let Some(m) = inst.mem() {
                if let Some(&f) = store_finish.get(&m.addr()) {
                    ready = ready.max(f);
                }
            }
        }
        if let Some(w) = window {
            let slot = (n % w as u64) as usize;
            ready = ready.max(ring[slot]);
        }
        let finish = ready + u64::from(inst.kind().latency());
        if let Some(w) = window {
            ring[(n % w as u64) as usize] = finish;
        }
        if let Some(dest) = inst.dest() {
            let idx = dest.class().index() * 31 + dest.index() as usize;
            reg_finish[idx] = finish;
        }
        if inst.kind() == OpKind::Store {
            if let Some(m) = inst.mem() {
                store_finish.insert(m.addr(), finish);
            }
        }
        critical = critical.max(finish);
        n += 1;
    }
    DataflowLimit { instructions: n, critical_path: critical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_isa::ArchReg;

    fn alu(dest: u8, src: u8) -> Instruction {
        Instruction::int_alu(ArchReg::int(dest), [Some(ArchReg::int(src)), None])
    }

    #[test]
    fn serial_chain_has_unit_ipc() {
        let chain: Vec<_> = (0..50).map(|i| alu((i % 16) as u8, ((i + 15) % 16) as u8)).collect();
        let limit = analyze(chain.into_iter(), None);
        assert_eq!(limit.critical_path, 50);
        assert!((limit.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_ops_have_unbounded_ipc() {
        // 64 ops, all reading architectural state: critical path 1.
        let insts: Vec<_> = (0..64).map(|i| alu((i % 16) as u8, 30)).collect();
        let limit = analyze(insts.into_iter(), None);
        // The sources read r30, written by nothing: but the *dests*
        // overwrite each other without creating dependences (renaming is
        // implicit in dataflow analysis).
        assert_eq!(limit.critical_path, 1);
        assert_eq!(limit.ipc(), 64.0);
    }

    #[test]
    fn window_throttles_independent_ops() {
        let insts: Vec<_> = (0..64).map(|_| alu(0, 30)).collect();
        let limit = analyze(insts.into_iter(), Some(8));
        // Each batch of 8 must wait for the one 8 earlier: 64/8 = 8
        // serial steps.
        assert_eq!(limit.critical_path, 8);
        assert_eq!(limit.ipc(), 8.0);
    }

    #[test]
    fn fp_latency_stretches_chains() {
        let fp = |d: u8, s: u8| Instruction::fp_op(ArchReg::fp(d), [Some(ArchReg::fp(s)), None]);
        let chain: Vec<_> = (0..10).map(|i| fp(i % 8, (i + 7) % 8)).collect();
        let limit = analyze(chain.into_iter(), None);
        assert_eq!(limit.critical_path, 30);
    }

    #[test]
    fn store_to_load_dependences_are_respected() {
        let st = Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x100);
        let ld = Instruction::load(ArchReg::int(3), ArchReg::int(4), 0x100);
        let limit = analyze(vec![st, ld].into_iter(), None);
        // store finishes at 1; load starts at 1, finishes at 3.
        assert_eq!(limit.critical_path, 3);
        // Different addresses: both start at 0.
        let st = Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x100);
        let ld = Instruction::load(ArchReg::int(3), ArchReg::int(4), 0x200);
        let limit = analyze(vec![st, ld].into_iter(), None);
        assert_eq!(limit.critical_path, 2);
    }

    #[test]
    fn empty_trace_yields_zero() {
        let limit = analyze(std::iter::empty(), None);
        assert_eq!(limit.instructions, 0);
        assert_eq!(limit.ipc(), 0.0);
    }
}
