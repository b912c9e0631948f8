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
    /// The dataflow-limited IPC (0 for an empty trace: every
    /// instruction takes at least a cycle).
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.critical_path.max(1) as f64
    }
}

/// When the ideal schedule places one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Cycle the instruction renames: its trace position over the pace
    /// (0 in an unpaced schedule).
    pub rename: u64,
    /// Cycle its inputs are ready and it starts.
    pub ready: u64,
    /// Cycle it finishes.
    pub finish: u64,
}

/// The ideal dataflow schedule, built one instruction at a time.
///
/// Model: every instruction starts the cycle all of its register inputs
/// (and, for loads, any older same-address store) are available, and
/// finishes `latency` cycles later; loads always hit (perfect memory);
/// branches never disturb fetch (perfect prediction). With
/// `pace = Some(p)`, instruction `i` renames at cycle `i / p` and cannot
/// start before it (the static oracle paces at the insert bandwidth).
/// With `window = Some(w)`, instruction `i` additionally cannot start
/// before instruction `i - w` has finished — a sliding-window
/// approximation of a finite instruction buffer, in the spirit of
/// Wall's windowed configurations. `None` leaves the schedule unpaced or
/// unbounded.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Completion time of the current value of each architectural
    /// register (class-major indexing: 31 int + 31 fp).
    reg_finish: [u64; 62],
    /// Completion time of the last store to each (8-byte) address.
    store_finish: HashMap<u64, u64, AddrHashBuilder>,
    /// Instructions renamed per cycle, if paced.
    pace: Option<u64>,
    /// The last `w` finish times for the window constraint; empty when
    /// unbounded.
    ring: Vec<u64>,
    /// The ring slot the next instruction takes.
    cursor: usize,
    /// Instructions scheduled and the latest finish so far.
    limit: DataflowLimit,
}

impl Schedule {
    /// An empty schedule. Panics unless a `pace` or `window` given is
    /// at least 1.
    pub fn new(pace: Option<usize>, window: Option<usize>) -> Self {
        assert!(pace != Some(0) && window != Some(0), "pace and window are at least 1");
        Self {
            reg_finish: [0; 62],
            store_finish: HashMap::default(),
            pace: pace.map(|p| p as u64),
            ring: window.map(|w| vec![0; w]).unwrap_or_default(),
            cursor: 0,
            limit: DataflowLimit { instructions: 0, critical_path: 0 },
        }
    }

    /// Schedules the next instruction of the trace.
    pub fn step(&mut self, inst: &Instruction) -> Slot {
        let rename = self.pace.map_or(0, |p| self.limit.instructions / p);
        let mut ready = rename;
        for src in inst.renameable_srcs() {
            ready = ready.max(self.reg_finish[src.class().index() * 31 + src.index() as usize]);
        }
        let addr = inst.mem().map(|m| m.addr());
        if let (OpKind::Load, Some(a)) = (inst.kind(), addr) {
            ready = ready.max(self.store_finish.get(&a).copied().unwrap_or(0));
        }
        // The cursor's ring slot holds the finish of the instruction `w`
        // places back.
        if let Some(&f) = self.ring.get(self.cursor) {
            ready = ready.max(f);
        }
        let finish = ready + u64::from(inst.kind().latency());
        if let Some(slot) = self.ring.get_mut(self.cursor) {
            *slot = finish;
            self.cursor = if self.cursor + 1 == self.ring.len() { 0 } else { self.cursor + 1 };
        }
        if let Some(dest) = inst.dest() {
            self.reg_finish[dest.class().index() * 31 + dest.index() as usize] = finish;
        }
        if let (OpKind::Store, Some(a)) = (inst.kind(), addr) {
            self.store_finish.insert(a, finish);
        }
        self.limit.instructions += 1;
        self.limit.critical_path = self.limit.critical_path.max(finish);
        Slot { rename, ready, finish }
    }

    /// The schedule so far: instructions scheduled and the latest
    /// finish.
    pub fn limit(&self) -> DataflowLimit {
        self.limit
    }
}

/// Computes the dataflow limit of a trace: the unpaced [`Schedule`]
/// with an optional window of at least 1.
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
    let mut schedule = Schedule::new(None, window);
    for inst in trace {
        schedule.step(&inst);
    }
    schedule.limit()
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
    fn pace_delays_independent_ops_to_their_rename_cycle() {
        let insts: Vec<_> = (0..12).map(|_| alu(0, 30)).collect();
        let mut schedule = Schedule::new(Some(4), None);
        let slots: Vec<_> = insts.iter().map(|i| schedule.step(i)).collect();
        assert_eq!(slots[5], Slot { rename: 1, ready: 1, finish: 2 });
        // 12 ops at 4 per cycle rename over 3 cycles; the last finishes at 3.
        assert_eq!(schedule.limit().critical_path, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn a_zero_window_is_rejected() {
        Schedule::new(None, Some(0));
    }

    #[test]
    fn empty_trace_yields_zero() {
        let limit = analyze(std::iter::empty(), None);
        assert_eq!(limit.instructions, 0);
        assert_eq!(limit.ipc(), 0.0);
    }
}
