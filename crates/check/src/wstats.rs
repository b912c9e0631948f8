//! Schedule-independent workload statistics for the analytic model.
//!
//! [`workload_stats`] bundles everything `rf-model` needs to predict a
//! configuration's behaviour without simulating it: the static oracle's
//! def-use/lifetime analysis and instruction-kind mix
//! ([`crate::oracle`]), and the dataflow ILP limit of the same committed
//! prefix, unbounded and under a ladder of finite instruction windows
//! ([`rf_core::dataflow::Schedule`]). The window schedules ride the
//! oracle's one pass over the instruction stream — no pipeline state,
//! no collected prefix — so the numbers are properties of the
//! *workload*, reusable across every machine shape that shares an
//! insert bandwidth.

use crate::oracle::{self, TraceOracle};
use rf_core::dataflow::Schedule;
use rf_isa::{Instruction, IssueClass, OpKind, RegClass};
use std::borrow::Borrow;

/// The window ladder for the finite-window dataflow sweeps, in
/// instructions. Chosen to straddle the effective windows realisable by
/// the paper's configurations (dispatch queues of 32–64 entries, 33–2016
/// renameable registers per class).
pub const DATAFLOW_WINDOWS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Workload statistics consumed by the analytic model: the static
/// oracle (with the kind mix) and a windowed dataflow-IPC curve.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// The static oracle of the prefix (def-use chains, lifetime
    /// categories, ideal-schedule demand, kind mix), paced at the
    /// insert bandwidth passed to [`workload_stats`].
    pub oracle: TraceOracle,
    /// Dataflow-limited IPC under each window of [`DATAFLOW_WINDOWS`],
    /// made non-decreasing (a larger window can never lower the limit;
    /// the running max irons out sampling noise from the ring
    /// approximation).
    pub windowed_ipc: [f64; DATAFLOW_WINDOWS.len()],
    /// Dataflow-limited IPC with an unbounded window (Wall's limit).
    pub unbounded_ipc: f64,
}

impl WorkloadStats {
    /// Fraction of the prefix with the given kind (0 for an empty
    /// prefix).
    pub fn kind_fraction(&self, kind: OpKind) -> f64 {
        self.oracle.count(kind) as f64 / self.oracle.instructions.max(1) as f64
    }

    /// Fraction of the prefix issued to the given functional-unit
    /// class.
    pub fn class_fraction(&self, class: IssueClass) -> f64 {
        OpKind::ALL
            .iter()
            .filter(|k| k.issue_class() == class)
            .map(|&k| self.kind_fraction(k))
            .sum()
    }

    /// Mean service time (execution latency in cycles) of instructions
    /// issued to the given class, weighted by the prefix's mix. Zero if
    /// the class is unused.
    pub fn mean_service(&self, class: IssueClass) -> f64 {
        let mut insts = 0.0;
        let mut cycles = 0.0;
        for k in OpKind::ALL.into_iter().filter(|k| k.issue_class() == class) {
            insts += self.oracle.count(k) as f64;
            cycles += self.oracle.count(k) as f64 * f64::from(k.latency());
        }
        // Counts are whole, so an unused class is the only one below 1.
        cycles / insts.max(1.0)
    }

    /// Defs of `class` per committed instruction (0 for an empty
    /// prefix).
    pub fn def_fraction(&self, class: RegClass) -> f64 {
        self.oracle.classes[class.index()].defs as f64 / self.oracle.instructions.max(1) as f64
    }

    /// The dataflow-limited IPC of a `window`-instruction machine,
    /// interpolated on the [`DATAFLOW_WINDOWS`] ladder (linear in
    /// log-window between rungs, capped by the window itself below the
    /// ladder, held at the top rung above it). Non-decreasing in
    /// `window` by construction.
    pub fn window_ipc(&self, window: f64) -> f64 {
        let lo = DATAFLOW_WINDOWS[0] as f64;
        if window <= lo {
            // Below the ladder the window itself is a hard cap: at most
            // `window` instructions can overlap.
            return self.windowed_ipc[0].min(window.max(1.0));
        }
        let last = *DATAFLOW_WINDOWS.last().expect("non-empty ladder") as f64;
        if window >= last {
            return self.windowed_ipc[DATAFLOW_WINDOWS.len() - 1];
        }
        let pos = DATAFLOW_WINDOWS.iter().rposition(|&w| (w as f64) <= window).unwrap_or(0);
        let (w0, w1) = (DATAFLOW_WINDOWS[pos] as f64, DATAFLOW_WINDOWS[pos + 1] as f64);
        let (y0, y1) = (self.windowed_ipc[pos], self.windowed_ipc[pos + 1]);
        let t = (window.ln() - w0.ln()) / (w1.ln() - w0.ln());
        y0 + (y1 - y0) * t
    }
}

/// Computes [`WorkloadStats`] for a committed prefix in one pass over
/// any iterator of instructions or references to them. `insert_bw`
/// paces the oracle's ideal schedule exactly as [`oracle::analyze`]
/// does; the dataflow schedules are unpaced.
pub fn workload_stats<I>(insts: I, insert_bw: usize) -> WorkloadStats
where
    I: IntoIterator,
    I::Item: Borrow<Instruction>,
{
    let mut unbounded = Schedule::new(None, None);
    let mut windowed = DATAFLOW_WINDOWS.map(|w| Schedule::new(None, Some(w)));
    let trace = insts.into_iter().inspect(|inst| {
        let inst: &Instruction = inst.borrow();
        unbounded.step(inst);
        for schedule in &mut windowed {
            schedule.step(inst);
        }
    });
    let oracle = oracle::analyze(trace, insert_bw);
    let mut running = 0.0f64;
    let windowed_ipc = windowed.map(|s| {
        running = running.max(s.limit().ipc());
        running
    });
    WorkloadStats { oracle, windowed_ipc, unbounded_ipc: unbounded.limit().ipc() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_isa::ArchReg;

    fn alu(dest: u8, src: u8) -> Instruction {
        Instruction::int_alu(ArchReg::int(dest), [Some(ArchReg::int(src)), None])
    }

    fn mixed_trace(n: usize) -> Vec<Instruction> {
        (0..n)
            .map(|i| match i % 5 {
                0 => Instruction::load(ArchReg::int(1), ArchReg::int(2), 0x100 + 8 * i as u64),
                1 => Instruction::fp_op(ArchReg::fp(1), [Some(ArchReg::fp(2)), None]),
                2 => Instruction::cond_branch(0x40 + i as u64, i % 2 == 0, Some(ArchReg::int(1))),
                3 => Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x100 + 8 * i as u64),
                _ => alu((i % 16) as u8, ((i + 3) % 16) as u8),
            })
            .collect()
    }

    #[test]
    fn fractions_partition_the_prefix() {
        let s = workload_stats(mixed_trace(100), 6);
        let total: f64 = OpKind::ALL.iter().map(|&k| s.kind_fraction(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let by_class: f64 = IssueClass::ALL.iter().map(|&c| s.class_fraction(c)).sum();
        assert!((by_class - 1.0).abs() < 1e-9);
        assert_eq!(s.oracle.instructions, 100);
    }

    #[test]
    fn windowed_ipc_is_non_decreasing_and_below_unbounded() {
        let s = workload_stats(mixed_trace(400), 6);
        for pair in s.windowed_ipc.windows(2) {
            assert!(pair[1] >= pair[0], "{:?}", s.windowed_ipc);
        }
        let top = s.windowed_ipc[DATAFLOW_WINDOWS.len() - 1];
        assert!(top <= s.unbounded_ipc + 1e-9, "{top} vs {}", s.unbounded_ipc);
    }

    #[test]
    fn window_interpolation_is_monotone() {
        let s = workload_stats(mixed_trace(400), 6);
        let mut prev = 0.0;
        for w in 1..600 {
            let ipc = s.window_ipc(w as f64);
            assert!(ipc + 1e-12 >= prev, "window {w}: {ipc} < {prev}");
            prev = ipc;
        }
        // The ladder rungs themselves are reproduced exactly.
        for (i, &w) in DATAFLOW_WINDOWS.iter().enumerate() {
            assert!((s.window_ipc(w as f64) - s.windowed_ipc[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_service_matches_known_latencies() {
        // A pure-ALU trace has unit service time in the Integer class.
        let insts: Vec<_> = (0..50).map(|i| alu((i % 8) as u8, 2)).collect();
        let s = workload_stats(&insts, 6);
        assert!((s.mean_service(IssueClass::Integer) - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_service(IssueClass::FpDivide), 0.0);
        assert!(s.def_fraction(RegClass::Int) > 0.99);
        assert_eq!(s.def_fraction(RegClass::Fp), 0.0);
    }
}
