//! The static trace analyzer: def-use chains, live ranges, a sound
//! lower bound on physical-register demand, and an ideal-schedule
//! decomposition of register lifetimes into the paper's liveness
//! categories.
//!
//! Everything here is computed in one pass over the committed
//! instruction stream alone — no pipeline state — which is what makes
//! it an independent oracle for the simulator (see
//! [`crate::crosscheck`]). The ideal schedule is
//! [`rf_core::dataflow::Schedule`] paced at the insert bandwidth, the
//! same schedule the dataflow limits use unpaced; the pass also counts
//! the instruction-kind mix.
//!
//! ## Soundness of the lower bound
//!
//! Bind each register read to the most recent prior write of the same
//! virtual register; each write opens a *def* whose physical register
//! stays allocated, in any legal schedule, from the cycle its
//! instruction inserts until after the next write of the same virtual
//! register **completes** (imprecise freeing) or **commits** (precise
//! freeing) — and the next write can insert no earlier than its own
//! trace position. Therefore at the point any trace position `j`
//! inserts, every def whose interval `[def_pos, next_def_pos)` covers
//! `j` is still allocated (the interval extends *through* the
//! redefinition position when the redefining instruction also reads the
//! old value, since it renames its source before overwriting). The 31
//! initial architectural mappings per class open defs at position 0.
//! The maximum interval overlap over committed positions is then a
//! schedule-independent floor on the simulator's max-live count.
//!
//! The matching upper bound is `31 + defs`, since every allocation
//! after reset is the destination of one inserted instruction; the
//! cross-check widens it by the simulator's own count of inserted but
//! never-committed (wrong-path or still in-flight) instructions.

use rf_core::dataflow::{DataflowLimit, Schedule, Slot};
use rf_isa::{Instruction, OpKind, RegClass};
use std::borrow::Borrow;

/// Per-class results of the static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassOracle {
    /// Writes (defs) of this class in the trace, excluding the 31
    /// initial architectural mappings.
    pub defs: u64,
    /// Reads bound to those defs (including reads of initial mappings).
    pub uses: u64,
    /// Defs overwritten without ever being read.
    pub dead_defs: u64,
    /// Schedule-independent lower bound on max simultaneously live
    /// physical registers (see module docs); at least 31.
    pub floor: usize,
    /// Peak register demand of the ideal schedule (unlimited issue at
    /// the configured insert bandwidth, perfect memory and branches,
    /// imprecise freeing): the max overlap of rename-to-free lifetimes.
    pub ideal_demand: usize,
    /// Mean registers whose writer is in-queue / in-flight / waiting to
    /// be freed, per ideal-schedule cycle — the static analogue of the
    /// paper's liveness-category decomposition (Figures 3–7), without
    /// the 31 always-live architectural mappings.
    pub ideal_cat_means: [f64; 3],
    /// Mean trace-position distance from a def to its last use, over
    /// defs that are read at least once.
    pub mean_def_use_span: f64,
}

/// Results of statically analysing one trace prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOracle {
    /// Instructions analysed.
    pub instructions: u64,
    /// Instructions per [`OpKind`], indexed in [`OpKind::ALL`] order
    /// (see [`TraceOracle::count`]).
    pub kind_counts: [u64; OpKind::ALL.len()],
    /// Cycles the ideal schedule takes to complete the prefix.
    pub ideal_cycles: u64,
    /// Per-class analysis (indexed by [`RegClass::index`]).
    pub classes: [ClassOracle; 2],
}

impl TraceOracle {
    /// Instructions of `kind` in the prefix.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// The sound upper bound on the simulator's max-live count for
    /// `class`: initial mappings plus every possible allocation. `slack`
    /// is the simulator's count of inserted-but-never-committed
    /// instructions (wrong-path and end-of-run in-flight), each of which
    /// can hold at most one extra register of the class.
    pub fn upper_bound(&self, class: RegClass, phys_regs: usize, slack: u64) -> usize {
        phys_regs.min(31 + (self.classes[class.index()].defs + slack) as usize)
    }
}

/// The current def (write) of a virtual register, including the 31
/// initial architectural mappings per class (`pos == -1`).
#[derive(Debug, Clone, Copy, Default)]
struct Def {
    pos: i64,
    last_use: i64,
    uses: u32,
    /// Ideal-schedule times: insert (rename), operands-ready (issue),
    /// and completion of the writing instruction.
    rename_at: u64,
    issue_at: u64,
    finish_at: u64,
    /// Latest completion among the def's readers.
    reader_finish: u64,
}

/// Statically analyses a trace prefix, in one pass over any iterator of
/// instructions or references to them. `insert_bw` is the machine's
/// per-cycle insert bandwidth (`1.5 x width` in the paper), which paces
/// the ideal schedule's rename times; the schedule itself is
/// [`rf_core::dataflow::Schedule`], the one the dataflow limits use.
///
/// Each def is folded into its class's totals once the next write of
/// its virtual register displaces it (no later instruction reads it),
/// and the defs still current are folded after the pass, so the
/// analysis holds 31 defs per class, not one per write.
pub fn analyze<I>(insts: I, insert_bw: usize) -> TraceOracle
where
    I: IntoIterator,
    I::Item: Borrow<Instruction>,
{
    let mut schedule = Schedule::new(Some(insert_bw.max(1)), None);
    // The current def of each virtual register, per class.
    let mut cur = [[Def { pos: -1, last_use: -1, ..Def::default() }; 31]; 2];
    let mut folds = [ClassFold::default(), ClassFold::default()];
    let mut kind_counts = [0u64; OpKind::ALL.len()];

    for (i, inst) in insts.into_iter().enumerate() {
        let inst = inst.borrow();
        let i = i as i64;
        kind_counts[inst.kind() as usize] += 1;
        let Slot { rename: rename_at, ready: issue_at, finish: finish_at } = schedule.step(inst);
        // Sources first: an instruction reading and writing the same
        // virtual register reads the old def.
        for src in inst.renameable_srcs() {
            let def = &mut cur[src.class().index()][src.index() as usize];
            def.last_use = i;
            def.uses += 1;
            def.reader_finish = def.reader_finish.max(finish_at);
        }
        if let Some(dest) = inst.dest() {
            let ci = dest.class().index();
            let d = Def { pos: i, last_use: -1, rename_at, issue_at, finish_at, ..Def::default() };
            let old = std::mem::replace(&mut cur[ci][dest.index() as usize], d);
            let fold = &mut folds[ci];
            fold.defs += 1;
            if old.uses == 0 && old.pos >= 0 {
                fold.dead_defs += 1;
            }
            // When the redefining instruction reads the old value, the
            // old def is still allocated as it inserts.
            let end = if old.last_use == i { i } else { i - 1 };
            // The killing writer's completion frees the old def.
            fold.add(&old, end, finish_at);
        }
    }

    let DataflowLimit { instructions, critical_path: ideal_cycles } = schedule.limit();
    let classes = [RegClass::Int, RegClass::Fp].map(|class| {
        let fold = &mut folds[class.index()];
        // Defs still current are live through the last position and
        // until the schedule ends.
        for def in &cur[class.index()] {
            fold.add(def, instructions as i64 - 1, ideal_cycles);
        }
        fold.summary(ideal_cycles)
    });
    TraceOracle { instructions, kind_counts, ideal_cycles, classes }
}

/// One class's running totals over the defs folded in so far.
#[derive(Default)]
struct ClassFold {
    /// Trace defs (the initial mappings excluded).
    defs: u64,
    uses: u64,
    dead_defs: u64,
    span_sum: u64,
    span_count: u64,
    /// Sound floor: interval overlap over trace positions.
    floor: PeakSweep,
    /// Ideal demand: overlap of rename-to-free lifetimes in cycle space.
    demand: PeakSweep,
    /// In-queue / in-flight / waiting-to-free cycles, summed over defs.
    cat_sums: [u64; 3],
}

impl ClassFold {
    /// Folds in a def that no later instruction reads: allocated in
    /// trace positions through `end`, and killed by a writer completing
    /// at `kill`.
    fn add(&mut self, d: &Def, end: i64, kill: u64) {
        self.uses += u64::from(d.uses);
        if d.uses > 0 && d.pos >= 0 {
            self.span_sum += (d.last_use - d.pos) as u64;
            self.span_count += 1;
        }
        let start = d.pos.max(0);
        if end >= start {
            self.floor.add(start as u64, end as u64 + 1);
        }
        // Ideal-schedule lifetime: rename until the later of the killing
        // writer's completion, the last reader's completion, and the
        // def's own completion (the imprecise freeing conditions).
        let free_at = kill.max(d.reader_finish).max(d.finish_at);
        self.demand.add(d.rename_at, free_at + 1);
        self.cat_sums[0] += d.issue_at - d.rename_at;
        self.cat_sums[1] += d.finish_at - d.issue_at;
        self.cat_sums[2] += free_at - d.finish_at;
    }

    fn summary(&self, ideal_cycles: u64) -> ClassOracle {
        let cycles = ideal_cycles.max(1) as f64;
        ClassOracle {
            defs: self.defs,
            uses: self.uses,
            dead_defs: self.dead_defs,
            floor: self.floor.peak().max(31),
            ideal_demand: self.demand.peak(),
            ideal_cat_means: self.cat_sums.map(|s| s as f64 / cycles),
            // 0 when no def is read.
            mean_def_use_span: self.span_sum as f64 / self.span_count.max(1) as f64,
        }
    }
}

/// Peak overlap of half-open intervals `[start, end)` (trace positions
/// or cycles) by a counting sweep: a net count per point, so no sort.
/// Where one interval ends and another starts, the end applies first —
/// a register freed at a cycle is reusable in that cycle.
#[derive(Default)]
struct PeakSweep {
    /// Intervals starting minus intervals ending, per point, up to the
    /// latest end added.
    net: Vec<i64>,
}

impl PeakSweep {
    fn add(&mut self, start: u64, end: u64) {
        if end as usize >= self.net.len() {
            self.net.resize(end as usize + 1, 0);
        }
        self.net[start as usize] += 1;
        self.net[end as usize] -= 1;
    }

    /// The most intervals alive at once. Within a point the ends come
    /// before the starts, so the running count peaks at a point's close.
    fn peak(&self) -> usize {
        let mut peak = 0i64;
        let mut live = 0i64;
        for &d in &self.net {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rf_isa::ArchReg;

    fn alu(dest: u8, srcs: [Option<ArchReg>; 2]) -> Instruction {
        Instruction::int_alu(ArchReg::int(dest), srcs)
    }

    #[test]
    fn empty_trace_floor_is_the_architectural_state() {
        let o = analyze(std::iter::empty::<Instruction>(), 6);
        for c in &o.classes {
            assert_eq!(c.floor, 31);
            assert_eq!(c.defs, 0);
        }
    }

    #[test]
    fn read_own_dest_raises_floor_to_32() {
        // r1 = r1 + r2 repeatedly: at every redefine position the old
        // def is still read, so 31 chains + 1 overlap.
        let insts: Vec<_> = (0..50)
            .map(|_| alu(1, [Some(ArchReg::int(1)), Some(ArchReg::int(2))]))
            .collect();
        let o = analyze(&insts, 6);
        assert_eq!(o.classes[RegClass::Int.index()].floor, 32);
        assert_eq!(o.classes[RegClass::Int.index()].defs, 50);
    }

    #[test]
    fn overwrites_without_reads_keep_floor_at_31() {
        // r1 = r2 repeatedly: the displaced def is dead at the moment of
        // redefinition.
        let insts: Vec<_> = (0..50).map(|_| alu(1, [Some(ArchReg::int(2)), None])).collect();
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert_eq!(c.floor, 31);
        assert_eq!(c.dead_defs, 49, "all but the final def are overwritten unread");
    }

    #[test]
    fn def_use_chains_count_uses() {
        let insts = vec![
            alu(1, [Some(ArchReg::int(2)), None]),
            alu(3, [Some(ArchReg::int(1)), Some(ArchReg::int(1))]),
        ];
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert_eq!(c.defs, 2);
        // r2 once, r1 twice.
        assert_eq!(c.uses, 3);
        assert!((c.mean_def_use_span - 1.0).abs() < 1e-9, "def at 0, last use at 1");
    }

    #[test]
    fn ideal_demand_is_at_least_the_floor_shape() {
        // A serial dependency chain holds many registers live under the
        // ideal schedule: demand far exceeds the floor.
        let insts: Vec<_> = (0..100)
            .map(|i| alu((i % 31) as u8, [Some(ArchReg::int(((i + 30) % 31) as u8)), None]))
            .collect();
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert!(c.ideal_demand >= c.floor - 31, "{} vs {}", c.ideal_demand, c.floor);
        assert!(o.ideal_cycles >= 100, "serial chain of unit latencies");
    }

    /// Reference sweep: `(point, ±1)` events sorted so a point's ends
    /// precede its starts.
    fn sorted_peak(intervals: &[(u64, u64)]) -> usize {
        let mut events: Vec<(u64, i64)> =
            intervals.iter().flat_map(|&(s, e)| [(s, 1), (e, -1)]).collect();
        events.sort_unstable();
        let (mut peak, mut live) = (0i64, 0i64);
        for (_, d) in events {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random lifetime sets, including empty ones and lifetimes
        /// that end exactly where others start, the counting sweep finds
        /// the sort-based sweep's peak.
        #[test]
        fn counting_sweep_matches_the_sorted_event_sweep(
            horizon in 0u64..200,
            raw in prop::collection::vec((0u64..1_000, 0u64..1_000), 0..300),
        ) {
            let intervals: Vec<(u64, u64)> = raw
                .iter()
                .map(|&(a, len)| {
                    let start = a % (horizon + 1);
                    (start, start + 1 + len % (horizon + 1 - start))
                })
                .collect();
            let mut sweep = PeakSweep::default();
            for &(start, end) in &intervals {
                sweep.add(start, end);
            }
            prop_assert_eq!(sweep.peak(), sorted_peak(&intervals));
        }
    }

    #[test]
    fn instruction_kind_counts() {
        let insts = vec![
            Instruction::load(ArchReg::int(1), ArchReg::int(2), 0x100),
            Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x100),
            Instruction::cond_branch(0x40, true, Some(ArchReg::int(1))),
        ];
        let o = analyze(&insts, 6);
        let counts = [OpKind::Load, OpKind::Store, OpKind::CondBranch].map(|k| o.count(k));
        assert_eq!(counts, [1, 1, 1]);
        assert_eq!(o.kind_counts.iter().sum::<u64>(), 3);
        assert_eq!(o.instructions, 3);
        // `count` indexes by discriminant: `OpKind::ALL` is in
        // declaration order.
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?}");
        }
    }
}
