//! The dynamic invariant sanitizer: an [`Observer`] that shadows the
//! pipeline's register-file and rename state from the event stream alone
//! and flags any microarchitectural invariant violation.
//!
//! The sanitizer keeps an *independent* model — per-class allocation
//! states, the rename map, and a journal of in-flight renames — built
//! purely from observer hooks. Because the pipeline hands observers
//! copies of its state (never mutable access), any divergence between
//! the model and what the pipeline reports is a genuine protocol
//! violation, not an artifact of shared bookkeeping.
//!
//! Checked invariants:
//!
//! * **Freelist conservation** — `free + live == total` every cycle, and
//!   the pipeline's reported free/live/staged counts match the model.
//! * **No double allocation** — a rename may only claim a register the
//!   model holds Free (staged frees are unusable until next cycle).
//! * **No double free** — only a Live register may be freed.
//! * **Range** — every physical index is within the file.
//! * **Rename-map consistency and bijectivity** — the displaced mapping
//!   matches the model, and no two virtual registers share a physical
//!   register.
//! * **In-order commit** — committed sequence numbers strictly increase.
//! * **Squash completeness** — a squashed instruction's destination
//!   register is returned exactly once and its rename rolled back.
//! * **Commit freeing protocol** — under precise exceptions, committing
//!   an instruction with a destination frees exactly the previous
//!   mapping; under imprecise models, commit frees nothing.

use rf_core::obs::{EventKind, Observer, TraceEvent};
use rf_core::ExceptionModel;
use rf_isa::RegClass;
use std::collections::HashMap;
use std::fmt;

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A rename claimed a register that was not free.
    DoubleAlloc,
    /// A register was freed while not live.
    DoubleFree,
    /// A physical index outside the register file.
    OutOfRange,
    /// Free/live/staged counts do not reconcile with the model or do not
    /// sum to the file size.
    FreelistConservation,
    /// A rename's displaced mapping disagrees with the model's map (or a
    /// squash rollback found the map already diverged).
    RenameMapMismatch,
    /// Two virtual registers mapped to the same physical register.
    RenameNotBijective,
    /// A committed sequence number did not strictly increase.
    CommitOutOfOrder,
    /// A squashed instruction's destination register was not returned
    /// (or the wrong register was returned).
    SquashLeak,
    /// Commit freed the wrong register for the exception model (precise
    /// commits must free the previous mapping; imprecise commits none).
    CommitFreeMismatch,
}

impl ViolationKind {
    /// All kinds, in report order.
    pub const ALL: [ViolationKind; 9] = [
        ViolationKind::DoubleAlloc,
        ViolationKind::DoubleFree,
        ViolationKind::OutOfRange,
        ViolationKind::FreelistConservation,
        ViolationKind::RenameMapMismatch,
        ViolationKind::RenameNotBijective,
        ViolationKind::CommitOutOfOrder,
        ViolationKind::SquashLeak,
        ViolationKind::CommitFreeMismatch,
    ];

    /// Kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::DoubleAlloc => "double-alloc",
            ViolationKind::DoubleFree => "double-free",
            ViolationKind::OutOfRange => "out-of-range",
            ViolationKind::FreelistConservation => "freelist-conservation",
            ViolationKind::RenameMapMismatch => "rename-map-mismatch",
            ViolationKind::RenameNotBijective => "rename-not-bijective",
            ViolationKind::CommitOutOfOrder => "commit-out-of-order",
            ViolationKind::SquashLeak => "squash-leak",
            ViolationKind::CommitFreeMismatch => "commit-free-mismatch",
        }
    }
}

/// One detected invariant violation, with the offending sequence number
/// and physical register where applicable.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Cycle of the offending event.
    pub cycle: u64,
    /// Sequence number of the offending instruction, if tied to one.
    pub seq: Option<u64>,
    /// Register class involved, if any.
    pub class: Option<RegClass>,
    /// Physical register involved, if any.
    pub reg: Option<u32>,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {:>6} ", self.cycle)?;
        match self.seq {
            Some(s) => write!(f, "seq {s:>6} ")?,
            None => write!(f, "{:>11}", "")?,
        }
        write!(f, "{}", self.kind.label())?;
        if let (Some(class), Some(reg)) = (self.class, self.reg) {
            let c = if class == RegClass::Int { "int" } else { "fp" };
            write!(f, " ({c} p{reg})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Allocation state of one physical register in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegSt {
    Free,
    Live,
    Staged,
}

impl RegSt {
    fn idx(self) -> usize {
        match self {
            RegSt::Free => 0,
            RegSt::Live => 1,
            RegSt::Staged => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            RegSt::Free => "free",
            RegSt::Live => "live",
            RegSt::Staged => "staged",
        }
    }
}

/// A rename still in flight (inserted, neither committed nor squashed).
#[derive(Debug, Clone, Copy)]
struct RenameRec {
    class: RegClass,
    vreg: u8,
    new: u32,
    prev: u32,
}

/// Stored violations are capped so a badly corrupted stream cannot
/// balloon memory; the total count keeps counting past the cap.
const MAX_STORED_VIOLATIONS: usize = 64;

/// The sanitizer observer. Attach with
/// [`Pipeline::with_observer`](rf_core::Pipeline::with_observer) and read
/// the verdict back from [`run`](rf_core::Pipeline::run).
#[derive(Debug)]
pub struct Sanitizer {
    total: usize,
    model: ExceptionModel,
    /// Per-class allocation state, indexed by physical register.
    state: [Vec<RegSt>; 2],
    /// Per-class `[free, live, staged]` counts (kept incrementally).
    counts: [[usize; 3]; 2],
    /// Per-class rename map, indexed by virtual register.
    map: [[u32; 31]; 2],
    /// Per-class reverse map: which virtual register owns each physical.
    rev: [Vec<Option<u8>>; 2],
    /// Registers staged for freeing this cycle (return to Free at
    /// cycle end, mirroring `PhysRegFile::end_cycle`).
    staged_regs: [Vec<u32>; 2],
    journal: HashMap<u64, RenameRec>,
    last_commit: Option<u64>,
    events: u64,
    total_violations: u64,
    violations: Vec<Violation>,
}

impl Sanitizer {
    /// Creates a sanitizer for register files of `phys_regs` registers
    /// per class, checked against the freeing rules of `model`.
    pub fn new(phys_regs: usize, model: ExceptionModel) -> Self {
        Self {
            total: phys_regs,
            model,
            state: [vec![RegSt::Free; phys_regs], vec![RegSt::Free; phys_regs]],
            counts: [[phys_regs, 0, 0], [phys_regs, 0, 0]],
            map: [[0; 31]; 2],
            rev: [vec![None; phys_regs], vec![None; phys_regs]],
            staged_regs: [Vec::new(), Vec::new()],
            journal: HashMap::new(),
            last_commit: None,
            events: 0,
            total_violations: 0,
            violations: Vec::new(),
        }
    }

    /// Violations recorded so far (capped at 64; see
    /// [`total_violations`](Sanitizer::total_violations)).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any past the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Observer hook invocations checked.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether any recorded violation has the given kind.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// Renders the verdict as a short report.
    pub fn report(&self) -> String {
        if self.is_clean() {
            return format!("sanitizer: clean ({} events checked)", self.events);
        }
        let mut out = format!(
            "sanitizer: {} violation(s) over {} events\n",
            self.total_violations, self.events
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        if self.total_violations as usize > self.violations.len() {
            out.push_str(&format!(
                "  ... and {} more (storage capped)\n",
                self.total_violations as usize - self.violations.len()
            ));
        }
        out
    }

    fn violate(
        &mut self,
        kind: ViolationKind,
        cycle: u64,
        seq: Option<u64>,
        class: Option<RegClass>,
        reg: Option<u32>,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(Violation { kind, cycle, seq, class, reg, detail });
        }
    }

    fn set_state(&mut self, class: RegClass, p: u32, to: RegSt) {
        let ci = class.index();
        let old = self.state[ci][p as usize];
        self.counts[ci][old.idx()] -= 1;
        self.counts[ci][to.idx()] += 1;
        self.state[ci][p as usize] = to;
    }

    /// Processes one freeing of `(class, p)`: Live registers stage for
    /// reuse; anything else is a double free.
    fn free_one(&mut self, cycle: u64, seq: Option<u64>, class: RegClass, p: u32) {
        if p as usize >= self.total {
            self.violate(
                ViolationKind::OutOfRange,
                cycle,
                seq,
                Some(class),
                Some(p),
                format!("freed index {p} outside file of {}", self.total),
            );
            return;
        }
        let st = self.state[class.index()][p as usize];
        if st != RegSt::Live {
            self.violate(
                ViolationKind::DoubleFree,
                cycle,
                seq,
                Some(class),
                Some(p),
                format!("freed while {}", st.label()),
            );
            return;
        }
        self.set_state(class, p, RegSt::Staged);
        self.staged_regs[class.index()].push(p);
    }

    fn check_conservation(
        &mut self,
        cycle: u64,
        class: RegClass,
        free: usize,
        live: usize,
        staged: usize,
    ) {
        let ci = class.index();
        let [m_free, m_live, m_staged] = self.counts[ci];
        let sums_ok = free + live == self.total;
        let model_ok = free == m_free && staged == m_staged && live == m_live + m_staged;
        if !(sums_ok && model_ok) {
            self.violate(
                ViolationKind::FreelistConservation,
                cycle,
                None,
                Some(class),
                None,
                format!(
                    "reported free={free} live={live} staged={staged} vs model \
                     free={m_free} live={} staged={m_staged} (total {})",
                    m_live + m_staged,
                    self.total
                ),
            );
        }
    }
}

impl Observer for Sanitizer {
    fn arch_map(&mut self, class: RegClass, vreg: u8, phys: u32) {
        self.events += 1;
        if phys as usize >= self.total {
            self.violate(
                ViolationKind::OutOfRange,
                0,
                None,
                Some(class),
                Some(phys),
                format!("architectural mapping outside file of {}", self.total),
            );
            return;
        }
        if self.state[class.index()][phys as usize] != RegSt::Free {
            self.violate(
                ViolationKind::DoubleAlloc,
                0,
                None,
                Some(class),
                Some(phys),
                "architectural mapping of a non-free register".to_owned(),
            );
        }
        self.set_state(class, phys, RegSt::Live);
        self.map[class.index()][vreg as usize] = phys;
        self.rev[class.index()][phys as usize] = Some(vreg);
    }

    fn rename(&mut self, cycle: u64, seq: u64, class: RegClass, vreg: u8, new: u32, prev: u32) {
        self.events += 1;
        let ci = class.index();
        if new as usize >= self.total {
            self.violate(
                ViolationKind::OutOfRange,
                cycle,
                Some(seq),
                Some(class),
                Some(new),
                format!("renamed to index {new} outside file of {}", self.total),
            );
            return;
        }
        let actual_prev = self.map[ci][vreg as usize];
        if actual_prev != prev {
            self.violate(
                ViolationKind::RenameMapMismatch,
                cycle,
                Some(seq),
                Some(class),
                Some(prev),
                format!("claimed to displace p{prev} but v{vreg} maps to p{actual_prev}"),
            );
        }
        let st = self.state[ci][new as usize];
        if st != RegSt::Free {
            self.violate(
                ViolationKind::DoubleAlloc,
                cycle,
                Some(seq),
                Some(class),
                Some(new),
                format!("allocated while {}", st.label()),
            );
        }
        self.set_state(class, new, RegSt::Live);
        // The displaced register keeps its allocation (it frees later,
        // model-dependent); only its map ownership ends.
        if self.rev[ci][actual_prev as usize] == Some(vreg) {
            self.rev[ci][actual_prev as usize] = None;
        }
        if let Some(other) = self.rev[ci][new as usize] {
            self.violate(
                ViolationKind::RenameNotBijective,
                cycle,
                Some(seq),
                Some(class),
                Some(new),
                format!("p{new} already owned by v{other}, now also claimed by v{vreg}"),
            );
        }
        self.rev[ci][new as usize] = Some(vreg);
        self.map[ci][vreg as usize] = new;
        self.journal.insert(seq, RenameRec { class, vreg, new, prev });
    }

    fn event(&mut self, ev: TraceEvent) {
        self.events += 1;
        match ev.kind {
            EventKind::Insert | EventKind::Issue | EventKind::Complete => {}
            EventKind::Commit => {
                if self.last_commit.is_some_and(|last| ev.seq <= last) {
                    self.violate(
                        ViolationKind::CommitOutOfOrder,
                        ev.cycle,
                        Some(ev.seq),
                        None,
                        None,
                        format!(
                            "committed after seq {}",
                            self.last_commit.expect("checked")
                        ),
                    );
                }
                self.last_commit = Some(ev.seq);
                let rec = self.journal.remove(&ev.seq);
                match self.model {
                    ExceptionModel::Precise => match (rec, ev.freed) {
                        (Some(rec), Some((class, p)))
                            if class == rec.class && p == rec.prev =>
                        {
                            self.free_one(ev.cycle, Some(ev.seq), class, p);
                        }
                        (Some(rec), other) => {
                            self.violate(
                                ViolationKind::CommitFreeMismatch,
                                ev.cycle,
                                Some(ev.seq),
                                Some(rec.class),
                                Some(rec.prev),
                                format!(
                                    "precise commit must free displaced p{}, freed {:?}",
                                    rec.prev, other
                                ),
                            );
                        }
                        (None, Some((class, p))) => {
                            // No journalled destination: nothing should
                            // free here, but track it so the model stays
                            // as close to the pipeline as possible.
                            self.violate(
                                ViolationKind::CommitFreeMismatch,
                                ev.cycle,
                                Some(ev.seq),
                                Some(class),
                                Some(p),
                                "commit without a destination freed a register".to_owned(),
                            );
                        }
                        (None, None) => {}
                    },
                    ExceptionModel::Imprecise | ExceptionModel::AlphaHybrid => {
                        if let Some((class, p)) = ev.freed {
                            self.violate(
                                ViolationKind::CommitFreeMismatch,
                                ev.cycle,
                                Some(ev.seq),
                                Some(class),
                                Some(p),
                                "imprecise-model commit must not free registers".to_owned(),
                            );
                        }
                    }
                }
            }
            EventKind::Squash => match (self.journal.remove(&ev.seq), ev.freed) {
                (Some(rec), Some((class, p))) => {
                    if class != rec.class || p != rec.new {
                        self.violate(
                            ViolationKind::SquashLeak,
                            ev.cycle,
                            Some(ev.seq),
                            Some(rec.class),
                            Some(rec.new),
                            format!("squash returned p{p} instead of destination p{}", rec.new),
                        );
                    } else {
                        self.free_one(ev.cycle, Some(ev.seq), class, p);
                    }
                    // Roll the rename back. Squashes run youngest-first,
                    // so the squashed destination must be the current
                    // mapping.
                    let ci = rec.class.index();
                    if self.map[ci][rec.vreg as usize] == rec.new {
                        self.map[ci][rec.vreg as usize] = rec.prev;
                        self.rev[ci][rec.new as usize] = None;
                        self.rev[ci][rec.prev as usize] = Some(rec.vreg);
                    } else {
                        self.violate(
                            ViolationKind::RenameMapMismatch,
                            ev.cycle,
                            Some(ev.seq),
                            Some(rec.class),
                            Some(rec.new),
                            format!(
                                "squash rollback expected v{} to map to p{}, found p{}",
                                rec.vreg,
                                rec.new,
                                self.map[ci][rec.vreg as usize]
                            ),
                        );
                    }
                }
                (Some(rec), None) => {
                    self.violate(
                        ViolationKind::SquashLeak,
                        ev.cycle,
                        Some(ev.seq),
                        Some(rec.class),
                        Some(rec.new),
                        format!("squashed destination p{} never returned", rec.new),
                    );
                }
                (None, Some((class, p))) => {
                    self.violate(
                        ViolationKind::SquashLeak,
                        ev.cycle,
                        Some(ev.seq),
                        Some(class),
                        Some(p),
                        "squash freed a register with no recorded rename".to_owned(),
                    );
                }
                (None, None) => {}
            },
        }
    }

    fn reg_free(&mut self, cycle: u64, class: RegClass, phys: u32) {
        self.events += 1;
        self.free_one(cycle, None, class, phys);
    }

    fn reg_file_state(&mut self, cycle: u64, class: RegClass, free: usize, live: usize, staged: usize) {
        self.events += 1;
        self.check_conservation(cycle, class, free, live, staged);
    }

    fn cycle_end(&mut self, cycle: u64, int_free_empty: bool, fp_free_empty: bool) {
        self.events += 1;
        for (class, reported_empty) in
            [(RegClass::Int, int_free_empty), (RegClass::Fp, fp_free_empty)]
        {
            let model_empty = self.counts[class.index()][RegSt::Free.idx()] == 0;
            if reported_empty != model_empty {
                self.violate(
                    ViolationKind::FreelistConservation,
                    cycle,
                    None,
                    Some(class),
                    None,
                    format!(
                        "free-list emptiness reported {reported_empty}, model {model_empty}"
                    ),
                );
            }
            // Staged frees become reusable next cycle.
            let staged = std::mem::take(&mut self.staged_regs[class.index()]);
            for p in &staged {
                self.set_state(class, *p, RegSt::Free);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_kinds_have_unique_labels() {
        let mut labels: Vec<&str> = ViolationKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
        assert_eq!(n, 9);
    }

    #[test]
    fn fresh_sanitizer_is_clean() {
        let s = Sanitizer::new(64, ExceptionModel::Precise);
        assert!(s.is_clean());
        assert_eq!(s.violations().len(), 0);
        assert!(s.report().contains("clean"));
    }

    #[test]
    fn double_free_is_detected_with_register() {
        let mut s = Sanitizer::new(64, ExceptionModel::Imprecise);
        s.arch_map(RegClass::Int, 0, 0);
        s.reg_free(5, RegClass::Int, 0);
        s.reg_free(5, RegClass::Int, 0);
        assert!(s.has(ViolationKind::DoubleFree));
        let v = &s.violations()[0];
        assert_eq!(v.reg, Some(0));
        assert_eq!(v.cycle, 5);
    }

    #[test]
    fn out_of_range_free_is_detected() {
        let mut s = Sanitizer::new(64, ExceptionModel::Imprecise);
        s.reg_free(1, RegClass::Fp, 10_000);
        assert!(s.has(ViolationKind::OutOfRange));
    }

    #[test]
    fn conservation_mismatch_is_detected() {
        let mut s = Sanitizer::new(64, ExceptionModel::Precise);
        s.arch_map(RegClass::Int, 0, 0);
        // Model: 63 free, 1 live; report something else.
        s.reg_file_state(3, RegClass::Int, 64, 0, 0);
        assert!(s.has(ViolationKind::FreelistConservation));
    }

    #[test]
    fn violation_storage_caps_but_count_continues() {
        let mut s = Sanitizer::new(64, ExceptionModel::Imprecise);
        for _ in 0..100 {
            s.reg_free(1, RegClass::Int, 7);
        }
        assert_eq!(s.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(s.total_violations(), 100);
        assert!(s.report().contains("more"));
    }
}
