//! Pipeline observability: the zero-cost [`Observer`] hook.
//!
//! [`Pipeline`](crate::Pipeline) is generic over an `Observer`, defaulting
//! to [`NullObserver`]. The observer receives per-instruction lifecycle
//! events (insert → issue → complete → commit/squash, with the physical
//! registers renamed or freed at each step) and per-cycle stall-cause
//! attribution. Because the pipeline is *monomorphized* over the observer
//! type and every `NullObserver` method is an empty `#[inline]` body, an
//! unobserved pipeline compiles to exactly the code it had before the
//! hook existed — rfbench's sweeps and every other untraced caller pay
//! nothing.
//!
//! An observer sees every simulated cycle, including the ones the
//! event-driven kernel skips: the pipeline replays a skipped cycle's
//! stall, register-file and cycle-end calls in the order a stepped cycle
//! makes them, so an observer cannot tell the two apart.
//!
//! The `rf-obs` crate builds recorders, metric registries and trace
//! exporters (Chrome trace-event JSON, text timelines) on top of this
//! trait; `rf-core` only defines the hook and its event vocabulary.

use rf_isa::{OpKind, RegClass};

/// What happened to an instruction (one step of its lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Fetched, renamed, and inserted into the dispatch queue.
    Insert,
    /// Selected by the scheduler and sent to a functional unit.
    Issue,
    /// Result produced (writer completed).
    Complete,
    /// Retired in program order.
    Commit,
    /// Squashed by misprediction recovery.
    Squash,
}

impl EventKind {
    /// All lifecycle steps in pipeline order.
    pub const ALL: [EventKind; 5] = [
        EventKind::Insert,
        EventKind::Issue,
        EventKind::Complete,
        EventKind::Commit,
        EventKind::Squash,
    ];

    /// Short lowercase label (trace/report vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Insert => "insert",
            EventKind::Issue => "issue",
            EventKind::Complete => "complete",
            EventKind::Commit => "commit",
            EventKind::Squash => "squash",
        }
    }
}

/// One per-instruction lifecycle event.
///
/// `dest` is populated on [`EventKind::Insert`] with the rename performed
/// — `(class, new_phys, prev_phys)` — and `freed` on commit/squash events
/// with the physical register returned to the free list by that step (the
/// *previous* mapping under precise exceptions at commit, the squashed
/// destination at squash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Cycle at which the step happened.
    pub cycle: u64,
    /// The instruction's active-list sequence number. Sequence numbers
    /// are reused after a squash (the list stays dense), so `(seq,
    /// insert-cycle)` is the unique instruction identity, not `seq` alone.
    pub seq: u64,
    /// Which lifecycle step.
    pub kind: EventKind,
    /// Operation kind.
    pub op: OpKind,
    /// Program counter.
    pub pc: u64,
    /// Whether the instruction sits on a mispredicted (wrong) path.
    pub wrong_path: bool,
    /// Rename performed at insert: `(class, new_phys, prev_phys)`.
    pub dest: Option<(RegClass, u32, u32)>,
    /// Physical register freed by this step, if any.
    pub freed: Option<(RegClass, u32)>,
}

/// Why the machine lost issue/insert/commit bandwidth in a cycle.
///
/// The first three causes are backed by [`SimStats`](crate::SimStats)
/// counters and reconcile exactly with them; the remainder are
/// observer-only refinements. See `EXPERIMENTS.md` for the mapping onto
/// the paper's liveness categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Insertion stopped: no free physical register for the destination
    /// (reconciles with `SimStats::insert_stall_no_reg`).
    NoFreeReg,
    /// Insertion stopped: dispatch queue (or bounded reorder buffer, or
    /// one split queue) full (reconciles with
    /// `SimStats::insert_stall_dq_full`).
    DqFull,
    /// No insertion at all this cycle: fetch redirect (misprediction) or
    /// instruction-cache miss penalty in progress.
    FetchStarved,
    /// A data-ready instruction could not issue because the per-cycle
    /// width or per-class functional-unit budget was exhausted.
    FuBusy,
    /// A data-ready memory operation could not issue because the data
    /// cache could not accept another access (outstanding-miss limits).
    CacheMissBlocked,
    /// No instruction committed this cycle although the active list was
    /// non-empty: the in-order commit head is still executing.
    CommitBlocked,
}

impl StallCause {
    /// Number of distinct causes.
    pub const COUNT: usize = 6;

    /// All causes, in report order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::NoFreeReg,
        StallCause::DqFull,
        StallCause::FetchStarved,
        StallCause::FuBusy,
        StallCause::CacheMissBlocked,
        StallCause::CommitBlocked,
    ];

    /// Dense index for counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StallCause::NoFreeReg => 0,
            StallCause::DqFull => 1,
            StallCause::FetchStarved => 2,
            StallCause::FuBusy => 3,
            StallCause::CacheMissBlocked => 4,
            StallCause::CommitBlocked => 5,
        }
    }

    /// Kebab-case label (trace/report vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::NoFreeReg => "no-free-reg",
            StallCause::DqFull => "dq-full",
            StallCause::FetchStarved => "fetch-starved",
            StallCause::FuBusy => "fu-busy",
            StallCause::CacheMissBlocked => "cache-miss-blocked",
            StallCause::CommitBlocked => "in-order-commit-blocked",
        }
    }
}

/// A sink for pipeline events, monomorphized into
/// [`Pipeline`](crate::Pipeline).
///
/// All methods default to no-ops, so implementors override only what they
/// record. Implementations must not influence simulation behaviour — the
/// pipeline hands out copies of its state, never mutable access — which
/// is what makes a traced run produce byte-identical
/// [`SimStats`](crate::SimStats) to an untraced one (asserted by the
/// `rf-obs` determinism tests).
pub trait Observer {
    /// Whether this observer records anything. The pipeline skips event
    /// construction entirely when `false`, guaranteeing the null path
    /// stays free even in debug builds.
    const ACTIVE: bool = true;

    /// One instruction lifecycle step.
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        let _ = ev;
    }

    /// One stall attribution. `NoFreeReg` and `DqFull` fire at most once
    /// per cycle (mirroring their `SimStats` counters, which count
    /// stalled *cycles*, not stalled slots); the remaining causes also
    /// fire at most once per cycle.
    #[inline]
    fn stall(&mut self, cycle: u64, cause: StallCause) {
        let _ = (cycle, cause);
    }

    /// A physical register returned to the free list outside a commit or
    /// squash event (the imprecise/kill freeing path).
    #[inline]
    fn reg_free(&mut self, cycle: u64, class: RegClass, phys: u32) {
        let _ = (cycle, class, phys);
    }

    /// One initial architectural mapping, emitted once per virtual
    /// register at pipeline construction: `vreg` of `class` maps to
    /// `phys` before the first instruction inserts.
    #[inline]
    fn arch_map(&mut self, class: RegClass, vreg: u8, phys: u32) {
        let _ = (class, vreg, phys);
    }

    /// One rename performed at insert: instruction `seq` remapped `vreg`
    /// of `class` from `prev` to the freshly allocated `new`. Fires just
    /// before the matching [`EventKind::Insert`] event; squashes undo the
    /// rename (the squash event's `freed` register is `new`, and the
    /// mapping reverts to `prev`).
    #[inline]
    fn rename(&mut self, cycle: u64, seq: u64, class: RegClass, vreg: u8, new: u32, prev: u32) {
        let _ = (cycle, seq, class, vreg, new, prev);
    }

    /// Per-class register-file occupancy at the accounting point of
    /// `cycle`, *before* staged frees return to the free list: `free`
    /// registers on the free list, `live` allocated (staged frees still
    /// count as live, matching [`SimStats`](crate::SimStats) histograms),
    /// of which `staged` are staged for reuse next cycle. Conservation —
    /// `free + live == total physical registers` — holds at every call.
    #[inline]
    fn reg_file_state(&mut self, cycle: u64, class: RegClass, free: usize, live: usize, staged: usize) {
        let _ = (cycle, class, free, live, staged);
    }

    /// End of cycle `cycle`, with the per-class free-list emptiness that
    /// the accounting phase observed (reconciles with the
    /// `no_free_*_cycles` counters).
    #[inline]
    fn cycle_end(&mut self, cycle: u64, int_free_empty: bool, fp_free_empty: bool) {
        let _ = (cycle, int_free_empty, fp_free_empty);
    }
}

/// The default observer: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ACTIVE: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cause_indices_are_dense_and_ordered() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(StallCause::ALL.len(), StallCause::COUNT);
    }

    #[test]
    fn labels_are_kebab_case_and_unique() {
        let labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        for l in &labels {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{l}");
        }
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn null_observer_is_inactive() {
        const { assert!(!NullObserver::ACTIVE) };
        // And its methods are callable no-ops.
        let mut o = NullObserver;
        o.stall(1, StallCause::DqFull);
        o.cycle_end(1, false, false);
        o.reg_free(1, RegClass::Int, 3);
        o.arch_map(RegClass::Int, 0, 0);
        o.rename(1, 0, RegClass::Int, 4, 33, 4);
        o.reg_file_state(1, RegClass::Fp, 1, 31, 0);
    }

    #[test]
    fn event_kind_labels_cover_all() {
        let labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["insert", "issue", "complete", "commit", "squash"]);
    }
}
