//! The [`Recorder`]: an [`Observer`] that assembles lifecycle events into
//! per-instruction records, cycle-level stall attribution, and latency /
//! register-lifetime metrics, inside a bounded window.

use crate::metrics::MetricsRegistry;
use rf_core::obs::{EventKind, Observer, StallCause, TraceEvent};
use rf_isa::{OpKind, RegClass};
use std::collections::{HashMap, VecDeque};

/// Hard cap on retained records/stall marks, independent of the cycle
/// window (memory backstop for very long traced runs).
const MAX_RETAINED: usize = 1 << 20;

/// One instruction's assembled lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstRecord {
    /// Active-list sequence number (reused after squashes; `(seq,
    /// insert)` is unique).
    pub seq: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Program counter.
    pub pc: u64,
    /// Whether the instruction was on a mispredicted path.
    pub wrong_path: bool,
    /// Insertion (rename + dispatch) cycle.
    pub insert: u64,
    /// Issue cycle, if it issued before retiring.
    pub issue: Option<u64>,
    /// Completion cycle, if it completed.
    pub complete: Option<u64>,
    /// Commit or squash cycle (the record is final once set).
    pub retire: u64,
    /// True if the instruction was squashed rather than committed.
    pub squashed: bool,
    /// Rename performed at insert: `(class, new_phys, prev_phys)`.
    pub dest: Option<(RegClass, u32, u32)>,
}

/// A bounded-window pipeline recorder.
///
/// Retired instruction records and stall marks older than the configured
/// cycle window are discarded; aggregate totals (event counts, per-cause
/// stall cycles, latency histograms) cover the *whole* run regardless of
/// the window, which is what lets the summary reconcile exactly with
/// [`SimStats`](rf_core::SimStats).
#[derive(Debug, Clone)]
pub struct Recorder {
    window: u64,
    live: HashMap<u64, InstRecord>,
    done: VecDeque<InstRecord>,
    stalls: VecDeque<(u64, StallCause)>,
    event_counts: [u64; EventKind::ALL.len()],
    stall_cycles: [u64; StallCause::COUNT],
    /// Per-cause current consecutive-cycle run: `(last_cycle, length)`.
    bursts: [(u64, u64); StallCause::COUNT],
    no_free_int_cycles: u64,
    no_free_fp_cycles: u64,
    no_free_any_cycles: u64,
    cycles: u64,
    last_cycle: u64,
    /// Allocation cycle per `(class_index, phys)` for lifetime tracking.
    alloc_cycle: HashMap<(usize, u32), u64>,
    metrics: MetricsRegistry,
    sealed: bool,
}

impl Recorder {
    /// A recorder retaining the last `window` cycles of records and stall
    /// marks (aggregates always cover the whole run).
    pub fn with_window(window: u64) -> Self {
        Self {
            window: window.max(1),
            live: HashMap::new(),
            done: VecDeque::new(),
            stalls: VecDeque::new(),
            event_counts: [0; EventKind::ALL.len()],
            stall_cycles: [0; StallCause::COUNT],
            bursts: [(0, 0); StallCause::COUNT],
            no_free_int_cycles: 0,
            no_free_fp_cycles: 0,
            no_free_any_cycles: 0,
            cycles: 0,
            last_cycle: 0,
            alloc_cycle: HashMap::new(),
            metrics: MetricsRegistry::new(),
            sealed: false,
        }
    }

    /// A recorder with an effectively unbounded window.
    pub fn unbounded() -> Self {
        Self::with_window(u64::MAX)
    }

    /// Flushes pending stall bursts into the burst histograms. Idempotent;
    /// call once the run finishes, before reading burst metrics.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        for cause in StallCause::ALL {
            let (_, len) = self.bursts[cause.index()];
            if len > 0 {
                self.metrics.record(Self::burst_metric(cause), len);
            }
        }
    }

    /// The configured window, in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Cycles observed (equals `SimStats::cycles` for a full run).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total events of one lifecycle kind over the whole run.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.event_counts[kind as usize]
    }

    /// Stall cycles attributed to one cause over the whole run.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stall_cycles[cause.index()]
    }

    /// Cycles with an empty integer free list (reconciles with
    /// `SimStats::no_free_int_cycles`).
    pub fn no_free_int_cycles(&self) -> u64 {
        self.no_free_int_cycles
    }

    /// Cycles with an empty FP free list.
    pub fn no_free_fp_cycles(&self) -> u64 {
        self.no_free_fp_cycles
    }

    /// Cycles with either free list empty.
    pub fn no_free_any_cycles(&self) -> u64 {
        self.no_free_any_cycles
    }

    /// Committed instructions per cycle, derived purely from observed
    /// events (must equal `SimStats::commit_ipc`).
    pub fn commit_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.event_count(EventKind::Commit) as f64 / self.cycles as f64
        }
    }

    /// Retired (committed or squashed) records still inside the window,
    /// oldest first.
    pub fn records(&self) -> impl Iterator<Item = &InstRecord> {
        self.done.iter()
    }

    /// Instructions still in flight when the run ended, in insertion
    /// order.
    pub fn in_flight(&self) -> Vec<&InstRecord> {
        let mut v: Vec<&InstRecord> = self.live.values().collect();
        v.sort_unstable_by_key(|r| (r.insert, r.seq));
        v
    }

    /// Stall marks `(cycle, cause)` inside the window, oldest first.
    pub fn stall_marks(&self) -> impl Iterator<Item = &(u64, StallCause)> {
        self.stalls.iter()
    }

    /// The latency / lifetime / burst metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Metric name of a cause's burst-length histogram.
    pub fn burst_metric(cause: StallCause) -> &'static str {
        match cause {
            StallCause::NoFreeReg => "stall.burst.no-free-reg",
            StallCause::DqFull => "stall.burst.dq-full",
            StallCause::FetchStarved => "stall.burst.fetch-starved",
            StallCause::FuBusy => "stall.burst.fu-busy",
            StallCause::CacheMissBlocked => "stall.burst.cache-miss-blocked",
            StallCause::CommitBlocked => "stall.burst.in-order-commit-blocked",
        }
    }

    fn lifetime_metric(class: RegClass) -> &'static str {
        match class {
            RegClass::Int => "reg.lifetime.int",
            RegClass::Fp => "reg.lifetime.fp",
        }
    }

    fn record_free(&mut self, cycle: u64, class: RegClass, phys: u32) {
        if let Some(alloc) = self.alloc_cycle.remove(&(class.index(), phys)) {
            self.metrics
                .record(Self::lifetime_metric(class), cycle.saturating_sub(alloc));
        }
    }

    fn retire(&mut self, mut rec: InstRecord, cycle: u64, squashed: bool) {
        rec.retire = cycle;
        rec.squashed = squashed;
        if !squashed {
            if let Some(issue) = rec.issue {
                self.metrics.record("latency.insert-to-issue", issue - rec.insert);
                self.metrics.record("latency.issue-to-commit", cycle - issue);
                if let Some(complete) = rec.complete {
                    self.metrics.record("latency.issue-to-complete", complete - issue);
                    self.metrics.record("latency.complete-to-commit", cycle - complete);
                }
            }
            self.metrics.record("latency.insert-to-commit", cycle - rec.insert);
        }
        self.done.push_back(rec);
        while self.done.len() > MAX_RETAINED {
            self.done.pop_front();
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl Observer for Recorder {
    fn event(&mut self, ev: TraceEvent) {
        self.event_counts[ev.kind as usize] += 1;
        match ev.kind {
            EventKind::Insert => {
                if let Some((class, new, _prev)) = ev.dest {
                    self.alloc_cycle.insert((class.index(), new), ev.cycle);
                }
                self.live.insert(
                    ev.seq,
                    InstRecord {
                        seq: ev.seq,
                        op: ev.op,
                        pc: ev.pc,
                        wrong_path: ev.wrong_path,
                        insert: ev.cycle,
                        issue: None,
                        complete: None,
                        retire: ev.cycle,
                        squashed: false,
                        dest: ev.dest,
                    },
                );
            }
            EventKind::Issue => {
                if let Some(rec) = self.live.get_mut(&ev.seq) {
                    rec.issue = Some(ev.cycle);
                }
            }
            EventKind::Complete => {
                if let Some(rec) = self.live.get_mut(&ev.seq) {
                    rec.complete = Some(ev.cycle);
                }
            }
            EventKind::Commit | EventKind::Squash => {
                let squashed = ev.kind == EventKind::Squash;
                if let Some((class, phys)) = ev.freed {
                    if squashed {
                        // A squashed destination never held live state;
                        // drop its allocation mark without a lifetime
                        // sample.
                        self.alloc_cycle.remove(&(class.index(), phys));
                    } else {
                        self.record_free(ev.cycle, class, phys);
                    }
                }
                if let Some(rec) = self.live.remove(&ev.seq) {
                    self.retire(rec, ev.cycle, squashed);
                }
            }
        }
    }

    fn stall(&mut self, cycle: u64, cause: StallCause) {
        let i = cause.index();
        self.stall_cycles[i] += 1;
        self.stalls.push_back((cycle, cause));
        while self.stalls.len() > MAX_RETAINED {
            self.stalls.pop_front();
        }
        let (last, len) = self.bursts[i];
        if len > 0 && cycle == last + 1 {
            self.bursts[i] = (cycle, len + 1);
        } else {
            if len > 0 {
                self.metrics.record(Self::burst_metric(cause), len);
            }
            self.bursts[i] = (cycle, 1);
        }
    }

    fn reg_free(&mut self, cycle: u64, class: RegClass, phys: u32) {
        self.record_free(cycle, class, phys);
    }

    fn cycle_end(&mut self, cycle: u64, int_free_empty: bool, fp_free_empty: bool) {
        self.cycles += 1;
        self.last_cycle = cycle;
        self.no_free_int_cycles += u64::from(int_free_empty);
        self.no_free_fp_cycles += u64::from(fp_free_empty);
        self.no_free_any_cycles += u64::from(int_free_empty || fp_free_empty);
        if self.window != u64::MAX {
            let horizon = cycle.saturating_sub(self.window);
            while self.done.front().is_some_and(|r| r.retire < horizon) {
                self.done.pop_front();
            }
            while self.stalls.front().is_some_and(|&(c, _)| c < horizon) {
                self.stalls.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, cycle: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            seq,
            kind,
            op: OpKind::IntAlu,
            pc: 0x100,
            wrong_path: false,
            dest: None,
            freed: None,
        }
    }

    #[test]
    fn assembles_a_lifecycle() {
        let mut r = Recorder::unbounded();
        let mut insert = ev(EventKind::Insert, 1, 7);
        insert.dest = Some((RegClass::Int, 40, 3));
        r.event(insert);
        r.event(ev(EventKind::Issue, 2, 7));
        r.event(ev(EventKind::Complete, 3, 7));
        let mut commit = ev(EventKind::Commit, 5, 7);
        commit.freed = Some((RegClass::Int, 3));
        r.event(commit);
        let rec = r.records().next().expect("one record");
        assert_eq!(rec.insert, 1);
        assert_eq!(rec.issue, Some(2));
        assert_eq!(rec.complete, Some(3));
        assert_eq!(rec.retire, 5);
        assert!(!rec.squashed);
        assert_eq!(r.event_count(EventKind::Commit), 1);
        let m = r.metrics();
        assert_eq!(m.histogram("latency.insert-to-issue").unwrap().max(), 1);
        assert_eq!(m.histogram("latency.issue-to-commit").unwrap().max(), 3);
        assert_eq!(m.histogram("latency.insert-to-commit").unwrap().max(), 4);
    }

    #[test]
    fn register_lifetime_spans_alloc_to_free() {
        let mut r = Recorder::unbounded();
        let mut insert = ev(EventKind::Insert, 10, 1);
        insert.dest = Some((RegClass::Fp, 55, 2));
        r.event(insert);
        r.reg_free(25, RegClass::Fp, 55);
        let h = r.metrics().histogram("reg.lifetime.fp").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 15);
        // Freeing a register with no recorded allocation is a no-op.
        r.reg_free(30, RegClass::Fp, 200);
        assert_eq!(r.metrics().histogram("reg.lifetime.fp").unwrap().count(), 1);
    }

    #[test]
    fn squash_drops_without_latency_samples() {
        let mut r = Recorder::unbounded();
        let mut insert = ev(EventKind::Insert, 1, 3);
        insert.dest = Some((RegClass::Int, 44, 9));
        r.event(insert);
        let mut squash = ev(EventKind::Squash, 4, 3);
        squash.freed = Some((RegClass::Int, 44));
        r.event(squash);
        let rec = r.records().next().expect("squashed record kept");
        assert!(rec.squashed);
        assert!(r.metrics().histogram("latency.insert-to-commit").is_none());
        assert!(r.metrics().histogram("reg.lifetime.int").is_none());
    }

    #[test]
    fn stall_bursts_capture_consecutive_runs() {
        let mut r = Recorder::unbounded();
        for c in [10, 11, 12, 20, 30, 31] {
            r.stall(c, StallCause::DqFull);
        }
        r.seal();
        assert_eq!(r.stall_cycles(StallCause::DqFull), 6);
        let h = r.metrics().histogram(Recorder::burst_metric(StallCause::DqFull)).unwrap();
        // Runs: 3, 1, 2.
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3);
        assert_eq!(h.percentile(50.0), 2);
    }

    #[test]
    fn window_prunes_records_but_not_totals() {
        let mut r = Recorder::with_window(5);
        for seq in 0..20u64 {
            let c = seq * 2 + 1;
            r.event(ev(EventKind::Insert, c, seq));
            r.event(ev(EventKind::Commit, c + 1, seq));
            r.stall(c, StallCause::FuBusy);
            r.cycle_end(c + 1, false, false);
        }
        assert_eq!(r.event_count(EventKind::Commit), 20, "totals unpruned");
        assert_eq!(r.stall_cycles(StallCause::FuBusy), 20);
        assert!(r.records().count() < 20, "window pruned records");
        assert!(r.stalls.len() < 20, "window pruned stalls");
        let horizon = r.last_cycle - r.window;
        assert!(r.records().all(|rec| rec.retire >= horizon));
    }

    #[test]
    fn cycle_end_counts_free_list_pressure() {
        let mut r = Recorder::unbounded();
        r.cycle_end(1, true, false);
        r.cycle_end(2, false, true);
        r.cycle_end(3, true, true);
        r.cycle_end(4, false, false);
        assert_eq!(r.cycles(), 4);
        assert_eq!(r.no_free_int_cycles(), 2);
        assert_eq!(r.no_free_fp_cycles(), 2);
        assert_eq!(r.no_free_any_cycles(), 3);
    }
}
