//! The imprecise-exception kill engine.
//!
//! Under the paper's imprecise model, a retired virtual-to-physical
//! mapping is *killed* — its physical register becomes freeable (once its
//! writer and readers have completed) — when **any** later writer of the
//! same virtual register completes, *provided all branches preceding that
//! writer have completed*. The branch proviso is what keeps misprediction
//! recovery possible: a writer with all preceding branches complete can
//! never be squashed, so the kill is safe.
//!
//! This module tracks the three moving parts:
//!
//! * the outstanding (inserted, not completed) correct-path *exception
//!   barriers* — conditional branches always; loads and stores too under
//!   the Alpha-style hybrid model, where memory operations may fault
//!   precisely — kept as a ring sorted by sequence number, whose front is
//!   the *barrier watermark*;
//! * per virtual register, the queue of retired mappings in retirement
//!   order, each tagged with the sequence number of the writer that
//!   retired it (all 62 queues are rings in one flat array);
//! * completed writers awaiting branch clearance (their sequence number is
//!   not yet below the watermark).

use rf_isa::RegClass;
use std::collections::VecDeque;

/// A physical register whose mapping was just killed.
pub type Killed = (RegClass, u32);

/// Incremental evaluator for the imprecise mapping-kill conditions.
///
/// The pipeline feeds it rename/complete/squash events; it hands back the
/// physical registers whose mappings became killed. (Whether a killed
/// register can actually be *freed* additionally requires its writer done
/// and readers drained — the pipeline checks those.)
///
/// # Examples
///
/// ```
/// use rf_core::KillEngine;
/// use rf_isa::RegClass;
///
/// let mut eng = KillEngine::new();
/// // Writer seq 5 of int vreg 3 retires the mapping to physical reg 7.
/// eng.mapping_retired(RegClass::Int, 3, 7, 5);
/// // No branches outstanding: when writer 5 completes, the kill clears.
/// let killed = eng.writer_completed(RegClass::Int, 3, 5);
/// assert_eq!(killed, vec![(RegClass::Int, 7)]);
/// ```
#[derive(Debug, Clone)]
pub struct KillEngine {
    /// Outstanding exception barriers (branches; plus memory operations
    /// under the hybrid model), sorted by sequence number. Barriers are
    /// inserted in program order, so insertion is a `push_back`; squash
    /// truncates the back, and completion removes from the front or, for
    /// an out-of-order completion, at a binary-searched position.
    barriers: VecDeque<u64>,
    /// The retired mappings `(phys, killer_seq)`, one ring per
    /// `(class, vreg)` queue: queue `q` owns slots `q * cap .. (q + 1) *
    /// cap`, holding its records in retirement order from `queues[q].0`
    /// (wrapping), `queues[q].1` of them.
    retired: Vec<(u32, u64)>,
    /// Per queue: `(front offset, length)` within its ring.
    queues: [(u32, u32); QUEUES],
    /// Slots per ring: a power of two, doubled when any ring fills.
    cap: usize,
    /// Completed writers awaiting branch clearance:
    /// `(class, vreg, writer_seq)`.
    pending: Vec<(RegClass, u8, u64)>,
}

/// One retirement queue per virtual register of each class.
const QUEUES: usize = 2 * 31;

/// Initial slots per retirement ring.
const INITIAL_RING: usize = 8;

/// The retirement queue of `vreg` of `class`.
#[inline]
fn queue(class: RegClass, vreg: u8) -> usize {
    class.index() * 31 + vreg as usize
}

impl Default for KillEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl KillEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self {
            barriers: VecDeque::new(),
            retired: vec![(0, 0); QUEUES * INITIAL_RING],
            queues: [(0, 0); QUEUES],
            cap: INITIAL_RING,
            pending: Vec::new(),
        }
    }

    /// The barrier watermark: all exception barriers with a sequence
    /// number below this have completed.
    pub fn watermark(&self) -> u64 {
        self.barriers.front().copied().unwrap_or(u64::MAX)
    }

    /// Records insertion of a correct-path conditional branch. Barriers
    /// must be inserted in program order (younger than every outstanding
    /// one).
    pub fn branch_inserted(&mut self, seq: u64) {
        debug_assert!(
            self.barriers.back().is_none_or(|&last| last < seq),
            "barriers are inserted in program order"
        );
        self.barriers.push_back(seq);
    }

    /// Records insertion of a non-branch exception barrier (a load or
    /// store under the Alpha-style hybrid model, where memory operations
    /// may raise precise exceptions and so gate early register freeing).
    pub fn barrier_inserted(&mut self, seq: u64) {
        self.branch_inserted(seq);
    }

    /// Records completion of a correct-path conditional branch, returning
    /// mappings newly killed by writers that the rising watermark cleared.
    pub fn branch_completed(&mut self, seq: u64) -> Vec<Killed> {
        let mut killed = Vec::new();
        self.branch_completed_into(seq, &mut killed);
        killed
    }

    /// Allocation-free form of [`KillEngine::branch_completed`]: appends
    /// the killed mappings to `out` instead of returning a fresh `Vec`.
    pub fn branch_completed_into(&mut self, seq: u64, out: &mut Vec<Killed>) {
        let _s = rf_prof::hot_span("kill_engine");
        if self.barriers.front() == Some(&seq) {
            self.barriers.pop_front();
            self.drain_cleared_into(out);
        } else if let Ok(i) = self.barriers.binary_search(&seq) {
            // The watermark stays put, and every pending writer is at or
            // above it (it was when it became pending, and each rise
            // drains the ones it passes), so nothing can clear.
            self.barriers.remove(i);
        }
    }

    /// Records completion of a non-branch exception barrier.
    pub fn barrier_completed(&mut self, seq: u64) -> Vec<Killed> {
        self.branch_completed(seq)
    }

    /// Allocation-free form of [`KillEngine::barrier_completed`].
    pub fn barrier_completed_into(&mut self, seq: u64, out: &mut Vec<Killed>) {
        self.branch_completed_into(seq, out);
    }

    /// Records that renaming a new writer (sequence `killer_seq`) of
    /// `vreg` retired the mapping to physical register `phys`.
    pub fn mapping_retired(&mut self, class: RegClass, vreg: u8, phys: u32, killer_seq: u64) {
        let q = queue(class, vreg);
        if self.queues[q].1 as usize == self.cap {
            self.grow();
        }
        let (front, len) = self.queues[q];
        let slot = self.slot(q, front + len);
        self.retired[slot] = (phys, killer_seq);
        self.queues[q].1 += 1;
    }

    /// Index in `retired` of queue `q`'s ring position `offset`
    /// (wrapping).
    #[inline]
    fn slot(&self, q: usize, offset: u32) -> usize {
        q * self.cap + (offset as usize & (self.cap - 1))
    }

    /// Doubles every ring, keeping each queue's records in order.
    #[cold]
    fn grow(&mut self) {
        let cap = 2 * self.cap;
        let mut retired = vec![(0, 0); QUEUES * cap];
        for q in 0..QUEUES {
            let (front, len) = self.queues[q];
            for i in 0..len {
                retired[q * cap + i as usize] = self.retired[self.slot(q, front + i)];
            }
            self.queues[q].0 = 0;
        }
        self.retired = retired;
        self.cap = cap;
    }

    /// Rolls back the most recent retirement of `vreg` (its killer was
    /// squashed and the mapping is current again).
    ///
    /// # Panics
    ///
    /// Panics if the most recent retirement was not made by `killer_seq` —
    /// squash rollback must proceed youngest-first.
    pub fn rollback_retirement(&mut self, class: RegClass, vreg: u8, killer_seq: u64) {
        let q = queue(class, vreg);
        let (front, len) = self.queues[q];
        assert!(len > 0, "rollback of a retirement that never happened");
        let (_, k) = self.retired[self.slot(q, front + len - 1)];
        assert_eq!(k, killer_seq, "retirements must roll back youngest-first");
        self.queues[q].1 -= 1;
    }

    /// Records completion of a register-writing instruction, returning any
    /// mappings this kills (possibly after waiting for branch clearance).
    pub fn writer_completed(&mut self, class: RegClass, vreg: u8, seq: u64) -> Vec<Killed> {
        let mut killed = Vec::new();
        self.writer_completed_into(class, vreg, seq, &mut killed);
        killed
    }

    /// Allocation-free form of [`KillEngine::writer_completed`].
    pub fn writer_completed_into(
        &mut self,
        class: RegClass,
        vreg: u8,
        seq: u64,
        out: &mut Vec<Killed>,
    ) {
        let _s = rf_prof::hot_span("kill_engine");
        if seq < self.watermark() {
            self.kill_up_to_into(class, vreg, seq, out);
        } else {
            self.pending.push((class, vreg, seq));
        }
    }

    /// Discards state belonging to squashed instructions: pending writers
    /// and outstanding branches younger than `boundary` (the mispredicted
    /// branch), then returns kills enabled by the watermark change.
    pub fn squash_younger_than(&mut self, boundary: u64) -> Vec<Killed> {
        let mut killed = Vec::new();
        self.squash_younger_than_into(boundary, &mut killed);
        killed
    }

    /// Allocation-free form of [`KillEngine::squash_younger_than`].
    pub fn squash_younger_than_into(&mut self, boundary: u64, out: &mut Vec<Killed>) {
        let _s = rf_prof::hot_span("kill_engine");
        self.pending.retain(|&(_, _, seq)| seq <= boundary);
        // Squashed barriers are exactly the ring's suffix above the
        // boundary; the squash removes them itself.
        while self.barriers.back().is_some_and(|&last| last > boundary) {
            self.barriers.pop_back();
        }
        self.drain_cleared_into(out);
    }

    fn drain_cleared_into(&mut self, out: &mut Vec<Killed>) {
        let watermark = self.watermark();
        let mut i = 0;
        while i < self.pending.len() {
            let (class, vreg, seq) = self.pending[i];
            if seq < watermark {
                self.pending.swap_remove(i);
                self.kill_up_to_into(class, vreg, seq, out);
            } else {
                i += 1;
            }
        }
    }

    /// Kills every retired mapping of `vreg` whose killer sequence is at
    /// most `seq` (they were all retired before the cleared writer),
    /// appending them to `out`.
    fn kill_up_to_into(&mut self, class: RegClass, vreg: u8, seq: u64, out: &mut Vec<Killed>) {
        let q = queue(class, vreg);
        let (mut front, mut len) = self.queues[q];
        while len > 0 {
            let (phys, killer) = self.retired[self.slot(q, front)];
            if killer > seq {
                break;
            }
            out.push((class, phys));
            front = (front + 1) & (self.cap as u32 - 1);
            len -= 1;
        }
        self.queues[q] = (front, len);
    }

    /// Number of retired-but-unkilled mappings (diagnostics).
    pub fn retired_pending(&self) -> usize {
        self.queues.iter().map(|&(_, len)| len as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_waits_for_branch_clearance() {
        let mut eng = KillEngine::new();
        eng.branch_inserted(3);
        eng.mapping_retired(RegClass::Int, 0, 10, 5);
        // Writer 5 completes but branch 3 is outstanding: no kill yet.
        assert!(eng.writer_completed(RegClass::Int, 0, 5).is_empty());
        // Branch 3 completes: watermark rises past 5, kill fires.
        let killed = eng.branch_completed(3);
        assert_eq!(killed, vec![(RegClass::Int, 10)]);
    }

    #[test]
    fn later_writer_kills_all_earlier_mappings() {
        let mut eng = KillEngine::new();
        eng.mapping_retired(RegClass::Fp, 2, 20, 4);
        eng.mapping_retired(RegClass::Fp, 2, 21, 8);
        // Writer 8 (which retired phys 21's predecessor... i.e. created
        // mapping after killing 21) — a completed writer at seq 9 kills
        // both earlier retirements.
        eng.mapping_retired(RegClass::Fp, 2, 22, 9);
        let killed = eng.writer_completed(RegClass::Fp, 2, 9);
        assert_eq!(
            killed,
            vec![(RegClass::Fp, 20), (RegClass::Fp, 21), (RegClass::Fp, 22)]
        );
    }

    #[test]
    fn out_of_order_completion_respects_retirement_order() {
        let mut eng = KillEngine::new();
        eng.mapping_retired(RegClass::Int, 1, 30, 6);
        eng.mapping_retired(RegClass::Int, 1, 31, 12);
        // Writer 6 completes: only the first mapping dies.
        assert_eq!(eng.writer_completed(RegClass::Int, 1, 6), vec![(RegClass::Int, 30)]);
        // Writer 12 completes: the second dies.
        assert_eq!(eng.writer_completed(RegClass::Int, 1, 12), vec![(RegClass::Int, 31)]);
    }

    #[test]
    fn squash_discards_pending_writers_and_branches() {
        let mut eng = KillEngine::new();
        eng.branch_inserted(2);
        eng.branch_inserted(7);
        eng.mapping_retired(RegClass::Int, 0, 40, 5);
        assert!(eng.writer_completed(RegClass::Int, 0, 5).is_empty());
        // Branch 2 mispredicts; seqs > 2 squash. Writer 5's pending kill
        // and branch 7 disappear; the rollback of retirement happens via
        // rollback_retirement.
        eng.rollback_retirement(RegClass::Int, 0, 5);
        let killed = eng.squash_younger_than(2);
        assert!(killed.is_empty());
        assert_eq!(eng.retired_pending(), 0);
        assert_eq!(eng.watermark(), 2);
    }

    #[test]
    fn rollback_restores_mapping() {
        let mut eng = KillEngine::new();
        eng.mapping_retired(RegClass::Int, 3, 50, 9);
        eng.rollback_retirement(RegClass::Int, 3, 9);
        // Nothing left to kill.
        assert!(eng.writer_completed(RegClass::Int, 3, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "youngest-first")]
    fn rollback_out_of_order_panics() {
        let mut eng = KillEngine::new();
        eng.mapping_retired(RegClass::Int, 3, 50, 9);
        eng.mapping_retired(RegClass::Int, 3, 51, 12);
        eng.rollback_retirement(RegClass::Int, 3, 9);
    }

    #[test]
    fn queues_keep_retirement_order_through_ring_growth() {
        let mut eng = KillEngine::new();
        // Wrap vreg 4's ring before it grows: kill two, then retire past
        // the initial capacity while a neighbouring queue stays live.
        eng.mapping_retired(RegClass::Fp, 5, 99, 1);
        for seq in 0..2 {
            eng.mapping_retired(RegClass::Int, 4, seq as u32, seq);
        }
        assert_eq!(eng.writer_completed(RegClass::Int, 4, 1).len(), 2);
        for seq in 2..40u64 {
            eng.mapping_retired(RegClass::Int, 4, seq as u32, seq);
        }
        eng.rollback_retirement(RegClass::Int, 4, 39);
        assert_eq!(eng.retired_pending(), 38);
        let killed = eng.writer_completed(RegClass::Int, 4, 30);
        assert_eq!(killed, (2..=30).map(|p| (RegClass::Int, p)).collect::<Vec<_>>());
        assert_eq!(eng.writer_completed(RegClass::Fp, 5, 1), vec![(RegClass::Fp, 99)]);
        assert_eq!(eng.retired_pending(), 8);
    }

    #[test]
    fn watermark_with_no_branches_is_max() {
        assert_eq!(KillEngine::new().watermark(), u64::MAX);
    }
}
