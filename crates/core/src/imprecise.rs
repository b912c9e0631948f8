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
//! * per virtual register, its *writer chain*: every renamed writer links
//!   to the previous writer of the same virtual register (the link lives
//!   with the writer, read back through [`WriterChain`]), and the engine
//!   keeps the youngest writer and the `killed_below` mark under which
//!   every writer's retired mapping is already killed;
//! * completed writers awaiting branch clearance (their sequence number is
//!   not yet below the watermark).
//!
//! # Why the chain walk is exact
//!
//! A cleared writer `W` kills every retired mapping of its virtual
//! register whose retiring writer is at or before `W`. Kills are therefore
//! *prefix-closed* in program order, so one mark per virtual register,
//! `killed_below`, records them all. The walk from `W` back along its chain
//! stops at the mark and so touches exactly the mappings it kills. Every
//! writer it visits is still in flight: a committed writer had all older
//! barriers complete, so it cleared (and killed through itself) before it
//! could commit. Every wrong-path writer is younger than an outstanding
//! mispredicted branch, so it never clears, and squash pops it off its
//! chain youngest-first, restoring the chain's previous end.

use rf_isa::RegClass;
use std::collections::VecDeque;

/// A physical register whose mapping was just killed.
pub type Killed = (RegClass, u32);

/// Where a [`KillEngine`] reads its writer chains.
///
/// Each renamed writer stores the link [`KillEngine::writer_renamed`]
/// hands back; the engine asks for it (and the mapping the writer retired)
/// only for writers still in flight.
pub trait WriterChain {
    /// For the in-flight writer `seq`: the physical register whose
    /// mapping it retired, and its chain link (the distance back to the
    /// previous writer of the same virtual register, 0 for none).
    fn retired_by(&self, seq: u64) -> (u32, u32);
}

/// Incremental evaluator for the imprecise mapping-kill conditions.
///
/// The pipeline feeds it rename/complete/squash events; it hands back the
/// physical registers whose mappings became killed, oldest mapping first.
/// (Whether a killed register can actually be *freed* additionally
/// requires its writer done and readers drained — the pipeline's
/// per-register countdown tracks those.)
///
/// # Examples
///
/// ```
/// use rf_core::{KillEngine, WriterChain};
/// use rf_isa::RegClass;
///
/// /// Writer 5 retired the mapping to physical register 7, and is the
/// /// first writer of its virtual register.
/// struct One;
/// impl WriterChain for One {
///     fn retired_by(&self, seq: u64) -> (u32, u32) {
///         assert_eq!(seq, 5);
///         (7, 0)
///     }
/// }
///
/// let mut eng = KillEngine::new();
/// assert_eq!(eng.writer_renamed(RegClass::Int, 3, 5), 0);
/// // No branches outstanding: when writer 5 completes, the kill clears.
/// let mut killed = Vec::new();
/// eng.writer_completed_into(RegClass::Int, 3, 5, &One, &mut killed);
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
    /// Per `(class, vreg)` chain: the youngest renamed writer not
    /// squashed, or [`NO_WRITER`].
    last_writer: [u64; CHAINS],
    /// Per chain: every writer below this sequence number has had its
    /// retired mapping killed.
    killed_below: [u64; CHAINS],
    /// Completed writers awaiting branch clearance:
    /// `(class, vreg, writer_seq)`.
    pending: Vec<(RegClass, u8, u64)>,
}

/// One writer chain per virtual register of each class.
const CHAINS: usize = 2 * 31;

/// [`KillEngine::last_writer`] of a chain with no writer yet.
const NO_WRITER: u64 = u64::MAX;

/// The writer chain of `vreg` of `class`.
#[inline]
fn chain(class: RegClass, vreg: u8) -> usize {
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
            last_writer: [NO_WRITER; CHAINS],
            killed_below: [0; CHAINS],
            pending: Vec::new(),
        }
    }

    /// The barrier watermark: all exception barriers with a sequence
    /// number below this have completed.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.barriers.front().copied().unwrap_or(u64::MAX)
    }

    /// Records insertion of a correct-path conditional branch. Barriers
    /// must be inserted in program order (younger than every outstanding
    /// one).
    #[inline]
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
    #[inline]
    pub fn barrier_inserted(&mut self, seq: u64) {
        self.branch_inserted(seq);
    }

    /// Records completion of an exception barrier (a correct-path branch,
    /// or a memory operation under the hybrid model), appending to `out`
    /// the mappings newly killed by writers the rising watermark cleared.
    #[inline]
    pub fn barrier_completed_into(
        &mut self,
        seq: u64,
        chains: &impl WriterChain,
        out: &mut Vec<Killed>,
    ) {
        if self.barriers.front() == Some(&seq) {
            self.barriers.pop_front();
            if !self.pending.is_empty() {
                self.drain_cleared_into(chains, out);
            }
        } else if let Ok(i) = self.barriers.binary_search(&seq) {
            // The watermark stays put, and every pending writer is at or
            // above it (it was when it became pending, and each rise
            // drains the ones it passes), so nothing can clear.
            self.barriers.remove(i);
        }
    }

    /// Records that writer `seq` of `vreg` was renamed, retiring the
    /// mapping its chain's previous writer made. Returns the writer's
    /// chain link, for [`WriterChain::retired_by`] and
    /// [`KillEngine::writer_squashed`].
    #[inline]
    pub fn writer_renamed(&mut self, class: RegClass, vreg: u8, seq: u64) -> u32 {
        let last = std::mem::replace(&mut self.last_writer[chain(class, vreg)], seq);
        // A previous writer a full u32 of instructions back has long
        // committed, so it lies below `killed_below`: ending the chain
        // there stops the walk where the mark would.
        if last == NO_WRITER {
            0
        } else {
            u32::try_from(seq - last).unwrap_or(0)
        }
    }

    /// Rolls back the rename of writer `seq` of `vreg`, whose chain link
    /// was `link` (it was squashed and the previous mapping is current
    /// again).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not its chain's youngest writer — squash
    /// rollback must proceed youngest-first.
    #[inline]
    pub fn writer_squashed(&mut self, class: RegClass, vreg: u8, seq: u64, link: u32) {
        let c = chain(class, vreg);
        assert_eq!(self.last_writer[c], seq, "writers must roll back youngest-first");
        debug_assert!(self.killed_below[c] <= seq, "a squashed writer never cleared");
        self.last_writer[c] = if link == 0 { NO_WRITER } else { seq - u64::from(link) };
    }

    /// Records completion of a register-writing instruction, appending to
    /// `out` any mappings this kills (or, without branch clearance yet,
    /// queueing the writer until the watermark passes it).
    #[inline]
    pub fn writer_completed_into(
        &mut self,
        class: RegClass,
        vreg: u8,
        seq: u64,
        chains: &impl WriterChain,
        out: &mut Vec<Killed>,
    ) {
        if seq < self.watermark() {
            self.kill_through(class, vreg, seq, chains, out);
        } else {
            self.pending.push((class, vreg, seq));
        }
    }

    /// Discards state belonging to squashed instructions: pending writers
    /// and outstanding barriers younger than `boundary` (the mispredicted
    /// branch), then appends kills enabled by the watermark change.
    pub fn squash_younger_than_into(
        &mut self,
        boundary: u64,
        chains: &impl WriterChain,
        out: &mut Vec<Killed>,
    ) {
        self.pending.retain(|&(_, _, seq)| seq <= boundary);
        // Squashed barriers are exactly the ring's suffix above the
        // boundary; the squash removes them itself.
        while self.barriers.back().is_some_and(|&last| last > boundary) {
            self.barriers.pop_back();
        }
        self.drain_cleared_into(chains, out);
    }

    fn drain_cleared_into(&mut self, chains: &impl WriterChain, out: &mut Vec<Killed>) {
        let watermark = self.watermark();
        let mut i = 0;
        while i < self.pending.len() {
            let (class, vreg, seq) = self.pending[i];
            if seq < watermark {
                self.pending.swap_remove(i);
                self.kill_through(class, vreg, seq, chains, out);
            } else {
                i += 1;
            }
        }
    }

    /// Kills every mapping of `vreg` retired by a writer at or before the
    /// cleared writer `seq`: walks `seq`'s chain back to `killed_below`,
    /// appending the mappings oldest first, and raises the mark past
    /// `seq`.
    #[inline]
    fn kill_through(
        &mut self,
        class: RegClass,
        vreg: u8,
        seq: u64,
        chains: &impl WriterChain,
        out: &mut Vec<Killed>,
    ) {
        let c = chain(class, vreg);
        let below = self.killed_below[c];
        if seq < below {
            return;
        }
        let start = out.len();
        let mut w = seq;
        loop {
            let (phys, link) = chains.retired_by(w);
            out.push((class, phys));
            if link == 0 || w - u64::from(link) < below {
                break;
            }
            w -= u64::from(link);
        }
        out[start..].reverse();
        self.killed_below[c] = seq + 1;
    }

    /// Number of renamed writers whose retired mapping is not yet killed:
    /// walks every chain.
    #[cfg(test)]
    fn retired_pending(&self, chains: &impl WriterChain) -> usize {
        let mut n = 0;
        for (c, &last) in self.last_writer.iter().enumerate() {
            let mut w = last;
            while w != NO_WRITER && w >= self.killed_below[c] {
                n += 1;
                let (_, link) = chains.retired_by(w);
                w = if link == 0 { NO_WRITER } else { w - u64::from(link) };
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Writer chains kept in a map, as the active list keeps them in its
    /// entries: `seq -> (retired phys, link)`.
    #[derive(Default)]
    struct Chains(BTreeMap<u64, (u32, u32)>);

    impl WriterChain for Chains {
        fn retired_by(&self, seq: u64) -> (u32, u32) {
            *self.0.get(&seq).unwrap_or_else(|| panic!("writer {seq} is in flight"))
        }
    }

    /// An engine and its chains, driven like the pipeline drives them.
    #[derive(Default)]
    struct Rig {
        eng: KillEngine,
        chains: Chains,
        /// Renamed writers: `(class, vreg, seq)`, rename order.
        writers: Vec<(RegClass, u8, u64)>,
    }

    impl Rig {
        fn rename(&mut self, class: RegClass, vreg: u8, phys: u32, seq: u64) {
            let link = self.eng.writer_renamed(class, vreg, seq);
            self.chains.0.insert(seq, (phys, link));
            self.writers.push((class, vreg, seq));
        }

        fn complete(&mut self, class: RegClass, vreg: u8, seq: u64) -> Vec<Killed> {
            let mut out = Vec::new();
            self.eng.writer_completed_into(class, vreg, seq, &self.chains, &mut out);
            out
        }

        fn barrier_done(&mut self, seq: u64) -> Vec<Killed> {
            let mut out = Vec::new();
            self.eng.barrier_completed_into(seq, &self.chains, &mut out);
            out
        }

        /// Squashes every writer above `boundary`, youngest first, then
        /// the engine's own state.
        fn squash(&mut self, boundary: u64) -> Vec<Killed> {
            while let Some(&(class, vreg, seq)) = self.writers.last() {
                if seq <= boundary {
                    break;
                }
                let (_, link) = self.chains.0.remove(&seq).expect("renamed");
                self.eng.writer_squashed(class, vreg, seq, link);
                self.writers.pop();
            }
            let mut out = Vec::new();
            self.eng.squash_younger_than_into(boundary, &self.chains, &mut out);
            out
        }
    }

    #[test]
    fn kill_waits_for_branch_clearance() {
        let mut rig = Rig::default();
        rig.eng.branch_inserted(3);
        rig.rename(RegClass::Int, 0, 10, 5);
        // Writer 5 completes but branch 3 is outstanding: no kill yet.
        assert!(rig.complete(RegClass::Int, 0, 5).is_empty());
        // Branch 3 completes: watermark rises past 5, kill fires.
        assert_eq!(rig.barrier_done(3), vec![(RegClass::Int, 10)]);
        assert_eq!(rig.eng.retired_pending(&rig.chains), 0);
    }

    #[test]
    fn later_writer_kills_all_earlier_mappings() {
        let mut rig = Rig::default();
        rig.rename(RegClass::Fp, 2, 20, 4);
        rig.rename(RegClass::Fp, 2, 21, 8);
        rig.rename(RegClass::Fp, 2, 22, 9);
        // The completed writer 9 kills its own retirement and both
        // earlier ones, oldest first.
        assert_eq!(
            rig.complete(RegClass::Fp, 2, 9),
            vec![(RegClass::Fp, 20), (RegClass::Fp, 21), (RegClass::Fp, 22)]
        );
        assert_eq!(rig.eng.retired_pending(&rig.chains), 0);
    }

    #[test]
    fn out_of_order_completion_respects_retirement_order() {
        let mut rig = Rig::default();
        rig.rename(RegClass::Int, 1, 30, 6);
        rig.rename(RegClass::Int, 1, 31, 12);
        // Writer 6 completes: only the first mapping dies.
        assert_eq!(rig.complete(RegClass::Int, 1, 6), vec![(RegClass::Int, 30)]);
        // Writer 12 completes: the second dies.
        assert_eq!(rig.complete(RegClass::Int, 1, 12), vec![(RegClass::Int, 31)]);
        // Completing 6 again (a later writer already killed through it)
        // kills nothing.
        assert!(rig.complete(RegClass::Int, 1, 6).is_empty());
    }

    #[test]
    fn squash_discards_pending_writers_and_branches() {
        let mut rig = Rig::default();
        rig.eng.branch_inserted(2);
        rig.eng.branch_inserted(7);
        rig.rename(RegClass::Int, 0, 40, 5);
        assert!(rig.complete(RegClass::Int, 0, 5).is_empty());
        // Branch 2 mispredicts; seqs > 2 squash. Writer 5's pending kill
        // and branch 7 disappear, and its rename rolls back.
        assert!(rig.squash(2).is_empty());
        assert_eq!(rig.eng.retired_pending(&rig.chains), 0);
        assert_eq!(rig.eng.watermark(), 2);
        // The reused sequence number starts a fresh chain.
        rig.rename(RegClass::Int, 0, 41, 3);
        assert!(rig.barrier_done(2).is_empty());
        assert_eq!(rig.complete(RegClass::Int, 0, 3), vec![(RegClass::Int, 41)]);
    }

    #[test]
    #[should_panic(expected = "youngest-first")]
    fn rollback_out_of_order_panics() {
        let mut eng = KillEngine::new();
        eng.writer_renamed(RegClass::Int, 3, 9);
        let link = eng.writer_renamed(RegClass::Int, 3, 12);
        assert_eq!(link, 3);
        eng.writer_squashed(RegClass::Int, 3, 9, 0);
    }

    #[test]
    fn long_chains_walk_only_what_they_kill() {
        let mut rig = Rig::default();
        rig.rename(RegClass::Fp, 5, 99, 1);
        for seq in 2..40u64 {
            rig.rename(RegClass::Int, 4, seq as u32, seq);
        }
        assert_eq!(rig.complete(RegClass::Int, 4, 3).len(), 2);
        assert_eq!(rig.eng.retired_pending(&rig.chains), 37);
        let killed = rig.complete(RegClass::Int, 4, 30);
        assert_eq!(killed, (4..=30).map(|p| (RegClass::Int, p)).collect::<Vec<_>>());
        assert_eq!(rig.complete(RegClass::Fp, 5, 1), vec![(RegClass::Fp, 99)]);
        assert_eq!(rig.eng.retired_pending(&rig.chains), 9);
    }

    #[test]
    fn watermark_with_no_branches_is_max() {
        assert_eq!(KillEngine::new().watermark(), u64::MAX);
    }

    /// The per-register retirement rings the chain walk replaced, kept as
    /// the reference the differential test compares against: per virtual
    /// register, a queue of `(phys, killer_seq)` in retirement order,
    /// pushed at rename, popped from the back at squash and from the
    /// front by cleared writers.
    mod ring {
        use super::super::{chain, Killed, CHAINS};
        use rf_isa::RegClass;
        use std::collections::VecDeque;

        #[derive(Debug)]
        pub(super) struct RingKillEngine {
            barriers: VecDeque<u64>,
            queues: Vec<VecDeque<(u32, u64)>>,
            pending: Vec<(RegClass, u8, u64)>,
        }

        impl RingKillEngine {
            pub(super) fn new() -> Self {
                Self {
                    barriers: VecDeque::new(),
                    queues: vec![VecDeque::new(); CHAINS],
                    pending: Vec::new(),
                }
            }

            pub(super) fn watermark(&self) -> u64 {
                self.barriers.front().copied().unwrap_or(u64::MAX)
            }

            pub(super) fn barrier_inserted(&mut self, seq: u64) {
                self.barriers.push_back(seq);
            }

            pub(super) fn barrier_completed(&mut self, seq: u64, out: &mut Vec<Killed>) {
                if self.barriers.front() == Some(&seq) {
                    self.barriers.pop_front();
                    self.drain(out);
                } else if let Ok(i) = self.barriers.binary_search(&seq) {
                    self.barriers.remove(i);
                }
            }

            pub(super) fn mapping_retired(&mut self, class: RegClass, vreg: u8, phys: u32, seq: u64) {
                self.queues[chain(class, vreg)].push_back((phys, seq));
            }

            pub(super) fn rollback_retirement(&mut self, class: RegClass, vreg: u8, seq: u64) {
                let (_, k) = self.queues[chain(class, vreg)].pop_back().expect("retired");
                assert_eq!(k, seq, "retirements must roll back youngest-first");
            }

            pub(super) fn writer_completed(
                &mut self,
                class: RegClass,
                vreg: u8,
                seq: u64,
                out: &mut Vec<Killed>,
            ) {
                if seq < self.watermark() {
                    self.kill_up_to(class, vreg, seq, out);
                } else {
                    self.pending.push((class, vreg, seq));
                }
            }

            pub(super) fn squash_younger_than(&mut self, boundary: u64, out: &mut Vec<Killed>) {
                self.pending.retain(|&(_, _, seq)| seq <= boundary);
                while self.barriers.back().is_some_and(|&last| last > boundary) {
                    self.barriers.pop_back();
                }
                self.drain(out);
            }

            fn drain(&mut self, out: &mut Vec<Killed>) {
                let watermark = self.watermark();
                let mut i = 0;
                while i < self.pending.len() {
                    let (class, vreg, seq) = self.pending[i];
                    if seq < watermark {
                        self.pending.swap_remove(i);
                        self.kill_up_to(class, vreg, seq, out);
                    } else {
                        i += 1;
                    }
                }
            }

            fn kill_up_to(&mut self, class: RegClass, vreg: u8, seq: u64, out: &mut Vec<Killed>) {
                let q = &mut self.queues[chain(class, vreg)];
                while let Some(&(phys, killer)) = q.front() {
                    if killer > seq {
                        break;
                    }
                    out.push((class, phys));
                    q.pop_front();
                }
            }

            pub(super) fn retired_pending(&self) -> usize {
                self.queues.iter().map(VecDeque::len).sum()
            }
        }
    }

    /// One step of a pipeline-shaped event stream.
    #[derive(Debug, Clone)]
    enum Op {
        /// Rename a writer of `(class, vreg)` with the next sequence
        /// number (the class picked by the flag, the register mod 3).
        Rename(bool, u8),
        /// Insert an exception barrier with the next sequence number (a
        /// branch when the flag is set, else a hybrid memory operation).
        Barrier(bool),
        /// Complete the renamed, not yet completed writer picked by this
        /// index modulo their number.
        Complete(usize),
        /// Complete the outstanding barrier picked by this index modulo
        /// their number (barriers complete out of program order).
        BarrierDone(usize),
        /// Mispredict the outstanding branch picked by this index modulo
        /// their number: squash everything younger youngest-first, then
        /// complete the branch, as recovery does.
        Squash(usize),
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let rename = || (any::<bool>(), 0u8..3).prop_map(|(fp, v)| Op::Rename(fp, v));
        let complete = || (0usize..16).prop_map(Op::Complete);
        // Renames and completions twice as often as barrier events, and
        // squashes rarest, as in a pipeline.
        prop_oneof![
            rename(),
            rename(),
            any::<bool>().prop_map(Op::Barrier),
            complete(),
            complete(),
            (0usize..8).prop_map(Op::BarrierDone),
            (0usize..8).prop_map(Op::Squash),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The chain walk and the retirement rings emit the same kills in
        /// the same order, with the same watermark, after every event.
        #[test]
        fn chain_walk_matches_retirement_rings(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut rig = Rig::default();
            let mut ring = ring::RingKillEngine::new();
            let mut seq = 0u64;
            let mut phys = 0u32;
            // The current mapping per chain, as the rename map keeps it.
            let mut map = [0u32; CHAINS];
            for (c, m) in map.iter_mut().enumerate() {
                *m = 10_000 + c as u32;
            }
            // Renamed writers not yet completed, and outstanding barriers
            // `(seq, is_branch)`.
            let mut incomplete: Vec<(RegClass, u8, u64)> = Vec::new();
            let mut barriers: Vec<(u64, bool)> = Vec::new();
            for op in ops {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                match op {
                    Op::Rename(fp, v) => {
                        let class = if fp { RegClass::Fp } else { RegClass::Int };
                        phys += 1;
                        let prev = std::mem::replace(&mut map[chain(class, v)], phys);
                        rig.rename(class, v, prev, seq);
                        ring.mapping_retired(class, v, prev, seq);
                        incomplete.push((class, v, seq));
                        seq += 1;
                    }
                    Op::Barrier(branch) => {
                        rig.eng.barrier_inserted(seq);
                        ring.barrier_inserted(seq);
                        barriers.push((seq, branch));
                        seq += 1;
                    }
                    Op::Complete(pick) if !incomplete.is_empty() => {
                        let (class, v, s) = incomplete.remove(pick % incomplete.len());
                        got = rig.complete(class, v, s);
                        ring.writer_completed(class, v, s, &mut want);
                    }
                    Op::BarrierDone(pick) if !barriers.is_empty() => {
                        let (s, _) = barriers.remove(pick % barriers.len());
                        got = rig.barrier_done(s);
                        ring.barrier_completed(s, &mut want);
                    }
                    Op::Squash(pick) => {
                        let branches: Vec<u64> =
                            barriers.iter().filter(|b| b.1).map(|b| b.0).collect();
                        if branches.is_empty() {
                            continue;
                        }
                        let boundary = branches[pick % branches.len()];
                        for &(class, v, s) in rig.writers.iter().rev() {
                            if s <= boundary {
                                break;
                            }
                            let (prev, _) = rig.chains.retired_by(s);
                            map[chain(class, v)] = prev;
                            ring.rollback_retirement(class, v, s);
                        }
                        got = rig.squash(boundary);
                        ring.squash_younger_than(boundary, &mut want);
                        rig.eng.barrier_completed_into(boundary, &rig.chains, &mut got);
                        ring.barrier_completed(boundary, &mut want);
                        incomplete.retain(|w| w.2 <= boundary);
                        barriers.retain(|b| b.0 < boundary);
                        seq = boundary + 1;
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(&got, &want, "kills after {:?}", rig.writers.last());
                proptest::prop_assert_eq!(rig.eng.watermark(), ring.watermark());
                proptest::prop_assert_eq!(
                    rig.eng.retired_pending(&rig.chains),
                    ring.retired_pending()
                );
            }
        }
    }
}
