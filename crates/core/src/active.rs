//! The active list: every renamed, not-yet-committed instruction in
//! program order.

use rf_bpred::{HistoryCheckpoint, Prediction};
use rf_isa::{OpKind, RegClass};

/// Pipeline stage of an active instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Renamed, sitting in the dispatch queue.
    InQueue,
    /// Issued to a functional unit (or the memory system).
    Issued,
    /// Completed (result produced); awaiting commit.
    Completed,
}

/// Branch bookkeeping carried by conditional-branch entries.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// The predictor's output, kept for training at execution.
    pub prediction: Prediction,
    /// The actual direction from the trace.
    pub actual: bool,
    /// Global-history checkpoint for misprediction recovery.
    pub checkpoint: HistoryCheckpoint,
}

/// One renamed in-flight instruction: the hot per-entry state every
/// pipeline phase reads. Rarely used fields live in [`ColdEntry`].
#[derive(Debug, Clone, Copy)]
pub struct ActiveEntry {
    /// Monotonic program-order sequence number.
    pub seq: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Whether this instruction was fetched down a mispredicted path.
    pub wrong_path: bool,
    /// Current stage.
    pub stage: Stage,
    /// Absolute cycle at which the result is produced (valid once issued).
    pub complete_at: u64,
    /// Renamed destination: `(class, new_phys, virtual_index, prev_phys)`.
    pub dest: Option<(RegClass, u32, u8, u32)>,
    /// Renamed physical sources (zero-register reads excluded).
    pub srcs: [Option<(RegClass, u32)>; 2],
    /// Memory address for loads/stores, [`NO_ADDR`] otherwise (read it
    /// through [`ActiveEntry::mem_addr`]).
    pub(crate) addr: u64,
    /// Renamed sources whose register was not ready at insert and whose
    /// producer has not completed since: the entry is data-ready (an
    /// issue candidate) when this reaches zero. Meaningful only while
    /// [`Stage::InQueue`].
    pub(crate) unready: u8,
    /// Waiter-chain links, one per source slot: while the slot's source
    /// is unready, the distance from this slot's node to the next older
    /// node on the same register's chain (0 ends the chain). See
    /// [`ActiveList::wake_chain`].
    pub(crate) links: [u32; 2],
    /// Program counter (predictor indexing).
    pub pc: u64,
}

// The issue scan, completion and wake-up walks all touch the hot ring.
const _: () = assert!(std::mem::size_of::<ActiveEntry>() <= 72);

/// [`ActiveEntry::addr`] of an entry that is not a load or store.
pub(crate) const NO_ADDR: u64 = u64::MAX;

/// Chain head of a register no in-queue source is waiting on.
pub(crate) const NO_WAITER: u64 = u64::MAX;

/// A waiter-chain node: source `slot` (0 or 1) of entry `seq`. Node ids
/// grow with program order, so a chain pushed youngest-first is strictly
/// decreasing and its links are positive.
#[inline]
pub(crate) fn waiter_node(seq: u64, slot: usize) -> u64 {
    2 * seq + slot as u64
}

impl ActiveEntry {
    /// Memory address for loads/stores.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        (self.addr != NO_ADDR).then_some(self.addr)
    }

    /// Whether every renamed source register is ready (meaningful only
    /// while [`Stage::InQueue`]).
    #[inline]
    pub fn data_ready(&self) -> bool {
        self.unready == 0
    }
}

/// The cold per-entry state of an in-flight instruction, kept in a side
/// ring so the hot [`ActiveEntry`] ring stays small. Written whole at
/// every push.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdEntry {
    /// Branch bookkeeping for conditional branches.
    pub branch: Option<BranchInfo>,
    /// Index of the non-pipelined divider occupied, if any.
    pub div_unit: Option<usize>,
}

/// The contents of a ring slot no live entry owns.
const VACANT: ActiveEntry = ActiveEntry {
    seq: 0,
    kind: OpKind::IntAlu,
    wrong_path: false,
    stage: Stage::Completed,
    complete_at: u64::MAX,
    dest: None,
    srcs: [None, None],
    addr: NO_ADDR,
    unready: 0,
    links: [0, 0],
    pc: 0,
};

/// Initial ring capacity in entries (a power of two, a multiple of 64).
const INITIAL_CAP: usize = 256;

/// The active list: a seq-indexed ring of in-flight instructions.
///
/// Sequence numbers are dense — every renamed instruction is appended —
/// so the live window `front..next_seq` maps onto ring slots
/// `seq & (cap - 1)` without collisions while the ring holds at most
/// `cap` entries. Entries leave from the front at commit and from the
/// back at squash; both preserve density. The hot entries, the cold side
/// ring and the issue-scan bitset share one power-of-two capacity and
/// grow together.
///
/// # Examples
///
/// ```
/// use rf_core::{ActiveList, Stage};
/// use rf_isa::OpKind;
///
/// let mut list = ActiveList::new();
/// let a = list.push(OpKind::IntAlu, false, 0);
/// let b = list.push(OpKind::Load, false, 4);
/// assert_eq!(list.get(a).unwrap().stage, Stage::InQueue);
/// assert_eq!(list.len(), 2);
/// // Commit retires the oldest entry; its sequence number goes stale.
/// assert_eq!(list.pop_front().unwrap().seq, a);
/// assert!(list.get(a).is_none());
/// // Squash rolls back the youngest; the next push reuses its number.
/// list.pop_back();
/// assert_eq!(list.push(OpKind::Store, false, 8), b);
/// assert_eq!(list.get(b).unwrap().kind, OpKind::Store);
/// ```
#[derive(Debug, Clone)]
pub struct ActiveList {
    /// Hot entries, `cap` slots indexed by `seq & mask`.
    entries: Vec<ActiveEntry>,
    /// Cold entries, indexed like `entries`.
    cold: Vec<ColdEntry>,
    /// Sequence number of the oldest live entry.
    head: u64,
    next_seq: u64,
    /// `cap - 1`, where `cap` is the shared ring capacity.
    mask: u64,
    /// Ring bitset over `seq & mask` marking the entries the issue scan
    /// must visit: in-queue entries whose source registers are all ready
    /// (the only possible issue candidates — address hazards are tracked
    /// separately by the pipeline's incremental hazard index).
    scan_words: Vec<u64>,
}

impl Default for ActiveList {
    fn default() -> Self {
        Self::new()
    }
}

impl ActiveList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::new_in((Vec::new(), Vec::new(), Vec::new()))
    }

    /// As [`ActiveList::new`], reusing previously allocated buffers
    /// (contents are discarded, capacity is kept).
    pub(crate) fn new_in(
        (mut entries, mut cold, mut scan_words): (Vec<ActiveEntry>, Vec<ColdEntry>, Vec<u64>),
    ) -> Self {
        // Start at the capacity a previous run grew to, so a recycled
        // ring does not grow (and reallocate) again.
        let cap = match entries.capacity().min(cold.capacity()) {
            0 => INITIAL_CAP,
            recycled => (1 << recycled.ilog2()).max(INITIAL_CAP),
        };
        entries.clear();
        entries.resize(cap, VACANT);
        cold.clear();
        cold.resize(cap, ColdEntry::default());
        scan_words.clear();
        scan_words.resize(cap / 64, 0);
        Self { entries, cold, head: 0, next_seq: 0, mask: cap as u64 - 1, scan_words }
    }

    /// Tears the list down into its raw buffers for arena recycling.
    pub(crate) fn into_buffers(self) -> (Vec<ActiveEntry>, Vec<ColdEntry>, Vec<u64>) {
        (self.entries, self.cold, self.scan_words)
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Adds `seq` to the issue scan: called by the pipeline when an
    /// in-queue entry becomes data-ready (at insert, or on a completion
    /// wake-up).
    #[inline]
    pub(crate) fn scan_set(&mut self, seq: u64) {
        let pos = self.slot(seq);
        self.scan_words[pos / 64] |= 1 << (pos % 64);
    }

    /// Removes `seq` from the issue scan: called when an entry stops
    /// being an issue candidate (issue, removal).
    #[inline]
    pub(crate) fn scan_retire(&mut self, seq: u64) {
        let pos = self.slot(seq);
        self.scan_words[pos / 64] &= !(1 << (pos % 64));
    }

    /// Doubles the shared capacity, moving the live window to its new
    /// slots. Scan bits move with their entries.
    #[cold]
    fn grow(&mut self) {
        let cap = 2 * self.entries.len();
        let new_mask = cap as u64 - 1;
        let mut entries = vec![VACANT; cap];
        let mut cold = vec![ColdEntry::default(); cap];
        let mut scan_words = vec![0u64; cap / 64];
        for seq in self.head..self.next_seq {
            let (old, new) = (self.slot(seq), (seq & new_mask) as usize);
            entries[new] = self.entries[old];
            cold[new] = self.cold[old];
            if self.scan_words[old / 64] >> (old % 64) & 1 == 1 {
                scan_words[new / 64] |= 1 << (new % 64);
            }
        }
        self.entries = entries;
        self.cold = cold;
        self.scan_words = scan_words;
        self.mask = new_mask;
    }

    /// Links source `slot` of `entry` (the entry about to be pushed) at
    /// the head of a register's waiter chain and counts it unready.
    #[inline]
    pub(crate) fn link_waiter(head: &mut u64, entry: &mut ActiveEntry, slot: usize) {
        let node = waiter_node(entry.seq, slot);
        debug_assert!(*head == NO_WAITER || node - *head <= u64::from(u32::MAX));
        entry.links[slot] = if *head == NO_WAITER { 0 } else { (node - *head) as u32 };
        entry.unready += 1;
        *head = node;
    }

    /// Wakes a register's waiter chain when its producer completes:
    /// every linked source slot stops being unready, and each entry whose
    /// last unready source this was enters the issue scan. Leaves the
    /// chain empty.
    ///
    /// Chains are exact — a node is linked at insert only for an unready
    /// source and unlinked by [`ActiveList::unlink_waiter`] when its
    /// entry is squashed — so every node names a live in-queue entry.
    #[inline]
    pub(crate) fn wake_chain(&mut self, head: &mut u64) {
        let mut node = std::mem::replace(head, NO_WAITER);
        while node != NO_WAITER {
            let seq = node >> 1;
            debug_assert!(self.live(seq), "waiter {seq} is live");
            let pos = self.slot(seq);
            let e = &mut self.entries[pos];
            debug_assert!(e.stage == Stage::InQueue && e.unready > 0, "waiter {seq} waits");
            e.unready -= 1;
            let link = e.links[(node & 1) as usize];
            if e.unready == 0 {
                self.scan_words[pos / 64] |= 1 << (pos % 64);
            }
            node = if link == 0 { NO_WAITER } else { node - u64::from(link) };
        }
    }

    /// Unlinks source `slot` of a squashed entry from its register's
    /// chain. Squash runs youngest-first and chains run youngest to
    /// oldest, so the node is always the chain's head.
    #[inline]
    pub(crate) fn unlink_waiter(head: &mut u64, entry: &ActiveEntry, slot: usize) {
        debug_assert_eq!(*head, waiter_node(entry.seq, slot), "squashed waiter heads its chain");
        let link = entry.links[slot];
        *head = if link == 0 { NO_WAITER } else { *head - u64::from(link) };
    }

    /// Iterates, oldest to youngest, over the sequence numbers the issue
    /// phase must visit: data-ready in-queue entries. Word-level skipping
    /// makes a scan of a mostly-waiting window O(set bits) instead of
    /// O(list length).
    pub(crate) fn scan_seqs(&self) -> ScanSeqs<'_> {
        ScanSeqs { words: &self.scan_words, mask: self.mask, next: self.head, end: self.next_seq }
    }

    /// Appends a fresh entry in the dispatch-queue stage, returning its
    /// sequence number. Renaming can be filled in afterwards via
    /// [`ActiveList::get_mut`] and [`ActiveList::cold_mut`].
    pub fn push(&mut self, kind: OpKind, wrong_path: bool, pc: u64) -> u64 {
        let seq = self.next_seq;
        self.push_entry(
            ActiveEntry {
                seq,
                kind,
                wrong_path,
                stage: Stage::InQueue,
                complete_at: u64::MAX,
                dest: None,
                srcs: [None, None],
                addr: NO_ADDR,
                unready: 0,
                links: [0, 0],
                pc,
            },
            ColdEntry::default(),
        );
        seq
    }

    /// Appends an entry the pipeline has already renamed, in one write.
    /// Its `seq` must be [`ActiveList::next_seq`]. The entry is not in
    /// the issue scan until the pipeline marks it: its slot's bit was
    /// cleared when the slot's previous owner left.
    pub(crate) fn push_entry(&mut self, entry: ActiveEntry, cold: ColdEntry) {
        debug_assert_eq!(entry.seq, self.next_seq, "entries are pushed in seq order");
        if self.len() == self.entries.len() {
            self.grow();
        }
        let pos = self.slot(entry.seq);
        self.entries[pos] = entry;
        self.cold[pos] = cold;
        self.next_seq += 1;
    }

    /// The sequence number the next pushed entry will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        (self.next_seq - self.head) as usize
    }

    /// Whether no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.head
    }

    /// Whether `seq` names a live entry.
    #[inline]
    fn live(&self, seq: u64) -> bool {
        self.head <= seq && seq < self.next_seq
    }

    /// Looks up an entry by sequence number (`None` once committed or
    /// squashed).
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&ActiveEntry> {
        self.live(seq).then(|| &self.entries[self.slot(seq)])
    }

    /// Mutable lookup by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut ActiveEntry> {
        if self.live(seq) {
            let pos = self.slot(seq);
            Some(&mut self.entries[pos])
        } else {
            None
        }
    }

    /// Looks up an entry's cold state by sequence number.
    pub fn cold(&self, seq: u64) -> Option<&ColdEntry> {
        self.live(seq).then(|| &self.cold[self.slot(seq)])
    }

    /// Mutable lookup of an entry's cold state.
    pub fn cold_mut(&mut self, seq: u64) -> Option<&mut ColdEntry> {
        if self.live(seq) {
            let pos = self.slot(seq);
            Some(&mut self.cold[pos])
        } else {
            None
        }
    }

    /// The oldest in-flight entry.
    pub fn front(&self) -> Option<&ActiveEntry> {
        self.get(self.head)
    }

    /// Removes and returns the oldest entry (commit).
    pub fn pop_front(&mut self) -> Option<ActiveEntry> {
        let e = *self.front()?;
        self.scan_retire(e.seq);
        self.head += 1;
        Some(e)
    }

    /// Removes and returns the youngest entry (squash rollback). The
    /// squashed sequence number is reused by the next push, keeping the
    /// list dense in `seq`; the pipeline must therefore purge every
    /// reference to squashed sequence numbers during recovery (it does:
    /// fills are cancelled, outstanding-barrier and pending-kill records
    /// are truncated to the squash boundary).
    pub fn pop_back(&mut self) -> Option<ActiveEntry> {
        let e = *self.back()?;
        self.scan_retire(e.seq);
        self.next_seq = e.seq;
        Some(e)
    }

    /// The youngest in-flight entry.
    pub fn back(&self) -> Option<&ActiveEntry> {
        self.get(self.next_seq.wrapping_sub(1))
    }

    /// Iterates oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &ActiveEntry> {
        (self.head..self.next_seq).map(|seq| &self.entries[self.slot(seq)])
    }
}

/// Iterator over the marked sequence numbers of an [`ActiveList`]'s issue
/// scan, oldest to youngest (see `ActiveList::scan_seqs`).
///
/// Sequence numbers map to ring positions `seq & mask`; consecutive
/// sequence numbers occupy consecutive positions, so the iterator walks
/// the window linearly, skipping 64 positions at a time through words
/// with no remaining set bits.
#[derive(Debug)]
pub(crate) struct ScanSeqs<'a> {
    words: &'a [u64],
    mask: u64,
    next: u64,
    /// One past the youngest live sequence number.
    end: u64,
}

impl Iterator for ScanSeqs<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut s = self.next;
        while s < self.end {
            let pos = (s & self.mask) as usize;
            let rest = self.words[pos / 64] >> (pos % 64);
            if rest == 0 {
                // Nothing left in this word: jump to the next boundary.
                s += 64 - (pos as u64 % 64);
                continue;
            }
            s += u64::from(rest.trailing_zeros());
            if s >= self.end {
                break;
            }
            self.next = s + 1;
            return Some(s);
        }
        self.next = s;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_indexing_survives_commits_and_squashes() {
        let mut list = ActiveList::new();
        let s0 = list.push(OpKind::IntAlu, false, 0);
        let s1 = list.push(OpKind::Load, false, 4);
        let s2 = list.push(OpKind::Store, false, 8);
        assert_eq!(list.get(s1).unwrap().kind, OpKind::Load);
        list.pop_front();
        assert!(list.get(s0).is_none());
        assert_eq!(list.get(s2).unwrap().kind, OpKind::Store);
        list.pop_back();
        assert!(list.get(s2).is_none());
        assert_eq!(list.get(s1).unwrap().kind, OpKind::Load);
    }

    #[test]
    fn seq_numbers_are_dense_and_monotonic() {
        let mut list = ActiveList::new();
        let a = list.push(OpKind::IntAlu, false, 0);
        let b = list.push(OpKind::IntAlu, false, 0);
        assert_eq!(b, a + 1);
        list.pop_back();
        let c = list.push(OpKind::IntAlu, false, 0);
        // Squashed sequence numbers are reused so the list stays dense...
        assert_eq!(c, b);
        // ...and indexing still works.
        assert_eq!(list.get(c).unwrap().seq, c);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn cold_state_follows_its_entry_through_growth() {
        let mut list = ActiveList::new();
        let mut seqs = Vec::new();
        for i in 0..1_000u64 {
            let seq = list.push(OpKind::FpDiv64, false, i);
            list.cold_mut(seq).unwrap().div_unit = Some(i as usize);
            seqs.push(seq);
            // Retire from the front now and then so the window wraps.
            if i % 4 == 0 {
                list.pop_front();
            }
        }
        assert!(list.len() > INITIAL_CAP, "the ring grew");
        for seq in seqs.into_iter().filter(|&s| list.get(s).is_some()) {
            assert_eq!(list.cold(seq).unwrap().div_unit, Some(list.get(seq).unwrap().pc as usize));
        }
        // A push resets the cold state a squashed entry left behind.
        let back = list.back().unwrap().seq;
        list.pop_back();
        assert_eq!(list.push(OpKind::IntAlu, false, 0), back);
        assert_eq!(list.cold(back).unwrap().div_unit, None);
    }

    #[test]
    fn recycled_buffers_keep_their_grown_capacity() {
        let mut list = ActiveList::new();
        for _ in 0..1_000 {
            list.push(OpKind::IntAlu, false, 0);
        }
        let list = ActiveList::new_in(list.into_buffers());
        assert!(list.is_empty());
        assert_eq!(list.entries.len(), 1024);
        assert!(list.scan_seqs().next().is_none());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let mut list = ActiveList::new();
        assert!(list.get(0).is_none());
        list.push(OpKind::IntAlu, false, 0);
        assert!(list.get(99).is_none());
    }

    /// The scan must visit exactly the entries the issue phase cares
    /// about: data-ready in-queue entries.
    fn expected_scan(list: &ActiveList) -> Vec<u64> {
        list.iter()
            .filter(|e| e.stage == Stage::InQueue && e.data_ready())
            .map(|e| e.seq)
            .collect()
    }

    /// Pushes an in-queue entry of `kind` whose source slots wait on
    /// register chains: `(register, slot)` pairs indexing `heads`.
    fn push_waiting(
        list: &mut ActiveList,
        heads: &mut [u64],
        kind: OpKind,
        waits: &[(usize, usize)],
    ) -> u64 {
        let mut e = ActiveEntry { seq: list.next_seq(), kind, stage: Stage::InQueue, ..VACANT };
        for &(reg, slot) in waits {
            ActiveList::link_waiter(&mut heads[reg], &mut e, slot);
        }
        list.push_entry(e, ColdEntry::default());
        if e.data_ready() {
            list.scan_set(e.seq);
        }
        e.seq
    }

    #[test]
    fn scan_tracks_readiness_and_stage_transitions_in_order() {
        let mut list = ActiveList::new();
        let mut r = [NO_WAITER];
        let a = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(0, 0)]);
        let b = push_waiting(&mut list, &mut r, OpKind::Load, &[(0, 0)]);
        let c = push_waiting(&mut list, &mut r, OpKind::Store, &[(0, 1)]);
        // Waiting entries are invisible until their producer completes.
        assert!(list.scan_seqs().next().is_none());
        list.wake_chain(&mut r[0]);
        assert_eq!(r[0], NO_WAITER, "a wake-up empties the chain");
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), vec![a, b, c]);
        // Issuing drops an entry from the scan regardless of kind.
        list.get_mut(a).unwrap().stage = Stage::Issued;
        list.scan_retire(a);
        list.get_mut(b).unwrap().stage = Stage::Issued;
        list.scan_retire(b);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), vec![c]);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), expected_scan(&list));
        // Squash removes the remaining candidate too.
        list.pop_back();
        assert!(list.scan_seqs().next().is_none());
    }

    #[test]
    fn waiter_chains_wake_exactly_their_linked_slots() {
        let mut list = ActiveList::new();
        let mut r = [NO_WAITER; 2];
        let ready = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[]);
        let a = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(0, 0)]);
        // Both slots read the same register: two nodes, one entry.
        let b = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(0, 0), (0, 1)]);
        let c = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(1, 0), (0, 1)]);
        let d = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(1, 1)]);
        assert_eq!(list.get(b).unwrap().unready, 2);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), vec![ready]);
        list.wake_chain(&mut r[0]);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), vec![ready, a, b]);
        assert_eq!(list.get(c).unwrap().unready, 1, "c still waits on register 1");
        // Squash youngest-first: each squashed node heads its chain.
        let e = list.pop_back().unwrap();
        assert_eq!(e.seq, d);
        ActiveList::unlink_waiter(&mut r[1], &e, 1);
        assert_eq!(r[1], waiter_node(c, 0), "the chain now starts at c");
        list.wake_chain(&mut r[1]);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), vec![ready, a, b, c]);
        assert_eq!(r[1], NO_WAITER);
    }

    #[test]
    fn waiter_chains_survive_ring_growth() {
        let mut list = ActiveList::new();
        let mut r = [NO_WAITER];
        // Start off slot 0 so the window straddles the ring boundary.
        list.push(OpKind::IntAlu, false, 0);
        list.pop_front();
        let seqs: Vec<u64> = (0..3 * INITIAL_CAP)
            .map(|i| push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(0, i % 2)]))
            .collect();
        assert!(list.entries.len() > INITIAL_CAP, "the ring grew");
        list.wake_chain(&mut r[0]);
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), seqs);
    }

    #[test]
    fn scan_survives_ring_growth_and_wraparound() {
        let mut list = ActiveList::new();
        // Push enough entries to force a ring rebuild (initial cap 256),
        // committing from the front so seq positions wrap the ring.
        for i in 0..2_000u64 {
            let seq = list.push(OpKind::Load, false, i * 4);
            // Every other entry is data-ready; every third issues
            // (leaving the scan again).
            if i % 2 == 0 {
                list.scan_set(seq);
            } else {
                list.get_mut(seq).unwrap().unready = 1;
            }
            if i % 3 == 0 {
                list.get_mut(seq).unwrap().stage = Stage::Issued;
                list.scan_retire(seq);
            }
            if i % 5 == 0 && list.front().is_some() {
                list.pop_front();
            }
        }
        assert_eq!(list.scan_seqs().collect::<Vec<_>>(), expected_scan(&list));
    }
}
