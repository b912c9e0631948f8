//! The active list: every renamed, not-yet-committed instruction in
//! program order.

use crate::imprecise::WriterChain;
use rf_bpred::{HistoryCheckpoint, Prediction};
use rf_isa::{IssueClass, OpKind, RegClass};
use std::fmt;

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

/// A renamed source operand packed into 32 bits: a physical register of
/// one class, or no register (an absent source or a zero-register read).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Src(u32);

impl Src {
    /// No source register.
    pub const NONE: Src = Src(u32::MAX);
    /// The class bit: set for floating-point registers.
    const FP: u32 = 1 << 31;

    /// Physical register `phys` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `phys` does not fit in 31 bits.
    #[inline]
    pub fn new(class: RegClass, phys: u32) -> Self {
        assert!(phys < Self::FP - 1, "physical register {phys} out of range");
        Src(match class {
            RegClass::Int => phys,
            RegClass::Fp => phys | Self::FP,
        })
    }

    /// The register as `(class, phys)`, or `None` for no register.
    #[inline]
    pub fn get(self) -> Option<(RegClass, u32)> {
        if self == Self::NONE {
            return None;
        }
        let class = if self.0 & Self::FP == 0 { RegClass::Int } else { RegClass::Fp };
        Some((class, self.0 & !Self::FP))
    }
}

impl fmt::Debug for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// One renamed in-flight instruction: the hot per-entry state every
/// pipeline phase reads, one cache line per entry. Rarely used fields
/// live in [`ColdEntry`].
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub struct ActiveEntry {
    /// Monotonic program-order sequence number.
    pub seq: u64,
    /// Memory address for loads/stores, [`NO_ADDR`] otherwise (read it
    /// through [`ActiveEntry::mem_addr`]).
    pub(crate) addr: u64,
    /// The low 32 bits of the absolute cycle at which the result is
    /// produced (valid once issued; compare through
    /// `ActiveEntry::completes_at`). Every pending completion lies
    /// within the completion wheel's horizon of the current cycle, far
    /// below 2^32 cycles, so the truncated cycle is exact.
    pub complete_at: u32,
    /// Renamed destination: `(class, new_phys, virtual_index, prev_phys)`.
    pub dest: Option<(RegClass, u32, u8, u32)>,
    /// A writer's link on its virtual register's writer chain: the
    /// distance back to the previous writer of the same virtual register
    /// (0 ends the chain). See [`crate::WriterChain`].
    pub(crate) writer_link: u32,
    /// Renamed physical sources (zero-register reads excluded).
    pub srcs: [Src; 2],
    /// Waiter-chain links, one per source slot: while the slot's source
    /// is unready, the distance from this slot's node to the next older
    /// node on the same register's chain (0 ends the chain). See
    /// [`ActiveList::wake_chain`].
    pub(crate) links: [u32; 2],
    /// Address-chain link of a load or store: from insert until it
    /// completes or is squashed, the distance to the next older
    /// incomplete memory operation at the same address (0 ends the
    /// chain). See [`ActiveList::release_mem`].
    pub(crate) mem_link: u32,
    /// Older incomplete memory operations at the same address that this
    /// one must wait for: stores for a load, loads and stores for a
    /// store. Meaningful only while [`Stage::InQueue`].
    pub(crate) blockers: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Whether this instruction was fetched down a mispredicted path.
    pub wrong_path: bool,
    /// Current stage.
    pub stage: Stage,
    /// Renamed sources whose register was not ready at insert and whose
    /// producer has not completed since: the entry is data-ready when
    /// this reaches zero. Meaningful only while [`Stage::InQueue`].
    pub(crate) unready: u8,
}

// The issue select, completion and wake-up walks all touch the hot ring:
// one entry per cache line.
const _: () = assert!(std::mem::size_of::<ActiveEntry>() <= 64);

/// [`ActiveEntry::addr`] of an entry that is not a load or store.
pub(crate) const NO_ADDR: u64 = u64::MAX;

/// Chain head of a register no in-queue source is waiting on, and of an
/// address no incomplete memory operation touches.
pub(crate) const NO_WAITER: u64 = u64::MAX;

/// Number of issue classes: the ready set keeps one bitset per class.
pub(crate) const CLASSES: usize = IssueClass::ALL.len();

/// A waiter-chain node: source `slot` (0 or 1) of entry `seq`. Node ids
/// grow with program order, so a chain pushed youngest-first is strictly
/// decreasing and its links are positive.
#[inline]
pub(crate) fn waiter_node(seq: u64, slot: usize) -> u64 {
    2 * seq + slot as u64
}

/// Whether the memory operation `younger` must wait for the incomplete
/// older one `older` at the same address: a store waits for every older
/// access, a load only for older stores.
#[inline]
pub(crate) fn mem_conflict(older: OpKind, younger: OpKind) -> bool {
    older == OpKind::Store || younger == OpKind::Store
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

    /// Whether no older incomplete memory operation at the same address
    /// holds this one back (meaningful only while [`Stage::InQueue`];
    /// always true for operations that are not loads or stores).
    #[inline]
    pub(crate) fn hazard_free(&self) -> bool {
        self.blockers == 0
    }

    /// Whether an issued entry's result arrives at cycle `now`.
    #[inline]
    pub(crate) fn completes_at(&self, now: u64) -> bool {
        self.complete_at == now as u32
    }

    /// The renamed source registers, slot order.
    #[inline]
    pub(crate) fn src_regs(&self) -> impl Iterator<Item = (RegClass, u32)> {
        self.srcs.into_iter().filter_map(Src::get)
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
    /// Program counter (predictor indexing, observer events).
    pub pc: u64,
}

/// The contents of a ring slot no live entry owns.
pub(crate) const VACANT: ActiveEntry = ActiveEntry {
    seq: 0,
    addr: NO_ADDR,
    complete_at: u32::MAX,
    dest: None,
    writer_link: 0,
    srcs: [Src::NONE; 2],
    links: [0, 0],
    mem_link: 0,
    blockers: 0,
    kind: OpKind::IntAlu,
    wrong_path: false,
    stage: Stage::Completed,
    unready: 0,
};

/// Initial ring capacity in entries (a power of two, a multiple of 64).
const INITIAL_CAP: usize = 256;

/// Index of the memory class.
const MEM: usize = IssueClass::Memory.index();

/// The active list: a seq-indexed ring of in-flight instructions.
///
/// Sequence numbers are dense — every renamed instruction is appended —
/// so the live window `front..next_seq` maps onto ring slots
/// `seq & (cap - 1)` without collisions while the ring holds at most
/// `cap` entries. Entries leave from the front at commit and from the
/// back at squash; both preserve density. The hot entries, the cold side
/// ring and the ready sets share one power-of-two capacity and grow
/// together.
///
/// The list also keeps the issue phase's *ready sets*: one bitset per
/// [`IssueClass`] over the ring, marking the in-queue entries that can
/// issue — every source register ready and no older incomplete memory
/// operation at the same address in the way. Entries move in and out
/// through the list's own transitions (push, the wake-up walks, issue,
/// removal), so the sets are exact at every phase boundary.
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
/// assert_eq!(list.cold(b).unwrap().pc, 8);
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
    /// The ready sets: word `pos / 64` of each class's bitset over ring
    /// positions, the five classes of one word side by side.
    ready: Vec<[u64; CLASSES]>,
    /// Data-ready in-queue loads and stores, hazard-blocked ones
    /// included: the memory operations a locked cache turns away.
    mem_ready: u32,
}

impl Default for ActiveList {
    fn default() -> Self {
        Self::new()
    }
}

/// A read-only view of an [`ActiveList`]'s ready sets for the issue
/// select (see `select.rs`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadySets<'a> {
    /// Ready-set words, indexed like `ActiveList::ready`.
    pub words: &'a [[u64; CLASSES]],
    /// Ring position mask.
    pub mask: u64,
    /// Oldest live sequence number.
    pub head: u64,
    /// One past the youngest live sequence number.
    pub end: u64,
    /// Data-ready in-queue memory operations, hazard-blocked included.
    pub mem_ready: u32,
}

impl ActiveList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::new_in((Vec::new(), Vec::new(), Vec::new()))
    }

    /// As [`ActiveList::new`], reusing previously allocated buffers
    /// (contents are discarded, capacity is kept).
    pub(crate) fn new_in(
        (mut entries, mut cold, mut ready): (Vec<ActiveEntry>, Vec<ColdEntry>, Vec<[u64; CLASSES]>),
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
        ready.clear();
        ready.resize(cap / 64, [0; CLASSES]);
        Self { entries, cold, head: 0, next_seq: 0, mask: cap as u64 - 1, ready, mem_ready: 0 }
    }

    /// Tears the list down into its raw buffers for arena recycling.
    pub(crate) fn into_buffers(self) -> (Vec<ActiveEntry>, Vec<ColdEntry>, Vec<[u64; CLASSES]>) {
        (self.entries, self.cold, self.ready)
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Marks ring position `pos` ready in `class`'s set.
    #[inline]
    fn set_ready(&mut self, pos: usize, class: usize) {
        self.ready[pos / 64][class] |= 1 << (pos % 64);
    }

    /// An in-queue entry at `pos` just became data-ready: count it if it
    /// is a memory operation, and make it ready unless an address hazard
    /// still holds it back.
    #[inline]
    fn data_became_ready(&mut self, pos: usize) {
        let e = &self.entries[pos];
        let class = e.kind.issue_class().index();
        let free = e.blockers == 0;
        if class == MEM {
            self.mem_ready += 1;
        }
        if free {
            self.set_ready(pos, class);
        }
    }

    /// The entry at `pos` stops being an issue candidate (issue, commit,
    /// squash): it leaves its ready set and the data-ready memory count.
    #[inline]
    fn leave_queue(&mut self, pos: usize) {
        let e = &self.entries[pos];
        if e.stage != Stage::InQueue || e.unready != 0 {
            return;
        }
        let class = e.kind.issue_class().index();
        if class == MEM {
            self.mem_ready -= 1;
        }
        self.ready[pos / 64][class] &= !(1 << (pos % 64));
    }

    /// Doubles the shared capacity, moving the live window to its new
    /// slots. Ready bits move with their entries.
    #[cold]
    fn grow(&mut self) {
        let cap = 2 * self.entries.len();
        let new_mask = cap as u64 - 1;
        let mut entries = vec![VACANT; cap];
        let mut cold = vec![ColdEntry::default(); cap];
        let mut ready = vec![[0u64; CLASSES]; cap / 64];
        for seq in self.head..self.next_seq {
            let (old, new) = (self.slot(seq), (seq & new_mask) as usize);
            entries[new] = self.entries[old];
            cold[new] = self.cold[old];
            for (class, word) in self.ready[old / 64].iter().enumerate() {
                ready[new / 64][class] |= (word >> (old % 64) & 1) << (new % 64);
            }
        }
        self.entries = entries;
        self.cold = cold;
        self.ready = ready;
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
    /// last unready source this was becomes data-ready (and ready, unless
    /// an address hazard holds it back). Leaves the chain empty.
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
                self.data_became_ready(pos);
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

    /// Links `entry` (the load or store about to be pushed) at the head
    /// of its address's chain of incomplete memory operations, youngest
    /// first. Its `blockers` count is the caller's to set.
    #[inline]
    pub(crate) fn link_mem(head: &mut u64, entry: &mut ActiveEntry) {
        debug_assert!(*head == NO_WAITER || entry.seq - *head <= u64::from(u32::MAX));
        entry.mem_link = if *head == NO_WAITER { 0 } else { (entry.seq - *head) as u32 };
        *head = entry.seq;
    }

    /// Removes the completing memory operation `seq` from its address's
    /// chain and releases the younger operations it held back: each one
    /// that conflicts with it loses a blocker, and those left with none
    /// (and data-ready) enter the memory ready set.
    ///
    /// Every younger conflicting operation is still in the queue: it
    /// could not issue while `seq` was incomplete.
    pub(crate) fn release_mem(&mut self, head: &mut u64, seq: u64) {
        let kind = self.entries[self.slot(seq)].kind;
        let mut younger = None;
        let mut node = *head;
        while node != seq {
            debug_assert!(node != NO_WAITER && node > seq, "{seq} is on its address chain");
            let pos = self.slot(node);
            let e = &mut self.entries[pos];
            if mem_conflict(kind, e.kind) {
                debug_assert!(e.stage == Stage::InQueue && e.blockers > 0, "{node} is blocked");
                e.blockers -= 1;
                if e.blockers == 0 && e.unready == 0 {
                    self.set_ready(pos, MEM);
                }
            }
            younger = Some(pos);
            let link = u64::from(self.entries[pos].mem_link);
            debug_assert!(link != 0, "a younger chain node links onward");
            node -= link;
        }
        let link = self.entries[self.slot(seq)].mem_link;
        match younger {
            None => *head = if link == 0 { NO_WAITER } else { seq - u64::from(link) },
            Some(pos) => {
                let e = &mut self.entries[pos];
                e.mem_link = if link == 0 { 0 } else { e.mem_link + link };
            }
        }
    }

    /// Unlinks a squashed load or store from its address's chain. Squash
    /// runs youngest-first, so it heads the chain and holds nothing back.
    #[inline]
    pub(crate) fn unlink_mem(head: &mut u64, entry: &ActiveEntry) {
        debug_assert_eq!(*head, entry.seq, "a squashed memory operation heads its chain");
        let link = entry.mem_link;
        *head = if link == 0 { NO_WAITER } else { entry.seq - u64::from(link) };
    }

    /// The ready sets, for the issue select.
    #[inline]
    pub(crate) fn ready_sets(&self) -> ReadySets<'_> {
        ReadySets {
            words: &self.ready,
            mask: self.mask,
            head: self.head,
            end: self.next_seq,
            mem_ready: self.mem_ready,
        }
    }

    /// Appends a fresh entry in the dispatch-queue stage with no sources
    /// waiting (so it is ready at once), returning its sequence number.
    /// Renaming can be filled in afterwards via [`ActiveList::get_mut`]
    /// and [`ActiveList::cold_mut`].
    pub fn push(&mut self, kind: OpKind, wrong_path: bool, pc: u64) -> u64 {
        let seq = self.next_seq;
        self.push_with(|e, c| {
            *e = ActiveEntry { seq, kind, wrong_path, stage: Stage::InQueue, ..VACANT };
            *c = ColdEntry { pc, ..ColdEntry::default() };
        });
        seq
    }

    /// Appends a prepared entry whose `seq` is [`ActiveList::next_seq`].
    #[cfg(test)]
    pub(crate) fn push_entry(&mut self, entry: ActiveEntry, cold: ColdEntry) {
        self.push_with(|e, c| {
            *e = entry;
            *c = cold;
        });
    }

    /// Appends the entry [`ActiveList::next_seq`], which `fill` writes in
    /// place into its ring slots (hot and cold). Renaming writes the
    /// fields straight into the ring instead of building the entry
    /// elsewhere and copying it. An in-queue entry with no unready
    /// source then enters the ready sets (its slot's bits were cleared
    /// when the slot's previous owner left).
    #[inline]
    pub(crate) fn push_with(&mut self, fill: impl FnOnce(&mut ActiveEntry, &mut ColdEntry)) {
        if self.len() == self.entries.len() {
            self.grow();
        }
        let pos = self.slot(self.next_seq);
        fill(&mut self.entries[pos], &mut self.cold[pos]);
        let e = &self.entries[pos];
        debug_assert_eq!(e.seq, self.next_seq, "entries are pushed in seq order");
        let ready = e.stage == Stage::InQueue && e.unready == 0;
        self.next_seq += 1;
        if ready {
            self.data_became_ready(pos);
        }
    }

    /// Issues the in-queue entry `seq`: it leaves the ready sets and moves
    /// to [`Stage::Issued`]. Returns the entry for the caller to fill in.
    #[inline]
    pub(crate) fn issue(&mut self, seq: u64) -> &mut ActiveEntry {
        debug_assert!(self.live(seq));
        let pos = self.slot(seq);
        debug_assert_eq!(self.entries[pos].stage, Stage::InQueue);
        self.leave_queue(pos);
        let e = &mut self.entries[pos];
        e.stage = Stage::Issued;
        e
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
    #[inline]
    pub fn pop_front(&mut self) -> Option<ActiveEntry> {
        let e = *self.front()?;
        self.leave_queue(self.slot(e.seq));
        self.head += 1;
        Some(e)
    }

    /// Removes and returns the youngest entry (squash rollback). The
    /// squashed sequence number is reused by the next push, keeping the
    /// list dense in `seq`; the pipeline must therefore purge every
    /// reference to squashed sequence numbers during recovery (it does:
    /// fills are cancelled, outstanding-barrier and pending-kill records
    /// are truncated to the squash boundary).
    #[inline]
    pub fn pop_back(&mut self) -> Option<ActiveEntry> {
        let e = *self.back()?;
        self.leave_queue(self.slot(e.seq));
        self.next_seq = e.seq;
        Some(e)
    }

    /// The live entry `seq`, which the caller knows is in flight.
    #[inline]
    pub(crate) fn at(&self, seq: u64) -> &ActiveEntry {
        debug_assert!(self.live(seq), "entry {seq} is in flight");
        &self.entries[self.slot(seq)]
    }

    /// The cold state of the entry `seq` that [`ActiveList::pop_back`]
    /// just removed (its slot is untouched until the next push).
    #[inline]
    pub(crate) fn popped_cold(&self, seq: u64) -> &ColdEntry {
        debug_assert_eq!(seq, self.next_seq, "entry {seq} was just popped");
        &self.cold[self.slot(seq)]
    }

    /// The youngest in-flight entry.
    pub fn back(&self) -> Option<&ActiveEntry> {
        self.get(self.next_seq.wrapping_sub(1))
    }

    /// Iterates oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &ActiveEntry> {
        (self.head..self.next_seq).map(|seq| &self.entries[self.slot(seq)])
    }

    /// Whether `seq` is in `class`'s ready set.
    #[cfg(test)]
    pub(crate) fn in_ready_set(&self, seq: u64, class: usize) -> bool {
        let pos = self.slot(seq);
        self.ready[pos / 64][class] >> (pos % 64) & 1 == 1
    }

    /// The ready entries of every class, oldest to youngest.
    #[cfg(test)]
    pub(crate) fn ready_seqs(&self) -> Vec<u64> {
        (self.head..self.next_seq)
            .filter(|&seq| (0..CLASSES).any(|class| self.in_ready_set(seq, class)))
            .collect()
    }

    /// The count of data-ready in-queue memory operations.
    #[cfg(test)]
    pub(crate) fn mem_ready(&self) -> u32 {
        self.mem_ready
    }
}

impl WriterChain for ActiveList {
    #[inline]
    fn retired_by(&self, seq: u64) -> (u32, u32) {
        let e = self.at(seq);
        let (_, _, _, prev) = e.dest.expect("a chained entry writes a register");
        (prev, e.writer_link)
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
    fn sources_pack_class_and_register() {
        for class in RegClass::ALL {
            for phys in [0, 1, 31, 2047, (1 << 31) - 2] {
                assert_eq!(Src::new(class, phys).get(), Some((class, phys)));
            }
        }
        assert_eq!(Src::NONE.get(), None);
        let e = ActiveEntry { srcs: [Src::NONE, Src::new(RegClass::Fp, 7)], ..VACANT };
        assert_eq!(e.src_regs().collect::<Vec<_>>(), vec![(RegClass::Fp, 7)]);
    }

    #[test]
    fn truncated_completion_cycle_matches_within_the_horizon() {
        let now = (1u64 << 32) + 5;
        let e = ActiveEntry { complete_at: now as u32, ..VACANT };
        assert!(e.completes_at(now));
        assert!(!e.completes_at(now + 1));
        assert!(!e.completes_at(now - 1));
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
            let cold = list.cold(seq).unwrap();
            assert_eq!(cold.div_unit, Some(cold.pc as usize));
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
        assert!(list.ready_seqs().is_empty());
        assert_eq!(list.mem_ready(), 0);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let mut list = ActiveList::new();
        assert!(list.get(0).is_none());
        list.push(OpKind::IntAlu, false, 0);
        assert!(list.get(99).is_none());
    }

    /// The ready sets must hold exactly the entries the issue phase may
    /// select — in-queue, data-ready and hazard-free — each in its own
    /// class's set, and the memory count every data-ready in-queue load
    /// and store.
    fn assert_ready_sets_exact(list: &ActiveList) {
        let mut mem_ready = 0;
        for e in list.iter() {
            let waiting = e.stage == Stage::InQueue && e.data_ready();
            let class = e.kind.issue_class().index();
            for c in 0..CLASSES {
                let expected = waiting && e.hazard_free() && c == class;
                assert_eq!(list.in_ready_set(e.seq, c), expected, "seq {} class {c}", e.seq);
            }
            mem_ready += u32::from(waiting && class == MEM);
        }
        assert_eq!(list.mem_ready(), mem_ready);
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
        e.seq
    }

    #[test]
    fn ready_sets_track_readiness_and_stage_transitions_in_order() {
        let mut list = ActiveList::new();
        let mut r = [NO_WAITER];
        let a = push_waiting(&mut list, &mut r, OpKind::IntAlu, &[(0, 0)]);
        let b = push_waiting(&mut list, &mut r, OpKind::Load, &[(0, 0)]);
        let c = push_waiting(&mut list, &mut r, OpKind::Store, &[(0, 1)]);
        // Waiting entries are invisible until their producer completes.
        assert!(list.ready_seqs().is_empty());
        assert_eq!(list.mem_ready(), 0);
        list.wake_chain(&mut r[0]);
        assert_eq!(r[0], NO_WAITER, "a wake-up empties the chain");
        assert_eq!(list.ready_seqs(), vec![a, b, c]);
        assert!(list.in_ready_set(a, 0) && list.in_ready_set(b, MEM));
        assert_eq!(list.mem_ready(), 2);
        // Issuing drops an entry from its set regardless of kind.
        list.issue(a);
        list.issue(b);
        assert_eq!(list.ready_seqs(), vec![c]);
        assert_ready_sets_exact(&list);
        // Squash removes the remaining candidate too.
        list.pop_back();
        assert!(list.ready_seqs().is_empty());
        assert_ready_sets_exact(&list);
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
        assert_eq!(list.ready_seqs(), vec![ready]);
        list.wake_chain(&mut r[0]);
        assert_eq!(list.ready_seqs(), vec![ready, a, b]);
        assert_eq!(list.get(c).unwrap().unready, 1, "c still waits on register 1");
        // Squash youngest-first: each squashed node heads its chain.
        let e = list.pop_back().unwrap();
        assert_eq!(e.seq, d);
        ActiveList::unlink_waiter(&mut r[1], &e, 1);
        assert_eq!(r[1], waiter_node(c, 0), "the chain now starts at c");
        list.wake_chain(&mut r[1]);
        assert_eq!(list.ready_seqs(), vec![ready, a, b, c]);
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
        assert_eq!(list.ready_seqs(), seqs);
    }

    /// Pushes a data-ready memory operation at one address, linking it on
    /// the chain `head` with `blockers` counted from `(ops, stores)`, the
    /// address's incomplete operations so far.
    fn push_mem(
        list: &mut ActiveList,
        head: &mut u64,
        count: &mut (u32, u32),
        kind: OpKind,
    ) -> u64 {
        let mut e = ActiveEntry { seq: list.next_seq(), kind, stage: Stage::InQueue, ..VACANT };
        e.blockers = if kind == OpKind::Store { count.0 } else { count.1 };
        ActiveList::link_mem(head, &mut e);
        count.0 += 1;
        count.1 += u32::from(kind == OpKind::Store);
        list.push_entry(e, ColdEntry::default());
        e.seq
    }

    #[test]
    fn address_chains_release_exactly_the_conflicting_younger_operations() {
        let mut list = ActiveList::new();
        let (mut head, mut count) = (NO_WAITER, (0, 0));
        let l0 = push_mem(&mut list, &mut head, &mut count, OpKind::Load);
        let l1 = push_mem(&mut list, &mut head, &mut count, OpKind::Load);
        let s2 = push_mem(&mut list, &mut head, &mut count, OpKind::Store);
        let l3 = push_mem(&mut list, &mut head, &mut count, OpKind::Load);
        let s4 = push_mem(&mut list, &mut head, &mut count, OpKind::Store);
        let blockers =
            |list: &ActiveList| [l0, l1, s2, l3, s4].map(|s| list.get(s).unwrap().blockers);
        // Loads wait for older stores; stores for every older access.
        assert_eq!(blockers(&list), [0, 0, 2, 1, 4]);
        assert_eq!(list.ready_seqs(), vec![l0, l1]);
        assert_eq!(list.mem_ready(), 5, "hazard-blocked operations count as data-ready");
        assert_ready_sets_exact(&list);
        // The younger load completes first: only the stores lose it.
        list.issue(l1);
        list.release_mem(&mut head, l1);
        assert_eq!(blockers(&list), [0, 0, 1, 1, 3]);
        list.issue(l0);
        list.release_mem(&mut head, l0);
        assert_eq!(list.ready_seqs(), vec![s2]);
        list.issue(s2);
        list.release_mem(&mut head, s2);
        assert_eq!(blockers(&list), [0, 0, 0, 0, 1]);
        assert_eq!(list.ready_seqs(), vec![l3]);
        assert_eq!(head, s4, "the chain keeps its youngest head");
        // Squash the youngest store: it heads the chain.
        let e = list.pop_back().unwrap();
        ActiveList::unlink_mem(&mut head, &e);
        assert_eq!(head, l3);
        list.issue(l3);
        list.release_mem(&mut head, l3);
        assert_eq!(head, NO_WAITER, "the last completion empties the chain");
        assert_ready_sets_exact(&list);
    }

    #[test]
    fn ready_sets_survive_ring_growth_and_wraparound() {
        let mut list = ActiveList::new();
        let kinds =
            [OpKind::Load, OpKind::IntAlu, OpKind::FpOp, OpKind::CondBranch, OpKind::FpDiv32];
        // Push enough entries to force a ring rebuild (initial cap 256),
        // committing from the front so seq positions wrap the ring.
        for i in 0..2_000u64 {
            let mut e = ActiveEntry {
                seq: list.next_seq(),
                kind: kinds[i as usize % kinds.len()],
                stage: Stage::InQueue,
                ..VACANT
            };
            // Every other entry waits on a source; every seventh on an
            // address hazard; every third issues.
            e.unready = u8::from(i % 2 == 1);
            e.blockers = u32::from(i % 7 == 0);
            list.push_entry(e, ColdEntry::default());
            if i % 3 == 0 {
                list.issue(e.seq);
            }
            if i % 5 == 0 && list.front().is_some() {
                list.pop_front();
            }
        }
        assert_ready_sets_exact(&list);
    }
}
