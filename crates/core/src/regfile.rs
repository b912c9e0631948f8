//! Physical register file state: allocation, liveness categories, freeing.

/// The liveness category of an allocated physical register, matching the
/// four regions of Figure 3 of the paper.
///
/// Every *allocated* register is in exactly one category; together the
/// four partition the live-register count. Registers whose writer has
/// committed but whose mapping has not yet been overwritten-and-committed
/// (i.e. current architectural state) are in
/// [`Category::WaitImprecise`] — they cannot be freed under either model
/// until a later writer of the same virtual register arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Writer still sits in the dispatch queue (allocated at insertion).
    InQueue,
    /// Writer has issued and is executing.
    InFlight,
    /// Writer completed; the imprecise freeing conditions are not yet met.
    WaitImprecise,
    /// Imprecise conditions met (would be free under the imprecise model);
    /// still held pending the precise conditions.
    WaitPrecise,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 4] =
        [Category::InQueue, Category::InFlight, Category::WaitImprecise, Category::WaitPrecise];

    /// Dense index for counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Category::InQueue => 0,
            Category::InFlight => 1,
            Category::WaitImprecise => 2,
            Category::WaitPrecise => 3,
        }
    }
}

/// One of the paper's three imprecise freeing conditions, met by an event
/// the pipeline reports through [`PhysRegFile::meet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// A renamed reader completed or was squashed.
    Reader,
    /// The writer completed.
    Writer,
    /// The mapping was killed: a later writer of the same virtual
    /// register completed with every older exception barrier resolved.
    Killed,
}

/// Per-physical-register bookkeeping.
#[derive(Debug, Clone)]
pub struct RegState {
    /// Whether the writer's result is available (writer completed) — the
    /// issue-readiness condition for readers.
    pub ready: bool,
    /// The imprecise freeing conditions still unmet, as one countdown:
    /// renamed readers not yet completed (or squashed), plus one while
    /// the writer has not completed, plus one while the mapping is not
    /// killed. The register becomes imprecise-free exactly when it
    /// reaches zero, once per allocation.
    pub outstanding: u32,
    /// Current liveness category (meaningful while allocated).
    pub category: Category,
    /// Debug builds keep the conditions apart too, to check the
    /// countdown against them.
    #[cfg(debug_assertions)]
    shadow: Shadow,
}

/// The per-condition flags the countdown folds together, kept by debug
/// builds only.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    readers: u32,
    killed: bool,
}

impl RegState {
    /// A freshly allocated register: `outstanding` conditions unmet, the
    /// writer's among them unless `ready`.
    fn fresh(ready: bool, outstanding: u32, category: Category) -> Self {
        Self {
            ready,
            outstanding,
            category,
            #[cfg(debug_assertions)]
            shadow: Shadow::default(),
        }
    }
}

impl RegState {
    /// Records `cond` met in the shadow flags and checks the countdown
    /// against them.
    #[cfg(debug_assertions)]
    fn check_countdown(&mut self, p: u32, cond: Condition) {
        let sh = &mut self.shadow;
        match cond {
            Condition::Reader => sh.readers -= 1,
            Condition::Writer => assert!(self.ready, "writer of {p} met before ready"),
            Condition::Killed => {
                assert!(!sh.killed, "mapping to {p} killed twice");
                sh.killed = true;
            }
        }
        let unmet = sh.readers + u32::from(!self.ready) + u32::from(!sh.killed);
        assert_eq!(self.outstanding, unmet, "countdown of register {p} after {cond:?}");
    }
}

impl Default for RegState {
    fn default() -> Self {
        Self::fresh(false, 0, Category::WaitImprecise)
    }
}

/// One physical register file (the machine has two: integer and FP).
///
/// Freed registers are *staged*: the paper assumes "a register can be
/// reused in the cycle after the conditions for freeing it are satisfied",
/// so frees accumulate during a cycle and only return to the free list
/// when [`PhysRegFile::end_cycle`] runs.
///
/// # Examples
///
/// ```
/// use rf_core::PhysRegFile;
///
/// let mut rf = PhysRegFile::new(34);
/// let p = rf.alloc().unwrap();
/// assert_eq!(rf.free_count(), 33);
/// rf.stage_free(p);
/// assert_eq!(rf.free_count(), 33); // not yet reusable
/// rf.end_cycle();
/// assert_eq!(rf.free_count(), 34);
/// ```
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    state: Vec<RegState>,
    /// Bitmask of free registers: bit `p % 64` of word `p / 64` is set
    /// iff register `p` is on the free list. Allocation takes the lowest
    /// free index.
    free_words: Vec<u64>,
    /// Bitmask of registers staged for freeing this cycle; merged into
    /// `free_words` by [`PhysRegFile::end_cycle`].
    staged_words: Vec<u64>,
    free_len: usize,
    staged_len: usize,
    /// Index of the lowest word that may contain a set free bit.
    free_hint: usize,
    /// Lowest word touched by `stage_free` since the last `end_cycle`
    /// (equal to `free_words.len()` when nothing is staged).
    staged_hint: usize,
    /// One past the highest word touched by `stage_free` since the last
    /// `end_cycle` (0 when nothing is staged).
    staged_end: usize,
    /// Live-category counters, kept incrementally.
    cat_counts: [u32; 4],
}

impl PhysRegFile {
    /// Creates a file of `n` registers, all free.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX as usize`.
    pub fn new(n: usize) -> Self {
        Self::new_in(n, (Vec::new(), Vec::new(), Vec::new()))
    }

    /// As [`PhysRegFile::new`], reusing previously allocated buffers
    /// (contents are discarded, capacity is kept). Used by the per-run
    /// arena to avoid re-allocating per-register state on every run.
    pub(crate) fn new_in(
        n: usize,
        buffers: (Vec<RegState>, Vec<u64>, Vec<u64>),
    ) -> Self {
        assert!(n > 0 && n <= u32::MAX as usize, "bad register file size");
        let (mut state, mut free_words, mut staged_words) = buffers;
        state.clear();
        state.resize(n, RegState::default());
        let words = n.div_ceil(64);
        free_words.clear();
        free_words.resize(words, !0u64);
        // Mask off the bits beyond register n - 1 in the top word.
        let tail = n % 64;
        if tail != 0 {
            free_words[words - 1] = (1u64 << tail) - 1;
        }
        staged_words.clear();
        staged_words.resize(words, 0);
        Self {
            state,
            free_words,
            staged_words,
            free_len: n,
            staged_len: 0,
            free_hint: 0,
            staged_hint: words,
            staged_end: 0,
            cat_counts: [0; 4],
        }
    }

    /// Tears the file down into its raw buffers so the arena can recycle
    /// their allocations for the next run.
    pub(crate) fn into_buffers(self) -> (Vec<RegState>, Vec<u64>, Vec<u64>) {
        (self.state, self.free_words, self.staged_words)
    }

    /// Total registers in the file.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the file has zero registers (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Registers currently on the free list (staged frees excluded).
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free_len
    }

    /// Allocated (live) registers. Staged frees still count as live: they
    /// are freed but unusable until next cycle, and the paper counts a
    /// register live until it can be reused.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.state.len() - self.free_len
    }

    /// Live registers under the *imprecise* model: allocated registers
    /// minus those already marked imprecise-free (the shadow engine's
    /// view when running under precise exceptions).
    #[inline]
    pub fn live_count_imprecise(&self) -> usize {
        self.live_count() - self.cat_counts[Category::WaitPrecise.index()] as usize
    }

    /// Current count of each liveness category.
    #[inline]
    pub fn category_counts(&self) -> [u32; 4] {
        self.cat_counts
    }

    /// Registers staged for freeing this cycle (reusable after
    /// [`PhysRegFile::end_cycle`]; still counted live).
    #[inline]
    pub fn staged_count(&self) -> usize {
        self.staged_len
    }

    /// Allocates a register (writer entering the dispatch queue), or
    /// `None` if the free list is empty. The lowest free index is taken,
    /// so word-wise scans from the hint terminate almost immediately.
    #[inline]
    pub fn alloc(&mut self) -> Option<u32> {
        let mut w = self.free_hint;
        while w < self.free_words.len() && self.free_words[w] == 0 {
            w += 1;
        }
        if w == self.free_words.len() {
            debug_assert_eq!(self.free_len, 0);
            return None;
        }
        self.free_hint = w;
        let bit = self.free_words[w].trailing_zeros();
        self.free_words[w] &= self.free_words[w] - 1;
        self.free_len -= 1;
        let p = (w as u32) * 64 + bit;
        debug_assert!(
            (p as usize) < self.state.len(),
            "free mask held out-of-range register {p} (file size {})",
            self.state.len()
        );
        // The writer has not completed and its mapping is not killed.
        self.state[p as usize] = RegState::fresh(false, 2, Category::InQueue);
        self.cat_counts[Category::InQueue.index()] += 1;
        Some(p)
    }

    /// Allocates a register representing committed architectural state
    /// (initial mappings): writer already "completed", category
    /// wait-imprecise, only the mapping left to kill.
    pub fn alloc_architectural(&mut self) -> Option<u32> {
        let p = self.alloc()?;
        self.transition(p, Category::InFlight);
        self.transition(p, Category::WaitImprecise);
        self.state[p as usize] = RegState::fresh(true, 1, Category::WaitImprecise);
        Some(p)
    }

    /// Whether register `p` is allocated: neither on the free list nor
    /// staged for it.
    fn is_allocated(&self, p: u32) -> bool {
        let (w, bit) = ((p / 64) as usize, 1 << (p % 64));
        (self.free_words[w] | self.staged_words[w]) & bit == 0
    }

    /// Adds one outstanding freeing condition to register `p`: a renamed
    /// reader.
    #[inline]
    pub fn hold(&mut self, p: u32) {
        let s = &mut self.state[p as usize];
        s.outstanding += 1;
        #[cfg(debug_assertions)]
        {
            s.shadow.readers += 1;
        }
    }

    /// Meets one of register `p`'s outstanding freeing conditions (for
    /// [`Condition::Writer`], after marking it ready); returns true when
    /// it was the last, so the register just became imprecise-free.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when the countdown disagrees with the
    /// conditions it folds, and when it reaches zero without the old
    /// per-flag predicate holding: allocated, not yet imprecise-free,
    /// writer complete, no reader pending, mapping killed.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn meet(&mut self, p: u32, cond: Condition) -> bool {
        let s = &mut self.state[p as usize];
        debug_assert!(s.outstanding > 0, "register {p} has no condition left to meet");
        s.outstanding -= 1;
        #[cfg(debug_assertions)]
        s.check_countdown(p, cond);
        if s.outstanding != 0 {
            return false;
        }
        debug_assert!(
            self.is_allocated(p) && self.state[p as usize].category != Category::WaitPrecise,
            "register {p}'s countdown reached zero while not held"
        );
        true
    }

    /// Direct access to a register's state.
    #[inline]
    pub fn reg(&self, p: u32) -> &RegState {
        &self.state[p as usize]
    }

    /// Mutable access to a register's state (counters are *not* adjusted;
    /// use the transition helpers for category changes).
    #[inline]
    pub fn reg_mut(&mut self, p: u32) -> &mut RegState {
        &mut self.state[p as usize]
    }

    /// Moves an allocated register to a new category, maintaining the
    /// counters.
    #[inline]
    pub fn transition(&mut self, p: u32, to: Category) {
        debug_assert!(self.is_allocated(p), "transition of unallocated register {p}");
        let s = &mut self.state[p as usize];
        self.cat_counts[s.category.index()] -= 1;
        s.category = to;
        self.cat_counts[to.index()] += 1;
    }

    /// Stages a register for freeing; it returns to the free list at
    /// [`PhysRegFile::end_cycle`].
    ///
    /// # Panics
    ///
    /// In debug builds, panics on an out-of-range index or a register
    /// that is not currently allocated (a double free).
    #[inline]
    pub fn stage_free(&mut self, p: u32) {
        debug_assert!(
            (p as usize) < self.state.len(),
            "stage_free of out-of-range register {p} (file size {})",
            self.state.len()
        );
        debug_assert!(self.is_allocated(p), "double free of register {p}");
        self.cat_counts[self.state[p as usize].category.index()] -= 1;
        let w = (p / 64) as usize;
        self.staged_words[w] |= 1 << (p % 64);
        self.staged_len += 1;
        self.staged_hint = self.staged_hint.min(w);
        self.staged_end = self.staged_end.max(w + 1);
    }

    /// Returns staged frees to the free list (call once per cycle, after
    /// the insertion phase). Merges only the staged word range
    /// `staged_hint..staged_end`, not the whole file.
    #[inline]
    pub fn end_cycle(&mut self) {
        if self.staged_len == 0 {
            return;
        }
        for w in self.staged_hint..self.staged_end {
            self.free_words[w] |= self.staged_words[w];
            self.staged_words[w] = 0;
        }
        self.free_len += self.staged_len;
        self.staged_len = 0;
        self.free_hint = self.free_hint.min(self.staged_hint);
        self.staged_hint = self.free_words.len();
        self.staged_end = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_staged_free_roundtrip() {
        let mut rf = PhysRegFile::new(33);
        let a = rf.alloc().unwrap();
        let b = rf.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(rf.live_count(), 2);
        rf.stage_free(a);
        // Staged register is no longer allocated but not yet reusable.
        assert_eq!(rf.free_count(), 31);
        assert_eq!(rf.live_count(), 2);
        rf.end_cycle();
        assert_eq!(rf.free_count(), 32);
        assert_eq!(rf.live_count(), 1);
    }

    #[test]
    fn exhausts_and_returns_none() {
        let mut rf = PhysRegFile::new(32);
        for _ in 0..32 {
            assert!(rf.alloc().is_some());
        }
        assert!(rf.alloc().is_none());
    }

    #[test]
    fn category_counters_track_transitions() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc().unwrap();
        assert_eq!(rf.category_counts(), [1, 0, 0, 0]);
        rf.transition(p, Category::InFlight);
        assert_eq!(rf.category_counts(), [0, 1, 0, 0]);
        rf.transition(p, Category::WaitImprecise);
        rf.transition(p, Category::WaitPrecise);
        assert_eq!(rf.category_counts(), [0, 0, 0, 1]);
        assert_eq!(rf.live_count_imprecise(), 0);
        assert_eq!(rf.live_count(), 1);
        rf.stage_free(p);
        assert_eq!(rf.category_counts(), [0, 0, 0, 0]);
    }

    #[test]
    fn countdown_reaches_zero_once_every_condition_is_met() {
        let mut rf = PhysRegFile::new(40);
        let p = rf.alloc().unwrap();
        assert_eq!(rf.reg(p).outstanding, 2, "writer and mapping");
        rf.hold(p);
        rf.hold(p);
        // Any order: the mapping may die before the writer completes.
        assert!(!rf.meet(p, Condition::Killed));
        assert!(!rf.meet(p, Condition::Reader));
        rf.reg_mut(p).ready = true;
        assert!(!rf.meet(p, Condition::Writer));
        assert!(rf.meet(p, Condition::Reader), "the last reader frees it");
        let arch = rf.alloc_architectural().unwrap();
        assert_eq!(rf.reg(arch).outstanding, 1, "only the mapping");
        assert!(rf.meet(arch, Condition::Killed));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "killed twice")]
    fn a_second_kill_of_one_mapping_panics_in_debug() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc().unwrap();
        rf.hold(p);
        rf.meet(p, Condition::Killed);
        rf.meet(p, Condition::Killed);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before ready")]
    fn a_writer_met_before_its_result_is_ready_panics_in_debug() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc().unwrap();
        rf.meet(p, Condition::Writer);
    }

    #[test]
    fn architectural_alloc_is_ready_and_waiting() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc_architectural().unwrap();
        assert!(rf.reg(p).ready);
        assert_eq!(rf.reg(p).category, Category::WaitImprecise);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc().unwrap();
        rf.stage_free(p);
        rf.stage_free(p);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_free_panics_in_debug() {
        let mut rf = PhysRegFile::new(33);
        rf.stage_free(1_000);
    }

    #[test]
    fn staged_count_tracks_pending_frees() {
        let mut rf = PhysRegFile::new(33);
        let p = rf.alloc().unwrap();
        assert_eq!(rf.staged_count(), 0);
        rf.stage_free(p);
        assert_eq!(rf.staged_count(), 1);
        rf.end_cycle();
        assert_eq!(rf.staged_count(), 0);
    }

    #[test]
    fn allocation_reuses_freed_registers() {
        let mut rf = PhysRegFile::new(32);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            seen.insert(rf.alloc().unwrap());
        }
        rf.stage_free(5);
        rf.end_cycle();
        assert_eq!(rf.alloc(), Some(5));
    }

    #[test]
    fn alloc_takes_the_lowest_free_index() {
        // Spans three mask words so the hint walk is exercised.
        let mut rf = PhysRegFile::new(130);
        for i in 0..130u32 {
            assert_eq!(rf.alloc(), Some(i));
        }
        rf.stage_free(100);
        rf.stage_free(3);
        rf.end_cycle();
        assert_eq!(rf.alloc(), Some(3));
        assert_eq!(rf.alloc(), Some(100));
        assert_eq!(rf.alloc(), None);
    }

    #[test]
    fn end_cycle_merges_exactly_the_staged_word_range() {
        let mut rf = PhysRegFile::new(2048);
        for i in 0..2048u32 {
            assert_eq!(rf.alloc(), Some(i));
        }
        // One cycle stages the top and a middle word, the next only the
        // bottom word: each merge must cover its own range in full.
        rf.stage_free(2047);
        rf.stage_free(700);
        rf.end_cycle();
        rf.stage_free(5);
        rf.end_cycle();
        assert_eq!(rf.free_count(), 3);
        assert_eq!(rf.alloc(), Some(5));
        assert_eq!(rf.alloc(), Some(700));
        assert_eq!(rf.alloc(), Some(2047));
        assert_eq!(rf.alloc(), None);
    }

    #[test]
    fn recycled_buffers_behave_like_fresh_ones() {
        let mut rf = PhysRegFile::new(70);
        for _ in 0..70 {
            rf.alloc().unwrap();
        }
        let buffers = rf.into_buffers();
        let mut rf = PhysRegFile::new_in(33, buffers);
        assert_eq!(rf.free_count(), 33);
        assert_eq!(rf.live_count(), 0);
        for i in 0..33u32 {
            assert_eq!(rf.alloc(), Some(i));
        }
        assert_eq!(rf.alloc(), None);
    }
}
