//! The cycle loop: complete → recover → commit → issue → insert → account.

use crate::active::{
    ActiveEntry, ActiveList, BranchInfo, ColdEntry, Src, Stage, CLASSES, NO_ADDR, NO_WAITER,
};
use crate::arena::{self, RunBuffers};
use crate::config::{ExceptionModel, MachineConfig};
use crate::fu::DividerPool;
use crate::hazard::AddrTable;
use crate::imprecise::KillEngine;
use crate::obs::{EventKind, NullObserver, Observer, StallCause, TraceEvent};
use crate::regfile::{Category, Condition, PhysRegFile};
use crate::select::{self, Budgets, IssueBlocks};
use crate::stats::{compact, SimStats};
use crate::wheel::CompletionWheel;
use rf_bpred::AnyPredictor;
use rf_isa::{Instruction, IssueClass, IssueLimits, OpKind, RegClass};
use rf_mem::{DataCache, InstructionCache};
use rf_prof::counters::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// If the machine makes no commit progress for this many cycles, the
/// simulation aborts: the configuration has deadlocked, which indicates a
/// model bug (the paper's freeing rules are deadlock-free at >= 32
/// registers).
const DEADLOCK_HORIZON: u64 = 200_000;

/// How often a running pipeline polls its [`CancelToken`]: every
/// `CANCEL_POLL_MASK + 1` (1024) cycles. Coarse enough to be free on the hot path, fine enough that a
/// cancelled multi-million-cycle run stops within microseconds.
const CANCEL_POLL_MASK: u64 = 0x3FF;

/// Process-wide fast-path telemetry: `(cycles_skipped, wakeup_events)`
/// accumulated over every run completed in this process, read from the
/// [`rf_prof::counters`] registry. A skipped cycle is one the
/// event-driven kernel proved inert and accounted in bulk; a wakeup event
/// is one idle-skip jump. Both are deterministic for a given set of
/// executed runs. Runs that panic or are cancelled count nothing.
pub fn skip_telemetry() -> (u64, u64) {
    let c = rf_prof::counters::snapshot();
    (c.get(Counter::CyclesSkipped), c.get(Counter::WakeupEvents))
}

/// A cooperative cancellation flag shared between a running simulation
/// and whoever supervises it (a batch deadline watchdog, a CLI timeout).
///
/// Cloning the token shares the underlying flag. Attach it with
/// [`Pipeline::with_cancel`]; the cycle loop polls it every 1024
/// cycles and [`Pipeline::run`] returns
/// [`Cancelled`] once it fires. A token can only transition idle →
/// cancelled; there is no reset, so a token must not be reused across
/// batches.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A simulation stopped early because its [`CancelToken`] fired.
///
/// The pipeline's partial state is discarded — there is deliberately no
/// way to read statistics out of a cancelled run, because a truncated
/// [`SimStats`] would be indistinguishable from a completed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// The cycle at which the cancellation was observed.
    pub at_cycle: u64,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation cancelled at cycle {}", self.at_cycle)
    }
}

impl std::error::Error for Cancelled {}

/// The simulated out-of-order processor.
///
/// Construct with a [`MachineConfig`], then [`run`](Pipeline::run) it over
/// a committed-path trace and a wrong-path stream. The pipeline owns all
/// microarchitectural state — rename maps, dispatch queue, active list,
/// branch predictor, data cache, register files — and produces a
/// [`SimStats`].
///
/// The type is generic over an [`Observer`] (default [`NullObserver`],
/// which monomorphizes every hook away). Attach a recorder with
/// [`Pipeline::with_observer`]; [`Pipeline::run`] returns it alongside
/// the statistics. An observer can never change the simulated schedule:
/// a traced run produces byte-identical `SimStats` to an untraced one.
///
/// See the [crate-level documentation](crate) for the modelled machine and
/// an example.
#[derive(Debug)]
pub struct Pipeline<O: Observer = NullObserver> {
    obs: O,
    config: MachineConfig,
    limits: IssueLimits,
    cache: DataCache,
    icache: Option<InstructionCache>,
    bp: AnyPredictor,
    regs: [PhysRegFile; 2],
    /// Current rename map per class, indexed by virtual register.
    map: [[u32; 31]; 2],
    active: ActiveList,
    kill: KillEngine,
    dividers: DividerPool,
    /// Issued instructions by completion cycle.
    completions: CompletionWheel,
    now: u64,
    /// Dispatch-queue occupancy: `[non-FP, FP]` when queues are split,
    /// everything in slot 0 otherwise.
    dq_counts: [usize; 2],
    /// Sequence number of the unresolved mispredicted correct-path branch
    /// (at most one can exist: fetch diverges immediately after it).
    pending_mispredict: Option<u64>,
    /// Buffered instruction whose insertion stalled, plus its path flag.
    fetch_buffer: Option<(Instruction, bool)>,
    /// Insertion suppressed until this cycle (misprediction redirect).
    fetch_resume_at: u64,
    stats: SimStats,
    /// Dense per-class counters of the precise and imprecise live counts,
    /// `phys_regs + 1` buckets each, recycled through the arena; the run
    /// hands [`SimStats`] their compact copies.
    live_hist: [Vec<u64>; 2],
    live_hist_imprecise: [Vec<u64>; 2],
    trace_done: bool,
    /// Stop committing once this many instructions have committed, so a
    /// run of `n` commits is exactly `n` (comparable IPCs across runs).
    commit_target: u64,
    // Scratch buffers reused across cycles.
    scratch_selected: Vec<u64>,
    scratch_kills: Vec<(RegClass, u32)>,
    /// The incomplete loads and stores by address: each one's blocker
    /// count and address chain (memory disambiguation).
    addrs: AddrTable,
    /// Per class, per physical register: the head of the register's
    /// waiter chain — the youngest in-queue source slot waiting for it to
    /// become ready, or `NO_WAITER`. The chain continues through the
    /// entries' links (see [`ActiveList::wake_chain`]).
    wait_heads: [Vec<u64>; 2],
    /// Cooperative cancellation flag, polled by the cycle loop.
    cancel: Option<CancelToken>,
    /// Why the most recent issue phase held back ready work.
    blocks: IssueBlocks,
    /// Cycles skipped and jumps taken by this run (flushed to the
    /// process-wide totals when the run completes).
    skipped_cycles: u64,
    wakeup_events: u64,
    /// Whether the self-profiler was enabled (`rf_prof::set_enabled`)
    /// when this pipeline was built. Spans never touch simulated
    /// state, so this cannot affect results.
    prof: bool,
    /// Whether the current step falls in a profiler sampling window —
    /// set by the run loop one step in [`rf_prof::SAMPLE_WEIGHT`], so
    /// per-phase spans cost nothing on unsampled cycles beyond one
    /// branch on this field.
    prof_gate: bool,
}

impl Pipeline<NullObserver> {
    /// Builds a pipeline in its initial state: all virtual registers
    /// mapped to architectural physical registers, everything else empty.
    pub fn new(config: MachineConfig) -> Self {
        Self::with_observer(config, NullObserver)
    }
}

impl<O: Observer> Pipeline<O> {
    /// As [`Pipeline::new`], but with `obs` attached to every lifecycle
    /// and stall hook. [`Pipeline::run`] hands it back with the
    /// statistics.
    pub fn with_observer(config: MachineConfig, mut obs: O) -> Self {
        let limits = config.limits();
        let cache = config.cache_geometry().build(config.cache_org());
        let mut buf = arena::take();
        let [state0, state1] = std::mem::take(&mut buf.reg_state);
        let [free0, free1] = std::mem::take(&mut buf.free_words);
        let [staged0, staged1] = std::mem::take(&mut buf.staged_words);
        let mut regs = [
            PhysRegFile::new_in(config.phys_regs(), (state0, free0, staged0)),
            PhysRegFile::new_in(config.phys_regs(), (state1, free1, staged1)),
        ];
        let mut map = [[0u32; 31]; 2];
        for class in RegClass::ALL {
            for (vreg, slot) in map[class.index()].iter_mut().enumerate() {
                *slot = regs[class.index()]
                    .alloc_architectural()
                    .expect("32+ registers guarantee initial mappings fit");
                if O::ACTIVE {
                    obs.arch_map(class, vreg as u8, *slot);
                }
            }
        }
        let dividers = DividerPool::new(limits[IssueClass::FpDivide]);
        let stats = SimStats::new(config.phys_regs());
        let icache =
            config.icache_config().map(|(c, penalty)| InstructionCache::new(c, penalty));
        let RunBuffers {
            entries,
            cold,
            ready,
            wheel_slots,
            wheel_occupied,
            scratch_selected,
            scratch_kills,
            addr_map,
            mut wait_heads,
            mut live_hist,
            mut live_hist_imprecise,
            ..
        } = *buf;
        for heads in &mut wait_heads {
            heads.clear();
            heads.resize(config.phys_regs(), NO_WAITER);
        }
        for hist in live_hist.iter_mut().chain(&mut live_hist_imprecise) {
            hist.clear();
            hist.resize(config.phys_regs() + 1, 0);
        }
        Self {
            obs,
            limits,
            cache,
            icache,
            bp: AnyPredictor::new(config.predictor_kind()),
            regs,
            map,
            active: ActiveList::new_in((entries, cold, ready)),
            kill: KillEngine::new(),
            dividers,
            completions: CompletionWheel::new_in(
                config.max_completion_delay(),
                (wheel_slots, wheel_occupied),
            ),
            now: 0,
            dq_counts: [0, 0],
            pending_mispredict: None,
            fetch_buffer: None,
            fetch_resume_at: 0,
            stats,
            live_hist,
            live_hist_imprecise,
            trace_done: false,
            commit_target: u64::MAX,
            scratch_selected,
            scratch_kills,
            addrs: AddrTable::new_in(addr_map),
            wait_heads,
            cancel: None,
            blocks: IssueBlocks::default(),
            skipped_cycles: 0,
            wakeup_events: 0,
            prof: rf_prof::enabled(),
            prof_gate: false,
            config,
        }
    }

    /// A sampled profiling span for the cycle hot path: `None` (free)
    /// unless this step falls in an open sampling window.
    #[inline]
    fn pspan(&self, name: &'static str) -> Option<rf_prof::Span> {
        if self.prof_gate {
            Some(rf_prof::hot_span(name))
        } else {
            None
        }
    }

    /// Attaches a cooperative cancellation token. Once the token fires,
    /// [`Pipeline::run`] returns [`Cancelled`] within 1024 cycles. A
    /// token that never fires has no
    /// effect on the simulated schedule: statistics are byte-identical
    /// with or without one attached.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration this pipeline was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Which dispatch queue an operation occupies: FP arithmetic goes to
    /// queue 1 when queues are split, everything else (and everything,
    /// when unified) to queue 0.
    fn queue_of(split: bool, kind: OpKind) -> usize {
        usize::from(
            split && matches!(kind, OpKind::FpOp | OpKind::FpDiv32 | OpKind::FpDiv64),
        )
    }

    /// Capacity of one dispatch queue.
    fn queue_cap(&self, q: usize) -> usize {
        let total = self.config.dq_size();
        if self.config.has_split_queues() {
            if q == 0 {
                total.div_ceil(2)
            } else {
                total / 2
            }
        } else if q == 0 {
            total
        } else {
            0
        }
    }

    /// Total dispatch-queue occupancy.
    fn dq_total(&self) -> usize {
        self.dq_counts[0] + self.dq_counts[1]
    }

    /// Runs the pipeline until `n_commits` instructions have committed,
    /// fetching the committed path from `trace` and wrong-path
    /// instructions from `wrong_path`. If `trace` ends first, the
    /// pipeline drains and returns early. Returns the accumulated
    /// statistics and the observer, so that whatever it recorded can be
    /// inspected or exported.
    ///
    /// Cancellation is cooperative — an attached [`CancelToken`] is
    /// polled every 1024 cycles — and destructive:
    /// the pipeline state is dropped, so a cancelled run can never leak a
    /// truncated [`SimStats`].
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the attached token fires mid-run.
    ///
    /// # Panics
    ///
    /// Panics if the machine makes no commit progress for an extended
    /// period (a deadlock, indicating a model bug).
    ///
    /// Both streams are generic so a concrete trace cursor inlines into
    /// the insert phase; `&mut dyn Iterator` callers work unchanged.
    pub fn run<T, W>(
        mut self,
        trace: &mut T,
        wrong_path: &mut W,
        n_commits: u64,
    ) -> Result<(SimStats, O), Cancelled>
    where
        T: Iterator<Item = Instruction> + ?Sized,
        W: Iterator<Item = Instruction> + ?Sized,
    {
        self.commit_target = n_commits;
        let mut last_progress = (0u64, 0u64); // (cycle, committed)
        let mut prof_steps: u64 = 0;
        while self.stats.committed < n_commits {
            // Self-profiling samples one step in `SAMPLE_WEIGHT`: the
            // gate opens for the whole iteration (step + idle-skip
            // bookkeeping) and the sampled spans scale back up by the
            // same factor. Counted in executed steps, not cycles, so
            // skipped idle windows don't starve the sample.
            let _prof_window = if self.prof {
                let sampled = prof_steps & u64::from(rf_prof::SAMPLE_WEIGHT - 1) == 0;
                prof_steps += 1;
                self.prof_gate = sampled;
                sampled.then(|| rf_prof::cycle_gate(rf_prof::SAMPLE_WEIGHT))
            } else {
                None
            };
            let inserted_before = self.stats.inserted;
            self.step(trace, wrong_path);
            if self.trace_done && self.active.is_empty() {
                break;
            }
            if self.now & CANCEL_POLL_MASK == 0
                && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            {
                return Err(Cancelled { at_cycle: self.now });
            }
            if self.stats.committed > last_progress.1 {
                last_progress = (self.now, self.stats.committed);
            } else if self.now - last_progress.0 > DEADLOCK_HORIZON {
                panic!(
                    "no commit progress for {DEADLOCK_HORIZON} cycles at cycle {} \
                     ({} committed): model deadlock",
                    self.now, self.stats.committed
                );
            }
            // Event-driven kernel: jump over cycles in which provably
            // nothing can happen, accounting for them in bulk (an observer
            // sees each of them replayed).
            if self.stats.committed < n_commits {
                let _s = self.pspan("cycle.idle_skip");
                let inserted = self.stats.inserted != inserted_before;
                if let Some((wake, stall)) = self.idle_wake(inserted, last_progress.0) {
                    // A jump can cross the masked poll cycles, so poll on
                    // every skip boundary too.
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        return Err(Cancelled { at_cycle: self.now });
                    }
                    let skipped = wake - 1 - self.now;
                    self.now = wake - 1;
                    self.skipped_cycles += skipped;
                    self.wakeup_events += 1;
                    self.account(skipped, stall, true);
                }
            }
        }
        self.stats.cache = *self.cache.stats();
        self.stats.peak_outstanding_fills = self.cache.peak_outstanding_fills();
        if let Some(ic) = &self.icache {
            self.stats.icache_miss_rate = ic.miss_rate();
        }
        if self.skipped_cycles != 0 || self.wakeup_events != 0 {
            rf_prof::counters::count(Counter::CyclesSkipped, self.skipped_cycles);
            rf_prof::counters::count(Counter::WakeupEvents, self.wakeup_events);
        }
        // The run completed: recycle its buffers for the next pipeline on
        // this thread (cancelled and panicked runs drop theirs instead).
        let Self {
            mut stats,
            live_hist,
            live_hist_imprecise,
            obs,
            regs,
            active,
            completions,
            scratch_selected,
            scratch_kills,
            addrs,
            wait_heads,
            ..
        } = self;
        let [r0, r1] = regs;
        let (state0, free0, staged0) = r0.into_buffers();
        let (state1, free1, staged1) = r1.into_buffers();
        let (entries, cold, ready) = active.into_buffers();
        let (wheel_slots, wheel_occupied) = completions.into_buffers();
        stats.live_hist = [compact(&live_hist[0]), compact(&live_hist[1])];
        stats.live_hist_imprecise =
            [compact(&live_hist_imprecise[0]), compact(&live_hist_imprecise[1])];
        arena::put(Box::new(RunBuffers {
            reg_state: [state0, state1],
            free_words: [free0, free1],
            staged_words: [staged0, staged1],
            entries,
            cold,
            ready,
            wheel_slots,
            wheel_occupied,
            scratch_selected,
            scratch_kills,
            addr_map: addrs.into_map(),
            wait_heads,
            live_hist,
            live_hist_imprecise,
        }));
        Ok((stats, obs))
    }

    /// Advances the machine one cycle.
    fn step<T, W>(&mut self, trace: &mut T, wrong_path: &mut W)
    where
        T: Iterator<Item = Instruction> + ?Sized,
        W: Iterator<Item = Instruction> + ?Sized,
    {
        self.now += 1;
        {
            let _s = self.pspan("cycle.cache_drain");
            self.cache.drain_fills(self.now);
        }
        {
            let _s = self.pspan("cycle.complete");
            self.complete_phase();
        }
        {
            let _s = self.pspan("cycle.commit");
            self.commit_phase();
        }
        {
            let _s = self.pspan("cycle.issue");
            self.issue_phase();
        }
        let stall = {
            let _s = self.pspan("cycle.insert");
            self.insert_phase(trace, wrong_path)
        };
        let _s = self.pspan("cycle.account");
        self.account(1, stall, false);
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Completes every issued instruction whose result arrives this cycle,
    /// in one pass over the cycle's wheel slot.
    ///
    /// The wheel yields the cycle's records in `seq` order, so predictor
    /// training and kill-engine events run in program order, and a
    /// mispredicted branch completes before any of the wrong-path
    /// instructions it spawned. Recovery runs *immediately* at its
    /// completion — before the kill engine's watermark may advance past
    /// wrong-path writers — and ends the pass: every later record in the
    /// slot is younger than the branch, so the recovery just squashed it.
    fn complete_phase(&mut self) {
        let now = self.now;
        let due = self.completions.take_due(now);
        for &seq in &due {
            // Lazy validation: the entry may have been squashed (and its
            // sequence number even reused) since this record was pushed.
            let Some(entry) = self
                .active
                .get_mut(seq)
                .filter(|e| e.stage == Stage::Issued && e.completes_at(now))
            else {
                continue;
            };
            entry.stage = Stage::Completed;
            // Separate spans for the entry work and recovery leave the
            // phase's self-time as the completion wheel's own cost.
            let mispredicted = {
                let _s = self.pspan("cycle.complete.entry");
                self.complete_entry(seq)
            };
            if mispredicted {
                let _s = self.pspan("cycle.complete.recover");
                self.recover(seq);
                break;
            }
        }
        self.completions.restore(now, due);
    }

    /// Completes the in-flight instruction `seq` (already marked
    /// [`Stage::Completed`]), reading it in place in the ring; returns
    /// true if it is a mispredicted correct-path branch (recovery needed).
    fn complete_entry(&mut self, seq: u64) -> bool {
        let &ActiveEntry { kind, wrong_path, dest, srcs, addr, .. } = self.active.at(seq);
        // A completed memory operation releases the younger loads and
        // stores at its address that waited for it.
        if addr != NO_ADDR {
            let active = &mut self.active;
            self.addrs.remove(addr, kind == OpKind::Store, |head| active.release_mem(head, seq));
        }
        if O::ACTIVE {
            self.obs.event(TraceEvent {
                cycle: self.now,
                seq,
                kind: EventKind::Complete,
                op: kind,
                pc: self.active.cold(seq).expect("completing entry is live").pc,
                wrong_path,
                dest: None,
                freed: None,
            });
        }

        // Source registers: this reader has completed.
        for (class, p) in srcs.into_iter().filter_map(Src::get) {
            self.meet(class, p, Condition::Reader);
        }

        // Destination register: the value is now available. Wake the
        // in-queue readers waiting on it before anything can free the
        // register (each waiter holds a count on it; the wake-up is what
        // moves them into the scan).
        if let Some((class, new, vreg, _prev)) = dest {
            let file = &mut self.regs[class.index()];
            file.reg_mut(new).ready = true;
            file.transition(new, Category::WaitImprecise);
            self.active.wake_chain(&mut self.wait_heads[class.index()][new as usize]);
            self.meet(class, new, Condition::Writer);
            // Feeding wrong-path writers to the kill engine is safe: they
            // can never gain branch clearance while their mispredicted
            // branch is outstanding, and squash purges them.
            let _s = self.pspan("kill_engine");
            let kills = &mut self.scratch_kills;
            self.kill.writer_completed_into(class, vreg, seq, &self.active, kills);
        }

        // Under the Alpha-style hybrid model, completing memory
        // operations are exception barriers whose clearance can enable
        // kills.
        if kind.is_mem()
            && !wrong_path
            && self.config.exception_model() == ExceptionModel::AlphaHybrid
        {
            let _s = self.pspan("kill_engine");
            self.kill.barrier_completed_into(seq, &self.active, &mut self.scratch_kills);
        }

        // Conditional branches: train the predictor (correct path only)
        // and check for misprediction.
        if kind == OpKind::CondBranch && !wrong_path {
            let cold = self.active.cold(seq).expect("completing entry is live");
            let (pc, info) = (cold.pc, cold.branch.expect("a branch carries its prediction"));
            let BranchInfo { prediction, actual, .. } = info;
            self.bp.train(pc, prediction, actual);
            self.stats.bpred.record(prediction.taken(), actual);
            if prediction.taken() != actual {
                // Mispredicted: the kill-engine completion of this
                // branch is deferred into recover(), which must purge
                // squashed state before the watermark (and hence any
                // kills) may advance. A branch writes no register, so no
                // kill is waiting to be applied.
                debug_assert!(self.scratch_kills.is_empty());
                return true;
            }
            let _s = self.pspan("kill_engine");
            self.kill.barrier_completed_into(seq, &self.active, &mut self.scratch_kills);
        }
        // The kills every completion above enabled, in program order:
        // they meet their registers' conditions after this entry's own
        // reads and write have.
        if !self.scratch_kills.is_empty() {
            self.apply_kills();
        }
        false
    }

    /// Applies mapping kills accumulated in `scratch_kills` (filled by the
    /// kill engine's `*_into` methods), oldest first: each killed mapping
    /// meets one of its register's outstanding conditions. Empties
    /// the buffer in place (no allocation, no buffer swap).
    #[inline]
    fn apply_kills(&mut self) {
        for i in 0..self.scratch_kills.len() {
            let (class, p) = self.scratch_kills[i];
            self.meet(class, p, Condition::Killed);
        }
        self.scratch_kills.clear();
    }

    /// Meets one of register `p`'s outstanding imprecise freeing
    /// conditions. When none remain, frees the register (imprecise model)
    /// or moves it to the wait-precise shadow category (precise model).
    #[inline]
    fn meet(&mut self, class: RegClass, p: u32, cond: Condition) {
        let file = &mut self.regs[class.index()];
        if !file.meet(p, cond) {
            return;
        }
        match self.config.exception_model() {
            ExceptionModel::Imprecise | ExceptionModel::AlphaHybrid => {
                file.stage_free(p);
                if O::ACTIVE {
                    self.obs.reg_free(self.now, class, p);
                }
            }
            ExceptionModel::Precise => file.transition(p, Category::WaitPrecise),
        }
    }

    // ------------------------------------------------------------------
    // Misprediction recovery
    // ------------------------------------------------------------------

    /// Squashes every instruction younger than the mispredicted branch,
    /// rolls back the rename map, frees squashed destination registers,
    /// cancels in-flight fills, restores the global history, and redirects
    /// fetch (resuming next cycle).
    fn recover(&mut self, branch_seq: u64) {
        while self.active.next_seq() > branch_seq + 1 {
            let e = self.active.pop_back().expect("the squashed entry is live");
            self.stats.squashed += 1;
            match e.stage {
                Stage::InQueue => {
                    let q = Self::queue_of(self.config.has_split_queues(), e.kind);
                    self.dq_counts[q] -= 1;
                }
                Stage::Issued => {
                    if e.kind == OpKind::Load {
                        self.cache.cancel(e.seq);
                    }
                    if let Some(unit) = self.active.popped_cold(e.seq).div_unit {
                        self.dividers.release_early(unit, self.now);
                    }
                }
                Stage::Completed => {}
            }
            // An in-queue entry leaves the waiter chains of its unready
            // sources (slot 1 first: its node is the younger of the two).
            if e.stage == Stage::InQueue && e.unready > 0 {
                for slot in [1, 0] {
                    if let Some((class, p)) = e.srcs[slot].get() {
                        if !self.regs[class.index()].reg(p).ready {
                            let head = &mut self.wait_heads[class.index()][p as usize];
                            ActiveList::unlink_waiter(head, &e, slot);
                        }
                    }
                }
            }
            // Readers that never completed release their register claims,
            // and incomplete memory operations leave their address chains.
            if e.stage != Stage::Completed {
                if let Some(addr) = e.mem_addr() {
                    let store = e.kind == OpKind::Store;
                    self.addrs.remove(addr, store, |head| ActiveList::unlink_mem(head, &e));
                }
                for (class, p) in e.src_regs() {
                    self.meet(class, p, Condition::Reader);
                }
            }
            // Undo the rename: restore the previous mapping, free the
            // squashed destination register.
            if let Some((class, new, vreg, prev)) = e.dest {
                debug_assert_eq!(
                    self.wait_heads[class.index()][new as usize],
                    NO_WAITER,
                    "younger waiters were squashed first"
                );
                self.map[class.index()][vreg as usize] = prev;
                self.kill.writer_squashed(class, vreg, e.seq, e.writer_link);
                self.regs[class.index()].stage_free(new);
            }
            if O::ACTIVE {
                self.obs.event(TraceEvent {
                    cycle: self.now,
                    seq: e.seq,
                    kind: EventKind::Squash,
                    op: e.kind,
                    pc: self.active.popped_cold(e.seq).pc,
                    wrong_path: e.wrong_path,
                    dest: None,
                    freed: e.dest.map(|(class, new, _, _)| (class, new)),
                });
            }
        }
        // Purge kill-engine state belonging to squashed instructions,
        // then complete the branch itself; only now may the watermark
        // advance and kills fire.
        {
            let _s = self.pspan("kill_engine");
            let (active, kills) = (&self.active, &mut self.scratch_kills);
            self.kill.squash_younger_than_into(branch_seq, active, kills);
            self.kill.barrier_completed_into(branch_seq, active, kills);
        }
        self.apply_kills();

        // Restore the global history to its pre-insertion value, then
        // shift in the actual direction.
        let cold = self.active.cold(branch_seq).expect("the branch itself survives");
        let info = cold.branch.expect("recovery target is a branch");
        self.bp.recover(info.checkpoint, info.actual);

        self.pending_mispredict = None;
        self.fetch_buffer = None;
        self.fetch_resume_at = self.now + 1;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commits up to `2 x width` completed instructions in program order.
    fn commit_phase(&mut self) {
        let mut committed_this_cycle = 0u64;
        for _ in 0..self.limits.commit_bandwidth() {
            if self.stats.committed >= self.commit_target {
                break;
            }
            let Some(front) = self.active.front() else { break };
            if front.stage != Stage::Completed {
                break;
            }
            debug_assert!(
                !front.wrong_path,
                "wrong-path instructions are squashed before reaching commit"
            );
            let pc = if O::ACTIVE { self.active.cold(front.seq).expect("live").pc } else { 0 };
            let e = self.active.pop_front().expect("front exists");
            self.stats.committed += 1;
            committed_this_cycle += 1;
            match e.kind {
                OpKind::Load => self.stats.committed_loads += 1,
                OpKind::CondBranch => self.stats.committed_cbr += 1,
                _ => {}
            }
            let mut freed = None;
            if let Some((class, _new, _vreg, prev)) = e.dest {
                if self.config.exception_model() == ExceptionModel::Precise {
                    debug_assert_eq!(
                        self.regs[class.index()].reg(prev).category,
                        Category::WaitPrecise,
                        "imprecise conditions always precede precise freeing"
                    );
                    self.regs[class.index()].stage_free(prev);
                    freed = Some((class, prev));
                }
                // Under the imprecise model the kill engine already freed
                // (or will free) `prev`; commit plays no role.
            }
            if O::ACTIVE {
                self.obs.event(TraceEvent {
                    cycle: self.now,
                    seq: e.seq,
                    kind: EventKind::Commit,
                    op: e.kind,
                    pc,
                    wrong_path: false,
                    dest: None,
                    freed,
                });
            }
        }
        // In-order commit blocked: nothing retired although instructions
        // were in flight (the head of the active list is still
        // executing). Attributed once per cycle.
        if O::ACTIVE
            && committed_this_cycle == 0
            && !self.active.is_empty()
            && self.stats.committed < self.commit_target
        {
            self.obs.stall(self.now, StallCause::CommitBlocked);
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Greedy issue under the per-class limits, with dynamic memory
    /// disambiguation: one pass over the active list's per-class ready
    /// sets in the configured policy order — oldest-first in the paper's
    /// machine (see `select.rs`). The ready sets hold exactly the
    /// in-queue entries that are data-ready and hazard-free: completion
    /// wake-ups are the only way an entry gains either, so nothing
    /// outside them could issue.
    fn issue_phase(&mut self) {
        let mut class = [0usize; CLASSES];
        for c in IssueClass::ALL {
            class[c.index()] = self.limits[c];
        }
        // A lockup (blocking) cache services one access at a time: clamp
        // memory issue to a single operation per cycle, since a miss by
        // the first would lock the cache against a second access selected
        // in the same pass.
        if self.cache.org() == rf_mem::CacheOrg::Lockup {
            let mem = IssueClass::Memory.index();
            class[mem] = class[mem].min(1);
        }
        let budgets = Budgets {
            width: self.limits.width(),
            class,
            divs_free: self.dividers.free_at(self.now),
            cache_free: self.cache.can_accept(self.now),
        };
        let youngest_first = self.config.sched_policy() == crate::SchedPolicy::YoungestFirst;
        let mut selected = std::mem::take(&mut self.scratch_selected);
        self.blocks =
            select::select(&self.active.ready_sets(), youngest_first, budgets, &mut selected);
        if O::ACTIVE {
            if self.blocks.cache {
                self.obs.stall(self.now, StallCause::CacheMissBlocked);
            }
            if self.blocks.budget || self.blocks.div {
                self.obs.stall(self.now, StallCause::FuBusy);
            }
        }
        for &seq in &selected {
            self.do_issue(seq);
        }
        selected.clear();
        self.scratch_selected = selected;
    }

    /// Issues one selected instruction: computes its completion time,
    /// reserves resources, and updates register categories.
    fn do_issue(&mut self, seq: u64) {
        let now = self.now;
        // Issued instructions leave the ready sets. (Issued memory
        // operations stay on their address chains until completion.)
        let entry = self.active.issue(seq);
        let kind = entry.kind;
        debug_assert!(entry.data_ready() && entry.hazard_free());
        let mut div_unit = None;
        let complete_at = match kind {
            OpKind::Load => {
                let addr = entry.mem_addr().expect("loads carry addresses");
                self.cache.load(addr, now, seq).complete_at()
            }
            OpKind::Store => {
                let addr = entry.mem_addr().expect("stores carry addresses");
                self.cache.store(addr, now);
                now + u64::from(OpKind::Store.latency())
            }
            OpKind::FpDiv32 | OpKind::FpDiv64 => {
                let latency = u64::from(kind.latency());
                div_unit = Some(
                    self.dividers.try_reserve(now, latency).expect("reserved during selection"),
                );
                now + latency
            }
            _ => now + u64::from(kind.latency()),
        };
        // Truncated to 32 bits: exact within the wheel's horizon.
        entry.complete_at = complete_at as u32;
        let &mut ActiveEntry { dest, wrong_path, .. } = entry;
        if div_unit.is_some() {
            self.active.cold_mut(seq).expect("still present").div_unit = div_unit;
        }
        self.completions.push(now, complete_at, seq);
        self.dq_counts[Self::queue_of(self.config.has_split_queues(), kind)] -= 1;
        self.stats.issued += 1;
        match kind {
            OpKind::Load => self.stats.issued_loads += 1,
            OpKind::CondBranch => self.stats.issued_cbr += 1,
            _ => {}
        }
        if let Some((class, new, _, _)) = dest {
            self.regs[class.index()].transition(new, Category::InFlight);
        }
        if O::ACTIVE {
            self.obs.event(TraceEvent {
                cycle: now,
                seq,
                kind: EventKind::Issue,
                op: kind,
                pc: self.active.cold(seq).expect("issued entry is live").pc,
                wrong_path,
                dest: None,
                freed: None,
            });
        }
    }

    // ------------------------------------------------------------------
    // Insert (fetch + rename + dispatch)
    // ------------------------------------------------------------------

    /// Inserts up to `1.5 x width` instructions into the dispatch queue,
    /// renaming as it goes; switches to the wrong-path stream after a
    /// mispredicted branch is inserted. Returns the stall that stopped
    /// insertion this cycle, if any (counted by [`account`](Self::account)).
    fn insert_phase<T, W>(&mut self, trace: &mut T, wrong_path: &mut W) -> Option<StallCause>
    where
        T: Iterator<Item = Instruction> + ?Sized,
        W: Iterator<Item = Instruction> + ?Sized,
    {
        if self.now < self.fetch_resume_at {
            return Some(StallCause::FetchStarved);
        }
        for _slot in 0..self.config.effective_insert_bandwidth() {
            if self.dq_total() >= self.config.dq_size() {
                return Some(StallCause::DqFull);
            }
            // Bounded reorder buffer (extension): no insertion while the
            // active list is at capacity.
            if self
                .config
                .reorder_capacity()
                .is_some_and(|cap| self.active.len() >= cap)
            {
                return Some(StallCause::DqFull);
            }
            // Fetch (or reuse the stalled buffer).
            let (inst, on_wrong_path) = match self.fetch_buffer.take() {
                Some(b) => b,
                None => {
                    let _s = self.pspan("cycle.insert.trace_gen");
                    if self.pending_mispredict.is_some() {
                        let i = wrong_path.next().expect("wrong-path stream is infinite");
                        (i, true)
                    } else {
                        match trace.next() {
                            Some(i) => (i, false),
                            None => {
                                self.trace_done = true;
                                return None;
                            }
                        }
                    }
                }
            };
            // Instruction cache: a fetch miss stalls insertion for the
            // fixed penalty (the instruction is buffered and retried).
            if let Some(ic) = self.icache.as_mut() {
                if let Some(resume) = ic.fetch(inst.pc(), self.now) {
                    self.fetch_resume_at = self.fetch_resume_at.max(resume);
                    self.fetch_buffer = Some((inst, on_wrong_path));
                    return None;
                }
            }
            // Split queues: the target queue must have room (in-order
            // insertion, so a full queue blocks everything behind it).
            let q = Self::queue_of(self.config.has_split_queues(), inst.kind());
            if self.dq_counts[q] >= self.queue_cap(q) {
                self.fetch_buffer = Some((inst, on_wrong_path));
                return Some(StallCause::DqFull);
            }
            // Rename destination; stall (buffering the instruction) if no
            // register is free.
            if let Some(d) = inst.dest() {
                if self.regs[d.class().index()].free_count() == 0 {
                    self.fetch_buffer = Some((inst, on_wrong_path));
                    return Some(StallCause::NoFreeReg);
                }
            }
            self.insert_one(inst, on_wrong_path);
        }
        None
    }

    /// Renames and dispatches one instruction.
    fn insert_one(&mut self, inst: Instruction, on_wrong_path: bool) {
        let seq = self.active.next_seq();
        // Sources first (an instruction reading and writing the same
        // virtual register reads the *old* mapping).
        let mut srcs = [Src::NONE; 2];
        for (slot, src) in srcs.iter_mut().zip(inst.srcs().iter()) {
            if let Some(r) = src {
                if !r.is_zero() {
                    let p = self.map[r.class().index()][r.index() as usize];
                    self.regs[r.class().index()].hold(p);
                    *slot = Src::new(r.class(), p);
                }
            }
        }
        // Destination.
        let mut dest = None;
        let mut writer_link = 0;
        if let Some(d) = inst.dest() {
            let class = d.class();
            let vreg = d.index();
            let new = self.regs[class.index()].alloc().expect("checked by caller");
            let prev = self.map[class.index()][vreg as usize];
            self.map[class.index()][vreg as usize] = new;
            writer_link = self.kill.writer_renamed(class, vreg, seq);
            dest = Some((class, new, vreg, prev));
        }
        // Branch prediction and speculative history update.
        let mut branch = None;
        if inst.kind() == OpKind::CondBranch {
            let prediction = self.bp.predict(inst.pc());
            let checkpoint = self.bp.speculate(prediction.taken());
            branch = Some(BranchInfo { prediction, actual: inst.taken(), checkpoint });
            if !on_wrong_path {
                self.kill.branch_inserted(seq);
                if prediction.taken() != inst.taken() {
                    debug_assert!(self.pending_mispredict.is_none());
                    self.pending_mispredict = Some(seq);
                }
            }
        }
        // Memory operations are exception barriers under the hybrid model.
        if inst.kind().is_mem()
            && !on_wrong_path
            && self.config.exception_model() == ExceptionModel::AlphaHybrid
        {
            self.kill.barrier_inserted(seq);
        }
        // Readiness: an entry enters its class's ready set only once every
        // renamed source is ready — until then each unready source slot
        // waits on its register's chain for the producer's completion —
        // and, for a load or store, once no older incomplete access to
        // its address holds it back (it joins the address chain now).
        let (regs, wait_heads, addrs) = (&self.regs, &mut self.wait_heads, &mut self.addrs);
        self.active.push_with(|entry, cold| {
            *entry = ActiveEntry {
                seq,
                addr: inst.mem().map_or(NO_ADDR, |m| m.addr()),
                complete_at: u32::MAX,
                dest,
                writer_link,
                srcs,
                links: [0, 0],
                mem_link: 0,
                blockers: 0,
                kind: inst.kind(),
                wrong_path: on_wrong_path,
                stage: Stage::InQueue,
                unready: 0,
            };
            *cold = ColdEntry { branch, div_unit: None, pc: inst.pc() };
            for (slot, src) in srcs.iter().enumerate() {
                if let Some((c, p)) = src.get() {
                    if !regs[c.index()].reg(p).ready {
                        let head = &mut wait_heads[c.index()][p as usize];
                        ActiveList::link_waiter(head, entry, slot);
                    }
                }
            }
            if entry.addr != NO_ADDR {
                let store = entry.kind == OpKind::Store;
                entry.blockers =
                    addrs.insert(entry.addr, store, |head| ActiveList::link_mem(head, entry));
            }
        });
        self.dq_counts[Self::queue_of(self.config.has_split_queues(), inst.kind())] += 1;
        self.stats.inserted += 1;
        if O::ACTIVE {
            if let Some((class, new, vreg, prev)) = dest {
                self.obs.rename(self.now, seq, class, vreg, new, prev);
            }
            self.obs.event(TraceEvent {
                cycle: self.now,
                seq,
                kind: EventKind::Insert,
                op: inst.kind(),
                pc: inst.pc(),
                wrong_path: on_wrong_path,
                dest: dest.map(|(class, new, _, prev)| (class, new, prev)),
                freed: None,
            });
        }
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Accounts the `k` cycles ending at `now`, each of which stopped
    /// insertion at `stall`: the per-cycle statistics multiplied out, then
    /// staged register frees become reusable. A stepped cycle passes `k` =
    /// 1, which folds the arithmetic back to plain increments. A `skipped`
    /// window is `k` cycles proved inert by [`idle_wake`](Self::idle_wake):
    /// every quantity read here is constant across it, and an observer
    /// sees each of its cycles as the per-cycle loop would have shown it.
    #[inline(always)]
    fn account(&mut self, k: u64, stall: Option<StallCause>, skipped: bool) {
        debug_assert!(
            !skipped || self.regs.iter().all(|f| f.staged_count() == 0),
            "a frozen machine stages nothing"
        );
        self.stats.cycles += k;
        let int_empty = self.regs[0].free_count() == 0;
        let fp_empty = self.regs[1].free_count() == 0;
        self.stats.no_free_int_cycles += k * u64::from(int_empty);
        self.stats.no_free_fp_cycles += k * u64::from(fp_empty);
        self.stats.no_free_any_cycles += k * u64::from(int_empty || fp_empty);
        self.stats.dq_occupancy_sum += k * self.dq_total() as u64;
        match stall {
            Some(StallCause::DqFull) => self.stats.insert_stall_dq_full += k,
            Some(StallCause::NoFreeReg) => self.stats.insert_stall_no_reg += k,
            _ => {}
        }
        for class in RegClass::ALL {
            let file = &self.regs[class.index()];
            self.live_hist[class.index()][file.live_count()] += k;
            self.live_hist_imprecise[class.index()][file.live_count_imprecise()] += k;
            let counts = file.category_counts();
            for (sum, &c) in
                self.stats.cat_sums[class.index()].iter_mut().zip(counts.iter())
            {
                *sum += k * u64::from(c);
            }
        }
        if O::ACTIVE {
            // A skipped cycle's commit and issue phases would have stalled
            // as the stepped cycle before it did (a budget block vetoes the
            // skip, so only the divider can leave FU work behind).
            let replayed = [
                (skipped && !self.active.is_empty(), StallCause::CommitBlocked),
                (skipped && self.blocks.cache, StallCause::CacheMissBlocked),
                (skipped && self.blocks.div, StallCause::FuBusy),
            ];
            for cycle in self.now + 1 - k..=self.now {
                for cause in replayed.iter().filter(|r| r.0).map(|r| r.1).chain(stall) {
                    self.obs.stall(cycle, cause);
                }
                for class in RegClass::ALL {
                    let file = &self.regs[class.index()];
                    let (free, live, staged) =
                        (file.free_count(), file.live_count(), file.staged_count());
                    self.obs.reg_file_state(cycle, class, free, live, staged);
                }
                self.obs.cycle_end(cycle, int_empty, fp_empty);
            }
        }
        self.regs[0].end_cycle();
        self.regs[1].end_cycle();
    }

    // ------------------------------------------------------------------
    // Event-driven kernel (idle-cycle skipping)
    // ------------------------------------------------------------------

    /// Decides, from the post-step state, whether the machine is *frozen*:
    /// no phase can change any statistic until a known future wake-up
    /// cycle. Returns `Some((wake, stall))` when cycles
    /// `now+1 ..= wake-1` are provably inert — the caller jumps `now` to
    /// `wake - 1`, accounts the gap via [`account`] with `stall` as the
    /// per-cycle insert attribution, and the next [`step`] executes cycle
    /// `wake` exactly as the per-cycle loop would have.
    ///
    /// The freeze argument, phase by phase (between wake-ups, no phase
    /// mutates state, so a decision made now holds for every skipped
    /// cycle):
    ///
    /// * **complete**: the completion wheel yields nothing before its
    ///   next occupied cycle, which caps `wake`. Post-step that cycle is
    ///   strictly in the future (the current step drained everything
    ///   due).
    /// * **commit**: in-order commit retires nothing while the active-list
    ///   head is not `Completed`; the head can only become `Completed`
    ///   through the completion wheel. An already-completed head vetoes the
    ///   skip.
    /// * **issue**: completions are the only source of new data-readiness
    ///   and the only resolver of memory hazards, so no new candidate can
    ///   appear before the wheel's next occupied cycle. A candidate passed
    ///   over by the width/class budget could issue next cycle (budgets
    ///   reset), so [`IssueBlocks::budget`] vetoes; a divider- or
    ///   cache-blocked candidate wakes when the pool or lockup window
    ///   frees, which caps `wake`.
    /// * **insert**: classified by [`classify_idle_insert`]; anything
    ///   inserted this cycle vetoes (a just-inserted entry was not an
    ///   issue candidate this cycle but is one next cycle).
    /// * **account**: per-cycle increments of frozen quantities, applied
    ///   `k`-fold by [`account`]. Staged frees are empty post-step
    ///   (asserted there in debug builds; in a sanitized run a staged
    ///   register carried across a window is a conservation violation),
    ///   so `end_cycle` is a no-op on skipped cycles.
    ///
    /// The deadlock horizon caps every jump so the no-progress panic fires
    /// at exactly the cycle the per-cycle loop would have reported.
    ///
    /// [`account`]: Self::account
    /// [`classify_idle_insert`]: Self::classify_idle_insert
    /// [`step`]: Self::step
    fn idle_wake(
        &self,
        inserted_any: bool,
        horizon_base: u64,
    ) -> Option<(u64, Option<StallCause>)> {
        if inserted_any {
            return None;
        }
        if self.active.front().is_some_and(|e| e.stage == Stage::Completed) {
            return None;
        }
        if self.blocks.budget {
            return None;
        }
        let (stall, insert_cap) = self.classify_idle_insert()?;
        let mut wake = insert_cap;
        if let Some(cycle) = self.completions.next_due(self.now) {
            wake = wake.min(cycle);
        }
        if self.blocks.cache {
            wake = wake.min(self.cache.next_accept_cycle());
        }
        if self.blocks.div {
            wake = wake.min(self.dividers.next_free_at());
        }
        wake = wake.min(horizon_base + DEADLOCK_HORIZON + 1);
        (wake > self.now + 1).then_some((wake, stall))
    }

    /// Classifies what the insert phase would do on every cycle of a
    /// prospective skip window: `None` means it would mutate state (fetch,
    /// insert, or probe the i-cache) and the window must not open;
    /// `Some((stall, cap))` means it is inert, stopping at `stall` (if
    /// anything) once per cycle, valid up to cycle `cap` (exclusive). The
    /// branch order mirrors `insert_phase` exactly, so the attribution
    /// matches what the per-cycle loop would have recorded.
    fn classify_idle_insert(&self) -> Option<(Option<StallCause>, u64)> {
        // Fetch starved: insert returns before touching anything, but only
        // until the redirect lands — cap the window there.
        if self.now + 1 < self.fetch_resume_at {
            return Some((Some(StallCause::FetchStarved), self.fetch_resume_at));
        }
        if self.config.effective_insert_bandwidth() == 0 {
            return Some((None, u64::MAX));
        }
        if self.dq_total() >= self.config.dq_size() {
            return Some((Some(StallCause::DqFull), u64::MAX));
        }
        if self.config.reorder_capacity().is_some_and(|cap| self.active.len() >= cap) {
            return Some((Some(StallCause::DqFull), u64::MAX));
        }
        match &self.fetch_buffer {
            Some((inst, _)) => {
                // A buffered instruction is re-probed against the i-cache
                // every retry cycle, mutating its hit/miss statistics:
                // never skip.
                if self.icache.is_some() {
                    return None;
                }
                let q = Self::queue_of(self.config.has_split_queues(), inst.kind());
                if self.dq_counts[q] >= self.queue_cap(q) {
                    return Some((Some(StallCause::DqFull), u64::MAX));
                }
                if let Some(d) = inst.dest() {
                    if self.regs[d.class().index()].free_count() == 0 {
                        return Some((Some(StallCause::NoFreeReg), u64::MAX));
                    }
                }
                // The buffered instruction would insert next cycle.
                None
            }
            None => {
                if self.pending_mispredict.is_some() {
                    // Wrong-path fetch always produces an instruction.
                    None
                } else if self.trace_done {
                    // A drained trace yields `None` forever; the insert
                    // phase just re-breaks without touching statistics.
                    Some((None, u64::MAX))
                } else {
                    // A live trace would fetch (and likely insert).
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn queue_routing_is_unified_by_default() {
        for kind in OpKind::ALL {
            assert_eq!(Pipeline::<NullObserver>::queue_of(false, kind), 0, "{kind}");
        }
    }

    #[test]
    fn queue_routing_splits_fp_arithmetic_only() {
        for kind in OpKind::ALL {
            let expected = matches!(kind, OpKind::FpOp | OpKind::FpDiv32 | OpKind::FpDiv64);
            assert_eq!(Pipeline::<NullObserver>::queue_of(true, kind) == 1, expected, "{kind}");
        }
    }

    #[test]
    fn split_queue_capacities_partition_the_total() {
        for total in [15usize, 16, 32, 33] {
            let p = Pipeline::new(
                MachineConfig::new(4).dispatch_queue(total).split_dispatch_queues(true),
            );
            assert_eq!(p.queue_cap(0) + p.queue_cap(1), total, "total {total}");
            assert!(p.queue_cap(0) >= p.queue_cap(1));
        }
        let unified = Pipeline::new(MachineConfig::new(4).dispatch_queue(32));
        assert_eq!(unified.queue_cap(0), 32);
        assert_eq!(unified.queue_cap(1), 0);
    }

    #[test]
    fn new_pipeline_reserves_architectural_mappings() {
        let p = Pipeline::new(MachineConfig::new(4).physical_regs(40));
        for class in RegClass::ALL {
            assert_eq!(p.regs[class.index()].free_count(), 40 - 31, "{class}");
            assert_eq!(p.regs[class.index()].live_count(), 31, "{class}");
        }
        assert_eq!(p.dq_total(), 0);
        assert!(p.active.is_empty());
    }

    #[test]
    fn category_counts_always_sum_to_live_registers() {
        // Run a short simulation and check the invariant at the end (it
        // is maintained incrementally, so the end state witnesses it).
        let profile = rf_workload::spec92::compress();
        let mut trace = rf_workload::TraceGenerator::new(&profile, 2);
        let mut pipeline = Pipeline::new(MachineConfig::new(4).physical_regs(64));
        let mut wp = rf_workload::WrongPathGenerator::new(&profile, 2);
        for _ in 0..2_000 {
            pipeline.step(&mut trace, &mut wp);
            for class in RegClass::ALL {
                let file = &pipeline.regs[class.index()];
                let cat_sum: u32 = file.category_counts().iter().sum();
                assert_eq!(cat_sum as usize, file.live_count(), "{class}");
            }
        }
    }

    /// Asserts the wake-up bookkeeping is exact: each in-queue entry's
    /// `unready` count equals a recount of its sources whose register is
    /// not ready, the waiter chains hold exactly those `(seq, slot)`
    /// pairs, each once; each in-queue load and store's `blockers` equals
    /// a brute-force recount of the older incomplete conflicting accesses
    /// at its address, whose chain holds exactly the incomplete ones; and
    /// every class's ready set holds exactly its in-queue entries that
    /// are data-ready and hazard-free.
    fn assert_chains_exact(p: &Pipeline) {
        use crate::active::mem_conflict;
        use std::collections::{BTreeMap, BTreeSet};
        let mut unready_srcs = BTreeSet::new();
        for e in p.active.iter().filter(|e| e.stage == Stage::InQueue) {
            let mut unready = 0;
            for (slot, (c, r)) in
                e.srcs.iter().enumerate().filter_map(|(s, src)| Some((s, src.get()?)))
            {
                if !p.regs[c.index()].reg(r).ready {
                    unready += 1;
                    unready_srcs.insert((c.index(), r, e.seq, slot));
                }
            }
            assert_eq!(e.unready, unready, "unready count of seq {} at cycle {}", e.seq, p.now);
        }
        let mut linked = BTreeSet::new();
        for (c, heads) in p.wait_heads.iter().enumerate() {
            for (r, &head) in heads.iter().enumerate() {
                let mut node = head;
                while node != NO_WAITER {
                    let (seq, slot) = (node >> 1, (node & 1) as usize);
                    let e = p.active.get(seq).expect("every chain node is a live entry");
                    assert!(
                        linked.insert((c, r as u32, seq, slot)),
                        "node ({seq}, {slot}) linked twice at cycle {}",
                        p.now
                    );
                    let link = u64::from(e.links[slot]);
                    node = if link == 0 { NO_WAITER } else { node - link };
                }
            }
        }
        assert_eq!(linked, unready_srcs, "waiter chains at cycle {}", p.now);
        // Memory disambiguation: recount by brute force.
        let incomplete: Vec<&ActiveEntry> = p
            .active
            .iter()
            .filter(|e| e.stage != Stage::Completed && e.mem_addr().is_some())
            .collect();
        let mut by_addr: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (i, e) in incomplete.iter().enumerate() {
            by_addr.entry(e.addr).or_default().push(e.seq);
            if e.stage == Stage::InQueue {
                let blockers = incomplete[..i]
                    .iter()
                    .filter(|o| o.addr == e.addr && mem_conflict(o.kind, e.kind))
                    .count();
                assert_eq!(
                    e.blockers as usize, blockers,
                    "blockers of seq {} at cycle {}",
                    e.seq, p.now
                );
            }
        }
        assert_eq!(p.addrs.len(), by_addr.len(), "tracked addresses at cycle {}", p.now);
        for (addr, seqs) in by_addr {
            let rec = p.addrs.get(addr).expect("every incomplete access's address is tracked");
            let stores = seqs
                .iter()
                .filter(|&&s| p.active.get(s).expect("live").kind == OpKind::Store)
                .count();
            assert_eq!((rec.ops as usize, rec.stores as usize), (seqs.len(), stores));
            let mut chain = Vec::new();
            let mut node = rec.head;
            while node != NO_WAITER {
                chain.push(node);
                let link = u64::from(p.active.get(node).expect("chain nodes are live").mem_link);
                node = if link == 0 { NO_WAITER } else { node - link };
            }
            chain.reverse();
            assert_eq!(chain, seqs, "address chain of {addr:#x} at cycle {}", p.now);
        }
        // The ready sets: data-ready and hazard-free, by class.
        let mut mem_ready = 0;
        for e in p.active.iter() {
            let waiting = e.stage == Stage::InQueue && e.data_ready();
            let class = e.kind.issue_class().index();
            for c in 0..CLASSES {
                assert_eq!(
                    p.active.in_ready_set(e.seq, c),
                    waiting && e.hazard_free() && c == class,
                    "ready set {c} membership of seq {} at cycle {}",
                    e.seq,
                    p.now
                );
            }
            mem_ready += u32::from(waiting && e.kind.is_mem());
        }
        assert_eq!(p.active.mem_ready(), mem_ready, "data-ready memory count at cycle {}", p.now);
    }

    #[test]
    fn waiter_chains_stay_exact_through_squash_heavy_runs() {
        use rf_mem::CacheOrg;
        let mut squashed = 0;
        for (i, width) in [4usize, 8].into_iter().enumerate() {
            for model in [ExceptionModel::Imprecise, ExceptionModel::AlphaHybrid] {
                for (j, regs) in [33usize, 36, 40].into_iter().enumerate() {
                    let profile = match j {
                        0 => rf_workload::spec92::gcc1(),
                        1 => rf_workload::spec92::compress(),
                        _ => rf_workload::spec92::espresso(),
                    };
                    let seed = (10 * i + j) as u64 + 1;
                    let mut trace = rf_workload::TraceGenerator::new(&profile, seed);
                    let mut wp = rf_workload::WrongPathGenerator::new(&profile, seed);
                    let mut p = Pipeline::new(
                        MachineConfig::new(width)
                            .physical_regs(regs)
                            .cache(CacheOrg::Lockup)
                            .exceptions(model)
                            .split_dispatch_queues(true),
                    );
                    for _ in 0..4_000 {
                        p.step(&mut trace, &mut wp);
                        assert_chains_exact(&p);
                    }
                    assert!(p.stats.committed > 0, "{width}-wide {model:?} {regs} regs stalled");
                    squashed += p.stats.squashed;
                }
            }
        }
        assert!(squashed > 1_000, "the matrix must exercise recovery: {squashed} squashed");
    }

    #[test]
    fn prefired_cancel_token_stops_the_run_early() {
        let profile = rf_workload::spec92::compress();
        let mut trace = rf_workload::TraceGenerator::new(&profile, 2);
        let mut wp = rf_workload::WrongPathGenerator::new(&profile, 1);
        let token = CancelToken::new();
        token.cancel();
        let err = Pipeline::new(MachineConfig::new(4))
            .with_cancel(token)
            .run(&mut trace, &mut wp, 1_000_000)
            .unwrap_err();
        // The poll fires on the first masked cycle boundary, long before
        // a million commits would have completed.
        assert!(err.at_cycle <= CANCEL_POLL_MASK + 1, "stopped at {}", err.at_cycle);
        assert!(format!("{err}").contains("cancelled at cycle"));
    }

    #[test]
    fn unfired_cancel_token_leaves_statistics_byte_identical() {
        let profile = rf_workload::spec92::espresso();
        let run = |with_token: bool| {
            let mut trace = rf_workload::TraceGenerator::new(&profile, 7);
            let mut wp = rf_workload::WrongPathGenerator::new(&profile, 7);
            let mut p = Pipeline::new(MachineConfig::new(4));
            if with_token {
                p = p.with_cancel(CancelToken::new());
            }
            p.run(&mut trace, &mut wp, 3_000).expect("token never fires").0
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn skip_kernel_finds_idle_windows_under_pressure() {
        // A 34-register machine spends most cycles stalled on register
        // freeing; the kernel must prove at least one multi-cycle window.
        let profile = rf_workload::spec92::compress();
        let mut trace = rf_workload::TraceGenerator::new(&profile, 3);
        let mut wp = rf_workload::WrongPathGenerator::new(&profile, 3);
        let mut p = Pipeline::new(MachineConfig::new(4).physical_regs(34));
        let mut last_progress = (0u64, 0u64);
        for _ in 0..50_000 {
            let before = p.stats.inserted;
            p.step(&mut trace, &mut wp);
            if p.stats.committed > last_progress.1 {
                last_progress = (p.now, p.stats.committed);
            }
            let inserted = p.stats.inserted != before;
            if let Some((wake, _stall)) = p.idle_wake(inserted, last_progress.0) {
                assert!(wake > p.now + 1, "a window always spans at least one cycle");
                return;
            }
        }
        panic!("no idle window found in 50k stall-heavy cycles");
    }

    #[test]
    fn cancellation_interrupts_a_long_skipping_run() {
        // The skip kernel jumps over the masked poll cycles, so the
        // boundary poll must keep a mid-run cancellation prompt even on a
        // run that would otherwise never reach its commit target.
        let profile = rf_workload::spec92::compress();
        let mut trace = rf_workload::TraceGenerator::new(&profile, 5);
        let mut wp = rf_workload::WrongPathGenerator::new(&profile, 5);
        let token = CancelToken::new();
        let t = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(25));
            t.cancel();
        });
        let start = std::time::Instant::now();
        let err = Pipeline::new(MachineConfig::new(4).physical_regs(33))
            .with_cancel(token)
            .run(&mut trace, &mut wp, u64::MAX)
            .unwrap_err();
        canceller.join().expect("canceller thread exits cleanly");
        assert!(err.at_cycle > 0);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "cancellation observed promptly"
        );
    }}
