//! Machine configuration.

use rf_isa::{IssueLimits, OpKind};
use rf_bpred::PredictorKind;
use rf_mem::{CacheConfig, CacheOrg};
use std::fmt;

/// The exception model, which determines when physical registers are freed.
///
/// See Section 2.2 of the paper. Under **precise** exceptions a physical
/// register `p` (the previous mapping of virtual register `v`) is freed
/// when the next instruction writing `v` *commits*; this guarantees the
/// exact machine state can be recovered at any instruction boundary. Under
/// **imprecise** exceptions `p` is freed as soon as (1) its writer has
/// *completed*, (2) all of its readers have completed, and (3) *any* later
/// writer of `v` has completed with every branch preceding that writer
/// complete — which still suffices to recover from mispredicted branches
/// without software assistance, but not from arbitrary exceptions.
///
/// The paper's imprecise model is deliberately more imprecise than the
/// Alpha architecture's (memory operations are imprecise too), making it a
/// lower bound on register requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionModel {
    /// Registers free at commit of the overwriting instruction.
    Precise,
    /// Registers free at completion, under the three conditions above.
    Imprecise,
    /// An Alpha-style hybrid (extension, not in the paper's experiments):
    /// arithmetic is imprecise but memory operations may fault precisely,
    /// so condition (3) requires every *branch and memory operation*
    /// preceding the killing writer to have completed. The paper notes
    /// its fully-imprecise model is a lower bound on exactly this kind of
    /// hybrid.
    AlphaHybrid,
}

impl fmt::Display for ExceptionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExceptionModel::Precise => f.write_str("precise"),
            ExceptionModel::Imprecise => f.write_str("imprecise"),
            ExceptionModel::AlphaHybrid => f.write_str("alpha-hybrid"),
        }
    }
}

/// The scheduler's selection policy among ready instructions.
///
/// The paper uses a greedy scheduler that "issues the earliest
/// instructions in the program order first"; the alternative is provided
/// as an ablation (it degrades commit throughput because old instructions
/// gate commitment and register freeing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Greedy oldest-first (the paper's policy).
    #[default]
    OldestFirst,
    /// Greedy youngest-first (ablation).
    YoungestFirst,
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::OldestFirst => f.write_str("oldest-first"),
            SchedPolicy::YoungestFirst => f.write_str("youngest-first"),
        }
    }
}

/// Configuration of one simulated machine, built with a fluent builder.
///
/// Defaults reproduce the paper's baseline for the given issue width:
/// dispatch queue of `8 x width` entries, 2048 physical registers per
/// class (the "effectively unlimited" configuration), precise exceptions,
/// and the baseline lockup-free cache.
///
/// # Examples
///
/// ```
/// use rf_core::{ExceptionModel, MachineConfig};
/// use rf_mem::CacheOrg;
///
/// let config = MachineConfig::new(8)
///     .dispatch_queue(64)
///     .physical_regs(128)
///     .exceptions(ExceptionModel::Imprecise)
///     .cache(CacheOrg::Perfect);
/// assert_eq!(config.width(), 8);
/// assert_eq!(config.limits().commit_bandwidth(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    width: usize,
    dq_size: usize,
    phys_regs: usize,
    exceptions: ExceptionModel,
    cache_org: CacheOrg,
    cache_config: CacheConfig,
    sched: SchedPolicy,
    insert_bw: Option<usize>,
    split_queues: bool,
    icache: Option<(CacheConfig, u64)>,
    reorder_limit: Option<usize>,
    predictor: PredictorKind,
}

impl MachineConfig {
    /// Minimum physical registers per class: with 31 renameable virtual
    /// registers, at least one additional register is needed to retire a
    /// mapping, and the paper notes systems below 32 deadlock.
    pub const MIN_PHYS_REGS: usize = 32;

    /// Creates a configuration for a machine of the given issue width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "issue width must be positive");
        Self {
            width,
            dq_size: width * 8,
            phys_regs: 2048,
            exceptions: ExceptionModel::Precise,
            cache_org: CacheOrg::LockupFree,
            cache_config: CacheConfig::baseline(),
            sched: SchedPolicy::OldestFirst,
            insert_bw: None,
            split_queues: false,
            icache: None,
            reorder_limit: None,
            predictor: PredictorKind::Combining,
        }
    }

    /// Sets the dispatch-queue size (paper sweeps 8–256).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn dispatch_queue(mut self, entries: usize) -> Self {
        assert!(entries > 0, "dispatch queue must have at least one entry");
        self.dq_size = entries;
        self
    }

    /// Sets the number of physical registers in *each* of the integer and
    /// floating-point register files (paper sweeps 32–2048).
    ///
    /// # Panics
    ///
    /// Panics if `regs < Self::MIN_PHYS_REGS` (the machine would deadlock).
    pub fn physical_regs(mut self, regs: usize) -> Self {
        assert!(
            regs >= Self::MIN_PHYS_REGS,
            "fewer than {} physical registers deadlocks the renamer",
            Self::MIN_PHYS_REGS
        );
        self.phys_regs = regs;
        self
    }

    /// Selects the exception model.
    pub fn exceptions(mut self, model: ExceptionModel) -> Self {
        self.exceptions = model;
        self
    }

    /// Selects the data-cache organisation (baseline geometry).
    pub fn cache(mut self, org: CacheOrg) -> Self {
        self.cache_org = org;
        self
    }

    /// Overrides the data-cache geometry.
    pub fn cache_config(mut self, config: CacheConfig) -> Self {
        self.cache_config = config;
        self
    }

    /// Selects the scheduler policy (ablation; the paper uses
    /// oldest-first).
    pub fn scheduling(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Overrides the dispatch-queue insertion bandwidth (ablation; the
    /// paper inserts up to `1.5 x width` per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `per_cycle == 0`.
    pub fn insert_bandwidth(mut self, per_cycle: usize) -> Self {
        assert!(per_cycle > 0, "insertion bandwidth must be positive");
        self.insert_bw = Some(per_cycle);
        self
    }

    /// Splits the unified dispatch queue into two half-sized queues
    /// (extension): floating-point arithmetic dispatches to one, all
    /// other instructions to the other — the multi-queue organisation the
    /// paper mentions real processors use ("one or more different
    /// dispatch queues for different types of instructions") but does not
    /// itself simulate. Scheduling is unchanged; only capacity is
    /// partitioned, so an imbalanced instruction mix can stall insertion
    /// earlier than a unified queue of the same total size.
    pub fn split_dispatch_queues(mut self, split: bool) -> Self {
        self.split_queues = split;
        self
    }

    /// Whether the dispatch queue is split (see
    /// [`MachineConfig::split_dispatch_queues`]).
    pub fn has_split_queues(&self) -> bool {
        self.split_queues
    }

    /// Enables a finite instruction cache with the given geometry and
    /// fixed miss penalty (extension). The paper assumes a fixed-penalty
    /// I-cache with under 1% miss rate that never interferes with data
    /// misses; the default (disabled) models it as perfect.
    pub fn instruction_cache(mut self, config: CacheConfig, penalty: u64) -> Self {
        self.icache = Some((config, penalty));
        self
    }

    /// The instruction-cache configuration, if enabled.
    pub fn icache_config(&self) -> Option<(CacheConfig, u64)> {
        self.icache
    }

    /// Bounds the number of renamed, uncommitted instructions (extension):
    /// a reorder-buffer/active-list capacity. The paper's machine is
    /// unbounded here — in-flight count is limited only by registers and
    /// the dispatch queue — which is how a single instruction can be
    /// hundreds of slots out of sequence (its Figure 5 discussion); real
    /// machines bound it (e.g. the R10000's 32-entry active list).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn reorder_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "reorder limit must be positive");
        self.reorder_limit = Some(limit);
        self
    }

    /// The reorder-buffer capacity, if bounded.
    pub fn reorder_capacity(&self) -> Option<usize> {
        self.reorder_limit
    }

    /// Selects the branch-predictor kind (ablation; the paper uses the
    /// combining predictor).
    pub fn predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = kind;
        self
    }

    /// The configured branch-predictor kind.
    pub fn predictor_kind(&self) -> PredictorKind {
        self.predictor
    }

    /// The issue width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-class issue limits (and insert/commit bandwidths).
    pub fn limits(&self) -> IssueLimits {
        IssueLimits::for_width(self.width)
    }

    /// The longest delay from issue to completion any instruction can
    /// have on this machine: the slowest functional unit, or the slowest
    /// load under this cache geometry. Bounds the completion wheel.
    pub fn max_completion_delay(&self) -> u64 {
        OpKind::ALL
            .iter()
            .filter(|&&kind| kind != OpKind::Load)
            .map(|kind| u64::from(kind.latency()))
            .chain([self.cache_config.max_load_latency()])
            .max()
            .expect("at least one operation kind")
    }

    /// Dispatch-queue entries.
    pub fn dq_size(&self) -> usize {
        self.dq_size
    }

    /// Physical registers per class.
    pub fn phys_regs(&self) -> usize {
        self.phys_regs
    }

    /// The exception model.
    pub fn exception_model(&self) -> ExceptionModel {
        self.exceptions
    }

    /// The cache organisation.
    pub fn cache_org(&self) -> CacheOrg {
        self.cache_org
    }

    /// The cache geometry.
    pub fn cache_geometry(&self) -> CacheConfig {
        self.cache_config
    }

    /// The scheduler policy.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched
    }

    /// The effective insertion bandwidth per cycle.
    pub fn effective_insert_bandwidth(&self) -> usize {
        self.insert_bw.unwrap_or_else(|| self.limits().insert_bandwidth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline() {
        let c = MachineConfig::new(4);
        assert_eq!(c.dq_size(), 32);
        assert_eq!(c.phys_regs(), 2048);
        assert_eq!(c.exception_model(), ExceptionModel::Precise);
        assert_eq!(c.cache_org(), CacheOrg::LockupFree);
        let e = MachineConfig::new(8);
        assert_eq!(e.dq_size(), 64);
    }

    #[test]
    #[should_panic(expected = "deadlocks")]
    fn too_few_registers_panics() {
        let _ = MachineConfig::new(4).physical_regs(31);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = MachineConfig::new(0);
    }

    #[test]
    fn builder_chains() {
        let c = MachineConfig::new(4)
            .dispatch_queue(16)
            .physical_regs(48)
            .exceptions(ExceptionModel::Imprecise)
            .cache(CacheOrg::Lockup);
        assert_eq!(c.dq_size(), 16);
        assert_eq!(c.phys_regs(), 48);
        assert_eq!(c.exception_model(), ExceptionModel::Imprecise);
        assert_eq!(c.cache_org(), CacheOrg::Lockup);
    }

    #[test]
    fn completion_delay_bound_covers_the_slowest_unit_and_load() {
        // Baseline: a miss (1 + 16 + 1) outlasts the 16-cycle divider.
        assert_eq!(MachineConfig::new(4).max_completion_delay(), 18);
        // A fast next level leaves the divider as the bound.
        let fast = MachineConfig::new(4).cache_config(CacheConfig::new(8192, 1, 32, 1, 4));
        assert_eq!(fast.max_completion_delay(), 16);
        let slow = MachineConfig::new(4).cache_config(CacheConfig::new(8192, 1, 32, 1, 100));
        assert_eq!(slow.max_completion_delay(), 102);
    }

    #[test]
    fn display_for_models() {
        assert_eq!(ExceptionModel::Precise.to_string(), "precise");
        assert_eq!(ExceptionModel::Imprecise.to_string(), "imprecise");
        assert_eq!(ExceptionModel::AlphaHybrid.to_string(), "alpha-hybrid");
    }
}
