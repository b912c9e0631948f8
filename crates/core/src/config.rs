//! Machine configuration, and the run specification built on it.

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

impl ExceptionModel {
    /// Every model, in the order the CLI lists them.
    pub const ALL: [Self; 3] = [Self::Precise, Self::Imprecise, Self::AlphaHybrid];
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

impl SchedPolicy {
    /// Every policy, in the order the CLI lists them.
    pub const ALL: [Self; 2] = [Self::OldestFirst, Self::YoungestFirst];
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

    /// Physical registers per class of the baseline machine.
    pub const BASELINE_PHYS_REGS: usize = 2048;
    /// Dispatch-queue entries per unit of issue width of the baseline.
    pub const DQ_PER_WIDTH: usize = 8;

    /// Creates a configuration for a machine of the given issue width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "issue width must be positive");
        Self {
            width,
            dq_size: width * Self::DQ_PER_WIDTH,
            phys_regs: Self::BASELINE_PHYS_REGS,
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

/// The suite's default commit budget per simulation, and the budget
/// [`RunSpec::baseline`] starts from.
pub const DEFAULT_COMMITS: u64 = 200_000;

/// The workload seed [`RunSpec::baseline`] starts from: the seed of the
/// suite and of the check matrix.
pub const DEFAULT_SEED: u64 = 12;

/// One simulation point: a benchmark plus a machine configuration.
///
/// A `RunSpec` captures *every* configuration dimension that influences a
/// simulation's result, so equal specs are guaranteed to produce equal
/// [`SimStats`](crate::SimStats) — which is what lets the suite plan
/// answer a spec that several harnesses read once, lets a simulation
/// batch deduplicate, and keys the durable run store. Every simulation
/// above the kernel is built from one: the suite's plans, the `rfstudy`
/// commands, the check matrix and the analytic model's summaries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Benchmark name (one of the nine SPEC92 profile names).
    pub benchmark: String,
    /// Issue width.
    pub width: usize,
    /// Dispatch-queue entries.
    pub dq: usize,
    /// Physical registers per class.
    pub regs: usize,
    /// Exception model.
    pub exceptions: ExceptionModel,
    /// Cache organisation.
    pub cache: CacheOrg,
    /// Data-cache geometry.
    pub cache_geometry: CacheConfig,
    /// Scheduler selection policy.
    pub policy: SchedPolicy,
    /// Branch-predictor kind.
    pub predictor: PredictorKind,
    /// Dispatch-queue insertion bandwidth override, if any.
    pub insert_bw: Option<usize>,
    /// Reorder-buffer capacity bound, if any.
    pub reorder: Option<usize>,
    /// Whether the dispatch queue is split into non-FP/FP halves.
    pub split_dq: bool,
    /// Instruction cache geometry and miss penalty, if enabled.
    pub icache: Option<(CacheConfig, u64)>,
    /// Committed instructions to simulate.
    pub commits: u64,
    /// Workload and simulation seed.
    pub seed: u64,
}

impl RunSpec {
    /// The paper's baseline configuration for a benchmark at an issue
    /// width: the machine of [`MachineConfig::new`] (dispatch queue of
    /// `8 x width`, 2048 registers, precise exceptions, lockup-free
    /// cache), [`DEFAULT_COMMITS`] and [`DEFAULT_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn baseline(benchmark: &str, width: usize) -> Self {
        let m = MachineConfig::new(width);
        Self {
            benchmark: benchmark.to_owned(),
            width,
            dq: m.dq_size,
            regs: m.phys_regs,
            exceptions: m.exceptions,
            cache: m.cache_org,
            cache_geometry: m.cache_config,
            policy: m.sched,
            predictor: m.predictor,
            insert_bw: m.insert_bw,
            reorder: m.reorder_limit,
            split_dq: m.split_queues,
            icache: m.icache,
            commits: DEFAULT_COMMITS,
            seed: DEFAULT_SEED,
        }
    }

    /// Sets the commit budget.
    pub fn commits(mut self, commits: u64) -> Self {
        self.commits = commits;
        self
    }

    /// Sets the dispatch-queue size.
    pub fn dq(mut self, dq: usize) -> Self {
        self.dq = dq;
        self
    }

    /// Sets the register-file size.
    pub fn regs(mut self, regs: usize) -> Self {
        self.regs = regs;
        self
    }

    /// Sets the exception model.
    pub fn exceptions(mut self, model: ExceptionModel) -> Self {
        self.exceptions = model;
        self
    }

    /// Sets the cache organisation.
    pub fn cache(mut self, org: CacheOrg) -> Self {
        self.cache = org;
        self
    }

    /// Sets the data-cache geometry.
    pub fn cache_geometry(mut self, config: CacheConfig) -> Self {
        self.cache_geometry = config;
        self
    }

    /// Sets the scheduler policy.
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the branch-predictor kind.
    pub fn predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = kind;
        self
    }

    /// Overrides the dispatch-queue insertion bandwidth.
    pub fn insert_bw(mut self, per_cycle: usize) -> Self {
        self.insert_bw = Some(per_cycle);
        self
    }

    /// Bounds the reorder buffer.
    pub fn reorder(mut self, limit: usize) -> Self {
        self.reorder = Some(limit);
        self
    }

    /// Splits the dispatch queue into non-FP/FP halves.
    pub fn split_dq(mut self, split: bool) -> Self {
        self.split_dq = split;
        self
    }

    /// Enables a finite instruction cache.
    pub fn icache(mut self, config: CacheConfig, penalty: u64) -> Self {
        self.icache = Some((config, penalty));
        self
    }

    /// The machine configuration this spec describes.
    pub fn machine_config(&self) -> MachineConfig {
        let mut config = MachineConfig::new(self.width)
            .dispatch_queue(self.dq)
            .physical_regs(self.regs)
            .exceptions(self.exceptions)
            .cache(self.cache)
            .cache_config(self.cache_geometry)
            .scheduling(self.policy)
            .predictor(self.predictor)
            .split_dispatch_queues(self.split_dq);
        if let Some(bw) = self.insert_bw {
            config = config.insert_bandwidth(bw);
        }
        if let Some(limit) = self.reorder {
            config = config.reorder_limit(limit);
        }
        if let Some((geometry, penalty)) = self.icache {
            config = config.instruction_cache(geometry, penalty);
        }
        config
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
    fn baseline_spec_matches_paper() {
        let s = RunSpec::baseline("tomcatv", 8);
        assert_eq!(s.dq, 64);
        assert_eq!(s.regs, 2048);
        assert_eq!(s.exceptions, ExceptionModel::Precise);
        assert_eq!(s.cache, CacheOrg::LockupFree);
        assert_eq!(s.policy, SchedPolicy::OldestFirst);
        assert_eq!(s.predictor, PredictorKind::Combining);
        assert!(!s.split_dq);
        assert_eq!((s.commits, s.seed), (DEFAULT_COMMITS, DEFAULT_SEED));
    }

    #[test]
    fn baseline_machine_is_the_default_machine() {
        for width in 1..=8 {
            let spec = RunSpec::baseline("gcc1", width).machine_config();
            let new = MachineConfig::new(width);
            assert_eq!(spec.width(), new.width());
            assert_eq!(spec.limits(), new.limits());
            assert_eq!(spec.max_completion_delay(), new.max_completion_delay());
            assert_eq!(spec.dq_size(), new.dq_size());
            assert_eq!(spec.phys_regs(), new.phys_regs());
            assert_eq!(spec.exception_model(), new.exception_model());
            assert_eq!(spec.cache_org(), new.cache_org());
            assert_eq!(spec.cache_geometry(), new.cache_geometry());
            assert_eq!(spec.sched_policy(), new.sched_policy());
            assert_eq!(spec.effective_insert_bandwidth(), new.effective_insert_bandwidth());
            assert_eq!(spec.has_split_queues(), new.has_split_queues());
            assert_eq!(spec.icache_config(), new.icache_config());
            assert_eq!(spec.reorder_capacity(), new.reorder_capacity());
            assert_eq!(spec.predictor_kind(), new.predictor_kind());
        }
    }

    #[test]
    fn machine_config_reflects_every_dimension() {
        let spec = RunSpec::baseline("gcc1", 4)
            .dq(16)
            .regs(48)
            .exceptions(ExceptionModel::Imprecise)
            .cache(CacheOrg::Lockup)
            .policy(SchedPolicy::YoungestFirst)
            .predictor(PredictorKind::Gshare)
            .insert_bw(2)
            .reorder(32)
            .split_dq(true)
            .icache(CacheConfig::new(16 * 1024, 2, 32, 1, 8), 8);
        let config = spec.machine_config();
        assert_eq!(config.dq_size(), 16);
        assert_eq!(config.phys_regs(), 48);
        assert_eq!(config.exception_model(), ExceptionModel::Imprecise);
        assert_eq!(config.cache_org(), CacheOrg::Lockup);
        assert_eq!(config.sched_policy(), SchedPolicy::YoungestFirst);
        assert_eq!(config.predictor_kind(), PredictorKind::Gshare);
        assert_eq!(config.effective_insert_bandwidth(), 2);
        assert_eq!(config.reorder_capacity(), Some(32));
        assert!(config.has_split_queues());
        assert!(config.icache_config().is_some());
    }

    #[test]
    fn display_for_models() {
        assert_eq!(ExceptionModel::Precise.to_string(), "precise");
        assert_eq!(ExceptionModel::Imprecise.to_string(), "imprecise");
        assert_eq!(ExceptionModel::AlphaHybrid.to_string(), "alpha-hybrid");
    }
}
