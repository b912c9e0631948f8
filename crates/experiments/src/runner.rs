//! Simulation run specifications and execution: single runs, the shared
//! run cache, and the parallel [`SimPool`] executor.
//!
//! # Fault tolerance
//!
//! Execution is fallible end to end: [`try_simulate`] maps every failure
//! mode to a typed [`RunError`] and isolates worker panics with
//! `catch_unwind` (the panicking [`Pipeline`]'s state is discarded,
//! never reused), and [`SimPool::try_run_many`] returns one
//! `Result` per spec so a batch salvages every completed result around a
//! failing one. The shared [`RunCache`] recovers from lock poisoning,
//! and batches accept an optional deadline with cooperative
//! cancellation checked both in the worker loop and inside [`Pipeline`]
//! runs via [`CancelToken`].
//!
//! # Environment variables (strict)
//!
//! Every knob the runner and the suite read is parsed strictly:
//! `RF_COMMITS`, `RF_JOBS`, `RF_CACHE`, `RF_STORE`, `RF_STORE_DIR`,
//! `RF_PROFILE`, `RF_SANITIZE`, `RF_LOG`, `RF_TELEMETRY`,
//! `RF_TELEMETRY_INTERVAL_MS` and `RF_METRICS_ADDR`. A malformed value
//! (for example `RF_COMMITS=200k` or `RF_LOG=jsn`) is an error, never a
//! silent fall-back to the default. Binaries should call
//! [`validate_env`] at startup to turn that into a clean exit instead of
//! a panic.

use rf_bpred::PredictorKind;
use rf_core::{
    CancelToken, ExceptionModel, MachineConfig, Pipeline, SchedPolicy, SimStats,
};
use rf_mem::{CacheConfig, CacheOrg};
use rf_prof::counters::{self, Counter};
use rf_workload::{spec92, TraceGenerator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long each simulation runs, in committed instructions.
///
/// The paper simulated 23–910 million instructions per benchmark; this
/// reproduction uses a fixed per-run commit budget large enough for the
/// statistics of interest (IPC, liveness percentiles) to stabilise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Committed instructions per simulation.
    pub commits: u64,
}

/// Reads an environment variable as a `u64`, strictly: unset is `None`,
/// a well-formed value is `Some`, and anything else — `RF_COMMITS=200k`,
/// an empty string, a negative number — is an error naming the variable
/// and the offending value. The old behaviour (malformed values silently
/// falling back to the default and launching a full 200k-commit run) is
/// exactly the bug this guards against.
fn env_u64(name: &str) -> Result<Option<u64>, String> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{name}={raw:?} is not a non-negative integer")),
    }
}

/// Validates every runner environment variable (see the module docs)
/// without acting on any of them, so a binary can fail fast with one
/// clear message before doing work.
///
/// # Errors
///
/// Returns the first malformed variable's error message.
pub fn validate_env() -> Result<(), String> {
    Scale::try_from_env()?;
    SimPool::try_from_env()?;
    cache_env_mode()?;
    store_env_mode()?;
    rf_prof::env_mode()?;
    rf_check::env_mode()?;
    crate::bench::LogMode::from_env()?;
    rf_obs::live::env_config()?;
    Ok(())
}

/// Validates the `RF_STORE` toggle and `RF_STORE_DIR` path for the
/// durable on-disk run store, returning the store directory when
/// enabled (unset means disabled; the default directory is
/// `results/store`). `RF_STORE_DIR` is validated even while the store
/// is off, so a typo can't lie dormant until the first `RF_STORE=1`
/// run.
///
/// # Errors
///
/// Returns a message naming the malformed value.
pub fn store_env_mode() -> Result<Option<std::path::PathBuf>, String> {
    let dir = match std::env::var("RF_STORE_DIR") {
        Err(_) => std::path::PathBuf::from("results/store"),
        Ok(raw) if raw.trim().is_empty() => {
            return Err(format!("RF_STORE_DIR={raw:?} is empty"));
        }
        Ok(raw) => std::path::PathBuf::from(raw),
    };
    match std::env::var("RF_STORE") {
        Err(_) => Ok(None),
        Ok(raw) => match raw.to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "no" => Ok(None),
            "1" | "on" | "true" | "yes" => Ok(Some(dir)),
            _ => Err(format!(
                "RF_STORE={raw:?} is not recognized (use 0/off/false/no or 1/on/true/yes)"
            )),
        },
    }
}

impl Scale {
    /// The default experiment scale (200k commits per run), overridable
    /// with the `RF_COMMITS` environment variable.
    ///
    /// # Panics
    ///
    /// Panics when `RF_COMMITS` is set to a malformed value; binaries
    /// should pre-validate with [`Scale::try_from_env`] or
    /// [`validate_env`] to report that cleanly.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Scale::from_env`], but a malformed `RF_COMMITS` is an error
    /// instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed value.
    pub fn try_from_env() -> Result<Self, String> {
        Ok(Self { commits: env_u64("RF_COMMITS")?.unwrap_or(200_000) })
    }

    /// A fast scale for tests (20k commits).
    pub fn fast() -> Self {
        Self { commits: 20_000 }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One simulation point: a benchmark plus a machine configuration.
///
/// A `RunSpec` captures *every* configuration dimension that influences a
/// simulation's result, so equal specs are guaranteed to produce equal
/// [`SimStats`] — which is what lets the [`RunCache`] share results
/// between harnesses and lets [`SimPool::run_many`] deduplicate batches.
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
    /// width: dispatch queue of `8 x width` (32 / 64), 2048 registers,
    /// precise exceptions, lockup-free cache, and the current default
    /// [`Scale`]'s commit budget.
    pub fn baseline(benchmark: &str, width: usize) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            width,
            dq: width * 8,
            regs: 2048,
            exceptions: ExceptionModel::Precise,
            cache: CacheOrg::LockupFree,
            cache_geometry: CacheConfig::baseline(),
            policy: SchedPolicy::OldestFirst,
            predictor: PredictorKind::Combining,
            insert_bw: None,
            reorder: None,
            split_dq: false,
            icache: None,
            commits: Scale::default().commits,
            seed: 12,
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
            .split_dispatch_queues(self.split_dq)
            .seed(self.seed);
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

/// Number of simulations actually executed so far in this process
/// (run-cache hits do not count), read from the [`rf_prof::counters`]
/// registry.
pub fn simulations_run() -> u64 {
    counters::snapshot().get(Counter::SimsCompleted)
}

/// Why a simulation point could not produce statistics.
///
/// Every failure is scoped to the one [`RunSpec`] that caused it:
/// [`SimPool::try_run_many`] returns one `Result` per spec, so a batch
/// salvages every completed result around a failing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The spec names a benchmark no SPEC92 profile matches.
    UnknownBenchmark {
        /// The unrecognized benchmark name.
        benchmark: String,
    },
    /// The simulation panicked; the payload is captured and the
    /// panicking [`Pipeline`]'s state was discarded.
    WorkerPanic {
        /// Benchmark whose simulation panicked.
        benchmark: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// The batch deadline elapsed before this spec's simulation
    /// completed (either it never started, or it was cooperatively
    /// cancelled mid-run and its partial state discarded).
    DeadlineExceeded {
        /// Benchmark whose simulation was abandoned.
        benchmark: String,
        /// The deadline that elapsed, in milliseconds.
        deadline_ms: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark { benchmark } => {
                write!(f, "unknown benchmark {benchmark:?}")
            }
            RunError::WorkerPanic { benchmark, payload } => {
                write!(f, "simulation of {benchmark:?} panicked: {payload}")
            }
            RunError::DeadlineExceeded { benchmark, deadline_ms } => {
                write!(
                    f,
                    "deadline of {:.3}s exceeded before {benchmark:?} completed",
                    *deadline_ms as f64 / 1e3
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Reserved benchmark name that panics inside the simulation worker —
/// the fault-injection probe the robustness tests and the CI smoke job
/// drive through the full pool/cache/suite stack. Only recognized in
/// test builds or with the `fault-probe` feature; elsewhere it is an
/// ordinary unknown benchmark.
pub const FAULT_BENCHMARK: &str = "__fault__";

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one simulation point (always executes; no caching), isolating
/// failures: an unknown benchmark, a panicking worker, or a fired
/// cancellation token each map to a typed [`RunError`] instead of
/// unwinding into the caller. Every run counts as started and then as
/// completed or failed in the [`rf_prof::counters`] registry; only a
/// completed run adds its committed instructions, cycles, stalls and
/// phase times.
///
/// # Errors
///
/// - [`RunError::UnknownBenchmark`] when the spec's benchmark has no
///   profile.
/// - [`RunError::WorkerPanic`] when the simulation panics; the payload
///   is captured and the pipeline state discarded.
/// - [`RunError::DeadlineExceeded`] when `cancel` fires mid-run
///   (`deadline_ms` stamps the message).
pub fn try_simulate(spec: &RunSpec) -> Result<SimStats, RunError> {
    try_simulate_cancellable(spec, None, 0)
}

/// As [`try_simulate`], with an optional cooperative cancellation token
/// (a fired token maps to [`RunError::DeadlineExceeded`] carrying
/// `deadline_ms`).
fn try_simulate_cancellable(
    spec: &RunSpec,
    cancel: Option<&CancelToken>,
    deadline_ms: u64,
) -> Result<SimStats, RunError> {
    counters::count(Counter::SimsStarted, 1);
    let failed = |e: RunError| {
        counters::count(Counter::SimsFailed, 1);
        Err(e)
    };
    #[cfg(any(test, feature = "fault-probe"))]
    if spec.benchmark == FAULT_BENCHMARK {
        // The probe panics *inside* the isolation boundary, like a real
        // model bug would.
        let caught = std::panic::catch_unwind(|| -> SimStats {
            panic!("injected fault probe");
        });
        let payload = caught.expect_err("probe always panics");
        return failed(RunError::WorkerPanic {
            benchmark: spec.benchmark.clone(),
            payload: payload_text(payload.as_ref()),
        });
    }
    let Some(profile) = spec92::by_name(&spec.benchmark) else {
        return failed(RunError::UnknownBenchmark { benchmark: spec.benchmark.clone() });
    };
    let gen_start = Instant::now();
    let mut trace = {
        let _s = rf_prof::span("run.generate");
        TraceGenerator::new(&profile, spec.seed)
    };
    let gen_nanos = gen_start.elapsed().as_nanos() as u64;
    let _sim_span = rf_prof::span("run.simulate");
    let sim_start = Instant::now();
    let mut pipeline = Pipeline::new(spec.machine_config());
    if let Some(token) = cancel {
        pipeline = pipeline.with_cancel(token.clone());
    }
    // The pipeline is moved into the closure and dropped there on panic:
    // its state can never be observed again, which is what makes the
    // unwind boundary safe to assert across.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline.try_run(&mut trace, spec.commits)
    }));
    let stats = match caught {
        Ok(Ok(stats)) => stats,
        Ok(Err(_cancelled)) => {
            return failed(RunError::DeadlineExceeded {
                benchmark: spec.benchmark.clone(),
                deadline_ms,
            });
        }
        Err(payload) => {
            return failed(RunError::WorkerPanic {
                benchmark: spec.benchmark.clone(),
                payload: payload_text(payload.as_ref()),
            });
        }
    };
    for (counter, n) in [
        (Counter::GenerateNs, gen_nanos),
        (Counter::SimulateNs, sim_start.elapsed().as_nanos() as u64),
        (Counter::InstructionsCommitted, stats.committed),
        (Counter::Cycles, stats.cycles),
        (Counter::StallNoReg, stats.insert_stall_no_reg),
        (Counter::StallDqFull, stats.insert_stall_dq_full),
        (Counter::NoFreeCycles, stats.no_free_any_cycles),
        (Counter::SimsCompleted, 1),
    ] {
        counters::count(counter, n);
    }
    Ok(stats)
}

/// Runs one simulation point (always executes; no caching).
///
/// # Panics
///
/// Panics with the [`RunError`] message on any failure — unknown
/// benchmark, worker panic, cancellation. Use [`try_simulate`] to handle
/// those as values.
pub fn simulate(spec: &RunSpec) -> SimStats {
    try_simulate(spec).unwrap_or_else(|e| panic!("{e}"))
}

/// Parses `RF_CACHE` strictly, returning whether the run cache is
/// enabled.
///
/// `RF_CACHE` accepts `0`/`off`/`false`/`no` (disabled) and
/// `1`/`on`/`true`/`yes` (enabled, the default when unset),
/// case-insensitively; anything else is an error — `RF_CACHE=off` used
/// to silently leave the cache enabled, which is exactly the trap this
/// closes.
///
/// # Errors
///
/// Returns a message naming the malformed value.
pub fn cache_env_mode() -> Result<bool, String> {
    match std::env::var("RF_CACHE") {
        Err(_) => Ok(true),
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "no" => Ok(false),
            "1" | "on" | "true" | "yes" => Ok(true),
            _ => Err(format!(
                "RF_CACHE={raw:?} is not recognized (use 0/off/false/no or 1/on/true/yes)"
            )),
        },
    }
}

/// One cached result with its originating spec, which lookups verify.
///
/// Entries are keyed by the *stable* content digests from
/// [`crate::codec`] — the same identity the on-disk store uses — not
/// std's per-process randomized `Hash` of the spec. Because each entry
/// retains its full spec, even a digest collision cannot serve another
/// spec's results.
#[derive(Debug)]
struct CacheEntry {
    spec: RunSpec,
    stats: Arc<SimStats>,
}

/// A keyed memo of simulation results: [`RunSpec`] → [`SimStats`].
///
/// Harnesses share many simulation points (every figure re-simulates the
/// paper's baseline machine, for instance); routing their batches through
/// a common cache means each distinct point is simulated once per
/// process. The global instance is shared by all harnesses; tests can
/// build private instances. Disabled caches always miss. The cache is
/// unbounded: the whole reference suite's results take about 18 MB.
/// Every instance counts its lookups both on itself ([`RunCache::hits`],
/// [`RunCache::misses`]) and in the process-wide [`rf_prof::counters`]
/// registry.
///
/// A thread that panics while holding the map lock poisons the mutex;
/// the cache recovers the guard instead of propagating the poison, so
/// one dead worker cannot take the shared cache down with it.
/// Recoveries are counted — a nonzero [`RunCache::poison_recoveries`]
/// means some run died mid-update. (No current panic path holds the
/// lock: simulations run outside it.)
#[derive(Debug, Default)]
pub struct RunCache {
    map: Mutex<HashMap<rf_store::Digest, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    poison_recoveries: AtomicU64,
    disabled: bool,
}

impl RunCache {
    /// Creates an empty, enabled cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache that never stores or returns results (every lookup
    /// is a miss), for measuring uncached behaviour.
    pub fn disabled() -> Self {
        Self { disabled: true, ..Self::default() }
    }

    /// The process-wide cache shared by every harness. `RF_CACHE`
    /// disables it — see [`cache_env_mode`] for the accepted values.
    ///
    /// # Panics
    ///
    /// Panics when `RF_CACHE` is malformed (on first use only; binaries
    /// should pre-validate with [`validate_env`]).
    pub fn global() -> &'static RunCache {
        static GLOBAL: OnceLock<RunCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let enabled = cache_env_mode().unwrap_or_else(|e| panic!("{e}"));
            if enabled { RunCache::new() } else { RunCache::disabled() }
        })
    }

    /// Locks the map, recovering (and counting) a poisoned lock: the map
    /// is always structurally valid mid-operation because every mutation
    /// completes before the guard drops, so the data a panicking thread
    /// left behind is safe to keep serving.
    fn map(&self) -> MutexGuard<'_, HashMap<rf_store::Digest, CacheEntry>> {
        self.map.lock().unwrap_or_else(|poisoned: PoisonError<_>| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Whether this cache stores results.
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Looks up a spec, counting a hit or miss.
    pub fn get(&self, spec: &RunSpec) -> Option<Arc<SimStats>> {
        let found = self.peek(spec);
        let (mine, counter) = match found {
            Some(_) => (&self.hits, Counter::CacheHits),
            None => (&self.misses, Counter::CacheMisses),
        };
        mine.fetch_add(1, Ordering::Relaxed);
        counters::count(counter, 1);
        found
    }

    /// Looks up a spec *without* counting a hit or miss — a pure read
    /// for post-run probes (the model-error check re-reads suite results
    /// already in the cache) that must not perturb cache telemetry. A
    /// disabled cache peeks as empty.
    pub fn peek(&self, spec: &RunSpec) -> Option<Arc<SimStats>> {
        if self.disabled {
            return None;
        }
        self.map()
            .get(&crate::codec::spec_digest(spec))
            .filter(|entry| entry.spec == *spec)
            .map(|entry| Arc::clone(&entry.stats))
    }

    /// Stores a result (no-op when disabled).
    pub fn insert(&self, spec: RunSpec, stats: Arc<SimStats>) {
        if self.disabled {
            return;
        }
        let digest = crate::codec::spec_digest(&spec);
        self.map().insert(digest, CacheEntry { spec, stats });
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a simulation so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times a poisoned lock was recovered (a worker died mid-update).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Distinct results currently stored.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The durable tier under the in-memory [`RunCache`]: a read-through /
/// write-behind view of the on-disk [`rf_store::Store`] (`RF_STORE=1`).
///
/// Reads go through one [`rf_store::Snapshot`] opened at first use —
/// batch resolution must be immune to concurrent appends and
/// compactions by other processes. Writes append behind the executed
/// result, deduplicated against the snapshot (same key-schema only) and
/// against this process's own appends. Both sides share the cache's
/// stable identity from [`crate::codec`], so a result written by any
/// past process is a hit here.
struct StoreTier {
    store: rf_store::Store,
    snapshot: rf_store::Snapshot,
    /// Digests appended by this process (the snapshot cannot see them).
    written: Mutex<std::collections::HashSet<rf_store::Digest>>,
    /// Latch so a persistent I/O failure warns once, not per record.
    io_warned: std::sync::atomic::AtomicBool,
}

impl StoreTier {
    /// The process-wide store tier: `None` when `RF_STORE` is off *or*
    /// the store directory cannot be opened (a warning is printed and
    /// the run proceeds purely in memory — a broken disk store must
    /// never take the suite down).
    ///
    /// # Panics
    ///
    /// Panics when `RF_STORE`/`RF_STORE_DIR` is malformed (on first use
    /// only; binaries pre-validate with [`validate_env`]).
    fn global() -> Option<&'static StoreTier> {
        static TIER: OnceLock<Option<StoreTier>> = OnceLock::new();
        TIER.get_or_init(|| {
            let dir = store_env_mode().unwrap_or_else(|e| panic!("{e}"))?;
            let opened = rf_store::Store::open(&dir)
                .and_then(|store| Ok((store.snapshot()?, store)));
            match opened {
                Ok((snapshot, store)) => Some(StoreTier {
                    store,
                    snapshot,
                    written: Mutex::new(std::collections::HashSet::new()),
                    io_warned: std::sync::atomic::AtomicBool::new(false),
                }),
                Err(e) => {
                    eprintln!(
                        "warning: RF_STORE=1 but the store at {} cannot be opened \
                         ({e}); continuing without the durable tier",
                        dir.display()
                    );
                    None
                }
            }
        })
        .as_ref()
    }

    /// Looks up a spec in the snapshot, decoding its payload. Counts a
    /// store hit or miss either way (store lookups happen only after an
    /// in-memory cache miss, so store hits are a subset of cache
    /// misses).
    fn get(&self, spec: &RunSpec) -> Option<SimStats> {
        let key = crate::codec::spec_key_bytes(spec);
        let digest = rf_store::Digest::of(&key);
        let found = self
            .snapshot
            .get(crate::codec::DIGEST_SCHEMA, &digest, &key)
            .and_then(|payload| match crate::codec::decode_stats(&payload) {
                Ok(stats) => Some(stats),
                Err(e) => {
                    self.warn_io(&format!("undecodable payload for {digest}: {e}"));
                    None
                }
            });
        let counter = if found.is_some() { Counter::StoreHits } else { Counter::StoreMisses };
        counters::count(counter, 1);
        found
    }

    /// Appends an executed result unless the store already has it under
    /// the current key schema (or this process already appended it).
    fn put(&self, spec: &RunSpec, stats: &SimStats) {
        let key = crate::codec::spec_key_bytes(spec);
        let digest = rf_store::Digest::of(&key);
        if self.snapshot.contains_schema(crate::codec::DIGEST_SCHEMA, &digest) {
            return;
        }
        {
            let mut written =
                self.written.lock().unwrap_or_else(PoisonError::into_inner);
            if !written.insert(digest) {
                return;
            }
        }
        let payload = crate::codec::encode_stats(stats);
        match self.store.append(crate::codec::DIGEST_SCHEMA, digest, &key, &payload) {
            Ok(()) => counters::count(Counter::StoreWrites, 1),
            Err(e) => self.warn_io(&format!("append failed: {e}")),
        }
    }

    fn warn_io(&self, what: &str) {
        if !self.io_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: run store at {}: {what} (further store warnings suppressed)",
                self.store.dir().display()
            );
        }
    }
}

/// The durable store tier's `(hits, misses, writes)` counts so far in
/// this process, read from the [`rf_prof::counters`] registry; `None`
/// when `RF_STORE` is off (or the store failed to open). Misses count
/// lookups that fell through to a real simulation; hits count sims
/// served from disk.
pub fn store_counters() -> Option<(u64, u64, u64)> {
    let c = counters::snapshot();
    StoreTier::global().map(|_| {
        (c.get(Counter::StoreHits), c.get(Counter::StoreMisses), c.get(Counter::StoreWrites))
    })
}

/// Flushes the durable store tier (fsyncs the active segment). A no-op
/// when `RF_STORE` is off. Binaries call this once after their last
/// batch; per-append fsyncs would serialize the worker pool on disk
/// latency for no recovery benefit (an unsynced tail is dropped cleanly
/// by the next reader's checksum scan).
pub fn store_sync() {
    if let Some(tier) = StoreTier::global() {
        if let Err(e) = tier.store.sync() {
            tier.warn_io(&format!("sync failed: {e}"));
        }
    }
}

/// Process-wide default batch deadline in nanoseconds (0 = none). Set
/// once at startup (the suite binary's `--deadline-secs` flag) so the
/// twelve harness entry points pick it up through [`BatchOpts::default`]
/// without changing their signatures.
static DEFAULT_DEADLINE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Sets the process-wide default batch deadline applied by
/// [`BatchOpts::default`] (`None` clears it).
pub fn set_default_deadline(deadline: Option<Duration>) {
    let nanos = deadline.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
    DEFAULT_DEADLINE_NANOS.store(nanos, Ordering::Relaxed);
}

/// The process-wide default batch deadline, if one is set.
pub fn default_deadline() -> Option<Duration> {
    match DEFAULT_DEADLINE_NANOS.load(Ordering::Relaxed) {
        0 => None,
        nanos => Some(Duration::from_nanos(nanos)),
    }
}

/// Options controlling one batch submitted to a [`SimPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOpts {
    /// Wall-clock budget for the whole batch. When it elapses, running
    /// simulations are cooperatively cancelled (their partial state is
    /// discarded) and not-yet-started specs are abandoned; each affected
    /// spec fails with [`RunError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl BatchOpts {
    /// Options with no deadline, regardless of the process default.
    pub fn unbounded() -> Self {
        Self { deadline: None }
    }

    /// Options with an explicit deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self { deadline: Some(deadline) }
    }
}

impl Default for BatchOpts {
    /// The process-wide default ([`set_default_deadline`]), or no
    /// deadline when none is set.
    fn default() -> Self {
        Self { deadline: default_deadline() }
    }
}

/// A work-stealing executor for batches of simulation points.
///
/// Workers are scoped threads pulling tasks from a shared atomic cursor,
/// so long and short simulations load-balance automatically. Results come
/// back in input order regardless of completion order, and equal specs
/// within a batch are simulated once — so a report built from a batch is
/// byte-identical to one built by running the specs sequentially.
///
/// The fallible entry points ([`SimPool::try_run_many`] and friends)
/// return one `Result` per spec: a panicking or deadline-cancelled
/// simulation fails only its own spec, and every other completed result
/// in the batch is still returned (and cached).
#[derive(Debug, Clone, Copy)]
pub struct SimPool {
    jobs: usize,
}

impl SimPool {
    /// Creates a pool running up to `jobs` simulations concurrently
    /// (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// A pool sized from the `RF_JOBS` environment variable, defaulting
    /// to the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics when `RF_JOBS` is malformed; binaries should pre-validate
    /// with [`SimPool::try_from_env`] or [`validate_env`].
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`SimPool::from_env`], but a malformed `RF_JOBS` (including
    /// `RF_JOBS=0`) is an error instead of a panic or a silent fall-back
    /// to full parallelism.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed value.
    pub fn try_from_env() -> Result<Self, String> {
        let jobs = match env_u64("RF_JOBS")? {
            Some(0) => return Err("RF_JOBS=0 would run nothing; use RF_JOBS=1".to_owned()),
            Some(n) => n as usize,
            None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        };
        Ok(Self::new(jobs))
    }

    /// The number of concurrent simulations this pool runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every spec, sharing results through the global [`RunCache`].
    /// Results are in input order: `result[i]` corresponds to `specs[i]`.
    ///
    /// # Panics
    ///
    /// Panics with the first [`RunError`]'s message; use
    /// [`SimPool::try_run_many`] to salvage the rest of the batch.
    pub fn run_many(&self, specs: &[RunSpec]) -> Vec<Arc<SimStats>> {
        self.run_many_cached(specs, RunCache::global())
    }

    /// As [`SimPool::run_many`], but against an explicit cache.
    ///
    /// # Panics
    ///
    /// Panics with the first [`RunError`]'s message.
    pub fn run_many_cached(&self, specs: &[RunSpec], cache: &RunCache) -> Vec<Arc<SimStats>> {
        self.try_run_many_opts(specs, cache, BatchOpts::default())
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Runs every spec through the global [`RunCache`], returning one
    /// `Result` per spec in input order. A failing simulation (panic,
    /// unknown benchmark, elapsed deadline) fails only its own spec;
    /// every completed result is returned and cached.
    pub fn try_run_many(&self, specs: &[RunSpec]) -> Vec<Result<Arc<SimStats>, RunError>> {
        self.try_run_many_cached(specs, RunCache::global())
    }

    /// As [`SimPool::try_run_many`], but against an explicit cache.
    pub fn try_run_many_cached(
        &self,
        specs: &[RunSpec],
        cache: &RunCache,
    ) -> Vec<Result<Arc<SimStats>, RunError>> {
        self.try_run_many_opts(specs, cache, BatchOpts::default())
    }

    /// As [`SimPool::try_run_many_cached`], with explicit batch options
    /// (deadline).
    pub fn try_run_many_opts(
        &self,
        specs: &[RunSpec],
        cache: &RunCache,
        opts: BatchOpts,
    ) -> Vec<Result<Arc<SimStats>, RunError>> {
        let mut results: Vec<Option<Result<Arc<SimStats>, RunError>>> =
            vec![None; specs.len()];

        // Resolve cache hits and deduplicate the remainder, preserving
        // first-appearance order for determinism. With the cache disabled
        // every spec becomes its own task (the true uncached workload);
        // the durable store tier follows the cache's enablement, so an
        // explicitly uncached batch (e.g. the speedup probe) is also
        // genuinely unstored.
        let tier = if cache.is_enabled() { StoreTier::global() } else { None };
        let mut tasks: Vec<&RunSpec> = Vec::new();
        let mut needers: Vec<Vec<usize>> = Vec::new();
        let mut task_of: HashMap<&RunSpec, usize> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            if let Some(found) = cache.get(spec) {
                results[i] = Some(Ok(found));
            } else if let Some(found) = tier.and_then(|t| t.get(spec)) {
                // Read-through: promote the disk record into the
                // in-memory cache so the batch's own duplicates (and
                // later batches) hit there.
                let found = Arc::new(found);
                cache.insert(spec.clone(), Arc::clone(&found));
                results[i] = Some(Ok(found));
            } else if cache.is_enabled() {
                let t = *task_of.entry(spec).or_insert_with(|| {
                    tasks.push(spec);
                    needers.push(Vec::new());
                    tasks.len() - 1
                });
                needers[t].push(i);
            } else {
                tasks.push(spec);
                needers.push(vec![i]);
            }
        }

        // Insert into the cache and the durable store in task order, not
        // worker completion order, so the store's append order (and so
        // its segment layout) is the same for every worker count.
        let mut executed = self.execute(&tasks, opts);
        executed.sort_unstable_by_key(|(t, _)| *t);
        for (t, outcome) in executed {
            if let Ok(stats) = &outcome {
                cache.insert(tasks[t].clone(), Arc::clone(stats));
                if let Some(tier) = tier {
                    tier.put(tasks[t], stats);
                }
            }
            for &i in &needers[t] {
                results[i] = Some(outcome.clone());
            }
        }

        results.into_iter().map(|r| r.expect("every spec resolved")).collect()
    }

    /// Executes `tasks`, returning `(task_index, outcome)` pairs. With a
    /// deadline set, a watchdog thread fires a shared [`CancelToken`] at
    /// the deadline; workers check it before starting each task, and
    /// running pipelines poll it cooperatively.
    fn execute(
        &self,
        tasks: &[&RunSpec],
        opts: BatchOpts,
    ) -> Vec<(usize, Result<Arc<SimStats>, RunError>)> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let deadline_ms =
            opts.deadline.map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64);
        let start = Instant::now();
        let cancel = CancelToken::new();
        let run_one = |spec: &RunSpec| -> Result<Arc<SimStats>, RunError> {
            if cancel.is_cancelled() || opts.deadline.is_some_and(|d| start.elapsed() >= d) {
                return Err(RunError::DeadlineExceeded {
                    benchmark: spec.benchmark.clone(),
                    deadline_ms,
                });
            }
            let token = opts.deadline.is_some().then_some(&cancel);
            try_simulate_cancellable(spec, token, deadline_ms).map(Arc::new)
        };
        let workers = self.jobs.min(tasks.len());
        if workers <= 1 && opts.deadline.is_none() {
            return tasks
                .iter()
                .enumerate()
                .map(|(t, spec)| {
                    let _s = rf_prof::span("pool.task");
                    let t0 = rf_obs::live::is_enabled().then(Instant::now);
                    let outcome = run_one(spec);
                    if let Some(t0) = t0 {
                        rf_obs::live::worker_task(0, t0.elapsed().as_nanos() as u64);
                    }
                    (t, outcome)
                })
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, Result<Arc<SimStats>, RunError>)> =
            Vec::with_capacity(tasks.len());
        // The watchdog parks on this pair: woken early when all work is
        // done, otherwise it fires the cancel token at the deadline.
        let parker = (Mutex::new(false), Condvar::new());
        std::thread::scope(|scope| {
            if let Some(deadline) = opts.deadline {
                let cancel = &cancel;
                let parker = &parker;
                scope.spawn(move || {
                    let (lock, cvar) = parker;
                    let mut finished =
                        lock.lock().unwrap_or_else(PoisonError::into_inner);
                    while !*finished {
                        let elapsed = start.elapsed();
                        if elapsed >= deadline {
                            cancel.cancel();
                            return;
                        }
                        finished = cvar
                            .wait_timeout(finished, deadline - elapsed)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                });
            }
            if workers <= 1 {
                // A deadline with a single worker: run inline on the
                // calling thread (the watchdog above still enforces the
                // deadline via the cancel token). A dedicated worker
                // thread here would make the profiler attribute both the
                // worker's tasks and the caller's blocking join against
                // the same wall time, double-counting coverage.
                for (t, spec) in tasks.iter().enumerate() {
                    let _s = rf_prof::span("pool.task");
                    let t0 = rf_obs::live::is_enabled().then(Instant::now);
                    let outcome = run_one(spec);
                    if let Some(t0) = t0 {
                        rf_obs::live::worker_task(0, t0.elapsed().as_nanos() as u64);
                    }
                    done.push((t, outcome));
                }
                let (lock, cvar) = &parker;
                *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
                cvar.notify_all();
                return;
            }
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let worker_span = rf_prof::span("pool.worker");
                        let mut mine = Vec::new();
                        loop {
                            let t = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = tasks.get(t) else { break };
                            let _s = rf_prof::span("pool.task");
                            let t0 = rf_obs::live::is_enabled().then(Instant::now);
                            let outcome = run_one(spec);
                            if let Some(t0) = t0 {
                                rf_obs::live::worker_task(
                                    w,
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                            mine.push((t, outcome));
                        }
                        drop(worker_span);
                        // Scoped threads outlive their TLS destructors'
                        // visibility to the parent: flush explicitly so
                        // the worker's profile is merged before the
                        // scope unblocks the caller.
                        rf_prof::flush_thread();
                        mine
                    })
                })
                .collect();
            let _merge = rf_prof::span("pool.merge");
            for handle in handles {
                // Workers cannot panic — simulation panics are caught
                // inside `try_simulate_cancellable` — so a join failure
                // here is a harness bug, not a model bug.
                done.extend(handle.join().expect("simulation worker thread died"));
            }
            let (lock, cvar) = &parker;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cvar.notify_all();
        });
        done
    }
}

impl Default for SimPool {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Standard entry point for the figure/table harness binaries: strict
/// argument and environment handling wrapped around a report-producing
/// function.
///
/// The contract every harness binary shares:
///
/// - `--help`/`-h` prints usage and exits 0 (it used to launch a full
///   200k-commit run);
/// - an optional first argument sets the commit budget; a malformed
///   argument or extra arguments exit 2 with a clear message instead of
///   silently running the default budget;
/// - a malformed runner environment variable exits 2 before any
///   simulation starts;
/// - a panic escaping the harness is caught and reported, exiting 1.
pub fn harness_main(name: &str, run: fn(&Scale) -> String) -> std::process::ExitCode {
    let usage = format!(
        "usage: {name} [COMMITS]\n\n\
         Regenerates the {name} report on stdout.\n\n\
         arguments:\n  \
         COMMITS        committed instructions per simulation\n                 \
         (default: RF_COMMITS or 200000)\n\n\
         environment:\n  \
         RF_COMMITS     default commit budget\n  \
         RF_JOBS        parallel simulation workers (default: all cores)\n  \
         RF_CACHE       0/off/false/no disables the shared run cache\n  \
         RF_PROFILE     1/on/true/yes enables the rf-prof self-profiler"
    );
    let mut commits: Option<u64> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            println!("{usage}");
            return std::process::ExitCode::SUCCESS;
        }
        if commits.is_some() {
            eprintln!("{name}: unexpected argument {arg:?}\n{usage}");
            return std::process::ExitCode::from(2);
        }
        match arg.parse::<u64>() {
            Ok(n) => commits = Some(n),
            Err(_) => {
                eprintln!("{name}: commit budget {arg:?} is not a non-negative integer\n{usage}");
                return std::process::ExitCode::from(2);
            }
        }
    }
    if let Err(e) = validate_env() {
        eprintln!("{name}: {e}");
        return std::process::ExitCode::from(2);
    }
    let scale = commits.map_or_else(Scale::from_env, |commits| Scale { commits });
    match std::panic::catch_unwind(|| run(&scale)) {
        Ok(report) => {
            println!("{report}");
            std::process::ExitCode::SUCCESS
        }
        Err(payload) => {
            eprintln!("{name}: harness failed: {}", payload_text(payload.as_ref()));
            std::process::ExitCode::FAILURE
        }
    }
}

/// Runs one simulation point through the global [`RunCache`] (no thread
/// fan-out — the point of this over [`simulate`] is result sharing).
pub fn simulate_cached(spec: &RunSpec) -> Arc<SimStats> {
    SimPool::new(1)
        .run_many(std::slice::from_ref(spec))
        .pop()
        .expect("one spec in, one result out")
}

/// Runs one simulation per benchmark (all nine) through the shared pool
/// and cache, returning `(name, stats)` pairs in Table 1 order.
pub fn simulate_suite(base: &RunSpec) -> Vec<(String, Arc<SimStats>)> {
    let names: Vec<String> = spec92::all().into_iter().map(|p| p.name).collect();
    let specs: Vec<RunSpec> =
        names.iter().map(|n| RunSpec { benchmark: n.clone(), ..base.clone() }).collect();
    let stats = SimPool::from_env().run_many(&specs);
    names.into_iter().zip(stats).collect()
}

/// The FP-intensive subset of benchmark names; the paper's FP-register
/// averages include only these.
pub fn fp_benchmarks() -> Vec<String> {
    spec92::all()
        .into_iter()
        .filter(|p| p.is_fp_intensive())
        .map(|p| p.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn baseline_commits_follow_scale() {
        // The budget comes from Scale::default() (RF_COMMITS or 200k),
        // not a hardcoded constant.
        assert_eq!(RunSpec::baseline("tomcatv", 4).commits, Scale::default().commits);
    }

    #[test]
    fn simulate_commits_exactly() {
        let s = RunSpec::baseline("espresso", 4).commits(3_000);
        let stats = simulate(&s);
        assert_eq!(stats.committed, 3_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let s = RunSpec::baseline("nope", 4);
        let _ = simulate(&s);
    }

    #[test]
    fn fp_subset_is_six_benchmarks() {
        let fp = fp_benchmarks();
        assert_eq!(fp.len(), 6);
        assert!(fp.contains(&"tomcatv".to_owned()));
        assert!(!fp.contains(&"gcc1".to_owned()));
    }

    #[test]
    fn run_many_is_input_ordered_and_deduplicated() {
        let cache = RunCache::new();
        let pool = SimPool::new(2);
        let a = RunSpec::baseline("espresso", 4).commits(2_000);
        let b = RunSpec::baseline("compress", 4).commits(2_000);
        let specs = vec![a.clone(), b.clone(), a.clone()];
        let out = pool.run_many_cached(&specs, &cache);
        assert_eq!(out.len(), 3);
        assert_eq!(*out[0], *out[2]);
        assert_eq!(*out[0], simulate(&a));
        assert_eq!(*out[1], simulate(&b));
        // The duplicate was not simulated separately.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let cache = RunCache::disabled();
        let spec = RunSpec::baseline("ora", 4).commits(1_000);
        let pool = SimPool::new(1);
        let _ = pool.run_many_cached(std::slice::from_ref(&spec), &cache);
        let _ = pool.run_many_cached(&[spec], &cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn fault_probe_fails_only_its_own_spec() {
        // (a) try_run_many returns Err for the poisoned spec and Ok for
        // the rest of the batch, identical to fault-free runs.
        let cache = RunCache::new();
        let pool = SimPool::new(2);
        let good_a = RunSpec::baseline("espresso", 4).commits(2_000);
        let bad = RunSpec::baseline(FAULT_BENCHMARK, 4).commits(2_000);
        let good_b = RunSpec::baseline("compress", 4).commits(2_000);
        let out =
            pool.try_run_many_cached(&[good_a.clone(), bad, good_b.clone()], &cache);
        assert_eq!(out.len(), 3);
        assert_eq!(
            **out[0].as_ref().expect("first spec completes"),
            simulate(&good_a)
        );
        assert_eq!(
            **out[2].as_ref().expect("third spec completes"),
            simulate(&good_b)
        );
        match out[1].as_ref().expect_err("probe spec fails") {
            RunError::WorkerPanic { benchmark, payload } => {
                assert_eq!(benchmark, FAULT_BENCHMARK);
                assert!(payload.contains("injected fault probe"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // (b) the cache still serves hits afterwards: the two completed
        // results are resident and a re-run hits both.
        assert_eq!(cache.len(), 2);
        let hits_before = cache.hits();
        let again = pool.try_run_many_cached(&[good_a, good_b], &cache);
        assert!(again.iter().all(Result::is_ok));
        assert_eq!(cache.hits(), hits_before + 2);
    }

    #[test]
    fn cache_recovers_from_a_poisoned_lock() {
        let cache = Arc::new(RunCache::new());
        let spec = RunSpec::baseline("ora", 4).commits(1_000);
        let stats = Arc::new(simulate(&spec));
        cache.insert(spec.clone(), Arc::clone(&stats));
        // Poison the interior mutex the way a dying worker would: panic
        // while holding the guard.
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().expect("not yet poisoned");
            panic!("worker died holding the cache lock");
        })
        .join();
        assert!(cache.map.is_poisoned());
        // Every operation still works, and the recovery is counted.
        assert_eq!(cache.get(&spec).as_deref(), Some(&*stats));
        cache.insert(RunSpec::baseline("espresso", 4).commits(1_000), stats);
        assert_eq!(cache.len(), 2);
        assert!(cache.poison_recoveries() > 0);
    }

    #[test]
    fn batch_deadline_cancels_and_reports() {
        let cache = RunCache::new();
        let pool = SimPool::new(2);
        // A commit budget far beyond what a few microseconds allow: the
        // watchdog fires mid-run and the worker loop abandons the rest.
        let specs: Vec<RunSpec> = ["espresso", "compress", "ora"]
            .iter()
            .map(|b| RunSpec::baseline(b, 8).commits(5_000_000))
            .collect();
        let out = pool.try_run_many_opts(
            &specs,
            &cache,
            BatchOpts::with_deadline(Duration::from_micros(50)),
        );
        assert_eq!(out.len(), 3);
        for r in &out {
            match r.as_ref().expect_err("deadline fires long before 5M commits") {
                RunError::DeadlineExceeded { .. } => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        // Nothing partial leaked into the cache.
        assert!(cache.is_empty());
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let cache = RunCache::new();
        let pool = SimPool::new(2);
        let spec = RunSpec::baseline("espresso", 4).commits(2_000);
        let out = pool.try_run_many_opts(
            std::slice::from_ref(&spec),
            &cache,
            BatchOpts::with_deadline(Duration::from_secs(3600)),
        );
        assert_eq!(**out[0].as_ref().expect("completes well before an hour"), simulate(&spec));
    }

    #[test]
    fn strict_env_parsing_rejects_malformed_values() {
        // Env mutation is process-global, so this test owns all ten
        // variables for its duration and restores them at the end; it is
        // the only test in this binary that touches them.
        let vars = [
            "RF_COMMITS",
            "RF_JOBS",
            "RF_CACHE",
            "RF_STORE",
            "RF_STORE_DIR",
            "RF_SANITIZE",
            "RF_LOG",
            "RF_TELEMETRY",
            "RF_TELEMETRY_INTERVAL_MS",
            "RF_METRICS_ADDR",
        ];
        let saved: Vec<Option<String>> =
            vars.iter().map(|v| std::env::var(v).ok()).collect();
        let cases: [(&str, &str, &str); 16] = [
            ("RF_COMMITS", "200k", "RF_COMMITS"),
            ("RF_JOBS", "abc", "RF_JOBS"),
            ("RF_JOBS", "0", "RF_JOBS=0"),
            ("RF_CACHE", "maybe", "RF_CACHE"),
            ("RF_STORE", "maybe", "RF_STORE"),
            ("RF_STORE", "2", "RF_STORE"),
            ("RF_STORE_DIR", "  ", "RF_STORE_DIR"),
            ("RF_SANITIZE", "maybe", "RF_SANITIZE"),
            ("RF_SANITIZE", "", "RF_SANITIZE"),
            ("RF_LOG", "jsn", "RF_LOG"),
            ("RF_LOG", "1", "RF_LOG"),
            ("RF_TELEMETRY", "maybe", "RF_TELEMETRY"),
            ("RF_TELEMETRY_INTERVAL_MS", "fast", "RF_TELEMETRY_INTERVAL_MS"),
            ("RF_TELEMETRY_INTERVAL_MS", "0", "RF_TELEMETRY_INTERVAL_MS value '0'"),
            ("RF_METRICS_ADDR", "localhost", "RF_METRICS_ADDR"),
            ("RF_METRICS_ADDR", "9090", "RF_METRICS_ADDR"),
        ];
        for (var, value, needle) in cases {
            for v in vars {
                std::env::remove_var(v);
            }
            std::env::set_var(var, value);
            let err = validate_env().expect_err(var);
            assert!(err.contains(needle), "{var}={value} error: {err}");
        }
        // Normalized RF_CACHE spellings and well-formed values all pass.
        for v in vars {
            std::env::remove_var(v);
        }
        for ok in ["0", "OFF", "false", "No", "1", "on", "TRUE", "yes"] {
            std::env::set_var("RF_CACHE", ok);
            assert!(validate_env().is_ok(), "RF_CACHE={ok} should be accepted");
        }
        // RF_SANITIZE takes the same spellings, and `off` really is off.
        for (raw, on) in [("off", false), ("FALSE", false), ("no", false), ("0", false)]
            .into_iter()
            .chain([("on", true), ("True", true), ("yes", true), ("1", true)])
        {
            std::env::set_var("RF_SANITIZE", raw);
            assert!(validate_env().is_ok(), "RF_SANITIZE={raw} should be accepted");
            assert_eq!(rf_check::env_mode(), Ok(on), "RF_SANITIZE={raw}");
        }
        std::env::remove_var("RF_SANITIZE");
        for ok in ["off", "text", "JSON"] {
            std::env::set_var("RF_LOG", ok);
            assert!(validate_env().is_ok(), "RF_LOG={ok} should be accepted");
        }
        std::env::remove_var("RF_LOG");
        // RF_STORE_DIR is honored (and a stray value tolerated) even
        // while the store itself stays off.
        for ok in ["0", "OFF", "false", "No", "1", "on", "TRUE", "yes"] {
            std::env::set_var("RF_STORE", ok);
            assert!(validate_env().is_ok(), "RF_STORE={ok} should be accepted");
        }
        std::env::set_var("RF_STORE", "1");
        std::env::set_var("RF_STORE_DIR", "results/elsewhere");
        assert_eq!(
            store_env_mode(),
            Ok(Some(std::path::PathBuf::from("results/elsewhere")))
        );
        std::env::remove_var("RF_STORE");
        std::env::remove_var("RF_STORE_DIR");
        assert_eq!(store_env_mode(), Ok(None));
        std::env::remove_var("RF_CACHE");
        assert_eq!(cache_env_mode(), Ok(true));
        for (var, value) in vars.iter().zip(saved) {
            match value {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
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
        assert_eq!(config.sim_seed(), 12);
    }
}
