//! Simulation execution: single runs, the batch-local run cache, and
//! the parallel [`SimPool`] executor. The run specification itself,
//! [`RunSpec`], lives in rf-core beside the machine configuration it
//! builds and is re-exported here with [`DEFAULT_COMMITS`].
//!
//! # Fault tolerance
//!
//! Execution is fallible end to end: [`try_simulate`] maps every failure
//! mode to a typed [`RunError`] and isolates worker panics with
//! `catch_unwind` (the panicking [`Pipeline`]'s state is discarded,
//! never reused), and [`SimPool::answer_many`] returns one [`Answer`]
//! per spec so a batch salvages every completed result around a failing
//! one. A [`RunCache`] recovers from lock poisoning, and batches accept
//! an optional deadline with cooperative cancellation checked both in
//! the worker loop and inside [`Pipeline`] runs via [`CancelToken`].
//!
//! # Environment variables (strict)
//!
//! [`RunConfig`] is the one parser of the run knobs, [`KNOBS`], each
//! declared once with the help text `all --help` renders. A malformed
//! value (for example `RF_COMMITS=200k` or `RF_TELEMETRY=maybe`) is an
//! error naming the variable and the value, never a silent fall-back.
//! Binaries call [`init_config`] at startup to turn that into a clean
//! exit 2 before any work; everything below reads the resulting
//! [`config`] snapshot, and no lower crate reads the environment.

use crate::args::Opt;
use rf_core::{CancelToken, Pipeline, SimStats};
use rf_prof::counters::{self, Counter};
use rf_workload::{spec92, SharedTrace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

pub use rf_core::{RunSpec, DEFAULT_COMMITS};

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

impl Scale {
    /// A fast scale for tests (20k commits).
    pub fn fast() -> Self {
        Self { commits: 20_000 }
    }
}

const COMMITS: Opt = Opt::new("RF_COMMITS", "default commit budget");
const JOBS: Opt = Opt::new("RF_JOBS", "parallel simulation workers (default: all cores)");
const STORE: Opt = Opt::new(
    "RF_STORE",
    "1/on/true/yes enables the durable content-addressed run store: executed results persist \
     under RF_STORE_DIR and warm re-runs are served from disk byte-identically",
);
/// The durable store's directory when `RF_STORE_DIR` does not set one.
pub const DEFAULT_STORE_DIR: &str = "results/store";
const STORE_DIR: Opt =
    Opt::new("RF_STORE_DIR", "store directory (default: {default})").default(&DEFAULT_STORE_DIR);
const PROFILE: Opt =
    Opt::new("RF_PROFILE", "1/on/true/yes embeds an rf-prof self-profile in the ledger record");
/// The knob only `rfstudy run` and `replay` read: the suite's answer
/// audit always runs sanitized.
pub const SANITIZE: Opt = Opt::new(
    "RF_SANITIZE",
    "1/on/true/yes attaches the invariant sanitizer to `rfstudy run` and `replay`",
);
const TELEMETRY: Opt = Opt::new(
    "RF_TELEMETRY",
    "1/on/true/yes streams live counter snapshots to results/telemetry/live.jsonl while the \
     suite runs (attach with `rfstudy top`); off-runs are unaffected",
);
const TELEMETRY_INTERVAL_MS: Opt =
    Opt::new("RF_TELEMETRY_INTERVAL_MS", "sampler period in milliseconds (default {default})")
        .default(&rf_obs::live::DEFAULT_INTERVAL_MS);

/// Every `RF_*` run knob, in usage order, each declared once with its
/// help text: [`RunConfig::from_vars`] reads them and `all --help`
/// renders them.
pub const KNOBS: [Opt; 8] =
    [COMMITS, JOBS, STORE, STORE_DIR, PROFILE, SANITIZE, TELEMETRY, TELEMETRY_INTERVAL_MS];

/// Every run knob of the process, parsed once from its `RF_*` variable
/// (see the module docs). Values are well formed by construction: a
/// malformed variable fails [`RunConfig::from_vars`] instead.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `RF_COMMITS`: the commit budget per simulation, at least 1 like
    /// `all`'s and `--commits`. `None` leaves the default to the caller ([`DEFAULT_COMMITS`] for the suite, a
    /// smaller one for `rfstudy check`/`model`/`profile`).
    pub commits: Option<u64>,
    /// `RF_JOBS`: parallel simulation workers (default: all cores).
    pub jobs: usize,
    /// `RF_STORE`: whether the durable on-disk run store is on.
    pub store: bool,
    /// `RF_STORE_DIR`: the store directory (default [`DEFAULT_STORE_DIR`]),
    /// validated even while the store is off.
    pub store_dir: std::path::PathBuf,
    /// `RF_PROFILE`: whether the suite embeds rf-prof self-profiles in
    /// its ledger record.
    pub profile: bool,
    /// `RF_SANITIZE`: whether `rfstudy run`/`replay` attach the
    /// invariant sanitizer.
    pub sanitize: bool,
    /// `RF_TELEMETRY` and `RF_TELEMETRY_INTERVAL_MS`: the live sampler,
    /// `None` when off (the interval is validated either way).
    pub telemetry: Option<rf_obs::live::LiveConfig>,
}

impl RunConfig {
    /// Parses the process environment; see [`RunConfig::from_vars`].
    ///
    /// # Errors
    ///
    /// Returns the first malformed variable's message.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// Parses the knobs from `var`, which maps a variable name to its
    /// value (`None` = unset). Switches accept `1/on/true/yes` and
    /// `0/off/false/no`, integers ASCII digits; both are trimmed and
    /// case-insensitive.
    ///
    /// # Errors
    ///
    /// Returns the first malformed variable's message, in one format
    /// that names the variable and the value.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let invalid = |k: Opt, raw: &str, expected: &str| {
            format!("{}={raw:?} is invalid: expected {expected}", k.name())
        };
        let switch = |k: Opt| match var(k.name()) {
            None => Ok(false),
            Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "1" | "on" | "true" | "yes" => Ok(true),
                "0" | "off" | "false" | "no" => Ok(false),
                _ => Err(invalid(k, &raw, "1/on/true/yes or 0/off/false/no")),
            },
        };
        let int = |k: Opt, min: u64| match var(k.name()) {
            None => Ok(None),
            Some(raw) => match raw.trim().parse::<u64>() {
                Ok(n) if n >= min => Ok(Some(n)),
                _ if min == 0 => Err(invalid(k, &raw, "a non-negative integer")),
                _ => Err(invalid(k, &raw, "a positive integer")),
            },
        };
        let store_dir = match var(STORE_DIR.name()) {
            None => DEFAULT_STORE_DIR.into(),
            Some(raw) if raw.trim().is_empty() => {
                return Err(invalid(STORE_DIR, &raw, "a directory path"))
            }
            Some(raw) => raw.into(),
        };
        let interval_ms =
            int(TELEMETRY_INTERVAL_MS, 1)?.unwrap_or(rf_obs::live::DEFAULT_INTERVAL_MS);
        Ok(Self {
            commits: int(COMMITS, 0)?
                .map(crate::args::commit_budget)
                .transpose()
                .map_err(|e| format!("{}: {e}", COMMITS.name()))?,
            jobs: match int(JOBS, 1)? {
                Some(n) => n as usize,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            store: switch(STORE)?,
            store_dir,
            profile: switch(PROFILE)?,
            sanitize: switch(SANITIZE)?,
            telemetry: switch(TELEMETRY)?.then(|| rf_obs::live::LiveConfig {
                interval: Duration::from_millis(interval_ms),
            }),
        })
    }

    /// The suite's scale: `RF_COMMITS`, else [`DEFAULT_COMMITS`].
    pub fn scale(&self) -> Scale {
        Scale { commits: self.commits.unwrap_or(DEFAULT_COMMITS) }
    }
}

/// The process's [`RunConfig`] snapshot, parsed from the environment by
/// the first call here or to [`config`].
static CONFIG: OnceLock<RunConfig> = OnceLock::new();

/// Parses the process environment into the [`config`] snapshot (once;
/// later calls return it). Binaries call this at startup so a malformed
/// knob exits 2 before any work.
///
/// # Errors
///
/// Returns the first malformed variable's message.
pub fn init_config() -> Result<&'static RunConfig, String> {
    if let Some(cfg) = CONFIG.get() {
        return Ok(cfg);
    }
    let cfg = RunConfig::from_env()?;
    Ok(CONFIG.get_or_init(|| cfg))
}

/// The process's run configuration: the [`init_config`] snapshot.
///
/// # Panics
///
/// Panics when a knob is malformed and no binary validated it first
/// with [`init_config`].
pub fn config() -> &'static RunConfig {
    init_config().unwrap_or_else(|e| panic!("{e}"))
}

/// Validates every run knob without acting on any of them: a projection
/// of [`RunConfig::from_env`], kept for callers that only need the
/// verdict.
///
/// # Errors
///
/// Returns the first malformed variable's message.
pub fn validate_env() -> Result<(), String> {
    RunConfig::from_env().map(drop)
}

/// The durable store's directory when `RF_STORE` is on: a projection of
/// [`RunConfig::from_env`] (`store_dir` when `store`), kept for callers
/// that only need the store.
///
/// # Errors
///
/// Returns the first malformed variable's message.
pub fn store_env_mode() -> Result<Option<std::path::PathBuf>, String> {
    RunConfig::from_env().map(|cfg| cfg.store.then_some(cfg.store_dir))
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
/// [`SimPool::answer_many`] returns one [`Answer`] per spec, so a batch
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
/// The run reads a [`SharedTrace`] of its own: a trace group of one,
/// through the same path a [`SimPool`] batch takes.
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
    run_task(spec, &TraceGroup::new(spec.commits, 1), None, 0)
}

/// The tasks of one batch that share a trace key — benchmark and seed —
/// and so read one [`SharedTrace`]. The group's first task to start
/// builds the trace; the last task to start takes it out of the group,
/// so the buffer is freed as soon as the group's last running task
/// finishes.
#[derive(Debug)]
struct TraceGroup {
    /// Instructions to buffer: the group's largest commit budget, capped
    /// at [`SharedTrace::MAX_BUFFERED`].
    len: u64,
    slot: Mutex<GroupSlot>,
}

#[derive(Debug)]
struct GroupSlot {
    trace: Option<Arc<SharedTrace>>,
    unstarted: usize,
}

impl TraceGroup {
    fn new(max_commits: u64, tasks: usize) -> Self {
        Self {
            len: max_commits.min(SharedTrace::MAX_BUFFERED),
            slot: Mutex::new(GroupSlot { trace: None, unstarted: tasks }),
        }
    }

    /// Hands one starting task the group's trace, building it first when
    /// no earlier task has. Returns the trace and the nanoseconds this
    /// task spent building it (0 when it was already built). Other tasks
    /// of the group wait on the lock while the trace is built; they need
    /// it too.
    fn claim(
        &self,
        spec: &RunSpec,
        cancel: Option<&CancelToken>,
        deadline_ms: u64,
    ) -> Result<(Arc<SharedTrace>, u64), RunError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.unstarted -= 1;
        let claimed = match &slot.trace {
            Some(trace) => Ok((Arc::clone(trace), 0)),
            None => {
                let profile = spec92::by_name(&spec.benchmark).ok_or_else(|| {
                    RunError::UnknownBenchmark { benchmark: spec.benchmark.clone() }
                })?;
                let _s = rf_prof::span("run.generate");
                let start = Instant::now();
                let built = SharedTrace::build(&profile, spec.seed, self.len as usize, || {
                    cancel.is_some_and(CancelToken::is_cancelled)
                })
                .ok_or_else(|| RunError::DeadlineExceeded {
                    benchmark: spec.benchmark.clone(),
                    deadline_ms,
                })?;
                let trace = Arc::new(built);
                slot.trace = Some(Arc::clone(&trace));
                Ok((trace, start.elapsed().as_nanos() as u64))
            }
        };
        if slot.unstarted == 0 {
            slot.trace = None;
        }
        claimed
    }

    /// Withdraws a task that will never start (it was answered without a
    /// simulation), freeing the trace when no task of the group is left
    /// to start.
    fn release(&self) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.unstarted -= 1;
        if slot.unstarted == 0 {
            slot.trace = None;
        }
    }
}

/// Runs one task of a trace group: [`try_simulate`]'s contract, reading
/// the group's shared trace. A fired `cancel` maps to
/// [`RunError::DeadlineExceeded`] carrying `deadline_ms`.
fn run_task(
    spec: &RunSpec,
    group: &TraceGroup,
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
    let (trace, gen_nanos) = match group.claim(spec, cancel, deadline_ms) {
        Ok(claimed) => claimed,
        Err(e) => return failed(e),
    };
    let _sim_span = rf_prof::span("run.simulate");
    let sim_start = Instant::now();
    // The pipeline is built and dropped inside the closure, so its state
    // can never be observed after a panic, which is what makes the unwind
    // boundary safe to assert across. Building it inside also contains a
    // spec the machine rejects (too few registers, say): that spec fails
    // alone instead of taking its worker down.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut pipeline = Pipeline::new(spec.machine_config());
        if let Some(token) = cancel {
            pipeline = pipeline.with_cancel(token.clone());
        }
        pipeline.run(&mut trace.cursor(), &mut trace.wrong_path(), spec.commits)
    }));
    let stats = match caught {
        Ok(Ok((stats, _))) => stats,
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
/// Each batch's caller owns its cache: the suite answers its whole plan
/// through one batch-local instance, and rfbench keeps one per round.
/// The cache sits above the durable store tier, so a store hit is
/// promoted into it. Disabled caches always miss (and bypass the store).
/// The cache is unbounded: the whole reference suite's results take
/// about 18 MB.
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

    /// Looks up a spec, counting a hit or miss. A disabled cache always
    /// misses.
    pub fn get(&self, spec: &RunSpec) -> Option<Arc<SimStats>> {
        let found = if self.disabled {
            None
        } else {
            self.map()
                .get(&crate::codec::spec_digest(spec))
                .filter(|entry| entry.spec == *spec)
                .map(|entry| Arc::clone(&entry.stats))
        };
        let (mine, counter) = match found {
            Some(_) => (&self.hits, Counter::CacheHits),
            None => (&self.misses, Counter::CacheMisses),
        };
        mine.fetch_add(1, Ordering::Relaxed);
        counters::count(counter, 1);
        found
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
/// compactions by other processes. Its header walk is the open's only
/// one: it also finds the torn tail crash recovery rotates past. Both
/// sides share the cache's stable identity from [`crate::codec`] and read
/// and write under its answer generation, [`crate::codec::DIGEST_SCHEMA`],
/// so a result a past process wrote under the current generation is a
/// hit here, and one of an older generation is a miss. Writes append
/// behind each executed result, in the codec's stored layout, once per
/// digest per process. An executed spec is one the tier failed to serve,
/// so its write also replaces a damaged or stale record.
struct StoreTier {
    store: rf_store::Store,
    snapshot: rf_store::Snapshot,
    /// Digests appended by this process (the snapshot cannot see them).
    written: Mutex<std::collections::HashSet<rf_store::Digest>>,
    /// Latch so a persistent I/O failure warns once, not per record.
    io_warned: std::sync::atomic::AtomicBool,
}

impl StoreTier {
    /// The process-wide store tier: `None` when [`config`]'s `store` is
    /// off *or* its `store_dir` cannot be opened (a warning is printed
    /// and the run proceeds purely in memory — a broken disk store must
    /// never take the suite down).
    fn global() -> Option<&'static StoreTier> {
        static TIER: OnceLock<Option<StoreTier>> = OnceLock::new();
        TIER.get_or_init(|| {
            let cfg = config();
            let dir = cfg.store.then_some(&cfg.store_dir)?;
            match rf_store::Store::open_with_snapshot(dir) {
                Ok((store, snapshot)) => Some(StoreTier {
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

    /// Appends an executed result unless this process already appended
    /// it.
    fn put(&self, spec: &RunSpec, stats: &SimStats) {
        let key = crate::codec::spec_key_bytes(spec);
        let digest = rf_store::Digest::of(&key);
        {
            let mut written =
                self.written.lock().unwrap_or_else(PoisonError::into_inner);
            if !written.insert(digest) {
                return;
            }
        }
        let payload = crate::codec::encode_stored_stats(stats);
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
/// when `RF_STORE` is off, or when this process appended nothing (a
/// warm run reads the store and fsyncs nothing). Binaries call this once
/// after their last batch; per-append fsyncs would serialize the worker
/// pool on disk latency for no recovery benefit (an unsynced tail is
/// dropped cleanly by the next reader's checksum scan).
pub fn store_sync() {
    if let Some(tier) = StoreTier::global() {
        if tier.written.lock().unwrap_or_else(PoisonError::into_inner).is_empty() {
            return;
        }
        if let Err(e) = tier.store.sync() {
            tier.warn_io(&format!("sync failed: {e}"));
        }
    }
}

/// Options controlling one batch submitted to a [`SimPool`]. The default
/// has no deadline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOpts {
    /// Wall-clock budget for the whole batch. When it elapses, running
    /// simulations are cooperatively cancelled (their partial state is
    /// discarded) and not-yet-started specs are abandoned; each affected
    /// spec fails with [`RunError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// Parses a `--deadline-secs` value, the one check `all` and every
/// `rfstudy` command that takes the option share: a finite, positive
/// number of seconds.
///
/// # Errors
///
/// The usage message for any other value.
pub fn parse_deadline_secs(raw: &str) -> Result<f64, String> {
    raw.parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("--deadline-secs {raw:?} is not a positive number of seconds"))
}

/// One spec's answer from a [`SimPool`] batch.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The spec's statistics, or why it has none.
    pub outcome: Result<Arc<SimStats>, RunError>,
    /// Wall nanoseconds of the pool task that simulated the spec. `None`
    /// when the cache or the store served it, when the batch reused its
    /// family head's run, or when an earlier equal spec of the same batch
    /// already carries the task's time.
    pub task_ns: Option<u64>,
    /// Whether the batch answered the spec by saturation reuse, from the
    /// run of its family's largest register file (see [`SimPool`]).
    pub reused: bool,
}

/// A work-stealing executor for batches of simulation points.
///
/// Workers are scoped threads claiming tasks from one shared scheduler,
/// so long and short simulations load-balance automatically. Results come
/// back in input order regardless of completion order, and equal specs
/// within a batch are simulated once — so a report built from a batch is
/// byte-identical to one built by running the specs sequentially.
///
/// # Saturation reuse
///
/// The tasks of a batch that differ only in `regs` form a *saturation
/// family*. Its largest register file, the *head*, runs first. When the
/// head completes with peak live count `P` (the highest non-zero
/// `live_hist` bucket of either class), every member with `regs > P` is
/// answered from the head's statistics with its own register count: the
/// compact histograms already end at or below `P`. The answer is exact:
/// allocation takes the lowest free register, so no run of the family
/// names a register at or above `P` and no free list runs empty
/// (DESIGN.md §9). Members with `regs <= P`, and every member of a
/// failed head, simulate.
///
/// Every entry point returns one outcome per spec: a panicking or
/// deadline-cancelled simulation fails only its own spec, and every
/// other completed result in the batch is still returned (and cached).
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

    /// A pool of [`config`]'s `jobs` workers (`RF_JOBS`, default all
    /// cores).
    pub fn from_env() -> Self {
        Self::new(config().jobs)
    }

    /// A pool of `RF_JOBS` workers: a projection of
    /// [`RunConfig::from_env`], kept for callers that only need the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns the first malformed variable's message.
    pub fn try_from_env() -> Result<Self, String> {
        RunConfig::from_env().map(|cfg| Self::new(cfg.jobs))
    }

    /// The number of concurrent simulations this pool runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// [`SimPool::try_run_many_opts`] without a deadline.
    pub fn try_run_many_cached(
        &self,
        specs: &[RunSpec],
        cache: &RunCache,
    ) -> Vec<Result<Arc<SimStats>, RunError>> {
        self.try_run_many_opts(specs, cache, BatchOpts::default())
    }

    /// The outcomes of [`SimPool::answer_many`], without the task times.
    pub fn try_run_many_opts(
        &self,
        specs: &[RunSpec],
        cache: &RunCache,
        opts: BatchOpts,
    ) -> Vec<Result<Arc<SimStats>, RunError>> {
        self.answer_many(specs, cache, opts).into_iter().map(|a| a.outcome).collect()
    }

    /// Answers every spec through `cache` (and the durable store tier
    /// below it when `RF_STORE` is on), returning one [`Answer`] per
    /// spec in input order. A failing simulation (panic, unknown
    /// benchmark, elapsed deadline) fails only its own spec; every
    /// completed result is returned and cached. Specs a family head's run
    /// saturates are answered from it (see [`SimPool`]) and enter the
    /// cache and the store like simulated ones.
    pub fn answer_many(&self, specs: &[RunSpec], cache: &RunCache, opts: BatchOpts) -> Vec<Answer> {
        let mut results: Vec<Option<Answer>> = vec![None; specs.len()];
        let served = |stats| Some(Answer { outcome: Ok(stats), task_ns: None, reused: false });

        // Resolve cache hits and deduplicate the remainder, preserving
        // first-appearance order for determinism. With the cache disabled
        // every spec becomes its own task (the true uncached workload);
        // the durable store tier follows the cache's enablement, so an
        // explicitly uncached batch is also genuinely unstored.
        let tier = if cache.is_enabled() { StoreTier::global() } else { None };
        let mut tasks: Vec<&RunSpec> = Vec::new();
        let mut needers: Vec<Vec<usize>> = Vec::new();
        let mut task_of: HashMap<&RunSpec, usize> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            if let Some(found) = cache.get(spec) {
                results[i] = served(found);
            } else if let Some(found) = tier.and_then(|t| t.get(spec)) {
                // Read-through: promote the disk record into the
                // in-memory cache so the batch's own duplicates (and
                // later batches) hit there.
                let found = Arc::new(found);
                cache.insert(spec.clone(), Arc::clone(&found));
                results[i] = served(found);
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
        executed.sort_unstable_by_key(|e| e.task);
        for Executed { task: t, outcome, task_ns } in executed {
            if let Ok(stats) = &outcome {
                cache.insert(tasks[t].clone(), Arc::clone(stats));
                if let Some(tier) = tier {
                    tier.put(tasks[t], stats);
                }
            }
            let reused = task_ns.is_none();
            for (k, &i) in needers[t].iter().enumerate() {
                let task_ns = task_ns.filter(|_| k == 0);
                results[i] = Some(Answer { outcome: outcome.clone(), task_ns, reused });
            }
        }

        results.into_iter().map(|r| r.expect("every spec resolved")).collect()
    }

    /// Executes `tasks`, returning one [`Executed`] per task. Tasks run
    /// in the [`Scheduler`]'s order, grouped by trace key (see
    /// [`trace_groups`]), so each group's [`SharedTrace`] is built once
    /// and at most `jobs` are live at a time; a family head's completion
    /// answers the members it saturates. With a deadline set, a watchdog
    /// thread fires a shared [`CancelToken`] at the deadline; workers
    /// check it before starting each task, and trace fills and running
    /// pipelines poll it cooperatively.
    fn execute(&self, tasks: &[&RunSpec], opts: BatchOpts) -> Vec<Executed> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let deadline_ms =
            opts.deadline.map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64);
        let start = Instant::now();
        let cancel = CancelToken::new();
        let grouped = trace_groups(tasks);
        let mut group_of = vec![0; tasks.len()];
        let groups: Vec<TraceGroup> = grouped
            .iter()
            .enumerate()
            .map(|(g, members)| {
                for &t in members {
                    group_of[t] = g;
                }
                let max_commits = members.iter().map(|&t| tasks[t].commits).max();
                TraceGroup::new(max_commits.unwrap_or(0), members.len())
            })
            .collect();
        let sched = Scheduler::new(tasks, &grouped);
        // Runs task `t` on worker `w`, timing it for the answer and the
        // live worker cells, then answers the members its run saturates.
        let run_one = |w: usize, t: usize, out: &mut Vec<Executed>| {
            let _s = rf_prof::span("pool.task");
            let t0 = Instant::now();
            let spec = tasks[t];
            let outcome = if cancel.is_cancelled()
                || opts.deadline.is_some_and(|d| start.elapsed() >= d)
            {
                Err(RunError::DeadlineExceeded { benchmark: spec.benchmark.clone(), deadline_ms })
            } else {
                let token = opts.deadline.is_some().then_some(&cancel);
                run_task(spec, &groups[group_of[t]], token, deadline_ms).map(Arc::new)
            };
            let task_ns = t0.elapsed().as_nanos() as u64;
            rf_obs::live::worker_task(w, task_ns);
            for (m, stats) in sched.finish(t, &outcome) {
                groups[group_of[m]].release();
                out.push(Executed { task: m, outcome: Ok(stats), task_ns: None });
            }
            out.push(Executed { task: t, outcome, task_ns: Some(task_ns) });
        };
        let work = |w: usize| {
            let mut mine = Vec::new();
            while let Some(t) = sched.claim() {
                run_one(w, t, &mut mine);
            }
            mine
        };
        let workers = self.jobs.min(tasks.len());
        if workers <= 1 && opts.deadline.is_none() {
            return work(0);
        }
        let mut done: Vec<Executed> = Vec::with_capacity(tasks.len());
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
                done.extend(work(0));
            } else {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let work = &work;
                        scope.spawn(move || {
                            let worker_span = rf_prof::span("pool.worker");
                            let mine = work(w);
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
                    // inside `run_task` — so a join failure here is a
                    // harness bug, not a model bug.
                    done.extend(handle.join().expect("simulation worker thread died"));
                }
            }
            let (lock, cvar) = &parker;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cvar.notify_all();
        });
        done
    }
}

/// One answered task of a batch.
struct Executed {
    task: usize,
    outcome: Result<Arc<SimStats>, RunError>,
    /// The task's wall nanoseconds; `None` when it was answered by
    /// saturation reuse instead of running.
    task_ns: Option<u64>,
}

/// Hands a batch's tasks to workers in run order, holding each
/// saturation-family member back until its head has finished (see
/// [`SimPool`]). One scheduler serves one worker and many alike: a
/// worker claims the first ready task in order, skipping members that
/// wait on a running head, and blocks only when every remaining task
/// waits on one.
struct Scheduler<'a> {
    tasks: &'a [&'a RunSpec],
    /// Task indices in run order: trace group by trace group, each
    /// group's family heads and lone tasks first (in task order), then
    /// its members by descending `regs`. A member's head always precedes
    /// it, so a single worker never waits.
    order: Vec<usize>,
    /// Per task: the members of the family it heads (empty unless a
    /// head).
    members: Vec<Vec<usize>>,
    state: Mutex<SchedState>,
    wake: Condvar,
}

struct SchedState {
    /// Per task: claimed by a worker, or answered by reuse.
    taken: Vec<bool>,
    /// Per task: free to run (false while a member's head is
    /// unfinished).
    ready: Vec<bool>,
    /// Position in `order` before which every task is taken.
    first: usize,
    /// Claimed tasks not yet finished.
    running: usize,
}

impl<'a> Scheduler<'a> {
    fn new(tasks: &'a [&'a RunSpec], grouped: &[Vec<usize>]) -> Self {
        let mut families: HashMap<RunSpec, Vec<usize>> = HashMap::new();
        for (t, spec) in tasks.iter().enumerate() {
            families.entry(RunSpec { regs: 0, ..(*spec).clone() }).or_default().push(t);
        }
        let mut members = vec![Vec::new(); tasks.len()];
        let mut ready = vec![true; tasks.len()];
        for family in families.into_values().filter(|f| f.len() > 1) {
            // The largest register file, the first in task order on a tie.
            let head = family
                .iter()
                .copied()
                .reduce(|a, b| if tasks[b].regs > tasks[a].regs { b } else { a })
                .expect("a family has members");
            for &m in family.iter().filter(|&&m| m != head) {
                ready[m] = false;
                members[head].push(m);
            }
        }
        let order = grouped
            .iter()
            .flat_map(|group| {
                let (first, mut held): (Vec<usize>, Vec<usize>) =
                    group.iter().partition(|&&t| ready[t]);
                held.sort_by_key(|&t| std::cmp::Reverse(tasks[t].regs));
                first.into_iter().chain(held)
            })
            .collect();
        let taken = vec![false; tasks.len()];
        Self {
            tasks,
            order,
            members,
            state: Mutex::new(SchedState { taken, ready, first: 0, running: 0 }),
            wake: Condvar::new(),
        }
    }

    /// Claims the first ready task in run order, waiting while every
    /// remaining task waits on a running head; `None` once every task is
    /// taken.
    fn claim(&self) -> Option<usize> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let st = &mut *s;
            while st.first < self.order.len() && st.taken[self.order[st.first]] {
                st.first += 1;
            }
            if st.first == self.order.len() {
                return None;
            }
            let next =
                self.order[st.first..].iter().copied().find(|&t| !st.taken[t] && st.ready[t]);
            if let Some(t) = next {
                st.taken[t] = true;
                st.running += 1;
                return Some(t);
            }
            assert!(st.running > 0, "every remaining task waits on a head that never ran");
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records that claimed task `t` finished with `outcome`. When `t`
    /// heads a family, its members become ready, and those its
    /// successful run saturates are answered: returned with their
    /// statistics, and taken so no worker runs them.
    fn finish(
        &self,
        t: usize,
        outcome: &Result<Arc<SimStats>, RunError>,
    ) -> Vec<(usize, Arc<SimStats>)> {
        let members = &self.members[t];
        let reused: Vec<(usize, Arc<SimStats>)> = match outcome {
            Ok(stats) if !members.is_empty() => {
                let peak = live_peak(stats);
                members
                    .iter()
                    .filter(|&&m| self.tasks[m].regs > peak)
                    .map(|&m| (m, Arc::new(saturated(stats, self.tasks[m].regs))))
                    .collect()
            }
            _ => Vec::new(),
        };
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.running -= 1;
        for &m in members {
            s.ready[m] = true;
        }
        for &(m, _) in &reused {
            s.taken[m] = true;
        }
        drop(s);
        if !members.is_empty() {
            self.wake.notify_all();
        }
        counters::count(Counter::SimsReused, reused.len() as u64);
        reused
    }
}

/// The highest live-register count a run reached in either class: the
/// highest non-zero `live_hist` bucket, which is the last one stored.
/// The count is sampled after the cycle's insertions and before its
/// staged frees return, and live counts only rise within a cycle, so
/// this is the run's allocation peak.
fn live_peak(stats: &SimStats) -> usize {
    stats.live_hist.iter().map(Vec::len).max().unwrap_or(0).saturating_sub(1)
}

/// The statistics of a family member with `regs` registers, from its
/// head's run that never held `regs` registers live: equal in every
/// field but the register count.
///
/// # Panics
///
/// Panics if a histogram holds a bucket above `regs` (the head's run
/// reached `regs`).
fn saturated(head: &SimStats, regs: usize) -> SimStats {
    assert!(
        head.live_hist.iter().chain(&head.live_hist_imprecise).all(|h| h.len() <= regs + 1),
        "saturation reuse from a run live above {regs} registers"
    );
    SimStats { phys_regs: regs, ..head.clone() }
}

/// Groups a batch's tasks by trace key — benchmark and seed — for
/// [`SimPool`] to run group by group: groups in first-appearance order,
/// task order kept inside each group. Batches put the benchmark
/// innermost, so running them in task order would keep every
/// benchmark's trace live for the whole batch.
fn trace_groups(tasks: &[&RunSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<(&str, u64), usize> = HashMap::new();
    for (t, spec) in tasks.iter().enumerate() {
        let g = *group_of.entry((spec.benchmark.as_str(), spec.seed)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(t);
    }
    groups
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
    use rf_core::ExceptionModel;

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

    /// A spec whose machine configuration panics: fewer registers than
    /// the renamer needs.
    fn invalid_spec() -> RunSpec {
        RunSpec::baseline("gcc1", 4).regs(16).commits(1_000)
    }

    fn assert_rejected(outcome: Result<&SimStats, &RunError>) {
        match outcome.expect_err("the invalid spec fails") {
            RunError::WorkerPanic { benchmark, payload } => {
                assert_eq!(benchmark, "gcc1");
                assert!(payload.contains("physical registers"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn an_invalid_spec_is_a_worker_panic_not_a_panic() {
        assert_rejected(try_simulate(&invalid_spec()).as_ref());
    }

    #[test]
    fn an_invalid_spec_fails_alone_in_a_pool_batch() {
        let good = RunSpec::baseline("espresso", 4).commits(1_000);
        let expected = simulate(&good);
        for jobs in [1, 3] {
            let pool = SimPool::new(jobs);
            let specs = [good.clone(), invalid_spec(), good.clone().regs(64)];
            let out = pool.try_run_many_cached(&specs, &RunCache::new());
            assert_eq!(out.len(), 3, "{jobs} workers");
            assert_eq!(**out[0].as_ref().expect("the good spec completes"), expected);
            assert_rejected(out[1].as_deref());
            assert!(out[2].is_ok(), "{jobs} workers: the batch survives");
        }
    }

    #[test]
    fn fp_subset_is_six_benchmarks() {
        let fp = fp_benchmarks();
        assert_eq!(fp.len(), 6);
        assert!(fp.contains(&"tomcatv".to_owned()));
        assert!(!fp.contains(&"gcc1".to_owned()));
    }

    #[test]
    fn answers_are_input_ordered_deduplicated_and_timed_once() {
        let cache = RunCache::new();
        let pool = SimPool::new(2);
        let a = RunSpec::baseline("espresso", 4).commits(2_000);
        let b = RunSpec::baseline("compress", 4).commits(2_000);
        let specs = vec![a.clone(), b.clone(), a.clone()];
        let out = pool.answer_many(&specs, &cache, BatchOpts::default());
        assert_eq!(out.len(), 3);
        let stats = |i: usize| Arc::clone(out[i].outcome.as_ref().expect("completes"));
        assert_eq!(*stats(0), *stats(2));
        assert_eq!(*stats(0), simulate(&a));
        assert_eq!(*stats(1), simulate(&b));
        // The duplicate was not simulated separately: one task, whose
        // time its first asker carries.
        assert_eq!(cache.len(), 2);
        assert!(out[0].task_ns.is_some_and(|ns| ns > 0));
        assert!(out[1].task_ns.is_some());
        assert_eq!(out[2].task_ns, None);
        // A cache-served answer carries no task time.
        let again = pool.answer_many(&[b], &cache, BatchOpts::default());
        assert_eq!(again[0].task_ns, None);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let cache = RunCache::disabled();
        let spec = RunSpec::baseline("ora", 4).commits(1_000);
        let pool = SimPool::new(1);
        let _ = pool.try_run_many_cached(std::slice::from_ref(&spec), &cache);
        let _ = pool.try_run_many_cached(&[spec], &cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn fault_probe_fails_only_its_own_spec() {
        // (a) a batch returns Err for the poisoned spec and Ok for
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
            BatchOpts { deadline: Some(Duration::from_micros(50)) },
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
            BatchOpts { deadline: Some(Duration::from_secs(3600)) },
        );
        assert_eq!(**out[0].as_ref().expect("completes well before an hour"), simulate(&spec));
    }

    /// Parses a config from `(variable, value)` pairs, never touching
    /// the process environment.
    fn parse(vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        let vars: HashMap<&str, &str> = vars.iter().copied().collect();
        RunConfig::from_vars(|name| vars.get(name).map(|v| (*v).to_owned()))
    }

    #[test]
    fn from_vars_reads_exactly_the_declared_knobs() {
        let read = Mutex::new(Vec::new());
        RunConfig::from_vars(|name| {
            read.lock().unwrap().push(name.to_owned());
            None
        })
        .unwrap();
        let mut read = read.into_inner().unwrap();
        read.sort();
        let mut declared: Vec<_> = KNOBS.iter().map(|k| k.name().to_owned()).collect();
        declared.sort();
        assert_eq!(read, declared);
    }

    #[test]
    fn run_config_parsing_is_strict() {
        // Unset knobs take their defaults.
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg.commits, None);
        assert_eq!(cfg.scale().commits, DEFAULT_COMMITS);
        assert!(cfg.jobs >= 1);
        assert!(!cfg.store && !cfg.profile && !cfg.sanitize);
        assert_eq!(cfg.store_dir, std::path::PathBuf::from("results/store"));
        assert!(cfg.telemetry.is_none());
        // Every malformed value is an error naming the variable and the
        // value; a typo'd knob fails even while its feature is off.
        let cases: [(&str, &str, &str); 13] = [
            ("RF_COMMITS", "200k", "RF_COMMITS=\"200k\""),
            ("RF_JOBS", "abc", "RF_JOBS=\"abc\""),
            ("RF_JOBS", "0", "RF_JOBS=\"0\""),
            ("RF_STORE", "maybe", "RF_STORE=\"maybe\""),
            ("RF_STORE", "2", "RF_STORE=\"2\""),
            ("RF_STORE_DIR", "  ", "RF_STORE_DIR=\"  \""),
            ("RF_PROFILE", "maybe", "RF_PROFILE=\"maybe\""),
            ("RF_SANITIZE", "maybe", "RF_SANITIZE=\"maybe\""),
            ("RF_SANITIZE", "", "RF_SANITIZE=\"\""),
            ("RF_TELEMETRY", "maybe", "RF_TELEMETRY=\"maybe\""),
            ("RF_TELEMETRY_INTERVAL_MS", "fast", "RF_TELEMETRY_INTERVAL_MS=\"fast\""),
            ("RF_TELEMETRY_INTERVAL_MS", "0", "RF_TELEMETRY_INTERVAL_MS=\"0\""),
            ("RF_TELEMETRY_INTERVAL_MS", "50ms", "RF_TELEMETRY_INTERVAL_MS=\"50ms\""),
        ];
        for (var, value, needle) in cases {
            let err = parse(&[(var, value)]).expect_err(var);
            assert!(err.contains(needle), "{var}={value} error: {err}");
        }
        // A zero budget is the usage error `--commits 0` is.
        let zero = parse(&[("RF_COMMITS", "0")]).unwrap_err();
        assert_eq!(zero, "RF_COMMITS: --commits 0 is below the minimum of 1");
        // All four switches take the same spellings, trimmed and in any
        // case, and `off` really is off.
        type Get = fn(&RunConfig) -> bool;
        let switches: [(&str, Get); 4] = [
            ("RF_STORE", |c| c.store),
            ("RF_PROFILE", |c| c.profile),
            ("RF_SANITIZE", |c| c.sanitize),
            ("RF_TELEMETRY", |c| c.telemetry.is_some()),
        ];
        let spellings = [("0", false), ("OFF", false), ("false", false), ("No", false)]
            .into_iter()
            .chain([("1", true), ("on", true), ("TRUE", true), ("yes", true)])
            .chain([(" 1", true), (" off", false)]);
        for (var, get) in switches {
            for (raw, on) in spellings.clone() {
                let cfg = parse(&[(var, raw)]).unwrap_or_else(|e| panic!("{var}={raw:?}: {e}"));
                assert_eq!(get(&cfg), on, "{var}={raw:?}");
            }
        }
        // Well-formed values come through.
        let cfg = parse(&[
            ("RF_COMMITS", " 2000"),
            ("RF_JOBS", "3"),
            ("RF_STORE", "1"),
            ("RF_STORE_DIR", "results/elsewhere"),
            ("RF_TELEMETRY", "1"),
        ])
        .unwrap();
        assert_eq!(cfg.commits, Some(2_000));
        assert_eq!(cfg.jobs, 3);
        assert_eq!(cfg.store_dir, std::path::PathBuf::from("results/elsewhere"));
        let interval = cfg.telemetry.expect("enabled").interval;
        assert_eq!(interval, Duration::from_millis(rf_obs::live::DEFAULT_INTERVAL_MS));
        let cfg = parse(&[("RF_TELEMETRY", "1"), ("RF_TELEMETRY_INTERVAL_MS", "50")]).unwrap();
        assert_eq!(cfg.telemetry.expect("enabled").interval, Duration::from_millis(50));
    }

    #[test]
    fn trace_groups_are_contiguous_in_first_appearance_order() {
        let spec = |bench: &str, seed: u64, commits: u64| RunSpec {
            seed,
            ..RunSpec::baseline(bench, 4).commits(commits)
        };
        let specs = [
            spec("gcc1", 12, 100),
            spec("ora", 12, 100),
            spec("gcc1", 13, 100),
            spec("ora", 12, 300),
            spec("gcc1", 12, 200),
            spec("ora", 13, 100),
            spec("gcc1", 12, 100),
        ];
        let tasks: Vec<&RunSpec> = specs.iter().collect();
        assert_eq!(
            trace_groups(&tasks),
            vec![vec![0, 4, 6], vec![1, 3], vec![2], vec![5]],
        );
        assert!(trace_groups(&[]).is_empty());
    }

    #[test]
    fn a_trace_group_frees_its_buffer_when_its_last_task_starts() {
        let spec = RunSpec::baseline("compress", 4).commits(500);
        let group = TraceGroup::new(800, 3);
        let (first, built_ns) = group.claim(&spec, None, 0).expect("builds");
        assert!(built_ns > 0);
        assert_eq!(first.len(), 800);
        let (second, again_ns) = group.claim(&spec, None, 0).expect("shares");
        assert_eq!(again_ns, 0);
        assert!(Arc::ptr_eq(&first, &second));
        let (third, _) = group.claim(&spec, None, 0).expect("shares");
        assert!(Arc::ptr_eq(&first, &third));
        // The group no longer holds it: the running tasks' references are
        // the only ones left.
        assert_eq!(Arc::strong_count(&first), 3);
        assert_eq!(TraceGroup::new(u64::MAX, 1).len, SharedTrace::MAX_BUFFERED);
    }

    #[test]
    fn a_reused_task_leaves_its_trace_group_freeable() {
        let spec = RunSpec::baseline("compress", 4).commits(500);
        let group = TraceGroup::new(800, 3);
        let (trace, _) = group.claim(&spec, None, 0).expect("builds");
        // The group's two other tasks are answered by reuse: they never
        // start, and the group lets go of the buffer.
        group.release();
        assert!(group.slot.lock().unwrap().trace.is_some(), "one task is left to start");
        group.release();
        assert!(group.slot.lock().unwrap().trace.is_none());
        assert_eq!(Arc::strong_count(&trace), 1, "only the running task holds the trace");
    }

    /// `spec` at `regs` registers.
    fn at(spec: &RunSpec, regs: usize) -> RunSpec {
        spec.clone().regs(regs)
    }

    #[test]
    fn families_run_heads_and_lone_tasks_first_then_members_by_descending_regs() {
        let base = RunSpec::baseline("gcc1", 4).commits(100);
        let other = RunSpec::baseline("ora", 4).commits(100);
        let specs = [
            at(&base, 64),
            at(&base, 256),
            at(&other, 48),
            base.clone().dq(16),
            at(&base, 128),
            at(&base, 32).exceptions(ExceptionModel::Imprecise),
            at(&base, 96).exceptions(ExceptionModel::Imprecise),
        ];
        let tasks: Vec<&RunSpec> = specs.iter().collect();
        let sched = Scheduler::new(&tasks, &trace_groups(&tasks));
        // gcc1's group: heads 1 (256) and 6 (imprecise 96), the lone
        // queue-size point 3, then members 4 (128), 0 (64), 5 (32); ora's
        // lone point last.
        assert_eq!(sched.order, [1, 3, 6, 4, 0, 5, 2]);
        assert_eq!(sched.members[1], [0, 4]);
        assert_eq!(sched.members[6], [5]);
        // Members wait for their head; everything else is ready.
        let ready = sched.state.lock().unwrap().ready.clone();
        assert_eq!(ready, [false, true, true, true, false, false, true]);
    }

    #[test]
    fn a_member_at_the_heads_peak_simulates_and_one_above_it_is_reused() {
        let spec = RunSpec::baseline("compress", 4).commits(2_000);
        let peak = live_peak(&simulate(&at(&spec, 256)));
        assert!((32..255).contains(&peak), "compress peaks at {peak} registers");
        let specs = [at(&spec, 256), at(&spec, peak), at(&spec, peak + 1)];
        let out = SimPool::new(1).answer_many(&specs, &RunCache::new(), BatchOpts::default());
        for (spec, answer) in specs.iter().zip(&out) {
            let stats = answer.outcome.as_ref().expect("completes");
            assert_eq!(**stats, simulate(spec), "regs={}", spec.regs);
        }
        let reused: Vec<bool> = out.iter().map(|a| a.reused).collect();
        assert_eq!(reused, [false, false, true], "reuse needs regs strictly above the peak");
        assert!(out[1].task_ns.is_some() && out[2].task_ns.is_none());
        let reused = out[2].outcome.as_ref().unwrap();
        assert_eq!(reused.phys_regs, peak + 1);
        assert!(reused.histograms_are_compact());
    }

    #[test]
    fn a_failed_head_fails_only_itself_and_its_members_run() {
        let fault = RunSpec::baseline(FAULT_BENCHMARK, 4).commits(2_000);
        let good = RunSpec::baseline("espresso", 4).commits(2_000);
        let specs = [at(&fault, 256), at(&good, 256), at(&fault, 128), at(&good, 128)];
        let out = SimPool::new(2).answer_many(&specs, &RunCache::new(), BatchOpts::default());
        for i in [0, 2] {
            // Each fault member ran its own task and failed on its own.
            assert!(!out[i].reused && out[i].task_ns.is_some(), "spec {i}");
            match out[i].outcome.as_ref().expect_err("the probe panics") {
                RunError::WorkerPanic { benchmark, .. } => assert_eq!(benchmark, FAULT_BENCHMARK),
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
        // The good family is untouched: its member is reused from its
        // own head.
        assert_eq!(**out[1].outcome.as_ref().unwrap(), simulate(&specs[1]));
        assert_eq!(**out[3].outcome.as_ref().unwrap(), simulate(&specs[3]));
        assert!(out[3].reused);
    }

    #[test]
    fn a_deadline_batch_fails_a_family_head_and_members_alike() {
        let spec = RunSpec::baseline("compress", 8).commits(5_000_000);
        let specs: Vec<RunSpec> = [256, 128, 64, 32].iter().map(|&r| at(&spec, r)).collect();
        for jobs in [1, 2] {
            let cache = RunCache::new();
            let out = SimPool::new(jobs).answer_many(
                &specs,
                &cache,
                BatchOpts { deadline: Some(Duration::from_micros(50)) },
            );
            for answer in &out {
                assert!(!answer.reused);
                match answer.outcome.as_ref().expect_err("deadline fires before 5M commits") {
                    RunError::DeadlineExceeded { .. } => {}
                    other => panic!("expected DeadlineExceeded, got {other:?}"),
                }
            }
            assert!(cache.is_empty());
        }
    }
}
