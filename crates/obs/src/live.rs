//! # rf-live — real-time suite telemetry
//!
//! Everything else in `rf-obs` is post-hoc: the ledger, the scorecard,
//! and the profiler all report after a run finishes. This module is the
//! live counterpart. It renders the process-wide run-counter registry
//! ([`rf_prof::counters`]: sims started/completed/failed, committed
//! instructions, cycles, stalls, skipped cycles, phase times, cache and
//! store lookups) as counts since [`start`], plus per-worker busy-time
//! cells fed by the run pool and the suite's progress through its plan
//! (specs answered of specs planned). A background sampler appends them as snapshot records to
//! `results/telemetry/live.jsonl` (schema-versioned, one JSON object per
//! line, atomic appends via [`ledger::append_line`]). That file is the
//! suite's one progress stream: `rfstudy top` tails it via
//! [`parse_stream`].
//!
//! Neutrality contract: counting is always on; telemetry off spawns
//! nothing and touches no file, so `results/*.txt` are byte-identical
//! either way. When on, counters are monotone for the lifetime of the
//! run and the final snapshot (written by [`finalize`] *before* any
//! post-suite probes run) reconciles exactly with the totals of the
//! run's ledger record; `crates/experiments/tests/telemetry.rs` asserts
//! both properties against the real suite binary.
//!
//! The suite enables the runtime with `RF_TELEMETRY=1` and sets the
//! sampler period with `RF_TELEMETRY_INTERVAL_MS=N` (default 250). This
//! module reads no environment: the suite's run configuration parses
//! both knobs and hands [`start`] a [`LiveConfig`].

use crate::json::Value;
use crate::ledger;
use rf_prof::counters::{self, Counter, Counts};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Version of the `live.jsonl` record schema. Bump when a record's
/// shape changes; readers refuse records they do not understand.
///
/// v2 dropped two counters of deleted features: the simulation points a
/// model-driven sweep filter substituted, and the bounded run cache's
/// LRU evictions. v3 renders the whole counter registry in
/// [`rf_prof::counters::Counter::ALL`] order: it drops `sims_cached` (always equal to
/// `cache_hits`) and gains the stall and phase-time counters. v4 drops
/// the header's `metrics_addr` with the deleted HTTP endpoint. v5
/// follows the one-batch suite plan: the suite block reports specs
/// `answered` of specs `planned` instead of harnesses done of total and
/// the harness in flight. v6 adds the `sims_reused` counter (batch
/// tasks answered by saturation reuse), and `answered` counts them.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 6;

/// Where the suite runner streams live snapshots (relative to the
/// invocation directory, alongside `results/history/suite.jsonl`).
pub const LIVE_PATH: &str = "results/telemetry/live.jsonl";

/// Per-worker cells beyond this index fold into the last cell. Far
/// above any realistic `RF_JOBS`.
pub const MAX_WORKERS: usize = 64;

/// Sampler period when `RF_TELEMETRY_INTERVAL_MS` is unset.
pub const DEFAULT_INTERVAL_MS: u64 = 250;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Telemetry configuration: how the runtime [`start`]s.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Sampler period.
    pub interval: Duration,
}

// ---------------------------------------------------------------------
// Worker cells and suite progress
// ---------------------------------------------------------------------

/// Whether the live runtime is running; gates the per-worker cells (the
/// counter registry itself is always on).
static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const CELL: AtomicU64 = AtomicU64::new(0);
static WORKER_BUSY_NS: [AtomicU64; MAX_WORKERS] = [CELL; MAX_WORKERS];
static WORKER_SIMS: [AtomicU64; MAX_WORKERS] = [CELL; MAX_WORKERS];
static WORKERS_SEEN: AtomicUsize = AtomicUsize::new(0);
/// Specs the running suite plans to answer.
static PLANNED: AtomicU64 = AtomicU64::new(0);

/// Whether the live runtime is running. The worker-cell hook checks this
/// first, so a stopped runtime costs one relaxed load per task.
#[inline]
fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Pool worker `worker` spent `nanos` wall-nanoseconds executing one
/// batch task.
#[inline]
pub fn worker_task(worker: usize, nanos: u64) {
    if is_enabled() {
        let i = worker.min(MAX_WORKERS - 1);
        WORKER_BUSY_NS[i].fetch_add(nanos, Ordering::Relaxed);
        WORKER_SIMS[i].fetch_add(1, Ordering::Relaxed);
        WORKERS_SEEN.fetch_max(i + 1, Ordering::Relaxed);
    }
}

fn reset_workers() {
    for i in 0..MAX_WORKERS {
        WORKER_BUSY_NS[i].store(0, Ordering::Relaxed);
        WORKER_SIMS[i].store(0, Ordering::Relaxed);
    }
    WORKERS_SEEN.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One worker's cumulative cell values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSample {
    /// Worker index within the pool (0-based).
    pub id: usize,
    /// Cumulative wall-nanoseconds spent executing batch tasks.
    pub busy_ns: u64,
    /// Cumulative batch tasks executed.
    pub sims: u64,
}

/// Suite-level progress at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuiteView {
    /// Distinct specs the suite plans to answer.
    pub planned: u64,
    /// Specs answered so far: simulated (to completion or failure),
    /// reused from a saturated run, or served by the run cache or the
    /// store.
    pub answered: u64,
}

/// Reads the current per-worker cells (workers observed so far).
fn workers_now() -> Vec<WorkerSample> {
    let seen = WORKERS_SEEN.load(Ordering::Relaxed).min(MAX_WORKERS);
    (0..seen)
        .map(|i| WorkerSample {
            id: i,
            busy_ns: WORKER_BUSY_NS[i].load(Ordering::Relaxed),
            sims: WORKER_SIMS[i].load(Ordering::Relaxed),
        })
        .collect()
}

/// The suite progress behind counts `c` since [`start`].
fn suite_now(c: &Counts) -> SuiteView {
    let answered = [
        Counter::SimsCompleted,
        Counter::SimsFailed,
        Counter::SimsReused,
        Counter::CacheHits,
        Counter::StoreHits,
    ]
    .into_iter()
    .map(|k| c.get(k))
    .sum();
    SuiteView { planned: PLANNED.load(Ordering::Relaxed), answered }
}

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

/// The run-header record that opens every telemetry stream.
pub fn header_value(timestamp_unix: u64, interval_ms: u64, commits: u64, jobs: u64) -> Value {
    Value::Object(vec![
        ("schema".into(), num(SNAPSHOT_SCHEMA_VERSION)),
        ("event".into(), Value::String("start".into())),
        ("timestamp_unix".into(), num(timestamp_unix)),
        ("interval_ms".into(), num(interval_ms)),
        ("commits".into(), num(commits)),
        ("jobs".into(), num(jobs)),
    ])
}

/// One snapshot record. The final record (`is_final`) additionally
/// carries a digest of the counter set (see [`digest_counters`]) that
/// the ledger's telemetry block repeats, tying the two artifacts
/// together.
pub fn snapshot_value(
    seq: u64,
    elapsed_s: f64,
    is_final: bool,
    c: &Counts,
    workers: &[WorkerSample],
    suite: &SuiteView,
) -> Value {
    let counters = Value::Object(c.iter().map(|(k, v)| (k.into(), num(v))).collect());
    let workers = Value::Array(
        workers
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("id".into(), num(w.id as u64)),
                    ("busy_ns".into(), num(w.busy_ns)),
                    ("sims".into(), num(w.sims)),
                ])
            })
            .collect(),
    );
    let suite = Value::Object(vec![
        ("planned".into(), num(suite.planned)),
        ("answered".into(), num(suite.answered)),
    ]);
    let mut members = vec![
        ("schema".into(), num(SNAPSHOT_SCHEMA_VERSION)),
        ("event".into(), Value::String("snap".into())),
        ("seq".into(), num(seq)),
        ("elapsed_s".into(), Value::Number(elapsed_s)),
        ("final".into(), Value::Bool(is_final)),
        ("counters".into(), counters),
        ("workers".into(), workers),
        ("suite".into(), suite),
    ];
    if is_final {
        members.push(("digest".into(), Value::String(digest_counters(c))));
    }
    Value::Object(members)
}

/// FNV-1a digest of the canonical counter tuple, hex-encoded. Stable
/// across platforms; used to tie the ledger's telemetry block to the
/// final `live.jsonl` snapshot.
pub fn digest_counters(c: &Counts) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, v) in c.iter() {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------
// Runtime: sampler thread and JSONL sink
// ---------------------------------------------------------------------

struct Runtime {
    interval_ms: u64,
    started: Instant,
    /// Registry snapshot at [`start`]; every rendered snapshot counts
    /// since it.
    baseline: Counts,
    path: PathBuf,
    seq: Arc<AtomicU64>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    sampler: thread::JoinHandle<()>,
}

static RUNTIME: Mutex<Option<Runtime>> = Mutex::new(None);

/// What [`finalize`] hands back for the ledger's telemetry block.
#[derive(Debug, Clone)]
pub struct FinalTelemetry {
    /// Configured sampler period.
    pub interval_ms: u64,
    /// Snapshot records written (including the final one).
    pub snapshots: u64,
    /// [`digest_counters`] of the final counter set.
    pub digest: String,
    /// The final counter values themselves.
    pub counters: Counts,
}

/// Starts the live runtime for a suite that plans to answer `planned`
/// specs: takes the counter baseline, resets the worker cells, writes
/// the stream header to [`LIVE_PATH`], spawns the sampler, and enables
/// the worker hook. Idempotent — a second call while running is a
/// no-op.
///
/// # Errors
///
/// Propagates I/O failures creating `results/telemetry/` or spawning
/// the sampler thread.
pub fn start(cfg: &LiveConfig, commits: u64, jobs: u64, planned: u64) -> io::Result<()> {
    start_at(PathBuf::from(LIVE_PATH), cfg, commits, jobs, planned)
}

fn start_at(
    path: PathBuf,
    cfg: &LiveConfig,
    commits: u64,
    jobs: u64,
    planned: u64,
) -> io::Result<()> {
    let mut slot = RUNTIME.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_some() {
        return Ok(());
    }
    let baseline = counters::snapshot();
    reset_workers();
    PLANNED.store(planned, Ordering::Relaxed);

    let started = Instant::now();
    let seq = Arc::new(AtomicU64::new(0));
    let header =
        header_value(ledger::unix_timestamp(), cfg.interval.as_millis() as u64, commits, jobs);
    ledger::append_line(&path, &header.to_string())?;

    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let sampler = {
        let (stop, seq, path) = (Arc::clone(&stop), Arc::clone(&seq), path.clone());
        let interval = cfg.interval;
        thread::Builder::new().name("rf-live-sampler".into()).spawn(move || loop {
            let (lock, cvar) = &*stop;
            let mut guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            // A stop signalled before this wait began would otherwise be
            // lost, stalling `finalize` for a whole interval.
            if !*guard {
                guard = cvar
                    .wait_timeout(guard, interval)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if *guard {
                return;
            }
            drop(guard);
            let s = seq.fetch_add(1, Ordering::Relaxed) + 1;
            let c = counters::snapshot().since(&baseline);
            let snap = snapshot_value(
                s,
                started.elapsed().as_secs_f64(),
                false,
                &c,
                &workers_now(),
                &suite_now(&c),
            );
            let _ = ledger::append_line(&path, &snap.to_string());
        })?
    };

    ENABLED.store(true, Ordering::Relaxed);
    *slot = Some(Runtime {
        interval_ms: cfg.interval.as_millis() as u64,
        started,
        baseline,
        path,
        seq,
        stop,
        sampler,
    });
    Ok(())
}

/// Stops the sampler, takes the final counter snapshot, writes it (with
/// digest), and returns the summary for the ledger. `None` if the
/// runtime was never started. Call this *before* any post-suite probe
/// work so the final counters reconcile with the ledger record's totals.
pub fn finalize() -> Option<FinalTelemetry> {
    let rt = RUNTIME.lock().unwrap_or_else(PoisonError::into_inner).take()?;
    {
        let (lock, cvar) = &*rt.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
    }
    let _ = rt.sampler.join();
    ENABLED.store(false, Ordering::Relaxed);
    let counters = counters::snapshot().since(&rt.baseline);
    let seq = rt.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let snap = snapshot_value(
        seq,
        rt.started.elapsed().as_secs_f64(),
        true,
        &counters,
        &workers_now(),
        &suite_now(&counters),
    );
    let _ = ledger::append_line(&rt.path, &snap.to_string());
    Some(FinalTelemetry {
        interval_ms: rt.interval_ms,
        snapshots: seq,
        digest: digest_counters(&counters),
        counters,
    })
}

// ---------------------------------------------------------------------
// Stream reading (rfstudy top, tests)
// ---------------------------------------------------------------------

/// The run-header record of a telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHeader {
    /// Record schema version.
    pub schema: u64,
    /// Sampler period the run was configured with.
    pub interval_ms: u64,
    /// Commit budget of the run.
    pub commits: u64,
    /// Worker count of the run.
    pub jobs: u64,
}

/// One parsed snapshot record.
#[derive(Debug, Clone, PartialEq)]
pub struct Snap {
    /// Monotone sequence number within the run.
    pub seq: u64,
    /// Wall-seconds since telemetry start.
    pub elapsed_s: f64,
    /// Whether this is the closing snapshot.
    pub is_final: bool,
    /// Counter values at snapshot time (counts since the run's start).
    pub counters: Counts,
    /// Per-worker cells at snapshot time.
    pub workers: Vec<WorkerSample>,
    /// Suite progress at snapshot time.
    pub suite: SuiteView,
    /// Final-snapshot digest, when present.
    pub digest: Option<String>,
}

fn snap_from_value(v: &Value) -> Result<Snap, String> {
    let schema = v.get_f64("schema").unwrap_or(0.0) as u64;
    if schema != SNAPSHOT_SCHEMA_VERSION {
        return Err(format!(
            "snapshot has schema {schema}, this build reads {SNAPSHOT_SCHEMA_VERSION}"
        ));
    }
    let suite = v.get("suite").ok_or("snapshot missing suite block")?;
    let counters = v.get("counters").ok_or("snapshot missing counters")?;
    Ok(Snap {
        seq: v.get_f64("seq").ok_or("snapshot missing seq")? as u64,
        elapsed_s: v.get_f64("elapsed_s").unwrap_or(0.0),
        is_final: v.get("final").and_then(Value::as_bool).unwrap_or(false),
        counters: Counts::from_fn(|c| counters.get_f64(c.name()).unwrap_or(0.0) as u64),
        workers: v
            .get("workers")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|w| WorkerSample {
                id: w.get_f64("id").unwrap_or(0.0) as usize,
                busy_ns: w.get_f64("busy_ns").unwrap_or(0.0) as u64,
                sims: w.get_f64("sims").unwrap_or(0.0) as u64,
            })
            .collect(),
        suite: SuiteView {
            planned: suite.get_f64("planned").unwrap_or(0.0) as u64,
            answered: suite.get_f64("answered").unwrap_or(0.0) as u64,
        },
        digest: v.get_str("digest").map(str::to_owned),
    })
}

/// Parses a telemetry stream: returns the **latest** run's header and
/// its snapshots (a new `start` record resets the accumulation, so a
/// re-used `live.jsonl` yields the most recent run).
///
/// A malformed **final** line is skipped with a warning on stderr
/// instead of failing the parse: `rfstudy top` tails this file while a
/// sampler is appending to it (and a crashed sampler leaves a torn
/// tail), so the last line being incomplete is an expected state, not
/// corruption.
///
/// # Errors
///
/// Returns a message for malformed interior lines or unknown schema
/// versions.
pub fn parse_stream(text: &str) -> Result<(Option<StreamHeader>, Vec<Snap>), String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let mut header = None;
    let mut snaps = Vec::new();
    for (k, &(i, line)) in lines.iter().enumerate() {
        let v = match crate::json::parse(line) {
            Ok(v) => v,
            Err(e) if k + 1 == lines.len() => {
                eprintln!(
                    "warning: telemetry line {}: skipping torn final record ({e})",
                    i + 1
                );
                continue;
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        };
        match v.get_str("event") {
            Some("start") => {
                let schema = v.get_f64("schema").unwrap_or(0.0) as u64;
                if schema != SNAPSHOT_SCHEMA_VERSION {
                    return Err(format!(
                        "line {}: stream has schema {schema}, this build reads \
                         {SNAPSHOT_SCHEMA_VERSION}",
                        i + 1
                    ));
                }
                header = Some(StreamHeader {
                    schema,
                    interval_ms: v.get_f64("interval_ms").unwrap_or(0.0) as u64,
                    commits: v.get_f64("commits").unwrap_or(0.0) as u64,
                    jobs: v.get_f64("jobs").unwrap_or(0.0) as u64,
                });
                snaps.clear();
            }
            Some("snap") => snaps.push(snap_from_value(&v).map_err(|e| {
                format!("line {}: {e}", i + 1)
            })?),
            _ => return Err(format!("line {}: unknown telemetry event", i + 1)),
        }
    }
    Ok((header, snaps))
}

#[cfg(test)]
mod torn_tests {
    use super::*;

    #[test]
    fn parse_stream_skips_a_torn_final_line() {
        let c = Counts::default();
        let s = SuiteView::default();
        let whole = format!(
            "{}\n{}\n",
            header_value(1, 250, 100, 1),
            snapshot_value(1, 0.1, false, &c, &[], &s),
        );
        // A crash (or an in-flight append) truncates the stream
        // mid-record; everything before the tear still parses.
        let torn = &whole[..whole.len() - 10];
        let (header, snaps) = parse_stream(torn).expect("torn tail is tolerated");
        assert!(header.is_some());
        assert_eq!(snaps.len(), 0, "the torn snapshot is dropped");
        let torn_later = format!("{whole}{{\"event\":\"snap\",\"tr");
        let (header, snaps) = parse_stream(&torn_later).expect("torn tail is tolerated");
        assert!(header.is_some());
        assert_eq!(snaps.len(), 1, "intact records before the tear survive");
        // An interior malformed line is still a hard error.
        let bad = format!("not json\n{whole}");
        assert!(parse_stream(&bad).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> Counts {
        Counts::from_fn(|c| 1_000 + 37 * c as u64)
    }

    #[test]
    fn snapshot_round_trips_through_parse_stream() {
        let c = sample_counters();
        let workers = vec![
            WorkerSample { id: 0, busy_ns: 1_000_000, sims: 20 },
            WorkerSample { id: 1, busy_ns: 900_000, sims: 18 },
        ];
        let suite = SuiteView { planned: 1226, answered: 300 };
        let header = header_value(1_754_000_000, 250, 200_000, 2);
        let mid = snapshot_value(1, 1.25, false, &c, &workers, &suite);
        let fin = snapshot_value(2, 2.5, true, &c, &workers, &suite);
        let text = format!("{header}\n{mid}\n{fin}\n");

        let (h, snaps) = parse_stream(&text).expect("stream parses");
        let h = h.expect("header present");
        assert_eq!(
            (h.interval_ms, h.commits, h.jobs),
            (250, 200_000, 2)
        );
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].counters, c);
        assert_eq!(snaps[0].workers, workers);
        assert_eq!(snaps[0].suite, suite);
        assert!(!snaps[0].is_final && snaps[0].digest.is_none());
        assert!(snaps[1].is_final);
        assert_eq!(snaps[1].digest.as_deref(), Some(digest_counters(&c).as_str()));
    }

    #[test]
    fn a_second_run_header_resets_the_stream() {
        let c = sample_counters();
        let s = SuiteView::default();
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            header_value(1, 250, 100, 1),
            snapshot_value(1, 0.1, true, &c, &[], &s),
            header_value(2, 100, 200, 2),
            snapshot_value(1, 0.1, false, &c, &[], &s),
        );
        let (h, snaps) = parse_stream(&text).unwrap();
        assert_eq!(h.unwrap().commits, 200);
        assert_eq!(snaps.len(), 1);
        assert!(!snaps[0].is_final);
    }

    #[test]
    fn digest_is_stable_and_value_sensitive() {
        let c = sample_counters();
        assert_eq!(digest_counters(&c), digest_counters(&sample_counters()));
        let d = Counts::from_fn(|k| c.get(k) + u64::from(k == Counter::Cycles));
        assert_ne!(digest_counters(&c), digest_counters(&d));
        assert_eq!(digest_counters(&c).len(), 16);
    }

    #[test]
    fn snapshots_count_from_start_and_worker_cells_only_while_running() {
        // No other test in this binary touches the cache or store
        // counters, so their deltas here are exact.
        let dir = std::env::temp_dir().join(format!("rf-live-start-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("live.jsonl");
        counters::count(Counter::CacheHits, 5);
        counters::count(Counter::StoreWrites, 2);
        worker_task(0, 99);
        assert!(workers_now().is_empty(), "worker cells are inert before start");

        let cfg = LiveConfig { interval: Duration::from_secs(3600) };
        start_at(path.clone(), &cfg, 100, 2, 1_226).expect("runtime starts");
        counters::count(Counter::CacheHits, 3);
        worker_task(1, 500);
        worker_task(MAX_WORKERS + 5, 7); // clamps into the last cell
        let workers = workers_now();
        assert_eq!(workers.len(), MAX_WORKERS, "clamped id registers the last cell");
        assert_eq!(workers[1], WorkerSample { id: 1, busy_ns: 500, sims: 1 });
        assert_eq!(workers[MAX_WORKERS - 1].busy_ns, 7);

        let fin = finalize().expect("runtime was running");
        assert_eq!(fin.counters.get(Counter::CacheHits), 3, "counts before start excluded");
        assert_eq!(fin.counters.get(Counter::StoreWrites), 0);
        let (_, snaps) =
            parse_stream(&std::fs::read_to_string(&path).unwrap()).expect("stream parses");
        let last = snaps.last().expect("final snapshot written");
        assert!(last.is_final);
        assert_eq!(last.counters, fin.counters);
        assert_eq!(last.digest.as_deref(), Some(fin.digest.as_str()));
        // The three cache hits since start are the only answers so far.
        assert_eq!(last.suite, SuiteView { planned: 1_226, answered: 3 });

        worker_task(1, 500);
        assert_eq!(workers_now()[1].sims, 1, "worker cells are inert after finalize");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
