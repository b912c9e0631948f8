//! # rf-live — real-time suite telemetry
//!
//! Everything else in `rf-obs` is post-hoc: the ledger, the scorecard,
//! and the profiler all report after a run finishes. This module is the
//! live counterpart. It renders the process-wide run-counter registry
//! ([`rf_prof::counters`]: sims started/completed/failed, committed
//! instructions, cycles, stalls, skipped cycles, phase times, cache and
//! store lookups) as counts since [`start`], plus per-worker busy-time
//! cells fed by the run pool and suite progress fed by the suite bench.
//! A background sampler drains them into three sinks:
//!
//! 1. append-only snapshot records in `results/telemetry/live.jsonl`
//!    (schema-versioned, one JSON object per line, atomic appends via
//!    [`ledger::append_line`]);
//! 2. an optional std-only HTTP endpoint (`RF_METRICS_ADDR`) serving
//!    `/metrics` in Prometheus text exposition format and
//!    `/snapshot.json`;
//! 3. the `rfstudy top` terminal view, which tails the JSONL via
//!    [`parse_stream`].
//!
//! Neutrality contract: counting is always on; telemetry off spawns
//! nothing and touches no file, so `results/*.txt` are byte-identical
//! either way. When on, counters are monotone for the lifetime of the
//! run and the final snapshot (written by [`finalize`] *before* any
//! post-suite probes run) reconciles exactly with the corresponding
//! `BENCH_suite.json` totals; `crates/experiments/tests/telemetry.rs`
//! asserts both properties against the real suite binary.
//!
//! Knobs (strict-parsed by [`env_config`], like every other `RF_*`
//! knob — malformed values exit 2 before any simulation starts):
//!
//! - `RF_TELEMETRY=1` — enable the runtime (`0/off/false/no` and unset
//!   disable it).
//! - `RF_TELEMETRY_INTERVAL_MS=N` — sampler period, default 250.
//! - `RF_METRICS_ADDR=host:port` — bind the live endpoint; port 0 picks
//!   a free port, and the bound address is printed to stderr as
//!   `[rf-live] metrics_addr=<addr>` so scripts (and CI) can find it.

use crate::json::Value;
use crate::ledger;
use rf_prof::counters::{self, Counts};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
/// `cache_hits`) and gains the stall and phase-time counters.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 3;

/// Where the suite runner streams live snapshots (relative to the
/// invocation directory, alongside `results/history/suite.jsonl`).
pub const LIVE_PATH: &str = "results/telemetry/live.jsonl";

/// Per-worker cells beyond this index fold into the last cell. Far
/// above any realistic `RF_JOBS`.
pub const MAX_WORKERS: usize = 64;

const DEFAULT_INTERVAL_MS: u64 = 250;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Validated telemetry configuration from the environment.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Sampler period.
    pub interval: Duration,
    /// Address to bind the live HTTP endpoint on, if requested.
    pub metrics_addr: Option<SocketAddr>,
}

fn parse_switch(name: &str, raw: &str) -> Result<bool, String> {
    match raw.to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" => Ok(false),
        "1" | "on" | "true" | "yes" => Ok(true),
        _ => Err(format!(
            "invalid {name} value '{raw}': expected 1/0, on/off, true/false, or yes/no"
        )),
    }
}

/// Reads and validates the telemetry knobs. `Ok(None)` means telemetry
/// is off; all three variables are validated regardless so a typo'd
/// knob fails fast even when `RF_TELEMETRY` is unset.
///
/// # Errors
///
/// Returns a message naming the offending variable and value.
pub fn env_config() -> Result<Option<LiveConfig>, String> {
    let enabled = match std::env::var("RF_TELEMETRY") {
        Err(_) => false,
        Ok(raw) => parse_switch("RF_TELEMETRY", &raw)?,
    };
    let interval_ms = match std::env::var("RF_TELEMETRY_INTERVAL_MS") {
        Err(_) => DEFAULT_INTERVAL_MS,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => ms,
            _ => {
                return Err(format!(
                    "invalid RF_TELEMETRY_INTERVAL_MS value '{raw}': expected a \
                     positive integer number of milliseconds"
                ))
            }
        },
    };
    let metrics_addr = match std::env::var("RF_METRICS_ADDR") {
        Err(_) => None,
        Ok(raw) => Some(raw.trim().parse::<SocketAddr>().map_err(|_| {
            format!(
                "invalid RF_METRICS_ADDR value '{raw}': expected host:port \
                 (e.g. 127.0.0.1:9090; port 0 picks a free port)"
            )
        })?),
    };
    if !enabled {
        return Ok(None);
    }
    Ok(Some(LiveConfig { interval: Duration::from_millis(interval_ms), metrics_addr }))
}

// ---------------------------------------------------------------------
// Worker cells and suite progress
// ---------------------------------------------------------------------

/// Whether the live runtime is running; gates the per-worker cells and
/// suite progress (the counter registry itself is always on).
static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const CELL: AtomicU64 = AtomicU64::new(0);
static WORKER_BUSY_NS: [AtomicU64; MAX_WORKERS] = [CELL; MAX_WORKERS];
static WORKER_SIMS: [AtomicU64; MAX_WORKERS] = [CELL; MAX_WORKERS];
static WORKERS_SEEN: AtomicUsize = AtomicUsize::new(0);

struct SuiteState {
    total: u64,
    done: u64,
    current: Option<(String, Instant)>,
}

static SUITE: Mutex<Option<SuiteState>> = Mutex::new(None);

fn suite_lock() -> std::sync::MutexGuard<'static, Option<SuiteState>> {
    SUITE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the live runtime is running. The worker-cell and suite hooks
/// check this first, so a stopped runtime costs one relaxed load per
/// hook.
#[inline]
pub fn is_enabled() -> bool {
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

/// The suite bench started timing harness `name`.
pub fn harness_started(name: &str) {
    if is_enabled() {
        if let Some(st) = suite_lock().as_mut() {
            st.current = Some((name.to_owned(), Instant::now()));
        }
    }
}

/// The suite bench finished the current harness.
pub fn harness_finished() {
    if is_enabled() {
        if let Some(st) = suite_lock().as_mut() {
            st.done += 1;
            st.current = None;
        }
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteView {
    /// Harnesses the suite plans to run.
    pub total: u64,
    /// Harnesses finished so far.
    pub done: u64,
    /// Name of the harness currently running, if any.
    pub current: Option<String>,
    /// Wall-seconds the current harness has been running.
    pub current_elapsed_s: f64,
}

/// Reads the current per-worker cells (workers observed so far).
pub fn workers_now() -> Vec<WorkerSample> {
    let seen = WORKERS_SEEN.load(Ordering::Relaxed).min(MAX_WORKERS);
    (0..seen)
        .map(|i| WorkerSample {
            id: i,
            busy_ns: WORKER_BUSY_NS[i].load(Ordering::Relaxed),
            sims: WORKER_SIMS[i].load(Ordering::Relaxed),
        })
        .collect()
}

/// Reads the current suite progress.
pub fn suite_now() -> SuiteView {
    match suite_lock().as_ref() {
        None => SuiteView::default(),
        Some(st) => SuiteView {
            total: st.total,
            done: st.done,
            current: st.current.as_ref().map(|(n, _)| n.clone()),
            current_elapsed_s: st
                .current
                .as_ref()
                .map_or(0.0, |(_, t0)| t0.elapsed().as_secs_f64()),
        },
    }
}

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

/// The run-header record that opens every telemetry stream.
pub fn header_value(
    timestamp_unix: u64,
    interval_ms: u64,
    commits: u64,
    jobs: u64,
    metrics_addr: Option<&str>,
) -> Value {
    Value::Object(vec![
        ("schema".into(), num(SNAPSHOT_SCHEMA_VERSION)),
        ("event".into(), Value::String("start".into())),
        ("timestamp_unix".into(), num(timestamp_unix)),
        ("interval_ms".into(), num(interval_ms)),
        ("commits".into(), num(commits)),
        ("jobs".into(), num(jobs)),
        (
            "metrics_addr".into(),
            metrics_addr.map_or(Value::Null, |a| Value::String(a.to_owned())),
        ),
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
        ("total".into(), num(suite.total)),
        ("done".into(), num(suite.done)),
        (
            "current".into(),
            suite.current.as_ref().map_or(Value::Null, |n| Value::String(n.clone())),
        ),
        ("current_elapsed_s".into(), Value::Number(suite.current_elapsed_s)),
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

/// Renders the current counters in Prometheus text exposition format —
/// the same dialect `trend.rs` writes for `rfstudy report --prom`, with
/// an `rf_live_` prefix so scrapes of a live run and of the ledger
/// never collide.
pub fn render_prometheus(
    c: &Counts,
    workers: &[WorkerSample],
    suite: &SuiteView,
    elapsed_s: f64,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, value) in c.iter() {
        let _ = writeln!(out, "# HELP rf_live_{name} Live suite counter.");
        let _ = writeln!(out, "# TYPE rf_live_{name} counter");
        let _ = writeln!(out, "rf_live_{name} {value}");
    }
    if !workers.is_empty() {
        let _ = writeln!(out, "# HELP rf_live_worker_busy_ns Cumulative busy wall-ns per worker.");
        let _ = writeln!(out, "# TYPE rf_live_worker_busy_ns counter");
        for w in workers {
            let _ = writeln!(out, "rf_live_worker_busy_ns{{worker=\"{}\"}} {}", w.id, w.busy_ns);
        }
        let _ = writeln!(out, "# HELP rf_live_worker_sims Batch tasks executed per worker.");
        let _ = writeln!(out, "# TYPE rf_live_worker_sims counter");
        for w in workers {
            let _ = writeln!(out, "rf_live_worker_sims{{worker=\"{}\"}} {}", w.id, w.sims);
        }
    }
    let _ = writeln!(out, "# HELP rf_live_suite_harnesses_total Harnesses planned this run.");
    let _ = writeln!(out, "# TYPE rf_live_suite_harnesses_total gauge");
    let _ = writeln!(out, "rf_live_suite_harnesses_total {}", suite.total);
    let _ = writeln!(out, "# HELP rf_live_suite_harnesses_done Harnesses finished so far.");
    let _ = writeln!(out, "# TYPE rf_live_suite_harnesses_done gauge");
    let _ = writeln!(out, "rf_live_suite_harnesses_done {}", suite.done);
    let _ = writeln!(out, "# HELP rf_live_elapsed_seconds Wall-seconds since telemetry start.");
    let _ = writeln!(out, "# TYPE rf_live_elapsed_seconds gauge");
    let _ = writeln!(out, "rf_live_elapsed_seconds {elapsed_s}");
    out
}

// ---------------------------------------------------------------------
// Runtime: sampler thread, JSONL sink, HTTP endpoint
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

/// Starts the live runtime: takes the counter baseline, resets the
/// worker cells, writes the stream header to [`LIVE_PATH`], spawns the
/// sampler (and, if configured, the HTTP endpoint), and enables the
/// worker and suite hooks. Idempotent — a second call while running is
/// a no-op.
///
/// # Errors
///
/// Propagates I/O failures binding the endpoint, creating
/// `results/telemetry/`, or spawning the sampler thread.
pub fn start(cfg: &LiveConfig, commits: u64, jobs: u64, harnesses_total: u64) -> io::Result<()> {
    start_at(PathBuf::from(LIVE_PATH), cfg, commits, jobs, harnesses_total)
}

fn start_at(
    path: PathBuf,
    cfg: &LiveConfig,
    commits: u64,
    jobs: u64,
    harnesses_total: u64,
) -> io::Result<()> {
    let mut slot = RUNTIME.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_some() {
        return Ok(());
    }
    let baseline = counters::snapshot();
    reset_workers();
    *suite_lock() = Some(SuiteState { total: harnesses_total, done: 0, current: None });

    let started = Instant::now();
    let seq = Arc::new(AtomicU64::new(0));
    let bound = match cfg.metrics_addr {
        None => None,
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            let local = listener.local_addr()?;
            // Parseable by scripts: CI greps this line for the port.
            eprintln!("[rf-live] metrics_addr={local}");
            let (started, seq) = (started, Arc::clone(&seq));
            thread::Builder::new()
                .name("rf-live-http".into())
                .spawn(move || serve_endpoint(&listener, started, &baseline, &seq))?;
            Some(local.to_string())
        }
    };

    let header = header_value(
        ledger::unix_timestamp(),
        cfg.interval.as_millis() as u64,
        commits,
        jobs,
        bound.as_deref(),
    );
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
            let snap = snapshot_value(
                s,
                started.elapsed().as_secs_f64(),
                false,
                &counters::snapshot().since(&baseline),
                &workers_now(),
                &suite_now(),
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
/// work so the final counters reconcile with `BENCH_suite.json`.
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
        &suite_now(),
    );
    let _ = ledger::append_line(&rt.path, &snap.to_string());
    Some(FinalTelemetry {
        interval_ms: rt.interval_ms,
        snapshots: seq,
        digest: digest_counters(&counters),
        counters,
    })
}

/// Single-threaded accept loop: requests are served one at a time from
/// live counter reads, so the endpoint itself never blocks producers.
fn serve_endpoint(listener: &TcpListener, started: Instant, baseline: &Counts, seq: &AtomicU64) {
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        let _ = handle_request(&mut stream, started, baseline, seq);
    }
}

fn handle_request(
    stream: &mut TcpStream,
    started: Instant,
    baseline: &Counts,
    seq: &AtomicU64,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 8192 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&req);
    let path = head.split_whitespace().nth(1).unwrap_or("/");
    let elapsed = started.elapsed().as_secs_f64();
    let counts = counters::snapshot().since(baseline);
    let (status, ctype, body) = match path {
        "/metrics" | "/" => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_prometheus(&counts, &workers_now(), &suite_now(), elapsed),
        ),
        "/snapshot.json" => (
            "200 OK",
            "application/json",
            format!(
                "{}\n",
                snapshot_value(
                    seq.load(Ordering::Relaxed),
                    elapsed,
                    false,
                    &counts,
                    &workers_now(),
                    &suite_now(),
                )
            ),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())
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
            total: suite.get_f64("total").unwrap_or(0.0) as u64,
            done: suite.get_f64("done").unwrap_or(0.0) as u64,
            current: suite.get_str("current").map(str::to_owned),
            current_elapsed_s: suite.get_f64("current_elapsed_s").unwrap_or(0.0),
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
            header_value(1, 250, 100, 1, None),
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
    use rf_prof::counters::Counter;

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
        let suite = SuiteView {
            total: 12,
            done: 3,
            current: Some("fig5".into()),
            current_elapsed_s: 0.5,
        };
        let header = header_value(1_754_000_000, 250, 200_000, 2, Some("127.0.0.1:9090"));
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
            header_value(1, 250, 100, 1, None),
            snapshot_value(1, 0.1, true, &c, &[], &s),
            header_value(2, 100, 200, 2, None),
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
    fn prometheus_rendering_names_every_counter() {
        let c = sample_counters();
        let workers = vec![WorkerSample { id: 0, busy_ns: 5, sims: 1 }];
        let suite = SuiteView { total: 12, done: 4, current: None, current_elapsed_s: 0.0 };
        let out = render_prometheus(&c, &workers, &suite, 3.5);
        for (name, value) in c.iter() {
            assert!(
                out.contains(&format!("rf_live_{name} {value}")),
                "missing {name}:\n{out}"
            );
            assert!(out.contains(&format!("# TYPE rf_live_{name} counter")));
        }
        assert!(out.contains("rf_live_worker_busy_ns{worker=\"0\"} 5"));
        assert!(out.contains("rf_live_suite_harnesses_done 4"));
        assert!(out.contains("rf_live_elapsed_seconds 3.5"));
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

        let cfg = LiveConfig { interval: Duration::from_secs(3600), metrics_addr: None };
        start_at(path.clone(), &cfg, 100, 2, 1).expect("runtime starts");
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

        worker_task(1, 500);
        assert_eq!(workers_now()[1].sims, 1, "worker cells are inert after finalize");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_config_is_strict() {
        // One test owns all three variables to avoid races between
        // parallel tests mutating the process environment.
        let vars = ["RF_TELEMETRY", "RF_TELEMETRY_INTERVAL_MS", "RF_METRICS_ADDR"];
        let saved: Vec<_> = vars.iter().map(|v| (v, std::env::var(v).ok())).collect();
        for v in vars {
            std::env::remove_var(v);
        }

        assert!(env_config().unwrap().is_none(), "unset means off");
        std::env::set_var("RF_TELEMETRY", "off");
        assert!(env_config().unwrap().is_none());
        std::env::set_var("RF_TELEMETRY", "1");
        let cfg = env_config().unwrap().expect("enabled");
        assert_eq!(cfg.interval, Duration::from_millis(DEFAULT_INTERVAL_MS));
        assert!(cfg.metrics_addr.is_none());

        std::env::set_var("RF_TELEMETRY_INTERVAL_MS", "50");
        std::env::set_var("RF_METRICS_ADDR", "127.0.0.1:0");
        let cfg = env_config().unwrap().expect("enabled");
        assert_eq!(cfg.interval, Duration::from_millis(50));
        assert_eq!(cfg.metrics_addr.unwrap().port(), 0);

        // Malformed values fail even when RF_TELEMETRY is off/unset.
        for (var, bad) in [
            ("RF_TELEMETRY", "maybe"),
            ("RF_TELEMETRY_INTERVAL_MS", "0"),
            ("RF_TELEMETRY_INTERVAL_MS", "50ms"),
            ("RF_METRICS_ADDR", "localhost"),
            ("RF_METRICS_ADDR", "9090"),
        ] {
            for v in vars {
                std::env::remove_var(v);
            }
            std::env::set_var(var, bad);
            let err = env_config().expect_err(&format!("{var}={bad} must be rejected"));
            assert!(err.contains(var), "error names the variable: {err}");
            assert!(err.contains(bad), "error shows the value: {err}");
        }

        for (v, val) in saved {
            match val {
                Some(s) => std::env::set_var(v, s),
                None => std::env::remove_var(v),
            }
        }
    }

    #[test]
    fn http_endpoint_serves_metrics_and_snapshot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let started = Instant::now();
        let seq = Arc::new(AtomicU64::new(4));
        {
            let seq = Arc::clone(&seq);
            thread::spawn(move || {
                serve_endpoint(&listener, started, &counters::snapshot(), &seq)
            });
        }

        let fetch = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            resp
        };

        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("rf_live_sims_started"), "{metrics}");

        let snap = fetch("/snapshot.json");
        assert!(snap.starts_with("HTTP/1.1 200 OK"), "{snap}");
        let body = snap.split("\r\n\r\n").nth(1).unwrap();
        let v = crate::json::parse(body.trim()).expect("snapshot body is JSON");
        assert_eq!(v.get_str("event"), Some("snap"));
        assert_eq!(v.get_f64("seq"), Some(4.0));

        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }
}
