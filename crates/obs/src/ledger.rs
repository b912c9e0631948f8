//! The append-only run-history ledger.
//!
//! Every experiment-suite invocation (`--bin all`) appends exactly one
//! JSON record — one line — to `results/history/suite.jsonl`, so the
//! repo accumulates a perf-and-fidelity trajectory. The record is the
//! suite's one run record: no other file repeats its totals. This module
//! owns the record
//! schema ([`LedgerRecord`] and [`SCHEMA_VERSION`]), the atomic append
//! ([`append_line`]: `O_APPEND` plus a single `write(2)` of the whole
//! line, so concurrent `RF_JOBS` suites interleave records, never
//! bytes), and the read side used by `rfstudy report`.
//!
//! Records are written by hand through [`json::Value`](crate::json) (no
//! serde in this offline build) and read back with the same parser, so
//! the golden-file schema test closes the loop on both directions.

use crate::json::Value;
use rf_core::StallCause;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Version of the record layout; bump on breaking schema changes so
/// `rfstudy report` can refuse records it does not understand.
///
/// v2 added the per-harness `error` field (null for a harness that
/// completed; the failure message for one that did not) and the
/// bounded run cache's pressure block (its entry cap in `config`, its
/// eviction count and resident size in `totals`).
///
/// v3 added the event-driven kernel's skip telemetry per harness —
/// `cycles_skipped` and `wakeup_events` (both deterministic for a given
/// set of executed simulations) plus the derived, volatile
/// `cycles_per_second` throughput.
///
/// v4 added the self-profiler block per harness — `profile` is the
/// `rf-prof` span tree (null when `RF_PROFILE` is off) — and the
/// `cache_served` flag marking harnesses whose every simulation was a
/// run-cache hit; their `sims`/`cycles` are legitimately zero and
/// `cycles_per_second` renders null instead of a misleading `0`, so
/// trend analysis skips them rather than averaging zeros.
///
/// v5 added the analytic-model block: per-harness `pruned` (sweep
/// points whose results a model-driven sweep filter substituted instead
/// of simulating) and the top-level `model_error` cross-validation
/// telemetry (mean/worst absolute IPC error of `rf-model` against the
/// simulator, null when the suite did not measure it).
///
/// v6 added the top-level `telemetry` block for `RF_TELEMETRY=1` runs:
/// the live-sampler configuration (`interval_ms`), the number of
/// snapshots streamed to `results/telemetry/live.jsonl`, and the
/// FNV digest of the final snapshot's counter set — tying the ledger
/// record to its telemetry stream (null when telemetry was off).
///
/// v7 added the top-level `store` block for `RF_STORE=1` runs: the
/// durable run store's hit/miss/write counters (sims served from disk,
/// lookups that fell through to execution, and results persisted), null
/// when the store was off.
///
/// v8 removed the fields of two deleted features: v2's cache pressure
/// block (the run cache is now an unbounded memo, so it has no cap, no
/// evictions and no byte accounting) and v5's per-harness `pruned`
/// count (no sweep point is substituted any more; every reported
/// number comes from a simulation).
///
/// v9 made the ledger the suite's only run record. The constant
/// `config.sanitize` flag (always true: every suite runs the sanitizer
/// probe) became the top-level `sanitizer` block with the probe's
/// `probes`, `events` and `violations`, and each harness probe gained
/// its six-cause `stalls` attribution.
///
/// v10 followed the suite plan: every harness declares its specs, and
/// the suite answers their union in one batch. Each spec is charged to
/// its first owner in suite order, so a harness's `sims`, `committed`,
/// `cycles`, `stall_no_reg`, `stall_dq_full` and `no_free_cycles` sum
/// the specs it owns and simulated, and its `seconds` are those specs'
/// task time plus its render time; `cache_served` now means the harness
/// owns no spec. The batch-wide `cycles_skipped` and `wakeup_events`
/// moved into `totals`, and the phase timers and the profile tree moved
/// to the record level (`phase_seconds`, `profile`). The per-harness
/// `cycles_per_second` went with them, and `config.cache` went with the
/// `RF_CACHE` knob.
///
/// v11 added `totals.reused`: the batch tasks answered by saturation
/// reuse, from the run of their family's largest register file. They
/// are not simulations, so no harness's `sims` counts them.
///
/// v12 added `totals.peak_rss_kb`: the suite process's peak resident
/// set size (`VmHWM`), null where the platform does not report it. It
/// depends on the allocator and the host, so it is volatile.
///
/// v13 dropped the `alloc` block with the counting allocator that filled
/// it; `totals.peak_rss_kb` records the suite's memory.
///
/// v14 replaced the `sanitizer` block with the answer `audit` and dropped
/// `totals.cache_hits`/`cache_misses`, which the deduplicated plan pins.
pub const SCHEMA_VERSION: u64 = 14;

/// Default ledger location, relative to the repo root.
pub const LEDGER_PATH: &str = "results/history/suite.jsonl";

/// Stall attribution and latency percentiles from one small traced run
/// of a harness's representative benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// Benchmark the probe traced.
    pub bench: String,
    /// Cycles the traced simulation ran.
    pub cycles: u64,
    /// Per-cause stall cycles, in [`StallCause::ALL`] order.
    pub stalls: [u64; StallCause::COUNT],
    /// Insert→commit latency `(p50, p90, p99)`.
    pub insert_to_commit: (u64, u64, u64),
    /// Issue→commit latency `(p50, p90, p99)`.
    pub issue_to_commit: (u64, u64, u64),
}

/// Self-profiling phase timers for one suite run, in seconds.
///
/// `generate` is CPU time filling shared committed-path traces, each
/// fill counted once however many simulations replay it; `simulate` is
/// CPU time inside the pipeline summed over workers (it includes the
/// replay and the wrong-path generation, and can exceed wall time under
/// `RF_JOBS` parallelism); `aggregate` is the wall time spent rendering
/// the reports from the answers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseRecord {
    /// CPU-seconds filling shared committed-path traces.
    pub generate: f64,
    /// CPU-seconds inside the pipeline simulator.
    pub simulate: f64,
    /// Wall seconds rendering reports.
    pub aggregate: f64,
}

/// Per-harness measurements for one suite run. Each spec of the suite
/// plan is charged to one harness, its first owner in suite order; the
/// counters sum the owned specs that this run simulated (specs the
/// store served count nothing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HarnessRecord {
    /// Harness name (`table1`, `fig3`, …).
    pub name: String,
    /// Wall seconds of the owned specs' pool tasks plus the render.
    pub seconds: f64,
    /// Owned specs simulated to completion.
    pub sims: u64,
    /// Instructions committed by those simulations.
    pub committed: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Insert stalls: no free register.
    pub stall_no_reg: u64,
    /// Insert stalls: dispatch queue full.
    pub stall_dq_full: u64,
    /// Cycles with an empty free list.
    pub no_free_cycles: u64,
    /// Whether the harness owns no spec: every point it reads is charged
    /// to an earlier harness, so its counters are legitimately zero and
    /// its seconds carry no simulation signal.
    pub cache_served: bool,
    /// Traced-probe percentiles, when the harness attached one.
    pub probe: Option<ProbeRecord>,
    /// Failure message when the harness did not complete (its report was
    /// not written); `None` for a successful harness. The counters above
    /// still cover the owned specs that completed.
    pub error: Option<String>,
}

/// Cross-validation telemetry for the `rf-model` analytic estimator:
/// how far its IPC predictions sat from the simulator on this run's
/// configuration matrix. Carried in the ledger so `rfstudy report` can
/// flag model drift when simulator changes leave the fitted constants
/// behind.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelErrorRecord {
    /// Configurations compared.
    pub configs: u64,
    /// Mean absolute IPC error, percent.
    pub mean_abs_pct_err: f64,
    /// Worst absolute IPC error, percent.
    pub worst_pct_err: f64,
    /// Label of the worst configuration.
    pub worst_config: String,
}

/// Live-telemetry summary for a run that streamed snapshots
/// (`RF_TELEMETRY=1`): the sampler configuration plus the digest of the
/// final `live.jsonl` snapshot, so a ledger record and its telemetry
/// stream can be matched up after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Sampler period (`RF_TELEMETRY_INTERVAL_MS`).
    pub interval_ms: u64,
    /// Snapshot records written to `live.jsonl`, including the final one.
    pub snapshots: u64,
    /// [`crate::live::digest_counters`] of the final counter set.
    pub digest: String,
}

/// Durable run-store counters for a run with `RF_STORE=1`: how much of
/// the suite the on-disk corpus absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecord {
    /// Simulations served from the on-disk store.
    pub hits: u64,
    /// Store lookups that fell through to a real simulation.
    pub misses: u64,
    /// Executed results persisted to the store by this run.
    pub writes: u64,
}

/// Outcome of the suite's answer audit: a sample of the plan's own
/// answers, each re-derived by one sanitized, oracle-checked simulation
/// of the binary that produced the record and compared byte for byte
/// with the answer the reports were rendered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditRecord {
    /// Sampled answers per answering tier, in [`AUDIT_TIERS`] order.
    pub samples: [u64; 3],
    /// Sanitizer observer events across the samples.
    pub events: u64,
    /// Samples that failed: a sanitizer violation, a failed oracle check,
    /// or an answer the re-derivation did not reproduce (0 when healthy).
    pub violations: u64,
}

/// The answering tiers as `audit.samples` names them: a fresh
/// simulation, saturation reuse, the durable store.
pub const AUDIT_TIERS: [&str; 3] = ["fresh", "reused", "store"];

/// One suite run: the unit the ledger appends.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Seconds since the Unix epoch when the run finished.
    pub timestamp_unix: u64,
    /// Git revision of the working tree (short hash, or `unknown`).
    pub git_rev: String,
    /// Committed instructions per simulation (`RF_COMMITS`).
    pub commits: u64,
    /// Worker threads (`RF_JOBS`).
    pub jobs: u64,
    /// Suite wall-clock seconds.
    pub total_seconds: f64,
    /// Peak resident set size of the suite process in KiB (`None` where
    /// the platform does not report it).
    pub peak_rss_kb: Option<u64>,
    /// Total simulations executed.
    pub sims: u64,
    /// Total instructions committed.
    pub committed: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Cycles the event-driven kernel bulk-accounted instead of
    /// simulating (a subset of `cycles`).
    pub cycles_skipped: u64,
    /// Idle-skip jumps the kernel took.
    pub wakeup_events: u64,
    /// Batch tasks answered by saturation reuse instead of simulating.
    pub reused: u64,
    /// Phase timer breakdown.
    pub phase: PhaseRecord,
    /// Self-profiler span tree of the suite's batch (`RF_PROFILE=1`
    /// runs only). Wall-time data: excluded from the determinism
    /// payload.
    pub profile: Option<rf_prof::ProfileNode>,
    /// Per-harness breakdown, in suite order.
    pub harnesses: Vec<HarnessRecord>,
    /// Headline numbers extracted from the figure harnesses
    /// (`fidelity::Target` id → measured value, extraction order).
    pub headlines: Vec<(String, f64)>,
    /// Analytic-model cross-validation telemetry (`None` when the suite
    /// did not measure it).
    pub model_error: Option<ModelErrorRecord>,
    /// Live-telemetry summary (`None` when `RF_TELEMETRY` was off).
    pub telemetry: Option<TelemetryRecord>,
    /// Durable run-store counters (`None` when `RF_STORE` was off).
    pub store: Option<StoreRecord>,
    /// Answer-audit outcome (`None` when the suite did not run it).
    pub audit: Option<AuditRecord>,
}

/// Rounds to microsecond precision so seconds fields stay compact.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn int(x: u64) -> Value {
    Value::Number(x as f64)
}

impl LedgerRecord {
    /// Builds the JSON tree for this record (schema [`SCHEMA_VERSION`]).
    pub fn to_value(&self) -> Value {
        let mut root = vec![
            ("schema".to_owned(), int(SCHEMA_VERSION)),
            ("timestamp_unix".to_owned(), int(self.timestamp_unix)),
            ("git_rev".to_owned(), Value::String(self.git_rev.clone())),
            (
                "config".to_owned(),
                Value::Object(vec![
                    ("commits".to_owned(), int(self.commits)),
                    ("jobs".to_owned(), int(self.jobs)),
                ]),
            ),
            (
                "totals".to_owned(),
                Value::Object(vec![
                    ("seconds".to_owned(), num(round6(self.total_seconds))),
                    ("peak_rss_kb".to_owned(), self.peak_rss_kb.map_or(Value::Null, int)),
                    ("sims".to_owned(), int(self.sims)),
                    ("committed".to_owned(), int(self.committed)),
                    ("cycles".to_owned(), int(self.cycles)),
                    ("cycles_skipped".to_owned(), int(self.cycles_skipped)),
                    ("wakeup_events".to_owned(), int(self.wakeup_events)),
                    ("reused".to_owned(), int(self.reused)),
                ]),
            ),
            (
                "phase_seconds".to_owned(),
                Value::Object(vec![
                    ("generate".to_owned(), num(round6(self.phase.generate))),
                    ("simulate".to_owned(), num(round6(self.phase.simulate))),
                    ("aggregate".to_owned(), num(round6(self.phase.aggregate))),
                ]),
            ),
            (
                "profile".to_owned(),
                self.profile.as_ref().map_or(Value::Null, crate::profile::to_value),
            ),
            (
                "harnesses".to_owned(),
                Value::Array(self.harnesses.iter().map(harness_value).collect()),
            ),
            (
                "headlines".to_owned(),
                Value::Object(
                    self.headlines.iter().map(|(id, v)| (id.clone(), num(*v))).collect(),
                ),
            ),
        ];
        root.push((
            "model_error".to_owned(),
            match &self.model_error {
                Some(m) => Value::Object(vec![
                    ("configs".to_owned(), int(m.configs)),
                    ("mean_abs_pct_err".to_owned(), num(round6(m.mean_abs_pct_err))),
                    ("worst_pct_err".to_owned(), num(round6(m.worst_pct_err))),
                    ("worst_config".to_owned(), Value::String(m.worst_config.clone())),
                ]),
                None => Value::Null,
            },
        ));
        root.push((
            "telemetry".to_owned(),
            match &self.telemetry {
                Some(t) => Value::Object(vec![
                    ("interval_ms".to_owned(), int(t.interval_ms)),
                    ("snapshots".to_owned(), int(t.snapshots)),
                    ("digest".to_owned(), Value::String(t.digest.clone())),
                ]),
                None => Value::Null,
            },
        ));
        root.push((
            "store".to_owned(),
            match &self.store {
                Some(s) => Value::Object(vec![
                    ("hits".to_owned(), int(s.hits)),
                    ("misses".to_owned(), int(s.misses)),
                    ("writes".to_owned(), int(s.writes)),
                ]),
                None => Value::Null,
            },
        ));
        root.push((
            "audit".to_owned(),
            match &self.audit {
                Some(a) => {
                    let samples = AUDIT_TIERS.iter().zip(a.samples);
                    Value::Object(vec![
                        (
                            "samples".to_owned(),
                            Value::Object(samples.map(|(t, n)| (t.to_string(), int(n))).collect()),
                        ),
                        ("events".to_owned(), int(a.events)),
                        ("violations".to_owned(), int(a.violations)),
                    ])
                }
                None => Value::Null,
            },
        ));
        Value::Object(root)
    }

    /// Renders the record as its single ledger line (no newline).
    pub fn to_line(&self) -> String {
        self.to_value().to_string()
    }
}

fn harness_value(h: &HarnessRecord) -> Value {
    let mut members = vec![
        ("name".to_owned(), Value::String(h.name.clone())),
        ("seconds".to_owned(), num(round6(h.seconds))),
        ("sims".to_owned(), int(h.sims)),
        ("committed".to_owned(), int(h.committed)),
        ("cycles".to_owned(), int(h.cycles)),
        ("stall_no_reg".to_owned(), int(h.stall_no_reg)),
        ("stall_dq_full".to_owned(), int(h.stall_dq_full)),
        ("no_free_cycles".to_owned(), int(h.no_free_cycles)),
        ("cache_served".to_owned(), Value::Bool(h.cache_served)),
    ];
    members.push((
        "probe".to_owned(),
        match &h.probe {
            Some(p) => Value::Object(vec![
                ("bench".to_owned(), Value::String(p.bench.clone())),
                ("cycles".to_owned(), int(p.cycles)),
                (
                    "stalls".to_owned(),
                    Value::Object(
                        StallCause::ALL
                            .iter()
                            .map(|c| (c.label().to_owned(), int(p.stalls[c.index()])))
                            .collect(),
                    ),
                ),
                (
                    "insert_to_commit".to_owned(),
                    Value::Array(vec![
                        int(p.insert_to_commit.0),
                        int(p.insert_to_commit.1),
                        int(p.insert_to_commit.2),
                    ]),
                ),
                (
                    "issue_to_commit".to_owned(),
                    Value::Array(vec![
                        int(p.issue_to_commit.0),
                        int(p.issue_to_commit.1),
                        int(p.issue_to_commit.2),
                    ]),
                ),
            ]),
            None => Value::Null,
        },
    ));
    members.push((
        "error".to_owned(),
        match &h.error {
            Some(message) => Value::String(message.clone()),
            None => Value::Null,
        },
    ));
    Value::Object(members)
}

/// Appends one record line atomically and durably: parent directories
/// are created, the file is opened `O_APPEND`, the line plus newline
/// goes out in a single `write` (so records from concurrent suite
/// invocations never interleave mid-line), and the file is fsynced
/// before returning — an append this function reported as succeeded
/// survives a crash. When the append created the file, its directory
/// entry is fsynced too, so the *file itself* survives as well.
pub fn append_line(path: &Path, line: &str) -> io::Result<()> {
    let parent = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf);
    if let Some(parent) = &parent {
        fs::create_dir_all(parent)?;
    }
    let created = !path.exists();
    let mut payload = String::with_capacity(line.len() + 1);
    payload.push_str(line);
    payload.push('\n');
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(payload.as_bytes())?;
    file.sync_all()?;
    if created {
        if let Some(parent) = &parent {
            fs::File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Reads and parses every record in a ledger file, in append order.
/// Blank lines are skipped; a malformed *interior* line is an error
/// naming its line number, but a malformed **final** line — the
/// signature of a crash mid-append — is skipped with a warning on
/// stderr, so a torn tail can never lock every future reader out of an
/// otherwise healthy ledger.
pub fn read_ledger(path: &Path) -> Result<Vec<Value>, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger {}: {e}", path.display()))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let mut records = Vec::new();
    for (k, &(i, line)) in lines.iter().enumerate() {
        match crate::json::parse(line) {
            Ok(value) => records.push(value),
            Err(e) if k + 1 == lines.len() => {
                eprintln!(
                    "warning: {}:{}: skipping torn final record ({e})",
                    path.display(),
                    i + 1
                );
            }
            Err(e) => return Err(format!("{}:{}: {e}", path.display(), i + 1)),
        }
    }
    Ok(records)
}

/// The working tree's git revision: `RF_GIT_REV` if set, else
/// `git rev-parse --short=12 HEAD`, else `"unknown"`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("RF_GIT_REV") {
        if !rev.trim().is_empty() {
            return rev.trim().to_owned();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// This process's peak resident set size in KiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Whether a record key carries volatile (timing/host-dependent) data
/// that legitimately differs between byte-identical simulation runs.
fn is_volatile_key(key: &str) -> bool {
    key == "timestamp_unix"
        || key == "profile"
        || key == "model_error"
        || key == "telemetry"
        // Store counters depend on what earlier runs left on disk (a
        // warm run hits where a cold run writes), not on this run's
        // simulation output, so they are not part of the deterministic
        // payload.
        || key == "store"
        || key == "peak_rss_kb"
        || key.contains("seconds")
}

/// Strips volatile members (timestamps, wall seconds, peak RSS, store
/// and telemetry counters) from a parsed record, leaving only the
/// deterministic metric payload. Two `RF_JOBS=1` suite runs of the same build must
/// produce identical payloads — the determinism test renders
/// both with `Value::to_string` and compares.
pub fn metric_payload(record: &Value) -> Value {
    match record {
        Value::Object(members) => Value::Object(
            members
                .iter()
                .filter(|(k, _)| !is_volatile_key(k))
                .map(|(k, v)| (k.clone(), metric_payload(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(metric_payload).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> LedgerRecord {
        LedgerRecord {
            timestamp_unix: 1_700_000_000,
            git_rev: "abc123def456".to_owned(),
            commits: 2_000,
            jobs: 2,
            total_seconds: 1.25,
            peak_rss_kb: Some(14_336),
            sims: 100,
            committed: 200_000,
            cycles: 90_000,
            cycles_skipped: 30_000,
            wakeup_events: 1_500,
            reused: 12,
            phase: PhaseRecord { generate: 0.01, simulate: 0.4, aggregate: 0.09 },
            profile: Some(rf_prof::ProfileNode {
                name: "all".to_owned(),
                total_ns: 500_000_000,
                count: 1,
                children: vec![rf_prof::ProfileNode {
                    name: "run.simulate".to_owned(),
                    total_ns: 400_000_000,
                    count: 50,
                    children: vec![],
                }],
            }),
            harnesses: vec![HarnessRecord {
                name: "fig3".to_owned(),
                seconds: 0.5,
                sims: 50,
                committed: 100_000,
                cycles: 45_000,
                stall_no_reg: 10,
                stall_dq_full: 20,
                no_free_cycles: 5,
                cache_served: false,
                probe: Some(ProbeRecord {
                    bench: "gcc1".to_owned(),
                    cycles: 2_000,
                    stalls: [0, 3, 0, 7, 0, 11],
                    insert_to_commit: (10, 20, 30),
                    issue_to_commit: (5, 9, 14),
                }),
                error: None,
            }],
            headlines: vec![("fig3.commit_ipc.4way_dq32".to_owned(), 2.68)],
            model_error: Some(ModelErrorRecord {
                configs: 72,
                mean_abs_pct_err: 9.5,
                worst_pct_err: 27.25,
                worst_config: "mdljdp2 width=4 precise regs=64".to_owned(),
            }),
            telemetry: Some(TelemetryRecord {
                interval_ms: 250,
                snapshots: 9,
                digest: "00ff00ff00ff00ff".to_owned(),
            }),
            store: Some(StoreRecord { hits: 60, misses: 40, writes: 40 }),
            audit: Some(AuditRecord { samples: [11, 1, 1], events: 12_000, violations: 0 }),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rf-obs-ledger-{}-{name}", std::process::id()))
    }

    #[test]
    fn record_line_is_valid_single_line_json() {
        let line = sample().to_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get_f64("schema"), Some(SCHEMA_VERSION as f64));
        assert_eq!(v.get_str("git_rev"), Some("abc123def456"));
        assert_eq!(v.get("config").unwrap().get_f64("commits"), Some(2_000.0));
        assert_eq!(v.get("totals").unwrap().get_f64("sims"), Some(100.0));
        let h = &v.get("harnesses").unwrap().as_array().unwrap()[0];
        assert_eq!(h.get_str("name"), Some("fig3"));
        assert!(h.get("pruned").is_none(), "v8 dropped the per-harness pruned count");
        assert_eq!(h.get("cache_served"), Some(&Value::Bool(false)));
        // v10 moved the batch-wide kernel counters, phases and profile
        // to the record level.
        for key in ["cycles_skipped", "wakeup_events", "cycles_per_second", "phase_seconds"] {
            assert!(h.get(key).is_none(), "harness still carries {key}");
        }
        assert!(h.get("profile").is_none());
        assert_eq!(v.get("profile").unwrap().get_str("name"), Some("all"));
        assert_eq!(v.get("phase_seconds").unwrap().get_f64("simulate"), Some(0.4));
        let probe = h.get("probe").unwrap();
        assert_eq!(probe.get_str("bench"), Some("gcc1"));
        let stalls = probe.get("stalls").and_then(Value::as_object).unwrap();
        let labels: Vec<&str> = stalls.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, want, "six causes in StallCause::ALL order");
        assert_eq!(stalls[5].1.as_f64(), Some(11.0));
        assert_eq!(h.get("error"), Some(&Value::Null));
        // v9 replaced config.sanitize with the sanitizer block, v14 that
        // with the audit block: config and totals hold exactly these keys.
        let keys = |block: &str| -> Vec<String> {
            let members = v.get(block).and_then(Value::as_object).expect(block);
            members.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys("config"), ["commits", "jobs"]);
        assert!(v.get("sanitizer").is_none(), "v14 replaced the sanitizer block");
        let audit = v.get("audit").unwrap();
        let samples = audit.get("samples").unwrap();
        assert_eq!(samples.get_f64("fresh"), Some(11.0));
        assert_eq!(samples.get_f64("reused"), Some(1.0));
        assert_eq!(samples.get_f64("store"), Some(1.0));
        assert_eq!(audit.get_f64("events"), Some(12_000.0));
        assert_eq!(audit.get_f64("violations"), Some(0.0));
        assert_eq!(
            keys("totals"),
            [
                "seconds",
                "peak_rss_kb",
                "sims",
                "committed",
                "cycles",
                "cycles_skipped",
                "wakeup_events",
                "reused"
            ]
        );
        assert_eq!(
            v.get("headlines").unwrap().get_f64("fig3.commit_ipc.4way_dq32"),
            Some(2.68)
        );
        let m = v.get("model_error").unwrap();
        assert_eq!(m.get_f64("configs"), Some(72.0));
        assert_eq!(m.get_f64("mean_abs_pct_err"), Some(9.5));
        assert_eq!(m.get_f64("worst_pct_err"), Some(27.25));
        assert_eq!(m.get_str("worst_config"), Some("mdljdp2 width=4 precise regs=64"));
        let t = v.get("telemetry").unwrap();
        assert_eq!(t.get_f64("interval_ms"), Some(250.0));
        assert_eq!(t.get_f64("snapshots"), Some(9.0));
        assert_eq!(t.get_str("digest"), Some("00ff00ff00ff00ff"));
    }

    #[test]
    fn telemetry_renders_null_when_off() {
        let mut rec = sample();
        rec.telemetry = None;
        let v = json::parse(&rec.to_line()).unwrap();
        assert_eq!(v.get("telemetry"), Some(&Value::Null));
    }

    #[test]
    fn model_error_renders_null_when_unmeasured() {
        let mut rec = sample();
        rec.model_error = None;
        let v = json::parse(&rec.to_line()).unwrap();
        assert_eq!(v.get("model_error"), Some(&Value::Null));
    }

    #[test]
    fn an_unprofiled_record_renders_a_null_profile() {
        let mut rec = sample();
        rec.profile = None;
        let v = json::parse(&rec.to_line()).unwrap();
        assert_eq!(v.get("profile"), Some(&Value::Null));
    }

    #[test]
    fn harness_error_renders_escaped_and_round_trips() {
        let mut rec = sample();
        rec.harnesses[0].error =
            Some("simulation of \"fig3\" panicked: boom\nsecond line".to_owned());
        let line = rec.to_line();
        assert!(!line.contains('\n'), "errors must not break the one-line format");
        let v = json::parse(&line).unwrap();
        let h = &v.get("harnesses").unwrap().as_array().unwrap()[0];
        assert_eq!(
            h.get_str("error"),
            Some("simulation of \"fig3\" panicked: boom\nsecond line")
        );
    }

    #[test]
    fn appends_accumulate() {
        let ledger = tmp("append/suite.jsonl");
        let _ = fs::remove_dir_all(ledger.parent().unwrap());
        append_line(&ledger, &sample().to_line()).unwrap();
        append_line(&ledger, &sample().to_line()).unwrap();
        let records = read_ledger(&ledger).unwrap();
        assert_eq!(records.len(), 2, "appends accumulate");
        let _ = fs::remove_dir_all(ledger.parent().unwrap());
    }

    #[test]
    fn read_ledger_reports_malformed_interior_lines() {
        let path = tmp("bad.jsonl");
        // The malformed line is NOT the last one: real corruption, not a
        // torn tail — still a hard error naming the line.
        fs::write(&path, "{\"schema\":1}\nnot json\n{\"schema\":2}\n").unwrap();
        let err = read_ledger(&path).unwrap_err();
        assert!(err.contains(":2:"), "names the offending line: {err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn read_ledger_skips_a_torn_final_line() {
        let path = tmp("torn.jsonl");
        // A crash mid-append leaves a truncated last line; every record
        // before it must still be served.
        fs::write(&path, "{\"schema\":1}\n{\"schema\":2}\n{\"schema\":3,\"tot").unwrap();
        let records = read_ledger(&path).expect("torn tail is tolerated");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get_f64("schema"), Some(2.0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn metric_payload_drops_volatile_keys_only() {
        let mut rec = sample();
        let a = rec.to_value();
        rec.timestamp_unix += 999;
        rec.total_seconds *= 3.0;
        rec.peak_rss_kb = None;
        rec.harnesses[0].seconds = 42.0;
        rec.phase.simulate = 9.0;
        rec.profile.as_mut().unwrap().total_ns = 7;
        // Model error is derived cross-validation telemetry, not a
        // simulation metric: it must not perturb the determinism payload.
        rec.model_error.as_mut().unwrap().mean_abs_pct_err = 99.0;
        // Snapshot counts depend on wall-clock timing; the whole live
        // telemetry block is likewise volatile.
        rec.telemetry.as_mut().unwrap().snapshots = 777;
        let b = rec.to_value();
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(
            metric_payload(&a).to_string(),
            metric_payload(&b).to_string(),
            "volatile-only differences vanish"
        );
        // Non-volatile changes survive the filter.
        rec.sims += 1;
        assert_ne!(metric_payload(&a).to_string(), metric_payload(&rec.to_value()).to_string());
        // The payload still carries the deterministic metrics.
        let p = metric_payload(&a);
        assert_eq!(p.get("totals").unwrap().get_f64("cycles"), Some(90_000.0));
        assert!(p.get("totals").unwrap().get("seconds").is_none());
        assert!(p.get("totals").unwrap().get("peak_rss_kb").is_none(), "peak RSS is volatile");
        let h = &p.get("harnesses").unwrap().as_array().unwrap()[0];
        assert!(p.get("phase_seconds").is_none(), "phase timers are volatile");
        assert!(p.get("profile").is_none(), "wall-time profile is volatile");
        assert!(p.get("model_error").is_none(), "model-error block is stripped");
        assert!(p.get("telemetry").is_none(), "live-telemetry block is stripped");
        assert_eq!(h.get_f64("stall_no_reg"), Some(10.0), "stall counts are deterministic");
        assert_eq!(p.get("totals").unwrap().get_f64("cycles_skipped"), Some(30_000.0));
        assert_eq!(h.get("cache_served"), Some(&Value::Bool(false)));
    }

    #[test]
    fn peak_rss_is_read_where_the_platform_reports_it() {
        let rss = peak_rss_kb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss.is_some_and(|kb| kb > 0), "{rss:?}");
        }
    }

    #[test]
    fn git_rev_prefers_env_override() {
        // Avoid mutating the process env (other tests run concurrently):
        // exercise the fallback chain only where it is deterministic.
        let rev = git_rev();
        assert!(!rev.is_empty());
    }
}
