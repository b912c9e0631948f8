//! Wall-clock benchmarking and telemetry of the experiment suite.
//!
//! [`SuiteBench`] wraps each harness invocation, records its elapsed time
//! together with the [`rf_prof::counters`] registry's delta over the
//! harness (simulations executed, committed instructions, stalls, phase
//! times, cache and store lookups), optionally attaches a traced probe (a
//! small observed run giving full six-cause stall attribution and latency
//! percentiles), measures the parallel speedup against a single worker,
//! and renders everything as the `BENCH_suite.json` report. Suite totals
//! are the sum of the harness deltas, so work done outside every harness
//! (the speedup calibration, the post-suite probes) never reaches them.
//!
//! Setting `RF_LOG=text` or `RF_LOG=json` makes each timed harness emit a
//! structured progress line on stderr as it finishes.

use crate::runner::{RunCache, RunSpec, SimPool};
use rf_core::{NullObserver, Observer as _, Pipeline, StallCause};
use rf_prof::counters::{self, Counter, Counts};
use rf_obs::ledger::{
    AllocRecord, HarnessRecord, LedgerRecord, ModelErrorRecord, PhaseRecord, ProbeRecord,
    StoreRecord, TelemetryRecord,
};
use rf_obs::Recorder;
use rf_workload::{spec92, TraceGenerator};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed harness.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Harness name (report file stem).
    pub name: String,
    /// Wall-clock seconds spent in the harness.
    pub seconds: f64,
    /// The counter registry's delta over the harness: everything its
    /// simulations, cache and store lookups counted.
    pub counts: Counts,
    /// The traced probe attached to this harness, if any.
    pub probe: Option<ProbeSummary>,
    /// Self-profile span tree captured while the harness ran (`None`
    /// unless the `rf-prof` profiler is enabled).
    pub profile: Option<rf_prof::ProfileNode>,
    /// Failure message when the harness panicked instead of returning a
    /// report (`None` for a successful harness). The counters above
    /// still cover whatever the harness executed before failing.
    pub error: Option<String>,
}

impl Entry {
    /// Simulations executed during the harness (cache hits excluded).
    pub fn sims(&self) -> u64 {
        self.counts.get(Counter::SimsCompleted)
    }

    /// CPU-seconds constructing trace generators during the harness.
    pub fn phase_generate(&self) -> f64 {
        self.counts.get(Counter::GenerateNs) as f64 / 1e9
    }

    /// CPU-seconds inside `Pipeline::run` during the harness (can exceed
    /// `seconds` under parallel workers).
    pub fn phase_simulate(&self) -> f64 {
        self.counts.get(Counter::SimulateNs) as f64 / 1e9
    }

    /// Wall seconds not covered by the generate/simulate phases:
    /// rendering and result folding. Clamped at zero because the
    /// simulate phase is CPU time summed across workers.
    pub fn phase_aggregate(&self) -> f64 {
        (self.seconds - self.phase_generate() - self.phase_simulate()).max(0.0)
    }

    /// Whether every simulation this harness asked for came out of the
    /// run cache: it executed nothing itself, so its zero counters are
    /// cache bookkeeping, not throughput, and trend analysis must skip
    /// rather than average them.
    pub fn cache_served(&self) -> bool {
        self.sims() == 0 && self.error.is_none()
    }
}

/// Stall attribution and latency percentiles from one small traced run.
#[derive(Debug, Clone)]
pub struct ProbeSummary {
    /// Benchmark the probe simulated (the paper's baseline machine).
    pub bench: String,
    /// Cycles the probe ran.
    pub cycles: u64,
    /// Per-cause stall cycles, in [`StallCause::ALL`] order.
    pub stall_cycles: [u64; StallCause::COUNT],
    /// Insert-to-commit latency `(p50, p90, p99)` in cycles.
    pub insert_to_commit: (u64, u64, u64),
    /// Issue-to-commit latency `(p50, p90, p99)` in cycles.
    pub issue_to_commit: (u64, u64, u64),
}

impl ProbeSummary {
    /// Runs a traced probe: `bench` on the paper's 4-wide baseline
    /// machine for `commits` committed instructions, with the recorder
    /// attached.
    pub fn collect(bench: &str, commits: u64) -> Self {
        let spec = RunSpec::baseline(bench, 4).commits(commits);
        let profile = spec92::by_name(bench)
            .unwrap_or_else(|| panic!("unknown probe benchmark {bench:?}"));
        let mut trace = TraceGenerator::new(&profile, spec.seed);
        let (stats, mut rec) = Pipeline::with_observer(spec.machine_config(), Recorder::unbounded())
            .run_observed(&mut trace, commits);
        rec.seal();
        let mut stall_cycles = [0u64; StallCause::COUNT];
        for cause in StallCause::ALL {
            stall_cycles[cause.index()] = rec.stall_cycles(cause);
        }
        let pcts = |name: &str| {
            rec.metrics()
                .histogram(name)
                .map(|h| (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0)))
                .unwrap_or((0, 0, 0))
        };
        Self {
            bench: bench.to_owned(),
            cycles: stats.cycles,
            stall_cycles,
            insert_to_commit: pcts("latency.insert-to-commit"),
            issue_to_commit: pcts("latency.issue-to-commit"),
        }
    }
}

/// Where harness progress lines go, selected by `RF_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogMode {
    Off,
    Text,
    Json,
}

impl LogMode {
    /// Parses `RF_LOG` strictly: unset or `off` is off, `text` and
    /// `json` select a format, and anything else is an error naming the
    /// value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed value.
    pub(crate) fn from_env() -> Result<Self, String> {
        match std::env::var("RF_LOG") {
            Err(_) => Ok(LogMode::Off),
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "off" => Ok(LogMode::Off),
                "text" => Ok(LogMode::Text),
                "json" => Ok(LogMode::Json),
                _ => Err(format!("RF_LOG={raw:?} is not recognized (use off, text or json)")),
            },
        }
    }
}

/// Renders one harness progress line in the chosen mode (`None` = off).
/// `eta` is the ledger-informed estimate of remaining suite seconds
/// (`None` when no history is available — rendered as a JSON null and
/// omitted from the text form, never faked as zero).
fn progress_line(mode: LogMode, done: usize, entry: &Entry, eta: Option<f64>) -> Option<String> {
    let c = |counter| entry.counts.get(counter);
    match mode {
        LogMode::Off => None,
        LogMode::Text => {
            let mut line = format!(
                "[rfstudy] harness={} n={done} seconds={:.3} sims={} committed={} \
                 cycles={} stall_no_reg={} stall_dq_full={} no_free_cycles={}",
                entry.name,
                entry.seconds,
                entry.sims(),
                c(Counter::InstructionsCommitted),
                c(Counter::Cycles),
                c(Counter::StallNoReg),
                c(Counter::StallDqFull),
                c(Counter::NoFreeCycles),
            );
            if let Some(eta) = eta {
                let _ = write!(line, " eta_s={eta:.1}");
            }
            Some(line)
        }
        LogMode::Json => {
            let eta = match eta {
                Some(eta) => format!("{eta:.1}"),
                None => "null".to_owned(),
            };
            Some(format!(
                "{{\"event\":\"harness\",\"name\":\"{}\",\"n\":{done},\"seconds\":{:.3},\
                 \"simulations\":{},\"instructions_committed\":{},\"cycles\":{},\
                 \"stall_no_reg\":{},\"stall_dq_full\":{},\"no_free_cycles\":{},\
                 \"eta_s\":{eta}}}",
                entry.name,
                entry.seconds,
                entry.sims(),
                c(Counter::InstructionsCommitted),
                c(Counter::Cycles),
                c(Counter::StallNoReg),
                c(Counter::StallDqFull),
                c(Counter::NoFreeCycles),
            ))
        }
    }
}

/// Aggregate result of the suite's sanitized probe runs (see
/// `rf-check`): a handful of invariant-checked simulations re-proving
/// the rename/freeing protocol on the exact binary being measured.
#[derive(Debug, Clone, Copy)]
pub struct SanitizerStatus {
    /// Sanitized probe runs executed.
    pub probes: u64,
    /// Observer events checked across probes.
    pub events: u64,
    /// Invariant violations detected (0 on a healthy build).
    pub violations: u64,
}

impl SanitizerStatus {
    /// `"clean"` or `"VIOLATED"`, as recorded in the JSON report.
    pub fn status(&self) -> &'static str {
        if self.violations == 0 {
            "clean"
        } else {
            "VIOLATED"
        }
    }
}

/// Times the harnesses of one suite invocation and renders the JSON
/// benchmark report.
#[derive(Debug)]
pub struct SuiteBench {
    commits: u64,
    entries: Vec<Entry>,
    started: Instant,
    speedup: Option<f64>,
    sanitizer: Option<SanitizerStatus>,
    model_error: Option<ModelErrorRecord>,
    telemetry: Option<TelemetryRecord>,
    /// Harness names the suite intends to run, in order; entries past
    /// `entries.len()` are the remaining work the ETA weighs.
    plan: Vec<String>,
    /// Per-harness median wall seconds from the run-history ledger
    /// (comparable runs only); empty when there is no usable history.
    medians: Vec<(String, f64)>,
    log: LogMode,
}

impl SuiteBench {
    /// Starts timing a suite run at `commits` committed instructions per
    /// simulation.
    pub fn start(commits: u64) -> Self {
        Self {
            commits,
            entries: Vec::new(),
            started: Instant::now(),
            speedup: None,
            sanitizer: None,
            model_error: None,
            telemetry: None,
            plan: Vec::new(),
            medians: Vec::new(),
            log: LogMode::from_env().unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Records the sanitized-probe outcome for the report.
    pub fn set_sanitizer(&mut self, status: SanitizerStatus) {
        self.sanitizer = Some(status);
    }

    /// Records the analytic-model cross-validation telemetry for the
    /// ledger record (`rfstudy report` flags drift from it).
    pub fn set_model_error(&mut self, record: ModelErrorRecord) {
        self.model_error = Some(record);
    }

    /// Records the live-telemetry summary (sampler config, snapshot
    /// count, final-counter digest) for the ledger record.
    pub fn set_telemetry(&mut self, record: TelemetryRecord) {
        self.telemetry = Some(record);
    }

    /// Declares the harnesses this suite run intends to execute, in
    /// order, and the ledger-derived per-harness median seconds used to
    /// weight the remaining ones. Both feed the `eta_s` member of
    /// `RF_LOG` progress lines; with no history the ETA stays `None`.
    pub fn set_plan(&mut self, names: &[&str], medians: Vec<(String, f64)>) {
        self.plan = names.iter().map(|n| (*n).to_owned()).collect();
        self.medians = medians;
    }

    /// The estimated remaining suite seconds: the sum of ledger median
    /// wall times over not-yet-run planned harnesses, with harnesses
    /// absent from history charged the median of the known medians.
    /// `None` when no plan or no history was provided — an honest "no
    /// estimate", not a zero.
    pub fn eta_seconds(&self) -> Option<f64> {
        if self.plan.is_empty() || self.medians.is_empty() {
            return None;
        }
        let mut known: Vec<f64> = self.medians.iter().map(|(_, s)| *s).collect();
        known.sort_by(f64::total_cmp);
        let fallback = median_of_sorted(&known)?;
        let remaining = self.plan.get(self.entries.len()..).unwrap_or(&[]);
        let eta = remaining
            .iter()
            .map(|name| {
                self.medians
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(fallback, |(_, s)| *s)
            })
            .sum();
        Some(eta)
    }

    /// Runs one harness, recording its wall-clock time and the counter
    /// registry's delta over it (simulations executed, the stall
    /// attribution they accumulated, cache and store lookups); returns
    /// the harness's report. Emits a
    /// progress line on stderr when `RF_LOG` is `text` or `json`.
    pub fn time(&mut self, name: &str, harness: impl FnOnce() -> String) -> String {
        self.try_time(name, harness).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`SuiteBench::time`], but a panicking harness is caught: the
    /// entry is still recorded (with its telemetry up to the failure and
    /// the panic message in [`Entry::error`]) and the message is
    /// returned as `Err`, so the suite can keep running the remaining
    /// harnesses.
    pub fn try_time(
        &mut self,
        name: &str,
        harness: impl FnOnce() -> String,
    ) -> Result<String, String> {
        rf_obs::live::harness_started(name);
        let before = counters::snapshot();
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(harness))
            .map_err(|payload| {
                format!("harness {name:?} failed: {}", crate::runner::payload_text(payload.as_ref()))
            });
        let counts = counters::snapshot().since(&before);
        // `collect` drains everything profiled since the last drain, so
        // each harness gets exactly the spans recorded on its watch.
        let profile = rf_prof::collect();
        self.entries.push(Entry {
            name: name.to_owned(),
            seconds: start.elapsed().as_secs_f64(),
            counts,
            probe: None,
            profile,
            error: outcome.as_ref().err().cloned(),
        });
        rf_obs::live::harness_finished();
        if let Some(line) = progress_line(
            self.log,
            self.entries.len(),
            self.entries.last().unwrap(),
            self.eta_seconds(),
        ) {
            eprintln!("{line}");
        }
        outcome
    }

    /// Attaches a traced probe to the most recently timed harness: a
    /// small observed run of `bench` giving full six-cause stall
    /// attribution and latency percentiles for the report.
    pub fn attach_probe(&mut self, bench: &str, commits: u64) {
        if let Some(last) = self.entries.last_mut() {
            last.probe = Some(ProbeSummary::collect(bench, commits));
        }
    }

    /// The per-harness records so far.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The suite-level self-profile: every harness profile merged into
    /// one canonical tree (`None` when the profiler was off).
    pub fn suite_profile(&self) -> Option<rf_prof::ProfileNode> {
        let mut merged: Option<rf_prof::ProfileNode> = None;
        for entry in &self.entries {
            let Some(tree) = &entry.profile else { continue };
            match merged.as_mut() {
                Some(m) => m.merge(tree),
                None => merged = Some(tree.clone()),
            }
        }
        merged.map(|mut m| {
            m.normalize();
            m
        })
    }

    /// Measures the parallel speedup of the configured pool over a single
    /// worker on a calibration batch (all nine benchmark baselines at
    /// `commits` each, uncached so both passes do identical work), and
    /// records it for the report. Returns the measured speedup.
    pub fn measure_speedup(&mut self, commits: u64) -> f64 {
        let specs: Vec<RunSpec> = crate::aggregate::all_names()
            .iter()
            .map(|n| RunSpec::baseline(n, 4).commits(commits))
            .collect();
        let timed = |pool: SimPool| {
            let cache = RunCache::disabled();
            let start = Instant::now();
            let _ = pool.run_many_cached(&specs, &cache);
            start.elapsed().as_secs_f64()
        };
        let serial = timed(SimPool::new(1));
        let parallel = timed(SimPool::from_env());
        let speedup = if parallel > 0.0 { serial / parallel } else { 1.0 };
        self.speedup = Some(speedup);
        speedup
    }

    /// The suite totals: the sum of every harness's counter delta.
    fn totals(&self) -> Counts {
        self.entries.iter().map(|e| e.counts).sum()
    }

    /// The suite's durable-store `(hits, misses, writes)`, summed over
    /// the harnesses; `None` when the store tier is off.
    fn store_totals(&self) -> Option<(u64, u64, u64)> {
        let t = self.totals();
        crate::runner::store_counters().map(|_| {
            (t.get(Counter::StoreHits), t.get(Counter::StoreMisses), t.get(Counter::StoreWrites))
        })
    }

    /// Renders the benchmark report as JSON.
    pub fn to_json(&self) -> String {
        let total: f64 = self.started.elapsed().as_secs_f64();
        let totals = self.totals();
        let sims = totals.get(Counter::SimsCompleted);
        let committed = totals.get(Counter::InstructionsCommitted);
        let harness_time: f64 = self.entries.iter().map(|e| e.seconds).sum();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"jobs\": {},", SimPool::from_env().jobs());
        let _ = writeln!(out, "  \"commits_per_run\": {},", self.commits);
        let _ = writeln!(out, "  \"total_seconds\": {total:.3},");
        let _ = writeln!(out, "  \"simulations\": {sims},");
        let _ = writeln!(out, "  \"instructions_committed\": {committed},");
        let _ = writeln!(out, "  \"sims_per_second\": {:.3},", rate(sims as f64, harness_time));
        let _ = writeln!(
            out,
            "  \"committed_per_second\": {:.1},",
            rate(committed as f64, harness_time)
        );
        let _ = writeln!(out, "  \"cache_hits\": {},", totals.get(Counter::CacheHits));
        let _ = writeln!(out, "  \"cache_misses\": {},", totals.get(Counter::CacheMisses));
        match self.store_totals() {
            Some((hits, misses, writes)) => {
                let _ = writeln!(
                    out,
                    "  \"store\": {{\"hits\": {hits}, \"misses\": {misses}, \
                     \"writes\": {writes}}},"
                );
            }
            None => {
                let _ = writeln!(out, "  \"store\": null,");
            }
        }
        match self.speedup {
            Some(s) => {
                let _ = writeln!(out, "  \"speedup_vs_1_worker\": {s:.2},");
            }
            None => {
                let _ = writeln!(out, "  \"speedup_vs_1_worker\": null,");
            }
        }
        match &self.sanitizer {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  \"sanitizer\": {{\"status\": \"{}\", \"probes\": {}, \
                     \"events\": {}, \"violations\": {}}},",
                    s.status(),
                    s.probes,
                    s.events,
                    s.violations
                );
            }
            None => {
                let _ = writeln!(out, "  \"sanitizer\": null,");
            }
        }
        match self.suite_profile() {
            Some(p) => {
                let _ = writeln!(out, "  \"profile\": {},", rf_obs::profile::to_value(&p));
            }
            None => {
                let _ = writeln!(out, "  \"profile\": null,");
            }
        }
        out.push_str("  \"harnesses\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            // A fully cache-served harness has no throughput of its own:
            // null, not a zero that trend averaging would ingest.
            let c = |counter| e.counts.get(counter);
            let cps = if e.sims() == 0 {
                "null".to_owned()
            } else {
                format!("{:.3}", rate(c(Counter::Cycles) as f64, e.seconds))
            };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"seconds\": {:.3}, \"simulations\": {}, \
                 \"instructions_committed\": {}, \"cycles\": {}, \
                 \"stall_no_reg\": {}, \"stall_dq_full\": {}, \"no_free_cycles\": {}, \
                 \"cycles_skipped\": {}, \"wakeup_events\": {}, \
                 \"cache_served\": {}, \"cycles_per_second\": {cps}",
                e.name,
                e.seconds,
                e.sims(),
                c(Counter::InstructionsCommitted),
                c(Counter::Cycles),
                c(Counter::StallNoReg),
                c(Counter::StallDqFull),
                c(Counter::NoFreeCycles),
                c(Counter::CyclesSkipped),
                c(Counter::WakeupEvents),
                e.cache_served(),
            );
            if let Some(p) = &e.profile {
                let _ = write!(out, ", \"profile\": {}", rf_obs::profile::to_value(p));
            }
            if let Some(p) = &e.probe {
                let _ = write!(
                    out,
                    ", \"probe\": {{\"bench\": \"{}\", \"cycles\": {}, \"stalls\": {{",
                    p.bench, p.cycles
                );
                for (j, cause) in StallCause::ALL.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\": {}",
                        if j > 0 { ", " } else { "" },
                        cause.label(),
                        p.stall_cycles[cause.index()]
                    );
                }
                let (i50, i90, i99) = p.insert_to_commit;
                let (q50, q90, q99) = p.issue_to_commit;
                let _ = write!(
                    out,
                    "}}, \"latency_insert_to_commit\": {{\"p50\": {i50}, \"p90\": {i90}, \
                     \"p99\": {i99}}}, \"latency_issue_to_commit\": {{\"p50\": {q50}, \
                     \"p90\": {q90}, \"p99\": {q99}}}}}"
                );
            }
            if let Some(message) = &e.error {
                // Value::String handles JSON escaping of the panic text.
                let _ = write!(
                    out,
                    ", \"error\": {}",
                    rf_obs::json::Value::String(message.clone())
                );
            }
            out.push('}');
            out.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Builds the run-history ledger record for this suite run (see
    /// `rf_obs::ledger`): config knobs, totals, per-harness breakdowns
    /// with phase timers and probes, the extracted figure headlines, and
    /// the allocation profile when the counting allocator is installed
    /// (`profile-alloc` feature).
    pub fn to_ledger_record(&self, headlines: Vec<(String, f64)>) -> LedgerRecord {
        let harnesses: Vec<HarnessRecord> = self
            .entries
            .iter()
            .map(|e| HarnessRecord {
                name: e.name.clone(),
                seconds: e.seconds,
                sims: e.sims(),
                committed: e.counts.get(Counter::InstructionsCommitted),
                cycles: e.counts.get(Counter::Cycles),
                stall_no_reg: e.counts.get(Counter::StallNoReg),
                stall_dq_full: e.counts.get(Counter::StallDqFull),
                no_free_cycles: e.counts.get(Counter::NoFreeCycles),
                cycles_skipped: e.counts.get(Counter::CyclesSkipped),
                wakeup_events: e.counts.get(Counter::WakeupEvents),
                cache_served: e.cache_served(),
                phase: PhaseRecord {
                    generate: e.phase_generate(),
                    simulate: e.phase_simulate(),
                    aggregate: e.phase_aggregate(),
                },
                profile: e.profile.clone(),
                probe: e.probe.as_ref().map(|p| ProbeRecord {
                    bench: p.bench.clone(),
                    cycles: p.cycles,
                    insert_to_commit: p.insert_to_commit,
                    issue_to_commit: p.issue_to_commit,
                }),
                error: e.error.clone(),
            })
            .collect();
        let alloc = if rf_obs::alloc::is_active() {
            let snap = rf_obs::alloc::snapshot();
            Some(AllocRecord {
                allocations: snap.allocations,
                deallocations: snap.deallocations,
                allocated_bytes: snap.allocated_bytes,
            })
        } else {
            None
        };
        let totals = self.totals();
        LedgerRecord {
            timestamp_unix: rf_obs::ledger::unix_timestamp(),
            git_rev: rf_obs::ledger::git_rev(),
            commits: self.commits,
            jobs: SimPool::from_env().jobs() as u64,
            cache: RunCache::global().is_enabled(),
            sanitize: self.sanitizer.is_some(),
            total_seconds: self.started.elapsed().as_secs_f64(),
            sims: totals.get(Counter::SimsCompleted),
            committed: totals.get(Counter::InstructionsCommitted),
            cycles: totals.get(Counter::Cycles),
            cache_hits: totals.get(Counter::CacheHits),
            cache_misses: totals.get(Counter::CacheMisses),
            harnesses,
            headlines,
            model_error: self.model_error.clone(),
            alloc,
            telemetry: self.telemetry.clone(),
            store: self
                .store_totals()
                .map(|(hits, misses, writes)| StoreRecord { hits, misses, writes }),
        }
    }

    /// Renders the final suite-summary log line for the active `RF_LOG`
    /// mode (`None` when logging is off): totals, cache hit rate, and
    /// wall time, so log scrapers don't have to re-sum harness lines.
    pub fn suite_summary_line(&self) -> Option<String> {
        let total = self.started.elapsed().as_secs_f64();
        let totals = self.totals();
        let sims = totals.get(Counter::SimsCompleted);
        let committed = totals.get(Counter::InstructionsCommitted);
        let (hits, misses) = (totals.get(Counter::CacheHits), totals.get(Counter::CacheMisses));
        let hit_rate = rate(hits as f64, (hits + misses) as f64);
        match self.log {
            LogMode::Off => None,
            LogMode::Text => Some(format!(
                "[rfstudy] suite harnesses={} seconds={total:.3} sims={sims} \
                 committed={committed} cache_hit_rate={hit_rate:.3} jobs={}",
                self.entries.len(),
                SimPool::from_env().jobs(),
            )),
            LogMode::Json => Some(format!(
                "{{\"event\":\"suite\",\"harnesses\":{},\"seconds\":{total:.3},\
                 \"simulations\":{sims},\"instructions_committed\":{committed},\
                 \"cache_hits\":{hits},\"cache_misses\":{misses},\
                 \"cache_hit_rate\":{hit_rate:.3},\"jobs\":{}}}",
                self.entries.len(),
                SimPool::from_env().jobs(),
            )),
        }
    }
}

fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        amount / seconds
    } else {
        0.0
    }
}

/// The median of an ascending-sorted slice (even lengths average the two
/// middle values); `None` on empty input.
fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[n / 2]),
        n => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Compile-time proof that the default pipeline stays unobserved: the
/// suite's hot path is `Pipeline<NullObserver>`, whose observer is
/// inactive and therefore compiled out.
const _: () = assert!(!NullObserver::ACTIVE);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_attaches_attribution_and_latencies() {
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("probed", String::new);
        bench.attach_probe("compress", 2_000);
        let p = bench.entries()[0].probe.as_ref().expect("probe attached");
        assert_eq!(p.bench, "compress");
        assert!(p.cycles > 0);
        assert!(p.insert_to_commit.0 >= 1, "p50 insert-to-commit missing");
        assert!(p.insert_to_commit.2 >= p.insert_to_commit.0, "p99 < p50");
        // The baseline machine is generously sized: no register stalls.
        assert_eq!(p.stall_cycles[StallCause::NoFreeReg.index()], 0);
    }

    #[test]
    fn json_has_expected_keys() {
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("noop", String::new);
        bench.attach_probe("ora", 1_000);
        let json = bench.to_json();
        for key in [
            "\"jobs\"",
            "\"commits_per_run\": 500",
            "\"total_seconds\"",
            "\"simulations\"",
            "\"sims_per_second\"",
            "\"committed_per_second\"",
            "\"cache_hits\"",
            "\"cache_misses\"",
            "\"store\"",
            "\"speedup_vs_1_worker\": null",
            "\"sanitizer\": null",
            "\"harnesses\"",
            "\"name\": \"noop\"",
            "\"stall_no_reg\"",
            "\"stall_dq_full\"",
            "\"no_free_cycles\"",
            "\"cycles_skipped\"",
            "\"wakeup_events\"",
            "\"cache_served\": true",
            "\"cycles_per_second\": null",
            "\"profile\": null",
            "\"probe\"",
            "\"in-order-commit-blocked\"",
            "\"latency_insert_to_commit\"",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        rf_obs::json::validate(&json).expect("benchmark report must be valid JSON");
    }

    #[test]
    fn try_time_records_a_failing_harness_and_keeps_going() {
        let mut bench = SuiteBench::start(500);
        let err = bench
            .try_time("broken", || panic!("synthetic \"failure\""))
            .expect_err("panicking harness reports its error");
        assert!(err.contains("broken") && err.contains("synthetic"), "{err}");
        // The suite keeps going: the next harness is recorded normally.
        let ok = bench.try_time("fine", || "report".to_owned());
        assert_eq!(ok.as_deref(), Ok("report"));
        assert_eq!(bench.entries().len(), 2);
        assert_eq!(bench.entries()[0].error.as_deref(), Some(err.as_str()));
        assert_eq!(bench.entries()[1].error, None);
        // The error renders (escaped) in both the JSON report and the
        // ledger record.
        let json = bench.to_json();
        assert!(json.contains("\"error\": \"harness \\\"broken\\\" failed"), "{json}");
        rf_obs::json::validate(&json).expect("report with error must be valid JSON");
        let record = bench.to_ledger_record(Vec::new());
        assert_eq!(record.harnesses[0].error.as_deref(), Some(err.as_str()));
        assert_eq!(record.harnesses[1].error, None);
        rf_obs::json::validate(&record.to_line()).expect("ledger line valid");
    }

    #[test]
    fn json_reports_cache_and_store_keys() {
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("noop", String::new);
        let json = bench.to_json();
        for key in ["\"cache_hits\"", "\"cache_misses\"", "\"store\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        rf_obs::json::validate(&json).expect("report must stay valid JSON");
    }

    #[test]
    fn sanitizer_status_renders_clean_and_violated() {
        let clean = SanitizerStatus { probes: 8, events: 1_000, violations: 0 };
        assert_eq!(clean.status(), "clean");
        let bad = SanitizerStatus { probes: 8, events: 1_000, violations: 3 };
        assert_eq!(bad.status(), "VIOLATED");

        let mut bench = SuiteBench::start(500);
        let _ = bench.time("noop", String::new);
        bench.set_sanitizer(clean);
        let json = bench.to_json();
        assert!(json.contains("\"sanitizer\": {\"status\": \"clean\", \"probes\": 8"), "{json}");
        rf_obs::json::validate(&json).expect("report with sanitizer must be valid JSON");
    }

    #[test]
    fn progress_lines_follow_rf_log_mode() {
        let entry = Entry {
            name: "fig3".into(),
            seconds: 1.25,
            counts: Counts::from_fn(|c| match c {
                Counter::SimsCompleted => 9,
                Counter::InstructionsCommitted => 90_000,
                Counter::Cycles => 30_000,
                Counter::StallNoReg => 5,
                Counter::StallDqFull => 7,
                Counter::NoFreeCycles => 11,
                _ => 0,
            }),
            probe: None,
            profile: None,
            error: None,
        };
        assert_eq!(progress_line(LogMode::Off, 1, &entry, Some(9.0)), None);
        let text = progress_line(LogMode::Text, 1, &entry, None).unwrap();
        assert!(text.contains("harness=fig3") && text.contains("stall_dq_full=7"), "{text}");
        assert!(!text.contains("eta_s"), "no fabricated ETA without history: {text}");
        let text = progress_line(LogMode::Text, 1, &entry, Some(12.34)).unwrap();
        assert!(text.ends_with("eta_s=12.3"), "{text}");
        let json = progress_line(LogMode::Json, 3, &entry, None).unwrap();
        rf_obs::json::validate(&json).expect("json progress line must parse");
        assert!(json.contains("\"name\":\"fig3\"") && json.contains("\"n\":3"), "{json}");
        assert!(json.contains("\"eta_s\":null"), "{json}");
        let json = progress_line(LogMode::Json, 3, &entry, Some(7.06)).unwrap();
        rf_obs::json::validate(&json).expect("json progress line with eta must parse");
        assert!(json.contains("\"eta_s\":7.1"), "{json}");
    }

    #[test]
    fn eta_weighs_remaining_harnesses_by_ledger_medians() {
        let mut bench = SuiteBench::start(500);
        // No plan / no history: no estimate, never a fake zero.
        assert_eq!(bench.eta_seconds(), None);
        bench.set_plan(
            &["fig3", "fig4", "mystery"],
            vec![("fig3".to_owned(), 1.0), ("fig4".to_owned(), 3.0)],
        );
        // Nothing run yet: fig3 + fig4 by their medians, the harness
        // with no history at the median-of-medians (2.0).
        assert!((bench.eta_seconds().unwrap() - 6.0).abs() < 1e-12);
        let _ = bench.time("fig3", String::new);
        assert!((bench.eta_seconds().unwrap() - 5.0).abs() < 1e-12);
        let _ = bench.time("fig4", String::new);
        let _ = bench.time("mystery", String::new);
        // Plan exhausted: nothing remains.
        assert_eq!(bench.eta_seconds(), Some(0.0));
    }

    #[test]
    fn entry_phase_aggregate_is_clamped_residual() {
        let phases = |generate_ns, simulate_ns| {
            Counts::from_fn(|c| match c {
                Counter::GenerateNs => generate_ns,
                Counter::SimulateNs => simulate_ns,
                _ => 1,
            })
        };
        let mut entry = Entry {
            name: "x".into(),
            seconds: 2.0,
            counts: phases(250_000_000, 1_250_000_000),
            probe: None,
            profile: None,
            error: None,
        };
        assert!((entry.phase_aggregate() - 0.5).abs() < 1e-12);
        // Parallel workers: summed CPU time exceeds wall time.
        entry.counts = phases(250_000_000, 7_000_000_000);
        assert_eq!(entry.phase_aggregate(), 0.0);
    }

    #[test]
    fn suite_summary_line_follows_log_mode() {
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("noop", String::new);
        // The constructor read RF_LOG from the environment; exercise all
        // modes explicitly instead of mutating the process env.
        bench.log = LogMode::Off;
        assert_eq!(bench.suite_summary_line(), None);
        bench.log = LogMode::Text;
        let text = bench.suite_summary_line().unwrap();
        assert!(text.contains("suite harnesses=1") && text.contains("cache_hit_rate="), "{text}");
        bench.log = LogMode::Json;
        let json = bench.suite_summary_line().unwrap();
        rf_obs::json::validate(&json).expect("json suite summary must parse");
        assert!(json.contains("\"event\":\"suite\"") && json.contains("\"harnesses\":1"), "{json}");
    }
}
