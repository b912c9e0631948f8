//! Wall-clock timing and counter capture of the experiment suite.
//!
//! [`SuiteBench`] wraps each harness invocation, records its elapsed time
//! together with the [`rf_prof::counters`] registry's delta over the
//! harness (simulations executed, committed instructions, stalls, phase
//! times, cache and store lookups), optionally attaches a traced probe (a
//! small observed run giving full six-cause stall attribution and latency
//! percentiles), and builds the suite's one run record: the
//! [`LedgerRecord`] appended to `results/history/suite.jsonl`. Suite
//! totals are the sum of the harness deltas, so work done outside every
//! harness (the post-suite probes) never reaches them.

use crate::runner::{RunCache, RunSpec, SimPool};
use rf_core::{NullObserver, Observer as _, Pipeline, StallCause};
use rf_prof::counters::{self, Counter, Counts};
use rf_obs::ledger::{
    AllocRecord, HarnessRecord, LedgerRecord, ModelErrorRecord, PhaseRecord, ProbeRecord,
    SanitizerRecord, StoreRecord, TelemetryRecord,
};
use rf_obs::Recorder;
use rf_workload::{spec92, SharedTrace};
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
    pub probe: Option<ProbeRecord>,
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

    /// CPU-seconds filling shared committed-path traces during the
    /// harness (each fill once, however many simulations replay it).
    pub fn phase_generate(&self) -> f64 {
        self.counts.get(Counter::GenerateNs) as f64 / 1e9
    }

    /// CPU-seconds inside the pipeline during the harness, trace replay
    /// included (can exceed `seconds` under parallel workers).
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

/// Runs a traced probe: `bench` on the paper's 4-wide baseline machine
/// for `commits` committed instructions, with the recorder attached,
/// giving its six-cause stall attribution and latency percentiles.
pub fn probe(bench: &str, commits: u64) -> ProbeRecord {
    let spec = RunSpec::baseline(bench, 4).commits(commits);
    let profile =
        spec92::by_name(bench).unwrap_or_else(|| panic!("unknown probe benchmark {bench:?}"));
    let len = commits.min(SharedTrace::MAX_BUFFERED) as usize;
    let trace = SharedTrace::new(&profile, spec.seed, len);
    let (stats, mut rec) = Pipeline::with_observer(spec.machine_config(), Recorder::unbounded())
        .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
        .expect("no cancel token");
    rec.seal();
    let pcts = |name: &str| {
        rec.metrics()
            .histogram(name)
            .map(|h| (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0)))
            .unwrap_or((0, 0, 0))
    };
    ProbeRecord {
        bench: bench.to_owned(),
        cycles: stats.cycles,
        stalls: StallCause::ALL.map(|cause| rec.stall_cycles(cause)),
        insert_to_commit: pcts("latency.insert-to-commit"),
        issue_to_commit: pcts("latency.issue-to-commit"),
    }
}

/// Times the harnesses of one suite invocation and builds its ledger
/// record.
#[derive(Debug)]
pub struct SuiteBench {
    commits: u64,
    entries: Vec<Entry>,
    started: Instant,
    sanitizer: Option<SanitizerRecord>,
    model_error: Option<ModelErrorRecord>,
    telemetry: Option<TelemetryRecord>,
}

impl SuiteBench {
    /// Starts timing a suite run at `commits` committed instructions per
    /// simulation.
    pub fn start(commits: u64) -> Self {
        Self {
            commits,
            entries: Vec::new(),
            started: Instant::now(),
            sanitizer: None,
            model_error: None,
            telemetry: None,
        }
    }

    /// Records the sanitized-probe outcome for the ledger record; any
    /// violation fails the suite's [`SuiteBench::verdict`].
    pub fn set_sanitizer(&mut self, record: SanitizerRecord) {
        self.sanitizer = Some(record);
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

    /// Runs one harness, recording its wall-clock time and the counter
    /// registry's delta over it (simulations executed, the stall
    /// attribution they accumulated, cache and store lookups); returns
    /// the harness's report.
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
        outcome
    }

    /// Attaches a traced probe to the most recently timed harness: a
    /// small observed run of `bench` giving full six-cause stall
    /// attribution and latency percentiles for the ledger record.
    pub fn attach_probe(&mut self, bench: &str, commits: u64) {
        if let Some(last) = self.entries.last_mut() {
            last.probe = Some(probe(bench, commits));
        }
    }

    /// The per-harness records so far.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
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
                probe: e.probe.clone(),
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
        // Suite totals: the sum of every harness's counter delta.
        let totals: Counts = self.entries.iter().map(|e| e.counts).sum();
        LedgerRecord {
            timestamp_unix: rf_obs::ledger::unix_timestamp(),
            git_rev: rf_obs::ledger::git_rev(),
            commits: self.commits,
            jobs: SimPool::from_env().jobs() as u64,
            cache: RunCache::global().is_enabled(),
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
            store: crate::runner::store_counters().map(|_| StoreRecord {
                hits: totals.get(Counter::StoreHits),
                misses: totals.get(Counter::StoreMisses),
                writes: totals.get(Counter::StoreWrites),
            }),
            sanitizer: self.sanitizer,
        }
    }

    /// The suite's exit verdict: `Ok` when every harness completed and
    /// the sanitizer probe found no violation; otherwise the failure
    /// summary, naming the failed harnesses with their errors and the
    /// sanitizer's violation count.
    pub fn verdict(&self) -> Result<(), String> {
        let failed: Vec<&Entry> = self.entries.iter().filter(|e| e.error.is_some()).collect();
        let mut reasons = Vec::new();
        if !failed.is_empty() {
            reasons.push(format!(
                "{}/{} harnesses did not complete",
                failed.len(),
                self.entries.len()
            ));
        }
        if let Some(s) = self.sanitizer.filter(|s| s.violations > 0) {
            reasons.push(format!(
                "sanitizer found {} invariant violations in {} probes",
                s.violations, s.probes
            ));
        }
        if reasons.is_empty() {
            return Ok(());
        }
        let mut summary = format!("suite FAILED: {}", reasons.join("; "));
        for e in failed {
            let _ = write!(summary, "\n  {}: {}", e.name, e.error.as_deref().unwrap_or_default());
        }
        Err(summary)
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
        assert_eq!(p.stalls[StallCause::NoFreeReg.index()], 0);
    }

    #[test]
    fn ledger_record_carries_probe_stalls_and_sanitizer() {
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("noop", String::new);
        bench.attach_probe("ora", 1_000);
        bench.set_sanitizer(SanitizerRecord { probes: 8, events: 1_000, violations: 0 });
        let record = bench.to_ledger_record(Vec::new());
        assert_eq!(record.commits, 500);
        assert_eq!(record.sanitizer.map(|s| s.events), Some(1_000));
        let h = &record.harnesses[0];
        assert_eq!(h.name, "noop");
        assert!(h.cache_served, "a harness that simulated nothing is cache-served");
        let p = h.probe.as_ref().expect("probe recorded");
        assert_eq!(p, bench.entries()[0].probe.as_ref().unwrap());
        let v = rf_obs::json::parse(&record.to_line()).expect("ledger line parses");
        let stalls = v.get("harnesses").unwrap().as_array().unwrap()[0]
            .get("probe")
            .and_then(|p| p.get("stalls"))
            .and_then(rf_obs::json::Value::as_object)
            .expect("six-cause stalls recorded");
        assert_eq!(stalls.len(), StallCause::COUNT);
        assert_eq!(v.get("sanitizer").unwrap().get_f64("probes"), Some(8.0));
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
        // The error renders (escaped) in the ledger record.
        let record = bench.to_ledger_record(Vec::new());
        assert_eq!(record.harnesses[0].error.as_deref(), Some(err.as_str()));
        assert_eq!(record.harnesses[1].error, None);
        rf_obs::json::validate(&record.to_line()).expect("ledger line valid");
    }

    #[test]
    fn verdict_covers_clean_failed_harness_and_sanitizer_violation() {
        let clean = SanitizerRecord { probes: 8, events: 1_000, violations: 0 };

        // Clean: every harness completed and the sanitizer found nothing.
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("fine", String::new);
        bench.set_sanitizer(clean);
        assert_eq!(bench.verdict(), Ok(()));

        // A failed harness: the summary counts it and names its error.
        let mut bench = SuiteBench::start(500);
        let _ = bench.try_time("broken", || panic!("boom"));
        let _ = bench.time("fine", String::new);
        bench.set_sanitizer(clean);
        let summary = bench.verdict().expect_err("a failed harness fails the suite");
        assert!(summary.starts_with("suite FAILED: 1/2 harnesses did not complete"), "{summary}");
        assert!(summary.contains("\n  broken: harness \"broken\" failed: boom"), "{summary}");
        assert!(!summary.contains("sanitizer"), "{summary}");

        // A sanitizer violation fails a suite whose harnesses all ran.
        let mut bench = SuiteBench::start(500);
        let _ = bench.time("fine", String::new);
        bench.set_sanitizer(SanitizerRecord { violations: 3, ..clean });
        let summary = bench.verdict().expect_err("a violation fails the suite");
        assert_eq!(summary, "suite FAILED: sanitizer found 3 invariant violations in 8 probes");
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
}
