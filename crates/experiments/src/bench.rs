//! Timing, attribution and the run record of the experiment suite.
//!
//! [`SuiteBench`] answers the suite [`Plan`] in one batch, recording the
//! [`rf_prof::counters`] registry's delta and the self-profile over it,
//! then renders each harness, charging every spec to its first owner
//! (its [`HarnessRecord`] sums the owned specs' `SimStats` and task
//! times plus its render time). It optionally attaches a traced probe to
//! each harness (a small observed run giving full six-cause stall
//! attribution and latency percentiles) and builds the suite's one run
//! record: the [`LedgerRecord`] appended to
//! `results/history/suite.jsonl`. Work outside the batch and the renders
//! (the post-suite probes) never reaches it.

use crate::runner::{payload_text, BatchOpts, RunSpec, SimPool};
use crate::suite::{Answers, Plan};
use rf_core::{NullObserver, Observer as _, Pipeline, StallCause};
use rf_obs::ledger::{
    HarnessRecord, LedgerRecord, ModelErrorRecord, PhaseRecord, ProbeRecord,
    SanitizerRecord, StoreRecord, TelemetryRecord,
};
use rf_obs::Recorder;
use rf_prof::counters::{self, Counter, Counts};
use rf_workload::{spec92, SharedTrace};
use std::fmt::Write as _;
use std::time::Instant;

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

/// Answers, renders and records one suite invocation.
#[derive(Debug)]
pub struct SuiteBench {
    commits: u64,
    started: Instant,
    /// The counter registry's delta over the batch.
    batch: Counts,
    /// The batch's self-profile span tree (`RF_PROFILE=1` only).
    profile: Option<rf_prof::ProfileNode>,
    /// Wall seconds spent rendering reports.
    render_seconds: f64,
    harnesses: Vec<HarnessRecord>,
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
            started: Instant::now(),
            batch: Counts::default(),
            profile: None,
            render_seconds: 0.0,
            harnesses: Vec::new(),
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

    /// Answers every spec of `plan` in one batch on `pool`, recording the
    /// counter registry's delta and the profile spans over it.
    pub fn answer(&mut self, plan: &Plan, pool: &SimPool, opts: BatchOpts) -> Answers {
        let before = counters::snapshot();
        let answers = Answers::batch(pool, &plan.specs, opts);
        self.batch = counters::snapshot().since(&before);
        // `collect` drains everything profiled since the last drain.
        self.profile = rf_prof::collect();
        answers
    }

    /// Renders harness `h` of `plan` and records it. The harness fails
    /// without rendering when a spec of its plan failed, and a panicking
    /// `render` is caught; either way the failure is recorded and
    /// returned as `Err`, so the suite goes on with the other harnesses.
    pub fn render(
        &mut self,
        plan: &Plan,
        h: usize,
        answers: &Answers,
        render: impl FnOnce() -> String,
    ) -> Result<String, String> {
        let name = plan.harnesses[h].0;
        let start = Instant::now();
        let outcome = match plan.failure(h, answers) {
            Some(e) => Err(e.to_string()),
            None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(render))
                .map_err(|payload| payload_text(payload.as_ref())),
        }
        .map_err(|e| format!("harness {name:?} failed: {e}"));
        let render_seconds = start.elapsed().as_secs_f64();
        self.render_seconds += render_seconds;
        let mut record = HarnessRecord {
            name: name.to_owned(),
            seconds: render_seconds,
            cache_served: true,
            error: outcome.as_ref().err().cloned(),
            ..HarnessRecord::default()
        };
        for answer in plan.owned(h).filter_map(|spec| answers.answer(spec)) {
            record.cache_served = false;
            let Some(ns) = answer.task_ns else { continue };
            record.seconds += ns as f64 / 1e9;
            if let Ok(s) = &answer.outcome {
                record.sims += 1;
                record.committed += s.committed;
                record.cycles += s.cycles;
                record.stall_no_reg += s.insert_stall_no_reg;
                record.stall_dq_full += s.insert_stall_dq_full;
                record.no_free_cycles += s.no_free_any_cycles;
            }
        }
        self.harnesses.push(record);
        outcome
    }

    /// Attaches a traced probe to the most recently rendered harness: a
    /// small observed run of `bench` giving full six-cause stall
    /// attribution and latency percentiles for the ledger record.
    pub fn attach_probe(&mut self, bench: &str, commits: u64) {
        if let Some(last) = self.harnesses.last_mut() {
            last.probe = Some(probe(bench, commits));
        }
    }

    /// The per-harness records so far.
    pub fn harnesses(&self) -> &[HarnessRecord] {
        &self.harnesses
    }

    /// Builds the run-history ledger record for this suite run (see
    /// `rf_obs::ledger`): config knobs, totals (the sums of the harness
    /// records, plus the batch's kernel, cache and store counters), the
    /// batch's phase timers and profile, the per-harness records and the
    /// extracted figure headlines.
    pub fn to_ledger_record(&self, headlines: Vec<(String, f64)>) -> LedgerRecord {
        let b = |c| self.batch.get(c);
        let sum = |f: fn(&HarnessRecord) -> u64| self.harnesses.iter().map(f).sum();
        LedgerRecord {
            timestamp_unix: rf_obs::ledger::unix_timestamp(),
            git_rev: rf_obs::ledger::git_rev(),
            commits: self.commits,
            jobs: SimPool::from_env().jobs() as u64,
            total_seconds: self.started.elapsed().as_secs_f64(),
            peak_rss_kb: rf_obs::ledger::peak_rss_kb(),
            sims: sum(|h| h.sims),
            committed: sum(|h| h.committed),
            cycles: sum(|h| h.cycles),
            cycles_skipped: b(Counter::CyclesSkipped),
            wakeup_events: b(Counter::WakeupEvents),
            reused: b(Counter::SimsReused),
            cache_hits: b(Counter::CacheHits),
            cache_misses: b(Counter::CacheMisses),
            phase: PhaseRecord {
                generate: b(Counter::GenerateNs) as f64 / 1e9,
                simulate: b(Counter::SimulateNs) as f64 / 1e9,
                aggregate: self.render_seconds,
            },
            profile: self.profile.clone(),
            harnesses: self.harnesses.clone(),
            headlines,
            model_error: self.model_error.clone(),
            telemetry: self.telemetry.clone(),
            store: crate::runner::store_counters().map(|_| StoreRecord {
                hits: b(Counter::StoreHits),
                misses: b(Counter::StoreMisses),
                writes: b(Counter::StoreWrites),
            }),
            sanitizer: self.sanitizer,
        }
    }

    /// The suite's exit verdict: `Ok` when every harness completed and
    /// the sanitizer probe found no violation; otherwise the failure
    /// summary, naming the failed harnesses with their errors and the
    /// sanitizer's violation count.
    pub fn verdict(&self) -> Result<(), String> {
        let failed: Vec<&HarnessRecord> =
            self.harnesses.iter().filter(|h| h.error.is_some()).collect();
        let mut reasons = Vec::new();
        if !failed.is_empty() {
            reasons.push(format!(
                "{}/{} harnesses did not complete",
                failed.len(),
                self.harnesses.len()
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
        for h in failed {
            let _ = write!(summary, "\n  {}: {}", h.name, h.error.as_deref().unwrap_or_default());
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
    use crate::runner::{Answer, RunError};
    use rf_core::SimStats;
    use std::sync::Arc;

    /// A one-harness plan over nothing, rendered to an empty report.
    fn rendered_noop(bench: &mut SuiteBench) {
        let plan = Plan::new(vec![("noop", Vec::new())]);
        let answers = Answers::default();
        assert_eq!(bench.render(&plan, 0, &answers, String::new), Ok(String::new()));
    }

    #[test]
    fn probe_attaches_attribution_and_latencies() {
        let mut bench = SuiteBench::start(500);
        rendered_noop(&mut bench);
        bench.attach_probe("compress", 2_000);
        let p = bench.harnesses()[0].probe.as_ref().expect("probe attached");
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
        rendered_noop(&mut bench);
        bench.attach_probe("ora", 1_000);
        bench.set_sanitizer(SanitizerRecord { probes: 8, events: 1_000, violations: 0 });
        let record = bench.to_ledger_record(Vec::new());
        assert_eq!(record.commits, 500);
        assert_eq!(record.sanitizer.map(|s| s.events), Some(1_000));
        let h = &record.harnesses[0];
        assert_eq!(h.name, "noop");
        assert!(h.cache_served, "a harness that owns no spec is cache-served");
        let p = h.probe.as_ref().expect("probe recorded");
        assert_eq!(p, bench.harnesses()[0].probe.as_ref().unwrap());
        let v = rf_obs::json::parse(&record.to_line()).expect("ledger line parses");
        let stalls = v.get("harnesses").unwrap().as_array().unwrap()[0]
            .get("probe")
            .and_then(|p| p.get("stalls"))
            .and_then(rf_obs::json::Value::as_object)
            .expect("six-cause stalls recorded");
        assert_eq!(stalls.len(), StallCause::COUNT);
        assert_eq!(v.get("sanitizer").unwrap().get_f64("probes"), Some(8.0));
    }

    fn stats(committed: u64, cycles: u64) -> Arc<SimStats> {
        let mut s = SimStats::new(64);
        s.committed = committed;
        s.cycles = cycles;
        s.insert_stall_no_reg = cycles / 10;
        s.insert_stall_dq_full = cycles / 5;
        s.no_free_any_cycles = cycles / 20;
        Arc::new(s)
    }

    #[test]
    fn a_failed_shared_spec_fails_exactly_its_planners_and_every_spec_is_charged_once() {
        let spec = |bench: &str| RunSpec::baseline(bench, 4).commits(1_000);
        let (a, b, c, shared, failed) =
            (spec("gcc1"), spec("ora"), spec("doduc"), spec("su2cor"), spec("tomcatv"));
        let plan = Plan::new(vec![
            ("first", vec![a.clone(), shared.clone()]),
            ("second", vec![shared.clone(), b.clone(), failed.clone()]),
            ("third", vec![c.clone(), failed.clone()]),
            ("fourth", vec![shared.clone()]),
        ]);
        let ok = |s: Arc<SimStats>, task_ns| Answer { outcome: Ok(s), task_ns, reused: false };
        let error = RunError::WorkerPanic { benchmark: "tomcatv".into(), payload: "boom".into() };
        let answers: Answers = [
            (a.clone(), ok(stats(1_000, 700), Some(2_000_000_000))),
            (shared.clone(), ok(stats(1_000, 900), Some(1_000_000_000))),
            // The store served `b`: no task ran, so nothing is charged.
            (b.clone(), ok(stats(1_000, 800), None)),
            (
                failed.clone(),
                Answer { outcome: Err(error.clone()), task_ns: Some(500_000_000), reused: false },
            ),
            (c.clone(), ok(stats(1_000, 600), Some(3_000_000_000))),
        ]
        .into_iter()
        .collect();

        let mut bench = SuiteBench::start(1_000);
        let mut outcomes = Vec::new();
        for (h, (name, specs)) in plan.harnesses.iter().enumerate() {
            let read = specs.clone();
            let answers_ref = &answers;
            outcomes.push(bench.render(&plan, h, &answers, move || {
                // A render reads every spec of its plan but the failed one.
                let n: u64 = read
                    .iter()
                    .filter(|s| **s != spec("tomcatv"))
                    .map(|s| answers_ref.get(s).cycles)
                    .sum();
                format!("{name} {n}")
            }));
        }
        assert_eq!(outcomes[0].as_deref(), Ok("first 1600"));
        assert_eq!(outcomes[3].as_deref(), Ok("fourth 900"));
        for i in [1, 2] {
            let e = outcomes[i].as_ref().expect_err("plans holding the failed spec fail");
            assert!(e.contains(&error.to_string()), "{e}");
        }
        let record = bench.to_ledger_record(Vec::new());
        let hs = &record.harnesses;
        let errors: Vec<bool> = hs.iter().map(|h| h.error.is_some()).collect();
        assert_eq!(errors, [false, true, true, false]);
        // first owns a and the shared spec, second owns b (store-served)
        // and the failed spec, third owns c, fourth owns nothing.
        assert_eq!(hs.iter().map(|h| h.sims).collect::<Vec<_>>(), [2, 0, 1, 0]);
        assert_eq!(hs.iter().map(|h| h.cycles).collect::<Vec<_>>(), [1_600, 0, 600, 0]);
        let served: Vec<bool> = hs.iter().map(|h| h.cache_served).collect();
        assert_eq!(served, [false, false, false, true]);
        assert!(hs[0].seconds >= 3.0 && hs[1].seconds >= 0.5 && hs[2].seconds >= 3.0);
        assert!(hs[3].seconds < 0.5, "a harness that owns nothing is charged only its render");
        assert_eq!(hs[0].stall_dq_full, 140 + 180);
        // Every simulated spec is charged exactly once.
        let total = |f: fn(&HarnessRecord) -> u64| hs.iter().map(f).sum::<u64>();
        assert_eq!((record.sims, total(|h| h.sims)), (3, 3));
        assert_eq!((record.committed, total(|h| h.committed)), (3_000, 3_000));
        assert_eq!((record.cycles, total(|h| h.cycles)), (2_200, 2_200));
        let summary = bench.verdict().expect_err("failed harnesses fail the suite");
        assert!(summary.starts_with("suite FAILED: 2/4 harnesses did not complete"), "{summary}");
    }

    #[test]
    fn a_panicking_render_fails_only_itself() {
        let plan = Plan::new(vec![("broken", Vec::new()), ("fine", Vec::new())]);
        let answers = Answers::default();
        let mut bench = SuiteBench::start(500);
        let err = bench
            .render(&plan, 0, &answers, || panic!("synthetic \"failure\""))
            .expect_err("panicking render reports its error");
        assert!(err.contains("broken") && err.contains("synthetic"), "{err}");
        let ok = bench.render(&plan, 1, &answers, || "report".to_owned());
        assert_eq!(ok.as_deref(), Ok("report"));
        let record = bench.to_ledger_record(Vec::new());
        assert_eq!(record.harnesses[0].error.as_deref(), Some(err.as_str()));
        assert_eq!(record.harnesses[1].error, None);
        rf_obs::json::validate(&record.to_line()).expect("ledger line valid");
    }

    #[test]
    fn verdict_covers_clean_failed_harness_and_sanitizer_violation() {
        let clean = SanitizerRecord { probes: 8, events: 1_000, violations: 0 };
        let plan = Plan::new(vec![("broken", Vec::new()), ("fine", Vec::new())]);
        let answers = Answers::default();

        // Clean: every harness completed and the sanitizer found nothing.
        let mut bench = SuiteBench::start(500);
        let _ = bench.render(&plan, 1, &answers, String::new);
        bench.set_sanitizer(clean);
        assert_eq!(bench.verdict(), Ok(()));

        // A failed harness: the summary counts it and names its error.
        let mut bench = SuiteBench::start(500);
        let _ = bench.render(&plan, 0, &answers, || panic!("boom"));
        let _ = bench.render(&plan, 1, &answers, String::new);
        bench.set_sanitizer(clean);
        let summary = bench.verdict().expect_err("a failed harness fails the suite");
        assert!(summary.starts_with("suite FAILED: 1/2 harnesses did not complete"), "{summary}");
        assert!(summary.contains("\n  broken: harness \"broken\" failed: boom"), "{summary}");
        assert!(!summary.contains("sanitizer"), "{summary}");

        // A sanitizer violation fails a suite whose harnesses all ran.
        let mut bench = SuiteBench::start(500);
        let _ = bench.render(&plan, 1, &answers, String::new);
        bench.set_sanitizer(SanitizerRecord { violations: 3, ..clean });
        let summary = bench.verdict().expect_err("a violation fails the suite");
        assert_eq!(summary, "suite FAILED: sanitizer found 3 invariant violations in 8 probes");
    }
}
