//! Exact counter deltas through [`SuiteBench`].
//!
//! The counter registry is process-wide, so the suite's batch window
//! counts every simulation that runs anywhere in the process while it is
//! open. These tests assert exact deltas, so they live in their own test
//! binary and serialize on one lock: nothing else simulates while a
//! window is open.

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{BatchOpts, RunCache, RunSpec, SimPool};
use rf_experiments::suite::Plan;
use rf_prof::counters::{self, Counter};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Answers and renders a one-harness, one-spec suite: the spec's
/// committed count is the report.
fn tiny_suite(spec: RunSpec) -> SuiteBench {
    let mut bench = SuiteBench::start(spec.commits);
    let plan = Plan::new(vec![("tiny", vec![spec.clone()])]);
    let answers = bench.answer(&plan, &SimPool::new(1), BatchOpts::default());
    let report = bench.render(&plan, 0, &answers, || format!("{}", answers.get(&spec).committed));
    assert_eq!(report.as_deref(), Ok("1000"));
    bench
}

#[test]
fn the_owner_is_charged_its_simulations_and_stalls() {
    let _serial = serial();
    // A 16-entry queue at width 4 stalls on dq-full routinely, so the
    // owner's stall sum must be visible.
    let bench = tiny_suite(RunSpec::baseline("espresso", 4).dq(16).commits(1_000));
    let record = bench.to_ledger_record(Vec::new());
    let h = &record.harnesses[0];
    assert_eq!(h.name, "tiny");
    assert_eq!(h.sims, 1);
    assert_eq!(h.committed, 1_000);
    assert!(h.seconds > 0.0, "the owned task's time is charged");
    assert!(h.cycles > 0, "cycles not recorded");
    assert!(h.stall_dq_full > 0, "dq-full stalls not recorded");
    assert!(!h.cache_served);
    // The batch's counter delta agrees with the owner's sums.
    assert_eq!((record.sims, record.committed, record.cycles), (h.sims, h.committed, h.cycles));
}

#[test]
fn work_outside_the_batch_stays_out_of_the_suite_totals() {
    let _serial = serial();
    let bench = tiny_suite(RunSpec::baseline("ora", 4).commits(1_000));
    // The record's fields read from the batch's counter delta.
    let batch_fields = || {
        let r = bench.to_ledger_record(Vec::new());
        (r.phase.simulate, r.cycles_skipped, r.wakeup_events)
    };
    let ledger_before = batch_fields();
    // An out-of-band batch on a disabled cache: every lookup misses and
    // counts in the registry, but outside the suite's batch window.
    let spec = RunSpec::baseline("ora", 4).commits(1_000);
    let cache = RunCache::disabled();
    let registry_before = counters::snapshot();
    let _ = SimPool::new(1).try_run_many_cached(&[spec.clone(), spec], &cache);
    let registry = counters::snapshot().since(&registry_before);
    assert_eq!(
        registry.get(Counter::CacheMisses),
        2,
        "disabled-cache lookups still count in the registry"
    );
    assert!(registry.get(Counter::SimulateNs) > 0, "and so do the two simulations");
    assert_eq!(batch_fields(), ledger_before);
}

#[test]
fn ledger_record_carries_phases_probes_and_headlines() {
    let _serial = serial();
    let mut bench = tiny_suite(RunSpec::baseline("ora", 4).commits(1_000));
    bench.attach_probe(0, "ora", 1_000);
    let record = bench.to_ledger_record(vec![("fig3.commit_ipc.4way_dq32".to_owned(), 2.68)]);
    assert_eq!(record.commits, 1_000);
    assert_eq!(record.harnesses.len(), 1);
    let h = &record.harnesses[0];
    assert_eq!(h.name, "tiny");
    assert_eq!(h.sims, 1);
    assert!(record.phase.simulate > 0.0, "simulate phase timed");
    assert!(record.phase.generate >= 0.0);
    let probe = h.probe.as_ref().expect("probe recorded");
    assert_eq!(probe.bench, "ora");
    assert!(probe.cycles > 0);
    assert_eq!(record.headlines.len(), 1);
    assert!(!record.git_rev.is_empty());
    // The store tier is off in tests, so the block renders null.
    assert!(record.store.is_none());
    // The record renders as one valid ledger line.
    let line = record.to_line();
    rf_obs::json::validate(&line).expect("ledger line must be valid JSON");
    assert!(!line.contains('\n'));
}
