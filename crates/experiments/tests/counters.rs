//! Exact per-harness counter deltas through [`SuiteBench`].
//!
//! The counter registry is process-wide, so a harness window counts
//! every simulation that runs anywhere in the process while it is open.
//! These tests assert exact deltas, so they live in their own test
//! binary and serialize on one lock: nothing else simulates while a
//! window is open.

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{simulate, RunCache, RunSpec, SimPool};
use rf_prof::counters::{self, Counter};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn timing_counts_simulations_and_stalls() {
    let _serial = serial();
    let mut bench = SuiteBench::start(1_000);
    let report = bench.time("tiny", || {
        // A 16-entry queue at width 4 stalls on dq-full routinely, so
        // the per-harness stall delta must be visible.
        let spec = RunSpec::baseline("espresso", 4).dq(16).commits(1_000);
        format!("{}", simulate(&spec).committed)
    });
    assert_eq!(report, "1000");
    let e = &bench.entries()[0];
    assert_eq!(e.name, "tiny");
    assert_eq!(e.sims(), 1);
    assert_eq!(e.counts.get(Counter::InstructionsCommitted), 1_000);
    assert!(e.seconds >= 0.0);
    assert!(
        e.counts.get(Counter::Cycles) > 0,
        "cycle delta not recorded"
    );
    assert!(
        e.counts.get(Counter::StallDqFull) > 0,
        "dq-full stalls not recorded"
    );
}

#[test]
fn work_outside_every_harness_stays_out_of_the_suite_totals() {
    let _serial = serial();
    let mut bench = SuiteBench::start(1_000);
    let _ = bench.time("tiny", || {
        let spec = RunSpec::baseline("ora", 4).commits(1_000);
        format!("{}", simulate(&spec).committed)
    });
    let ledger_before = bench.to_ledger_record(Vec::new()).cache_misses;
    // An out-of-band batch on a disabled cache: every lookup misses and
    // counts in the registry, but outside every harness window.
    let spec = RunSpec::baseline("ora", 4).commits(1_000);
    let cache = RunCache::disabled();
    let registry_before = counters::snapshot();
    let _ = SimPool::new(1).run_many_cached(&[spec.clone(), spec], &cache);
    assert_eq!(
        counters::snapshot()
            .since(&registry_before)
            .get(Counter::CacheMisses),
        2,
        "disabled-cache lookups still count in the registry"
    );
    assert_eq!(
        bench.to_ledger_record(Vec::new()).cache_misses,
        ledger_before
    );
}

#[test]
fn ledger_record_carries_phases_probes_and_headlines() {
    let _serial = serial();
    let mut bench = SuiteBench::start(1_000);
    let _ = bench.time("tiny", || {
        let spec = RunSpec::baseline("ora", 4).commits(1_000);
        format!("{}", simulate(&spec).committed)
    });
    bench.attach_probe("ora", 1_000);
    let record = bench.to_ledger_record(vec![("fig3.commit_ipc.4way_dq32".to_owned(), 2.68)]);
    assert_eq!(record.commits, 1_000);
    assert_eq!(record.harnesses.len(), 1);
    let h = &record.harnesses[0];
    assert_eq!(h.name, "tiny");
    assert_eq!(h.sims, 1);
    assert!(h.phase.simulate > 0.0, "simulate phase timed");
    assert!(h.phase.generate >= 0.0);
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
