//! Integration tests for the parallel executor and the run cache:
//! parallel results must be bit-identical to sequential ones, and a
//! shared cache must collapse repeated points into a single simulation.
//!
//! Both tests use explicit worker counts and private caches rather than
//! `RF_JOBS`, because the test harness runs tests of this binary
//! concurrently and environment variables are process-global.

use rf_core::SimStats;
use rf_experiments::runner::{simulate, RunCache, RunSpec, Scale, SimPool};
use std::sync::Arc;

/// Runs a batch that must complete: every spec's stats, in input order.
fn run_batch(jobs: usize, specs: &[RunSpec], cache: &RunCache) -> Vec<Arc<SimStats>> {
    SimPool::new(jobs)
        .try_run_many_cached(specs, cache)
        .into_iter()
        .map(|r| r.expect("simulation completes"))
        .collect()
}

/// A 3-benchmark x 2-queue-size grid at the fast scale.
fn grid() -> Vec<RunSpec> {
    let commits = Scale::fast().commits;
    let mut specs = Vec::new();
    for benchmark in ["compress", "tomcatv", "gcc1"] {
        for dq in [16usize, 32] {
            specs.push(RunSpec::baseline(benchmark, 4).dq(dq).commits(commits));
        }
    }
    specs
}

#[test]
fn parallel_results_are_bit_identical_to_sequential() {
    let specs = grid();
    let parallel = run_batch(4, &specs, &RunCache::disabled());
    let sequential = run_batch(1, &specs, &RunCache::disabled());
    assert_eq!(parallel.len(), specs.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(**p, **s, "spec {i} ({:?}) differs across worker counts", specs[i]);
    }
    // And both match a plain serial simulate() of each spec.
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(*parallel[i], simulate(spec), "spec {i} differs from direct simulate");
    }
}

#[test]
fn run_cache_simulates_each_point_once_across_harnesses() {
    let cache = RunCache::new();
    let spec = RunSpec::baseline("espresso", 4).commits(2_000);

    // First "harness" submits the point (twice over, as sweeps often do).
    let first = run_batch(2, &[spec.clone(), spec.clone()], &cache);
    // Second "harness" asks for the same point again.
    let second = run_batch(2, std::slice::from_ref(&spec), &cache);

    // Exactly one simulation happened: one cold lookup (miss), every
    // other lookup served from the cache.
    assert_eq!(cache.misses(), 2, "both cold lookups of the first batch miss");
    assert_eq!(cache.hits(), 1, "the second harness hits");
    assert_eq!(cache.len(), 1, "one distinct point stored");
    // All three results are literally the same allocation — the
    // simulation ran once and was shared.
    assert!(Arc::ptr_eq(&first[0], &first[1]));
    assert!(Arc::ptr_eq(&first[0], &second[0]));
}

#[test]
fn disabled_cache_runs_every_point() {
    let cache = RunCache::disabled();
    let spec = RunSpec::baseline("ora", 4).commits(2_000);
    let out = run_batch(2, &[spec.clone(), spec], &cache);
    // No sharing when the cache is off: two independent simulations with
    // equal results.
    assert!(!Arc::ptr_eq(&out[0], &out[1]));
    assert_eq!(*out[0], *out[1]);
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn tracing_does_not_perturb_parallel_or_cached_equivalence() {
    // The suite's telemetry probes run the pipeline with an observer
    // attached. The probe must be deterministic (two collections agree),
    // and interleaving traced probes with pooled untraced simulations
    // must leave the pooled results bit-identical to a sequential,
    // uncached pass — i.e. tracing shares no state with the runner.
    use rf_experiments::bench::probe;

    let specs = grid();
    let baseline = run_batch(1, &specs, &RunCache::disabled());

    let probe_a = probe("compress", 2_000);
    let parallel = run_batch(4, &specs, &RunCache::new());
    let probe_b = probe("compress", 2_000);

    for (i, (p, s)) in parallel.iter().zip(&baseline).enumerate() {
        assert_eq!(**p, **s, "spec {i} perturbed by tracing");
    }
    assert_eq!(probe_a, probe_b);
}

/// A batch with the benchmark innermost, as the sweeps submit them: two
/// seeds and two commit budgets per benchmark, so each trace group mixes
/// budgets and the shorter runs stop inside the longer runs' buffer.
fn shared_trace_batch(commits: [u64; 2]) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for budget in commits {
        for seed in [12, 13] {
            for benchmark in ["compress", "tomcatv", "espresso"] {
                specs.push(RunSpec { seed, ..RunSpec::baseline(benchmark, 4).commits(budget) });
            }
        }
    }
    specs
}

#[test]
fn shared_traces_match_per_spec_simulation() {
    let specs = shared_trace_batch([3_000, 5_000]);
    let one = run_batch(1, &specs, &RunCache::disabled());
    let three = run_batch(3, &specs, &RunCache::disabled());
    for (i, spec) in specs.iter().enumerate() {
        let alone = simulate(spec);
        assert_eq!(alone.committed, spec.commits);
        assert_eq!(*one[i], alone, "spec {i} ({spec:?}) differs on one worker");
        assert_eq!(*three[i], alone, "spec {i} ({spec:?}) differs on three workers");
    }
}

#[test]
fn grouped_batches_still_meet_deadlines() {
    use rf_experiments::runner::{BatchOpts, RunError};
    use std::time::Duration;

    let specs = shared_trace_batch([4_000_000, 5_000_000]);
    let out = SimPool::new(3).try_run_many_opts(
        &specs,
        &RunCache::new(),
        BatchOpts { deadline: Some(Duration::from_micros(50)) },
    );
    assert_eq!(out.len(), specs.len());
    for r in out {
        match r {
            Err(RunError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
