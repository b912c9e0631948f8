//! Integration tests for the parallel executor and the run cache:
//! parallel results must be bit-identical to sequential ones, and a
//! shared cache must collapse repeated points into a single simulation.
//!
//! Both tests use explicit worker counts and private caches rather than
//! `RF_JOBS`/`RF_CACHE`, because the test harness runs tests of this
//! binary concurrently and environment variables are process-global.

use rf_experiments::runner::{simulate, RunCache, RunSpec, Scale, SimPool};
use std::sync::Arc;

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
    let parallel = SimPool::new(4).run_many_cached(&specs, &RunCache::disabled());
    let sequential = SimPool::new(1).run_many_cached(&specs, &RunCache::disabled());
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
    let pool = SimPool::new(2);
    let spec = RunSpec::baseline("espresso", 4).commits(2_000);

    // First "harness" submits the point (twice over, as sweeps often do).
    let first = pool.run_many_cached(&[spec.clone(), spec.clone()], &cache);
    // Second "harness" asks for the same point again.
    let second = pool.run_many_cached(std::slice::from_ref(&spec), &cache);

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
    let pool = SimPool::new(2);
    let spec = RunSpec::baseline("ora", 4).commits(2_000);
    let out = pool.run_many_cached(&[spec.clone(), spec], &cache);
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
    let baseline = SimPool::new(1).run_many_cached(&specs, &RunCache::disabled());

    let probe_a = probe("compress", 2_000);
    let parallel = SimPool::new(4).run_many_cached(&specs, &RunCache::new());
    let probe_b = probe("compress", 2_000);

    for (i, (p, s)) in parallel.iter().zip(&baseline).enumerate() {
        assert_eq!(**p, **s, "spec {i} perturbed by tracing");
    }
    assert_eq!(probe_a, probe_b);
}
