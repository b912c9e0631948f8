//! The self-profiler must be observationally neutral: a harness run
//! with `RF_PROFILE=1` produces byte-identical reports to one without,
//! because spans only read the monotonic clock. This test runs a real
//! harness both ways in one process (its own integration binary, so the
//! process-global profiler switch cannot race other tests) and also
//! proves the suite-bench plumbing captures and embeds the profile.

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{RunCache, RunSpec, Scale, SimPool};

#[test]
fn profiled_harness_reports_are_byte_identical() {
    // Disable the shared run cache before anything touches it (the mode
    // is read once on first use), so both passes execute their
    // simulations instead of replaying the first pass's cached stats.
    std::env::set_var("RF_CACHE", "0");
    let scale = Scale { commits: 2_000 };

    rf_prof::set_enabled(false);
    let baseline = rf_experiments::fig3::run(&scale);
    assert!(rf_prof::collect().is_none(), "no spans recorded while off");

    rf_prof::set_enabled(true);
    let profiled = rf_experiments::fig3::run(&scale);
    // A multi-spec batch on two workers exercises the pool's scoped
    // worker threads (single-spec batches take the serial fast path).
    let specs: Vec<RunSpec> = ["espresso", "ora", "compress", "doduc"]
        .iter()
        .map(|n| RunSpec::baseline(n, 4).commits(1_000))
        .collect();
    let batch = SimPool::new(2).try_run_many_cached(&specs, &RunCache::disabled());
    assert!(batch.iter().all(Result::is_ok));
    let tree = rf_prof::collect().expect("profiled run produced a span tree");
    rf_prof::set_enabled(false);

    assert_eq!(
        baseline, profiled,
        "RF_PROFILE must not perturb simulation results"
    );

    // The tree attributes real time to the instrumented layers, with
    // the pool/run coarse spans enclosing the sampled cycle spans.
    let mut names = Vec::new();
    tree.walk(&mut |_, node| names.push(node.name.clone()));
    for expected in ["pool.worker", "pool.task", "pool.merge", "run.generate", "run.simulate"] {
        assert!(names.iter().any(|n| n == expected), "missing span {expected}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("cycle.")),
        "sampled cycle spans missing: {names:?}"
    );
    assert!(tree.attributed_ns() > 0);

    // The suite bench captures a per-harness profile and embeds it in
    // the ledger record; with the profiler back off it records none.
    rf_prof::set_enabled(true);
    let mut bench = SuiteBench::start(scale.commits);
    let _ = bench.time("tiny", || rf_experiments::fig3::run(&scale));
    rf_prof::set_enabled(false);
    let entry = &bench.entries()[0];
    let captured = entry.profile.as_ref().expect("harness profile captured");
    assert!(captured.attributed_ns() > 0);
    let line = bench.to_ledger_record(Vec::new()).to_line();
    let parsed = rf_obs::json::parse(&line).expect("ledger record parses");
    let harness = &parsed.get("harnesses").unwrap().as_array().unwrap()[0];
    let embedded = rf_obs::profile::from_value(harness.get("profile").unwrap())
        .expect("embedded profile decodes");
    assert_eq!(&embedded, captured);
    let suite = rf_obs::profile::suite_profile_of_record(&parsed).expect("suite profile");
    let mut want = captured.clone();
    want.normalize();
    assert_eq!(suite, want, "one profiled harness is the whole suite profile");

    let mut unprofiled = SuiteBench::start(scale.commits);
    let _ = unprofiled.time("tiny", || rf_experiments::fig3::run(&scale));
    assert!(unprofiled.entries()[0].profile.is_none());
    let line = unprofiled.to_ledger_record(Vec::new()).to_line();
    let parsed = rf_obs::json::parse(&line).expect("ledger record parses");
    assert!(rf_obs::profile::suite_profile_of_record(&parsed).is_none());
}
