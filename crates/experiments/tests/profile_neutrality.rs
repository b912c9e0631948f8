//! The self-profiler must be observationally neutral: a harness run
//! with `RF_PROFILE=1` produces byte-identical reports to one without,
//! because spans only read the monotonic clock. This test answers and
//! renders a real harness through the suite plan both ways in one
//! process (its own integration binary, so the process-global profiler
//! switch cannot race other tests) and also proves the suite bench
//! captures the batch's profile and embeds it in the ledger record.

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{BatchOpts, Scale, SimPool};
use rf_experiments::suite::{harness, Plan};

/// Answers and renders Figure 3 through the suite plan. Each pass
/// answers through its own batch-local cache, so both passes simulate.
/// Two workers exercise the pool's scoped worker threads.
fn fig3(bench: &mut SuiteBench, scale: &Scale) -> String {
    let fig3 = harness("fig3").expect("fig3 is a suite harness");
    let plan = Plan::new(vec![(fig3.name, (fig3.plan)(scale))]);
    let answers = bench.answer(&plan, &SimPool::new(2), BatchOpts::default());
    bench.render(&plan, 0, &answers, || (fig3.render)(scale, &answers)).expect("fig3 renders")
}

#[test]
fn profiled_harness_reports_are_byte_identical() {
    let scale = Scale { commits: 2_000 };

    rf_prof::set_enabled(false);
    let mut unprofiled = SuiteBench::start(scale.commits);
    let baseline = fig3(&mut unprofiled, &scale);
    let record = unprofiled.to_ledger_record(Vec::new());
    assert!(record.profile.is_none(), "no spans recorded while off");

    rf_prof::set_enabled(true);
    let mut profiled_bench = SuiteBench::start(scale.commits);
    let profiled = fig3(&mut profiled_bench, &scale);
    rf_prof::set_enabled(false);

    assert_eq!(baseline, profiled, "RF_PROFILE must not perturb simulation results");

    // The tree attributes real time to the instrumented layers, with
    // the pool/run coarse spans enclosing the sampled cycle spans.
    let record = profiled_bench.to_ledger_record(Vec::new());
    let tree = record.profile.clone().expect("profiled batch produced a span tree");
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

    // The ledger record embeds the batch's profile, and the report
    // layer reads it back as the suite profile.
    let parsed = rf_obs::json::parse(&record.to_line()).expect("ledger record parses");
    let embedded = rf_obs::profile::from_value(parsed.get("profile").unwrap())
        .expect("embedded profile decodes");
    assert_eq!(embedded, tree);
    let suite = rf_obs::profile::suite_profile_of_record(&parsed).expect("suite profile");
    let mut want = tree.clone();
    want.normalize();
    assert_eq!(suite, want, "the batch's profile is the whole suite profile");

    let line = unprofiled.to_ledger_record(Vec::new()).to_line();
    let parsed = rf_obs::json::parse(&line).expect("ledger record parses");
    assert!(rf_obs::profile::suite_profile_of_record(&parsed).is_none());
}
