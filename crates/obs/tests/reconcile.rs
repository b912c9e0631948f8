//! Whole-pipeline observability tests: a traced run must change nothing
//! (determinism guard), and every recorder aggregate must reconcile
//! *exactly* with the `SimStats` the accounting phase counted.

use rf_core::{EventKind, ExceptionModel, MachineConfig, NullObserver, Pipeline, SimStats};
use rf_mem::CacheOrg;
use rf_obs::{chrome_trace, json, reconcile, summary, text_timeline, Recorder};
use rf_workload::{spec92, TraceGenerator, WrongPathGenerator};

const COMMITS: u64 = 2_000;

fn traced(bench: &str, seed: u64, config: MachineConfig) -> (SimStats, Recorder) {
    let profile = spec92::by_name(bench).expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, seed);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    let (stats, mut rec) = Pipeline::with_observer(config, Recorder::unbounded())
        .run(&mut trace, &mut wrong_path, COMMITS)
        .expect("no cancel token");
    rec.seal();
    (stats, rec)
}

fn untraced(bench: &str, seed: u64, config: MachineConfig) -> SimStats {
    let profile = spec92::by_name(bench).expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, seed);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    Pipeline::<NullObserver>::new(config)
        .run(&mut trace, &mut wrong_path, COMMITS)
        .expect("no cancel token")
        .0
}

/// Machine shapes chosen to exercise every stall cause: generous,
/// register-starved (no-free-reg), queue-starved (dq-full), imprecise
/// (kill-engine freeing path), and a blocking cache.
fn shapes() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("generous", MachineConfig::new(4).dispatch_queue(32).physical_regs(2048)),
        ("reg-starved", MachineConfig::new(4).dispatch_queue(32).physical_regs(40)),
        ("dq-starved", MachineConfig::new(8).dispatch_queue(8).physical_regs(256)),
        (
            "imprecise",
            MachineConfig::new(4)
                .dispatch_queue(32)
                .physical_regs(48)
                .exceptions(ExceptionModel::Imprecise),
        ),
        (
            "blocking-cache",
            MachineConfig::new(4).dispatch_queue(32).physical_regs(96).cache(CacheOrg::Lockup),
        ),
    ]
}

#[test]
fn traced_run_is_byte_identical_to_untraced() {
    for (name, config) in shapes() {
        for bench in ["compress", "tomcatv"] {
            let (with_obs, _) = traced(bench, 7, config.clone());
            let without = untraced(bench, 7, config.clone());
            assert_eq!(with_obs, without, "{bench}/{name}: tracing changed the simulation");
        }
    }
}

#[test]
fn recorder_aggregates_reconcile_exactly() {
    for (name, config) in shapes() {
        for bench in ["compress", "su2cor"] {
            let (stats, rec) = traced(bench, 11, config.clone());
            if let Err(errs) = reconcile(&rec, &stats) {
                panic!("{bench}/{name}:\n  {}", errs.join("\n  "));
            }
            // The summed per-cause attribution can never exceed causes ×
            // cycles, and the reconciled causes must show up for the
            // starved shapes.
            assert_eq!(stats.committed, COMMITS, "{bench}/{name}");
        }
    }
}

#[test]
fn starved_shapes_attribute_their_bottleneck() {
    let (stats, rec) = traced(
        "tomcatv",
        3,
        MachineConfig::new(4).dispatch_queue(32).physical_regs(40),
    );
    assert!(stats.insert_stall_no_reg > 0, "shape not actually register-starved");
    assert_eq!(rec.stall_cycles(rf_core::StallCause::NoFreeReg), stats.insert_stall_no_reg);

    let (stats, rec) = traced(
        "compress",
        3,
        MachineConfig::new(8).dispatch_queue(8).physical_regs(256),
    );
    assert!(stats.insert_stall_dq_full > 0, "shape not actually queue-starved");
    assert_eq!(rec.stall_cycles(rf_core::StallCause::DqFull), stats.insert_stall_dq_full);
}

#[test]
fn latency_histograms_cover_all_commits() {
    let (stats, rec) = traced(
        "compress",
        5,
        MachineConfig::new(4).dispatch_queue(32).physical_regs(256),
    );
    let m = rec.metrics();
    let h = m.histogram("latency.insert-to-commit").expect("commit latencies recorded");
    assert_eq!(h.count(), stats.committed);
    let h = m.histogram("latency.issue-to-commit").expect("issue latencies recorded");
    assert_eq!(h.count(), stats.committed);
    // Ordering sanity: an instruction can't commit before it issues.
    assert!(m.histogram("latency.insert-to-issue").unwrap().mean() >= 0.0);
    assert!(h.percentile(50.0) >= 1);
}

#[test]
fn register_lifetimes_are_recorded_under_pressure() {
    let (_stats, rec) = traced(
        "tomcatv",
        9,
        MachineConfig::new(4).dispatch_queue(32).physical_regs(64),
    );
    let int = rec.metrics().histogram("reg.lifetime.int").expect("int lifetimes");
    let fp = rec.metrics().histogram("reg.lifetime.fp").expect("fp lifetimes");
    assert!(int.count() > 0 && fp.count() > 0);
    assert!(int.max() < rec.cycles(), "a lifetime can't exceed the run");
}

#[test]
fn chrome_trace_of_a_real_run_is_valid_json() {
    let (_stats, rec) = traced(
        "ora",
        13,
        MachineConfig::new(4).dispatch_queue(32).physical_regs(96),
    );
    let t = chrome_trace(&rec);
    json::validate(&t).unwrap_or_else(|e| panic!("exporter emitted invalid JSON: {e}"));
    assert!(t.contains("\"traceEvents\""));
    assert!(t.contains("dispatch-queue wait"));
}

#[test]
fn summary_and_timeline_render_for_a_real_run() {
    let (stats, rec) = traced(
        "compress",
        17,
        MachineConfig::new(4).dispatch_queue(16).physical_regs(48),
    );
    let s = summary(&rec, &stats);
    assert!(s.contains("OK: all observer aggregates match"), "summary did not reconcile:\n{s}");
    let t = text_timeline(&rec);
    assert!(t.lines().count() as u64 > COMMITS, "timeline missing records");
}

#[test]
fn windowed_recorder_keeps_totals_exact() {
    let profile = spec92::by_name("doduc").expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, 21);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(96);
    let (stats, mut rec) = Pipeline::with_observer(config, Recorder::with_window(200))
        .run(&mut trace, &mut wrong_path, COMMITS)
        .expect("no cancel token");
    rec.seal();
    reconcile(&rec, &stats).expect("windowing must not disturb run-wide aggregates");
    // But the window must actually bound the retained detail.
    assert!(rec.records().count() < stats.committed as usize);
    let horizon = stats.cycles.saturating_sub(rec.window());
    assert!(rec.records().all(|r| r.retire >= horizon));
}

#[test]
fn event_counts_relate_as_pipeline_conservation() {
    let (stats, rec) = traced(
        "mdljdp2",
        23,
        MachineConfig::new(4).dispatch_queue(32).physical_regs(96),
    );
    let inserted = rec.event_count(EventKind::Insert);
    let committed = rec.event_count(EventKind::Commit);
    let squashed = rec.event_count(EventKind::Squash);
    let in_flight = rec.in_flight().len() as u64;
    assert_eq!(inserted, committed + squashed + in_flight);
    assert_eq!(committed, stats.committed);
}
