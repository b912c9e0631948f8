//! Microbenchmarks for the event-driven cycle kernel: single-run latency
//! on a register-starved and a roomy `RunSpec`, plus the raw per-cycle
//! stepping rate of `Pipeline::step` without any run-loop bookkeeping.
//! The starved/roomy pair brackets the kernel's idle-skip payoff (wide
//! windows vs none); the step benchmark isolates the cost of one
//! simulated cycle (issue scan, completion wheel, accounting).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rf_core::Pipeline;
use rf_experiments::runner::RunSpec;
use rf_workload::{spec92, TraceGenerator, WrongPathGenerator};
use std::hint::black_box;

const COMMITS: u64 = 20_000;

/// A register-starved sweep point: long no-free-register stalls give the
/// kernel wide idle windows, so this spec shows the idle-skip's best case
/// while staying a configuration the paper's figures actually visit.
fn starved_spec() -> RunSpec {
    RunSpec::baseline("compress", 4).regs(40).commits(COMMITS)
}

/// A generously-sized baseline: few idle windows, so the kernel's
/// bookkeeping overhead (not its skipping) dominates the measurement.
fn roomy_spec() -> RunSpec {
    RunSpec::baseline("espresso", 4).commits(COMMITS)
}

fn run_once(spec: &RunSpec) -> u64 {
    let mut trace = TraceGenerator::new(
        &spec92::by_name(&spec.benchmark).expect("known bench"),
        spec.seed,
    );
    Pipeline::new(spec.machine_config()).run(&mut trace, spec.commits).cycles
}

fn bench_single_run(c: &mut Criterion) {
    for (label, spec) in [("starved", starved_spec()), ("roomy", roomy_spec())] {
        let mut group = c.benchmark_group(format!("kernel/single_run/{label}"));
        group.throughput(Throughput::Elements(COMMITS));
        group.bench_function("event-driven kernel", |b| {
            b.iter(|| black_box(run_once(&spec)))
        });
        group.finish();
    }
}

/// The rf-prof overhead contract: the same single run with the
/// profiler off (one relaxed atomic load per coarse site, one
/// thread-local read per hot site) and on (1-in-64 sampled cycle
/// windows). The on/off delta on the step hot path is the measured
/// overhead the `<3%` budget in DESIGN.md refers to.
fn bench_profiler_overhead(c: &mut Criterion) {
    let spec = roomy_spec();
    let mut group = c.benchmark_group("kernel/profiler");
    group.throughput(Throughput::Elements(COMMITS));
    group.bench_function("spans off", |b| {
        rf_prof::set_enabled(false);
        b.iter(|| black_box(run_once(&spec)))
    });
    group.bench_function("spans on, sampled 1/64", |b| {
        rf_prof::set_enabled(true);
        b.iter(|| black_box(run_once(&spec)));
        // Drain the accumulated tree so repeated iterations don't grow
        // an unbounded profile, and leave the process switch off.
        let _ = rf_prof::collect();
        rf_prof::set_enabled(false);
    });
    group.finish();
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/step");
    const CYCLES_PER_ITER: u64 = 1_000;
    group.throughput(Throughput::Elements(CYCLES_PER_ITER));
    group.bench_function("1000 cycles, baseline machine", |b| {
        let spec = roomy_spec();
        let profile = spec92::by_name(&spec.benchmark).expect("known bench");
        b.iter_batched(
            || {
                (
                    Pipeline::new(spec.machine_config()),
                    TraceGenerator::new(&profile, spec.seed),
                    WrongPathGenerator::new(&profile, spec.seed),
                )
            },
            |(mut pipeline, mut trace, mut wrong_path)| {
                for _ in 0..CYCLES_PER_ITER {
                    pipeline.step_cycle(&mut trace, &mut wrong_path);
                }
                black_box(pipeline)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single_run, bench_profiler_overhead, bench_step
);
criterion_main!(benches);
