//! Property-based contracts of the analytic model: over random machine
//! shapes, seeds, and perturbed workload profiles, the predicted IPC
//! must be monotone in the resources the paper sweeps (issue width,
//! physical registers), and every register-pressure estimate must sit
//! inside the static oracle's sound `[floor, ceiling]` bracket.
//!
//! These are the properties `rfstudy model --check` leans on: the model
//! never predicts a wider machine or a larger register file to be
//! slower, and the `--check` gate asserts the bracket per config.
//! A calibration change that breaks either should fail here, on
//! synthetic shapes, before it reaches the 72-config matrix.

use proptest::prelude::*;
use rf_core::{ExceptionModel, MachineConfig, RunSpec};
use rf_isa::RegClass;
use rf_model::{evaluate, summarize_profile, WorkloadSummary};
use rf_workload::{spec92, BenchmarkProfile};

/// A random workload: one of the paper's nine profiles with its
/// dependence and branch structure perturbed inside meaningful ranges,
/// so the properties hold for the *model*, not for nine lucky points.
fn perturbed(
    bench_idx: usize,
    mean_dist: f64,
    two_src_frac: f64,
    bias: f64,
    mean_trip: f64,
) -> BenchmarkProfile {
    let mut profile = spec92::all()[bench_idx].clone();
    profile.deps.mean_dist = mean_dist;
    profile.deps.two_src_frac = two_src_frac;
    profile.branch.bias = bias;
    profile.branch.mean_trip = mean_trip;
    profile
}

fn machine(width: usize, dq: usize, regs: usize, precise: bool) -> MachineConfig {
    MachineConfig::new(width).dispatch_queue(dq).physical_regs(regs).exceptions(if precise {
        ExceptionModel::Precise
    } else {
        ExceptionModel::Imprecise
    })
}

/// Extracts the summary of the baseline spec at the machine's width —
/// the same protocol `rfstudy model` follows.
fn summary_for(profile: &BenchmarkProfile, commits: u64, seed: u64, config: &MachineConfig) -> WorkloadSummary {
    let spec =
        RunSpec { seed, ..RunSpec::baseline(&profile.name, config.width()).commits(commits) };
    summarize_profile(profile, &spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// More physical registers never cost predicted throughput: the
    /// register term only ever widens the effective window.
    #[test]
    fn ipc_non_decreasing_in_phys_regs(
        bench_idx in 0usize..9,
        mean_dist in 2.0f64..12.0,
        two_src_frac in 0.1f64..0.9,
        bias in 0.55f64..0.95,
        mean_trip in 4.0f64..40.0,
        width in prop::sample::select(vec![1usize, 2, 4, 6, 8, 10]),
        dq in prop::sample::select(vec![8usize, 16, 32, 64, 128]),
        regs in 32usize..512,
        extra in 1usize..1536,
        precise in any::<bool>(),
        seed in 0u64..100,
        commits in 1_000u64..3_000,
    ) {
        let profile = perturbed(bench_idx, mean_dist, two_src_frac, bias, mean_trip);
        let base = machine(width, dq, regs, precise);
        let summary = summary_for(&profile, commits, seed, &base);
        let starved = evaluate(&summary, &base);
        let roomy = evaluate(&summary, &machine(width, dq, regs + extra, precise));
        prop_assert!(
            roomy.ipc >= starved.ipc,
            "regs {} -> {} dropped IPC {} -> {} ({} w{width} dq{dq})",
            regs, regs + extra, starved.ipc, roomy.ipc, profile.name
        );
    }

    /// A wider machine never predicts lower throughput, with each
    /// width's summary extracted at its own effective insert bandwidth
    /// (the full `rfstudy model` protocol, not a shared-summary
    /// shortcut).
    #[test]
    fn ipc_non_decreasing_in_width(
        bench_idx in 0usize..9,
        mean_dist in 2.0f64..12.0,
        two_src_frac in 0.1f64..0.9,
        bias in 0.55f64..0.95,
        mean_trip in 4.0f64..40.0,
        width in 1usize..8,
        delta in 1usize..4,
        dq in prop::sample::select(vec![16usize, 32, 64, 128]),
        regs in prop::sample::select(vec![48usize, 64, 128, 512, 2048]),
        precise in any::<bool>(),
        seed in 0u64..100,
        commits in 1_000u64..3_000,
    ) {
        let profile = perturbed(bench_idx, mean_dist, two_src_frac, bias, mean_trip);
        let narrow_cfg = machine(width, dq, regs, precise);
        let wide_cfg = machine(width + delta, dq, regs, precise);
        let narrow = evaluate(&summary_for(&profile, commits, seed, &narrow_cfg), &narrow_cfg);
        let wide = evaluate(&summary_for(&profile, commits, seed, &wide_cfg), &wide_cfg);
        prop_assert!(
            wide.ipc >= narrow.ipc - 1e-9,
            "width {} -> {} dropped IPC {} -> {} ({} dq{dq} regs{regs})",
            width, width + delta, narrow.ipc, wide.ipc, profile.name
        );
    }

    /// Every predicted per-class register peak lies inside the static
    /// oracle's `[floor, ceiling]` bracket — the same soundness bracket
    /// the simulator itself is cross-validated against.
    #[test]
    fn regs_peak_stays_inside_the_oracle_bracket(
        bench_idx in 0usize..9,
        mean_dist in 2.0f64..12.0,
        two_src_frac in 0.1f64..0.9,
        bias in 0.55f64..0.95,
        mean_trip in 4.0f64..40.0,
        width in prop::sample::select(vec![1usize, 2, 4, 8, 10]),
        dq in prop::sample::select(vec![8usize, 32, 128]),
        regs in 32usize..2048,
        precise in any::<bool>(),
        seed in 0u64..100,
        commits in 1_000u64..3_000,
    ) {
        let profile = perturbed(bench_idx, mean_dist, two_src_frac, bias, mean_trip);
        let config = machine(width, dq, regs, precise);
        let summary = summary_for(&profile, commits, seed, &config);
        let estimate = evaluate(&summary, &config);
        for class in RegClass::ALL {
            let c = &summary.stats.oracle.classes[class.index()];
            let ceiling = summary.stats.oracle.upper_bound(class, regs, 0);
            let peak = estimate.regs_peak[class.index()];
            prop_assert!(
                peak >= c.floor.min(ceiling) && peak <= ceiling,
                "{:?} peak {peak} outside [{}, {ceiling}] ({} w{width} regs{regs})",
                class, c.floor.min(ceiling), profile.name
            );
        }
    }
}
