//! Property-based cross-validation: over random machine shapes, seeds
//! and benchmark profiles, the simulator must never trip the sanitizer,
//! and its observed register demand must always fall inside the static
//! oracle's bracket.

use proptest::prelude::*;
use rf_check::{cross_validate, CheckParams};
use rf_core::ExceptionModel;
use rf_workload::{spec92, BenchmarkProfile};

fn params(bench: String, width: usize, precise: bool, regs: usize, commits: u64, seed: u64) -> CheckParams {
    CheckParams {
        bench,
        width,
        exceptions: if precise { ExceptionModel::Precise } else { ExceptionModel::Imprecise },
        regs,
        commits,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any benchmark, width, model, register-file size and seed, the
    /// sanitizer stays clean, the dataflow counts reconcile, and the
    /// simulator's max-live count lies in `[floor, ceiling]`.
    #[test]
    fn random_configurations_cross_validate(
        bench_idx in 0usize..9,
        width in prop::sample::select(vec![4usize, 8]),
        precise in any::<bool>(),
        regs in prop::sample::select(vec![48usize, 64, 128, 2048]),
        commits in 1_000u64..3_000,
        seed in 0u64..100,
    ) {
        let bench = spec92::all()[bench_idx].name.clone();
        let report = cross_validate(&params(bench, width, precise, regs, commits, seed))
            .expect("benchmark exists");
        prop_assert_eq!(report.sanitizer_violations, 0, "{}", report.render());
        prop_assert!(report.dataflow_errors.is_empty(), "{}", report.render());
        for c in &report.classes {
            prop_assert!(
                c.floor <= c.sim_max_live && c.sim_max_live <= c.ceiling,
                "class {} bracket violated: {} <= {} <= {}\n{}",
                c.class, c.floor, c.sim_max_live, c.ceiling, report.render()
            );
        }
        prop_assert!(report.passed());
    }

    /// Perturbing the workload's dependency and branch parameters (within
    /// meaningful ranges) must not shake the invariants either: the
    /// sanitizer and the bracket are properties of the *machine*, not of
    /// a lucky workload.
    #[test]
    fn perturbed_profiles_stay_clean(
        mean_dist in 2.0f64..12.0,
        two_src_frac in 0.1f64..0.9,
        bias in 0.55f64..0.95,
        mean_trip in 4.0f64..40.0,
        precise in any::<bool>(),
        seed in 0u64..100,
    ) {
        let mut profile: BenchmarkProfile = spec92::compress();
        profile.name = "compress-perturbed".to_owned();
        profile.deps.mean_dist = mean_dist;
        profile.deps.two_src_frac = two_src_frac;
        profile.branch.bias = bias;
        profile.branch.mean_trip = mean_trip;

        // cross_validate resolves by name, so drive its internals directly
        // through a sanitized pipeline + static prefix comparison.
        use rf_check::{analyze, Sanitizer};
        use rf_core::{LiveModel, MachineConfig, Pipeline};
        use rf_isa::{OpKind, RegClass};
        use rf_workload::{SharedTrace, TraceGenerator};

        let model = if precise { ExceptionModel::Precise } else { ExceptionModel::Imprecise };
        let regs = 64;
        let config = MachineConfig::new(4)
            .dispatch_queue(32)
            .physical_regs(regs)
            .exceptions(model);
        let insert_bw = config.effective_insert_bandwidth();
        let trace = SharedTrace::new(&profile, seed, 1_500);
        let (stats, sanitizer) = Pipeline::with_observer(config, Sanitizer::new(regs, model))
            .run(&mut trace.cursor(), &mut trace.wrong_path(), 1_500)
            .expect("no cancel token");
        prop_assert!(sanitizer.is_clean(), "{}", sanitizer.report());

        let oracle =
            analyze(TraceGenerator::new(&profile, seed).take(stats.committed as usize), insert_bw);
        let slack = stats.inserted - stats.committed;
        for class in RegClass::ALL {
            let max_live = stats.live_percentile(class, LiveModel::Precise, 100.0);
            let co = &oracle.classes[class.index()];
            prop_assert!(co.floor <= max_live, "floor {} > max-live {max_live}", co.floor);
            prop_assert!(
                max_live <= oracle.upper_bound(class, regs, slack),
                "max-live {max_live} above static ceiling"
            );
        }
        prop_assert_eq!(stats.committed_loads, oracle.count(OpKind::Load));
        prop_assert_eq!(stats.committed_cbr, oracle.count(OpKind::CondBranch));
    }
}
