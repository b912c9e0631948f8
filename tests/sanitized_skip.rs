//! Sanitized runs take the event-driven kernel's idle skip.
//!
//! Every run, observed or not, jumps over the cycles the kernel proves
//! inert and replays their observer calls, so the sanitizer checks the
//! skip path. This file is its own test binary with a single test,
//! because the skip counter (`skip_telemetry`) is process-wide: a second
//! test running alongside could make the counter rise on its own.

use rf_check::{cross_validate_cancellable, Fault, FaultInjector, Sanitizer};
use rfstudy::core::{skip_telemetry, ExceptionModel, Pipeline, RunSpec};
use rfstudy::workload::{spec92, SharedTrace};

/// The digest of every fault's sanitizer report on the register-starved
/// spec below.
const FAULT_PIN: &str = "ca40b96a576d4f352ef0acbff0104d0a";

/// A register-starved machine: long no-free-register stalls make up most
/// of the skipped windows.
fn starved(model: ExceptionModel) -> RunSpec {
    RunSpec::baseline("compress", 4).regs(40).exceptions(model).commits(3_000)
}

/// The model under which `fault` can fire: the kill path frees only
/// under imprecise exceptions.
fn model_for(fault: Fault) -> ExceptionModel {
    match fault {
        Fault::DoubleFree | Fault::OutOfRangeFree => ExceptionModel::Imprecise,
        _ => ExceptionModel::Precise,
    }
}

#[test]
fn sanitized_runs_skip_and_still_catch_every_fault() {
    let (skipped_before, _) = skip_telemetry();
    let report = cross_validate_cancellable(&starved(ExceptionModel::Precise), None)
        .expect("a known benchmark");
    let (skipped_after, _) = skip_telemetry();
    assert!(report.passed(), "{}", report.render());
    assert!(skipped_after > skipped_before, "the sanitized check skipped no cycle");

    let mut reports = String::new();
    for fault in Fault::ALL {
        let spec = starved(model_for(fault));
        let sanitizer = Sanitizer::new(spec.regs, spec.exceptions);
        let trace = SharedTrace::new(&spec92::compress(), spec.seed, spec.commits as usize);
        let (skipped_before, _) = skip_telemetry();
        let (_, injector) =
            Pipeline::with_observer(spec.machine_config(), FaultInjector::new(sanitizer, fault))
                .run(&mut trace.cursor(), &mut trace.wrong_path(), spec.commits)
                .expect("no cancel token attached");
        let (skipped_after, _) = skip_telemetry();
        assert!(injector.fired(), "{fault:?} never fired");
        assert!(skipped_after > skipped_before, "{fault:?}: the run skipped no cycle");
        let sanitizer = injector.into_inner();
        assert!(!sanitizer.is_clean(), "{fault:?} went uncaught");
        reports.push_str(&sanitizer.report());
    }
    assert_eq!(
        rf_store::Digest::of(reports.as_bytes()).to_hex(),
        FAULT_PIN,
        "a fault's sanitizer report changed:\n{reports}"
    );
}
