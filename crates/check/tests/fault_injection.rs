//! Proves every sanitizer checker can actually fail.
//!
//! Each test runs a real pipeline with a [`FaultInjector`] corrupting the
//! observer event stream in exactly one way, and asserts that the
//! [`Sanitizer`] flags the matching [`ViolationKind`] with the violating
//! sequence number / physical register attached. A checker that stays
//! green under injected corruption would be a checker that checks
//! nothing.

use rf_check::{Fault, FaultInjector, Sanitizer, ViolationKind};
use rf_core::{ExceptionModel, MachineConfig, Pipeline};
use rf_workload::{spec92, SharedTrace};

const COMMITS: u64 = 3_000;
const REGS: usize = 64;
const SEED: u64 = 12;

fn config(model: ExceptionModel) -> MachineConfig {
    MachineConfig::new(4).dispatch_queue(32).physical_regs(REGS).exceptions(model)
}

/// Runs compress under `model` with `fault` injected into the observer
/// stream; returns the sanitizer and whether the fault actually fired.
fn run_with_fault(fault: Fault, model: ExceptionModel) -> (Sanitizer, bool) {
    let injector = FaultInjector::new(Sanitizer::new(REGS, model), fault);
    let trace = SharedTrace::new(&spec92::compress(), SEED, COMMITS as usize);
    let (_stats, injector) = Pipeline::with_observer(config(model), injector)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
        .expect("no cancel token");
    let fired = injector.fired();
    (injector.into_inner(), fired)
}

fn violation_of(s: &Sanitizer, kind: ViolationKind) -> &rf_check::Violation {
    s.violations()
        .iter()
        .find(|v| v.kind == kind)
        .unwrap_or_else(|| panic!("expected a {} violation; report:\n{}", kind.label(), s.report()))
}

#[test]
fn clean_run_has_no_violations_precise() {
    let sanitizer = Sanitizer::new(REGS, ExceptionModel::Precise);
    let trace = SharedTrace::new(&spec92::compress(), SEED, COMMITS as usize);
    let (_stats, s) = Pipeline::with_observer(config(ExceptionModel::Precise), sanitizer)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
        .expect("no cancel token");
    assert!(s.is_clean(), "{}", s.report());
    assert!(s.events() > COMMITS, "hooks must fire at least once per instruction");
}

#[test]
fn clean_run_has_no_violations_imprecise() {
    let sanitizer = Sanitizer::new(REGS, ExceptionModel::Imprecise);
    let trace = SharedTrace::new(&spec92::compress(), SEED, COMMITS as usize);
    let (_stats, s) = Pipeline::with_observer(config(ExceptionModel::Imprecise), sanitizer)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
        .expect("no cancel token");
    assert!(s.is_clean(), "{}", s.report());
}

#[test]
fn replayed_rename_trips_double_alloc() {
    let (s, fired) = run_with_fault(Fault::ReplayRename, ExceptionModel::Precise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::DoubleAlloc);
    assert!(v.seq.is_some(), "double-alloc must name the offending instruction");
    assert!(v.reg.is_some(), "double-alloc must name the register");
}

#[test]
fn aliased_rename_trips_bijectivity() {
    let (s, fired) = run_with_fault(Fault::AliasRename, ExceptionModel::Precise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::RenameNotBijective);
    assert!(v.seq.is_some());
    assert!(v.reg.is_some(), "must name the doubly-owned register");
}

#[test]
fn double_free_trips_with_register() {
    let (s, fired) = run_with_fault(Fault::DoubleFree, ExceptionModel::Imprecise);
    assert!(fired, "injection never triggered (imprecise model must free via kill path)");
    let v = violation_of(&s, ViolationKind::DoubleFree);
    assert!(v.reg.is_some(), "double-free must name the register");
    assert!((v.reg.unwrap() as usize) < REGS);
}

#[test]
fn out_of_range_free_trips() {
    let (s, fired) = run_with_fault(Fault::OutOfRangeFree, ExceptionModel::Imprecise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::OutOfRange);
    assert_eq!(v.reg, Some(u32::MAX));
}

#[test]
fn dropped_squash_free_trips_squash_leak() {
    let (s, fired) = run_with_fault(Fault::DropSquashFree, ExceptionModel::Precise);
    assert!(fired, "no squash with a destination occurred; raise COMMITS");
    let v = violation_of(&s, ViolationKind::SquashLeak);
    assert!(v.seq.is_some(), "squash-leak must name the squashed instruction");
    assert!(v.reg.is_some(), "squash-leak must name the leaked register");
}

#[test]
fn dropped_commit_free_trips_commit_free_mismatch() {
    let (s, fired) = run_with_fault(Fault::DropCommitFree, ExceptionModel::Precise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::CommitFreeMismatch);
    assert!(v.seq.is_some());
    assert!(v.reg.is_some(), "must name the register that should have been freed");
}

#[test]
fn rewound_commit_trips_commit_out_of_order() {
    let (s, fired) = run_with_fault(Fault::RewindCommit, ExceptionModel::Precise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::CommitOutOfOrder);
    assert!(v.seq.is_some(), "must name the out-of-order sequence number");
}

#[test]
fn skewed_free_count_trips_conservation() {
    let (s, fired) = run_with_fault(Fault::SkewFreeCount, ExceptionModel::Precise);
    assert!(fired, "injection never triggered");
    let v = violation_of(&s, ViolationKind::FreelistConservation);
    assert!(v.class.is_some(), "conservation violation must name the class");
}

#[test]
fn every_fault_is_exercised_by_a_test() {
    // Meta-test: the suite above must cover Fault::ALL exactly.
    assert_eq!(Fault::ALL.len(), 8);
}
