//! Pins the simulation kernel's observable behaviour.
//!
//! Every probe point below is simulated afresh and its full `SimStats`
//! payload (`codec::encode_stats`, every counter and histogram) is fed
//! into one digest. A kernel change that is meant to be a pure
//! refactor — a new container, a reordered loop — must leave the digest
//! unchanged; a change that alters simulated behaviour must update the
//! pin on purpose and say why.
//!
//! The matrix is small enough for a debug-build test run: the nine
//! SPEC92 profiles at both paper widths with 2k commits each, plus two
//! points that reach the kernel paths the baselines do not: a
//! register-starved lockup-cache imprecise machine (long miss latencies
//! at the edge of the completion horizon, frequent register stalls) and
//! an Alpha-style hybrid machine (memory operations as exception
//! barriers in the kill engine).
//!
//! A second pin, `ISSUE_PIN`, covers the issue path: the scheduling,
//! dispatch-queue and cache configurations the probe matrix leaves out.
//! It digests each spec's statistics together with the six-cause stall
//! cycles of an observed run of the same spec. The observed run matters:
//! unobserved runs skip idle cycles exactly, so a spurious "blocked"
//! verdict from the issue phase can leave `SimStats` unchanged, while the
//! observed per-cycle loop attributes every blocked cycle to a cause.

use rf_obs::Recorder;
use rfstudy::bpred::PredictorKind;
use rfstudy::core::{ExceptionModel, Pipeline, SchedPolicy, StallCause};
use rfstudy::experiments::codec::encode_stats;
use rfstudy::experiments::runner::{simulate, RunSpec};
use rfstudy::mem::CacheOrg;
use rfstudy::workload::{spec92, SharedTrace};

/// The digest of the probe matrix's encoded statistics.
const KERNEL_PIN: &str = "e8dfe1b56e5498303f36303e026f2326";

/// The digest of the issue-path matrix: encoded statistics plus observed
/// stall cycles per spec.
const ISSUE_PIN: &str = "cee41abe0a094ce8133cb0bd61e3f8c9";

fn probe_matrix() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for profile in spec92::all() {
        for width in [4, 8] {
            specs.push(RunSpec::baseline(&profile.name, width).commits(2_000));
        }
    }
    specs.push(
        RunSpec::baseline("compress", 4)
            .regs(40)
            .cache(CacheOrg::Lockup)
            .exceptions(ExceptionModel::Imprecise)
            .commits(2_000),
    );
    specs.push(
        RunSpec::baseline("tomcatv", 8)
            .regs(64)
            .exceptions(ExceptionModel::AlphaHybrid)
            .predictor(PredictorKind::Gshare)
            .commits(2_000),
    );
    specs
}

#[test]
fn probe_matrix_statistics_match_the_pin() {
    let mut bytes = Vec::new();
    for spec in probe_matrix() {
        bytes.extend_from_slice(&encode_stats(&simulate(&spec)));
    }
    let digest = rf_store::Digest::of(&bytes).to_hex();
    assert_eq!(
        digest, KERNEL_PIN,
        "the kernel's simulated behaviour changed: update KERNEL_PIN only if \
         the change is intended"
    );
}

/// Configurations that reach issue-phase paths the probe matrix does not:
/// youngest-first selection, split dispatch queues, a register-starved
/// lockup-free machine, a reorder-buffer cap, a lockup cache under the
/// hybrid exception model, and a divide-heavy benchmark whose dividers
/// run out.
fn issue_matrix() -> Vec<RunSpec> {
    vec![
        RunSpec::baseline("espresso", 4).policy(SchedPolicy::YoungestFirst).commits(2_000),
        RunSpec::baseline("ora", 8)
            .policy(SchedPolicy::YoungestFirst)
            .cache(CacheOrg::Lockup)
            .regs(48)
            .commits(2_000),
        RunSpec::baseline("su2cor", 4).split_dq(true).dq(24).commits(2_000),
        RunSpec::baseline("compress", 8).regs(48).cache(CacheOrg::LockupFree).commits(2_000),
        RunSpec::baseline("gcc1", 4).reorder(40).commits(2_000),
        RunSpec::baseline("tomcatv", 4)
            .exceptions(ExceptionModel::AlphaHybrid)
            .cache(CacheOrg::Lockup)
            .regs(64)
            .commits(2_000),
        RunSpec::baseline("ora", 4).dq(64).commits(2_000),
    ]
}

/// The six-cause stall cycles of `spec` simulated with a recorder
/// attached (the per-cycle loop, no idle skipping).
fn observed_stalls(spec: &RunSpec) -> [u64; 6] {
    let profile = spec92::by_name(&spec.benchmark).expect("a SPEC92 profile");
    let trace = SharedTrace::new(&profile, spec.seed, spec.commits as usize);
    let (_, rec) = Pipeline::with_observer(spec.machine_config(), Recorder::unbounded())
        .run(&mut trace.cursor(), &mut trace.wrong_path(), spec.commits)
        .expect("no cancel token attached");
    StallCause::ALL.map(|cause| rec.stall_cycles(cause))
}

#[test]
fn issue_matrix_statistics_and_stalls_match_the_pin() {
    let mut bytes = Vec::new();
    for spec in issue_matrix() {
        bytes.extend_from_slice(&encode_stats(&simulate(&spec)));
        for cycles in observed_stalls(&spec) {
            bytes.extend_from_slice(&cycles.to_le_bytes());
        }
    }
    let digest = rf_store::Digest::of(&bytes).to_hex();
    assert_eq!(
        digest, ISSUE_PIN,
        "the issue path's simulated behaviour changed: update ISSUE_PIN only \
         if the change is intended"
    );
}
