//! Pins the simulation kernel's observable behaviour.
//!
//! Every pinned point below is simulated afresh and its full `SimStats`
//! payload (`codec::encode_stats`, every counter and histogram) is fed
//! into one digest. A kernel change that is meant to be a pure
//! refactor — a new container, a reordered loop — must leave the digest
//! unchanged; a change that alters simulated behaviour must update the
//! pin on purpose and say why.
//!
//! The first pin, `PLAN_PIN`, is the suite's own plan: every distinct
//! spec the harnesses plan at 2k commits, in plan order, answered by the
//! pool with no cache or store tier (a pin taken from stored answers
//! would pin the store, not the kernel). Any dimension a harness varies
//! — predictor, insert bandwidth, instruction cache, cache geometry —
//! is pinned by construction, and a new harness joins with no edit here.
//! Changing a harness's plan moves the pin as well.
//!
//! A second pin, `ISSUE_PIN`, covers the points the plan leaves out:
//! youngest-first selection, split dispatch queues, a reorder cap,
//! lockup caches under the imprecise and hybrid exception models, and a
//! divide-heavy point. It digests each spec's statistics together with
//! the six-cause stall cycles of an observed run of the same spec. The
//! observed run matters: idle cycles are skipped exactly, so a spurious
//! "blocked" verdict from the issue phase can leave `SimStats`
//! unchanged, while the observer sees every blocked cycle attributed to
//! a cause, stepped or skipped.
//!
//! A third pin, `TRACE_PIN`, covers what observers see: the recorder's
//! chrome, text and summary renderings and the sanitizer's event count
//! and verdict, over the determinism tests' five machine shapes. It was
//! taken when observed runs still stepped every cycle, so it holds the
//! idle skip's observer replay to the per-cycle loop.
//!
//! `PLAN_PIN` and `ISSUE_PIN` live in `rf_experiments::codec`, where
//! they are part of the run store's answer generation (`DIGEST_SCHEMA`):
//! moving either one retires every stored answer an older kernel wrote.

use rf_check::Sanitizer;
use rf_obs::Recorder;
use rfstudy::bpred::PredictorKind;
use rfstudy::core::{ExceptionModel, MachineConfig, Pipeline, SchedPolicy, StallCause};
use rfstudy::experiments::codec::{encode_stats, ISSUE_PIN, PLAN_PIN};
use rfstudy::experiments::runner::{simulate, BatchOpts, RunCache, RunSpec, Scale, SimPool};
use rfstudy::experiments::suite::{Plan, HARNESSES};
use rfstudy::mem::CacheOrg;
use rfstudy::workload::{spec92, SharedTrace};

/// The digest of the observer matrix: each run's chrome, text and summary
/// renderings plus its sanitizer report (event count and verdict).
const TRACE_PIN: &str = "6188fe7baedcde48e36d39b7a9dc523d";

#[test]
fn plan_statistics_match_the_pin() {
    let scale = Scale { commits: 2_000 };
    let plan = Plan::new(HARNESSES.iter().map(|h| (h.name, (h.plan)(&scale))).collect());
    let answers = SimPool::from_env().try_run_many_opts(
        &plan.specs,
        &RunCache::disabled(),
        BatchOpts::default(),
    );
    let mut bytes = Vec::new();
    for (spec, answer) in plan.specs.iter().zip(answers) {
        let stats = answer.unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        bytes.extend_from_slice(&encode_stats(&stats));
    }
    let digest = rf_store::Digest::of(&bytes).to_hex();
    assert_eq!(
        digest, PLAN_PIN,
        "the suite plan's simulated behaviour changed: update PLAN_PIN only if \
         the change is intended"
    );
}

/// Configurations that reach paths the suite plan does not:
/// youngest-first selection, split dispatch queues, a register-starved
/// lockup-free machine, a reorder-buffer cap, a lockup cache under the
/// hybrid exception model, a divide-heavy benchmark whose dividers run
/// out, a register-starved lockup-cache imprecise machine (long misses
/// at the edge of the completion horizon) and a wide Alpha-hybrid gshare
/// machine (memory operations as exception barriers in the kill engine).
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
        RunSpec::baseline("compress", 4)
            .regs(40)
            .cache(CacheOrg::Lockup)
            .exceptions(ExceptionModel::Imprecise)
            .commits(2_000),
        RunSpec::baseline("tomcatv", 8)
            .regs(64)
            .exceptions(ExceptionModel::AlphaHybrid)
            .predictor(PredictorKind::Gshare)
            .commits(2_000),
    ]
}

/// The six-cause stall cycles of `spec` simulated with a recorder
/// attached (skipped cycles included, replayed to the recorder).
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

/// The rf-obs determinism tests' five machine shapes: generous,
/// register-starved, queue-starved, imprecise and a lockup cache.
fn observer_matrix() -> Vec<MachineConfig> {
    vec![
        MachineConfig::new(4).dispatch_queue(32).physical_regs(2048),
        MachineConfig::new(4).dispatch_queue(32).physical_regs(40),
        MachineConfig::new(8).dispatch_queue(8).physical_regs(256),
        MachineConfig::new(4)
            .dispatch_queue(32)
            .physical_regs(48)
            .exceptions(ExceptionModel::Imprecise),
        MachineConfig::new(4).dispatch_queue(32).physical_regs(96).cache(CacheOrg::Lockup),
    ]
}

#[test]
fn observer_matrix_renderings_match_the_pin() {
    const COMMITS: u64 = 2_000;
    let mut bytes = Vec::new();
    for config in observer_matrix() {
        for bench in ["compress", "tomcatv"] {
            let profile = spec92::by_name(bench).expect("a SPEC92 profile");
            let trace = SharedTrace::new(&profile, 7, COMMITS as usize);
            let (stats, mut rec) = Pipeline::with_observer(config.clone(), Recorder::unbounded())
                .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
                .expect("no cancel token attached");
            rec.seal();
            let sanitizer = Sanitizer::new(config.phys_regs(), config.exception_model());
            let (_, sanitizer) = Pipeline::with_observer(config.clone(), sanitizer)
                .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
                .expect("no cancel token attached");
            for rendered in [
                rf_obs::chrome_trace(&rec),
                rf_obs::text_timeline(&rec),
                rf_obs::summary(&rec, &stats),
                sanitizer.report(),
            ] {
                bytes.extend_from_slice(rendered.as_bytes());
            }
        }
    }
    let digest = rf_store::Digest::of(&bytes).to_hex();
    assert_eq!(
        digest, TRACE_PIN,
        "what observers see changed: update TRACE_PIN only if the change is intended"
    );
}
