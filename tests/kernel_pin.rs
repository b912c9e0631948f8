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

use rfstudy::bpred::PredictorKind;
use rfstudy::core::ExceptionModel;
use rfstudy::experiments::codec::encode_stats;
use rfstudy::experiments::runner::{simulate, RunSpec};
use rfstudy::mem::CacheOrg;
use rfstudy::workload::spec92;

/// The digest of the probe matrix's encoded statistics.
const KERNEL_PIN: &str = "e8dfe1b56e5498303f36303e026f2326";

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
