//! Saturation reuse is exact: in a register sweep answered by a
//! `SimPool` batch, every answer — simulated, or reused from the run of
//! its family's largest register file — equals a fresh simulation of its
//! own spec, for one worker and for several, down to its encoded bytes.
//! Fresh, reused and store-decoded answers all keep their liveness
//! histograms compact.

use rf_core::{ExceptionModel, SimStats};
use rf_experiments::codec::{decode_stats, encode_stats, spec_key_bytes, DIGEST_SCHEMA};
use rf_experiments::runner::{try_simulate, Answer, BatchOpts, RunCache, RunSpec, SimPool};
use rf_mem::CacheOrg;
use rf_store::{Digest, Store};

const BENCHMARKS: [&str; 3] = ["compress", "tomcatv", "gcc1"];
const WIDTHS: [usize; 2] = [4, 8];
const MODELS: [ExceptionModel; 2] = [ExceptionModel::Precise, ExceptionModel::Imprecise];
const ORGS: [CacheOrg; 3] = [CacheOrg::Perfect, CacheOrg::LockupFree, CacheOrg::Lockup];
const REGS: [usize; 5] = [32, 48, 64, 96, 256];

/// The sweep: every benchmark, width, exception model and cache
/// organisation at every register count, 2k commits each.
fn sweep() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for bench in BENCHMARKS {
        for width in WIDTHS {
            for model in MODELS {
                for org in ORGS {
                    for regs in REGS {
                        specs.push(
                            RunSpec::baseline(bench, width)
                                .commits(2_000)
                                .exceptions(model)
                                .cache(org)
                                .regs(regs),
                        );
                    }
                }
            }
        }
    }
    specs
}

/// Each answer written to a fresh durable store and read back through a
/// snapshot, as a warm `RF_STORE=1` run reads it.
fn through_a_store(specs: &[RunSpec], answers: &[Answer]) -> Vec<SimStats> {
    let dir = std::env::temp_dir().join(format!("rf-saturation-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store opens");
    for (spec, answer) in specs.iter().zip(answers) {
        let key = spec_key_bytes(spec);
        let payload = encode_stats(answer.outcome.as_ref().expect("completes"));
        store.append(DIGEST_SCHEMA, Digest::of(&key), &key, &payload).expect("append");
    }
    let snapshot = store.snapshot().expect("snapshot");
    let decoded = specs
        .iter()
        .map(|spec| {
            let key = spec_key_bytes(spec);
            let payload = snapshot.get(DIGEST_SCHEMA, &Digest::of(&key), &key).expect("stored");
            decode_stats(&payload).expect("decodes")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    decoded
}

#[test]
fn every_answer_of_a_register_sweep_equals_a_fresh_simulation() {
    let specs = sweep();
    let fresh: Vec<SimStats> =
        specs.iter().map(|s| try_simulate(s).expect("the sweep simulates")).collect();
    for (spec, stats) in specs.iter().zip(&fresh) {
        assert!(stats.histograms_are_compact(), "fresh {spec:?}");
    }
    for jobs in [1, 3] {
        let answers =
            SimPool::new(jobs).answer_many(&specs, &RunCache::new(), BatchOpts::default());
        assert_eq!(answers.len(), specs.len());
        for ((spec, answer), want) in specs.iter().zip(&answers).zip(&fresh) {
            let got = answer.outcome.as_ref().expect("every answer completes");
            assert!(
                **got == *want,
                "{jobs} jobs: {} width={} regs={} {:?} {:?} (reused: {}) differs from its \
                 fresh simulation",
                spec.benchmark,
                spec.width,
                spec.regs,
                spec.exceptions,
                spec.cache,
                answer.reused,
            );
            // The payload the store and the pinned digests hash is the
            // fresh simulation's, byte for byte.
            assert_eq!(encode_stats(got), encode_stats(want), "{jobs} jobs: {spec:?}");
            assert!(got.histograms_are_compact(), "{jobs} jobs: {spec:?}");
            // A reused answer ran no task; a simulated one did.
            assert_eq!(answer.reused, answer.task_ns.is_none(), "{spec:?}");
        }
        if jobs == 1 {
            let decoded = through_a_store(&specs, &answers);
            for ((spec, stats), want) in specs.iter().zip(&decoded).zip(&fresh) {
                assert!(stats.histograms_are_compact(), "store-decoded {spec:?}");
                assert!(stats == want, "store-decoded {spec:?} differs from its simulation");
            }
        }
        // The check is not vacuous: reuse answered points under both
        // exception models and all three cache organisations.
        for model in MODELS {
            for org in ORGS {
                let reused = specs
                    .iter()
                    .zip(&answers)
                    .filter(|(s, a)| a.reused && s.exceptions == model && s.cache == org)
                    .count();
                assert!(reused > 0, "{jobs} jobs: nothing reused under {model:?} {org:?}");
            }
        }
    }
}
