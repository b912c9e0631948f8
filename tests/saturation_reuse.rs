//! Saturation reuse is exact: in a register sweep answered by a
//! `SimPool` batch, every answer — simulated, or reused from the run of
//! its family's largest register file — equals a fresh simulation of its
//! own spec, for one worker and for several.

use rf_core::{ExceptionModel, SimStats};
use rf_experiments::runner::{try_simulate, BatchOpts, RunCache, RunSpec, SimPool};
use rf_mem::CacheOrg;

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

#[test]
fn every_answer_of_a_register_sweep_equals_a_fresh_simulation() {
    let specs = sweep();
    let fresh: Vec<SimStats> =
        specs.iter().map(|s| try_simulate(s).expect("the sweep simulates")).collect();
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
            // A reused answer ran no task; a simulated one did.
            assert_eq!(answer.reused, answer.task_ns.is_none(), "{spec:?}");
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
