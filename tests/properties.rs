//! Property-based tests over the cross-crate surface: arbitrary machine
//! shapes and workload parameters must never violate pipeline invariants,
//! and the component models must agree with naive reference
//! implementations.

use proptest::prelude::*;
use rfstudy::bpred::GlobalHistory;
use rfstudy::core::{ExceptionModel, LiveModel, MachineConfig, Pipeline};
use rfstudy::isa::RegClass;
use rfstudy::mem::{CacheConfig, CacheOrg, SetArray};
use rfstudy::workload::{spec92, SharedTrace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any machine shape over any benchmark completes without deadlock
    /// and satisfies the basic accounting identities.
    #[test]
    fn pipeline_never_deadlocks_or_miscounts(
        bench_idx in 0usize..9,
        width in prop::sample::select(vec![2usize, 4, 8]),
        dq in prop::sample::select(vec![8usize, 16, 32, 64]),
        regs in 32usize..128,
        precise in any::<bool>(),
        cache in prop::sample::select(vec![
            CacheOrg::Perfect, CacheOrg::Lockup, CacheOrg::LockupFree
        ]),
        seed in 0u64..1000,
    ) {
        let profile = &spec92::all()[bench_idx];
        let model = if precise { ExceptionModel::Precise } else { ExceptionModel::Imprecise };
        let config = MachineConfig::new(width)
            .dispatch_queue(dq)
            .physical_regs(regs)
            .exceptions(model)
            .cache(cache);
        let commits = 1_500;
        let trace = SharedTrace::new(profile, seed, commits as usize);
        let (stats, _) = Pipeline::new(config)
            .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
            .expect("no cancel token");
        prop_assert_eq!(stats.committed, commits);
        prop_assert!(stats.issue_ipc() <= width as f64 + 1e-9);
        prop_assert!(stats.commit_ipc() <= stats.issue_ipc() + 1e-9);
        prop_assert!(stats.inserted >= stats.committed + stats.squashed);
        for class in [RegClass::Int, RegClass::Fp] {
            let p90 = stats.live_percentile(class, LiveModel::Precise, 90.0);
            let i90 = stats.live_percentile(class, LiveModel::Imprecise, 90.0);
            prop_assert!(i90 <= p90);
            prop_assert!(p90 >= 31 && p90 <= regs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The set-associative tag array agrees with a naive fully-explicit
    /// LRU reference model on arbitrary access/install sequences.
    #[test]
    fn set_array_matches_reference_lru(
        ops in prop::collection::vec((any::<bool>(), 0u64..4096), 1..300)
    ) {
        let config = CacheConfig::new(512, 2, 32, 1, 16); // 8 sets x 2 ways
        let mut dut = SetArray::new(config);
        // Reference: per set, a vector ordered most-recent-first.
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 8];
        let set_of = |line: u64| ((line / 32) % 8) as usize;
        for (is_install, addr) in ops {
            let line = addr & !31;
            let s = set_of(line);
            if is_install {
                dut.install(line);
                let set = &mut reference[s];
                if let Some(pos) = set.iter().position(|&l| l == line) {
                    set.remove(pos);
                } else if set.len() == 2 {
                    set.pop();
                }
                set.insert(0, line);
            } else {
                let hit = dut.access(line);
                let set = &mut reference[s];
                let ref_hit = set.contains(&line);
                prop_assert_eq!(hit, ref_hit);
                if let Some(pos) = set.iter().position(|&l| l == line) {
                    let l = set.remove(pos);
                    set.insert(0, l);
                }
            }
        }
    }

    /// Speculative history with recovery equals a history that only ever
    /// saw the actual outcomes, for any branch/outcome interleaving in
    /// which mispredictions are immediately recovered.
    #[test]
    fn history_recovery_equals_actual_history(
        outcomes in prop::collection::vec((any::<bool>(), any::<bool>()), 1..200)
    ) {
        let mut spec = GlobalHistory::new(16);
        let mut actual_only = GlobalHistory::new(16);
        for (predicted, actual) in outcomes {
            let cp = spec.speculate(predicted);
            if predicted != actual {
                spec.recover(cp, actual);
            }
            actual_only.speculate(actual);
            prop_assert_eq!(spec.bits(), actual_only.bits());
        }
    }
}
