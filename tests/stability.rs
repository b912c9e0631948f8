//! Statistical-stability tests: headline metrics must be robust to the
//! workload seed and to run length, or the experiment harness' single-run
//! points would be noise.

use rfstudy::core::{MachineConfig, Pipeline};
use rfstudy::workload::{spec92, SharedTrace};

fn ipc(bench: &str, seed: u64, commits: u64) -> f64 {
    let profile = spec92::by_name(bench).expect("known");
    let trace = SharedTrace::new(&profile, seed, commits as usize);
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(2048);
    let (stats, _) = Pipeline::new(config)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
        .expect("no cancel token");
    stats.commit_ipc()
}

#[test]
fn ipc_is_stable_across_seeds() {
    // Long enough runs that every benchmark cycles through many loop
    // activations (tomcatv's mean trip count is 100, so short runs
    // sample only a handful of its ten loops).
    for bench in ["espresso", "tomcatv", "ora"] {
        let samples: Vec<f64> = (1..=4).map(|s| ipc(bench, s, 80_000)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        for (i, s) in samples.iter().enumerate() {
            let dev = (s - mean).abs() / mean;
            assert!(
                dev < 0.12,
                "{bench} seed {i}: IPC {s:.3} deviates {:.1}% from mean {mean:.3}",
                100.0 * dev
            );
        }
    }
}

#[test]
fn ipc_converges_with_run_length() {
    // Doubling the run length must not move the measured IPC much: the
    // 200k-commit experiment points are past the warm-up transient.
    for bench in ["compress", "su2cor"] {
        let short = ipc(bench, 3, 40_000);
        let long = ipc(bench, 3, 80_000);
        let drift = (long - short).abs() / long;
        assert!(
            drift < 0.08,
            "{bench}: IPC drifts {:.1}% between 40k and 80k commits",
            100.0 * drift
        );
    }
}

#[test]
fn miss_and_mispredict_rates_are_stable_across_seeds() {
    let profile = spec92::compress();
    let mut rates = Vec::new();
    for seed in 1..=3 {
        let trace = SharedTrace::new(&profile, seed, 30_000);
        let config = MachineConfig::new(4).dispatch_queue(32);
        let (stats, _) = Pipeline::new(config)
            .run(&mut trace.cursor(), &mut trace.wrong_path(), 30_000)
            .expect("no cancel token");
        rates.push((stats.cache.load_miss_rate(), stats.mispredict_rate()));
    }
    for w in rates.windows(2) {
        assert!((w[0].0 - w[1].0).abs() < 0.03, "miss rates {rates:?}");
        assert!((w[0].1 - w[1].1).abs() < 0.02, "mispredict rates {rates:?}");
    }
}
