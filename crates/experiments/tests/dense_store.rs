//! A run store written before the stored payload layout existed holds
//! dense (version-1) records. Through the real store tier
//! (`RF_STORE=1`), such a store answers every spec it holds without a
//! simulation or a write, and each answer is its fresh simulation's,
//! down to the `encode_stats` bytes.

use rf_core::ExceptionModel;
use rf_experiments::codec::{encode_stats, spec_key_bytes, DENSE_STATS_VERSION, DIGEST_SCHEMA};
use rf_experiments::runner::{self, try_simulate, BatchOpts, RunCache, RunSpec, SimPool};
use rf_store::{Digest, Store};

#[test]
fn a_store_of_dense_records_answers_through_the_store_tier() {
    let dir = std::env::temp_dir().join(format!("rf-dense-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = [
        RunSpec::baseline("compress", 4).commits(2_000),
        RunSpec::baseline("compress", 4).commits(2_000).regs(64),
        RunSpec::baseline("tomcatv", 8).commits(2_000).exceptions(ExceptionModel::Imprecise),
        RunSpec::baseline("gcc1", 8).commits(2_000).regs(96),
    ];
    let fresh: Vec<_> = specs.iter().map(|s| try_simulate(s).expect("simulates")).collect();
    let store = Store::open(&dir).expect("store opens");
    for (spec, stats) in specs.iter().zip(&fresh) {
        let key = spec_key_bytes(spec);
        let payload = encode_stats(stats);
        assert_eq!(payload[6..10], DENSE_STATS_VERSION.to_le_bytes());
        store.append(DIGEST_SCHEMA, Digest::of(&key), &key, &payload).expect("append");
    }
    store.sync().expect("sync");

    // This binary's only test, so no other thread reads the environment
    // while it is set; the store tier reads it once, at its first use.
    std::env::set_var("RF_STORE", "1");
    std::env::set_var("RF_STORE_DIR", &dir);
    runner::init_config().expect("the store knobs parse");
    let sims = runner::simulations_run();
    let answers = SimPool::new(2).answer_many(&specs, &RunCache::new(), BatchOpts::default());
    assert_eq!(runner::store_counters(), Some((specs.len() as u64, 0, 0)), "hits, misses, writes");
    assert_eq!(runner::simulations_run(), sims, "nothing was simulated");
    for ((spec, answer), want) in specs.iter().zip(&answers).zip(&fresh) {
        let got = answer.outcome.as_ref().expect("answered");
        assert!(got.histograms_are_compact(), "{spec:?}");
        assert_eq!(encode_stats(got), encode_stats(want), "{spec:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
