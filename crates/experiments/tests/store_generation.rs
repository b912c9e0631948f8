//! A store written under a retired answer generation answers nothing.
//! Through the real store tier (`RF_STORE=1`), a store whose records hold
//! real answers under schema 1 (the key-only schema of every store
//! written before the generation took in the kernel pins) serves none of
//! them: each spec is simulated again and written under `DIGEST_SCHEMA`,
//! and compaction leaves only the rewritten records.

use rf_core::ExceptionModel;
use rf_experiments::codec::{
    decode_stats, encode_stats, encode_stored_stats, spec_key_bytes, DIGEST_SCHEMA,
};
use rf_experiments::runner::{self, try_simulate, BatchOpts, RunCache, RunSpec, SimPool};
use rf_mem::CacheOrg;
use rf_store::{Digest, Store};
use std::collections::BTreeMap;

#[test]
fn records_of_a_retired_generation_are_misses_and_are_rewritten() {
    let dir = std::env::temp_dir().join(format!("rf-store-generation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = [
        RunSpec::baseline("compress", 4).commits(2_000),
        RunSpec::baseline("tomcatv", 8).commits(2_000).exceptions(ExceptionModel::Imprecise),
        RunSpec::baseline("gcc1", 8).commits(2_000).regs(96),
        RunSpec::baseline("espresso", 4).commits(2_000).cache(CacheOrg::Lockup),
    ];
    let n = specs.len() as u64;
    let fresh: Vec<_> = specs.iter().map(|s| try_simulate(s).expect("simulates")).collect();
    let store = Store::open(&dir).expect("store opens");
    for (spec, stats) in specs.iter().zip(&fresh) {
        let key = spec_key_bytes(spec);
        store.append(1, Digest::of(&key), &key, &encode_stored_stats(stats)).expect("append");
    }
    store.sync().expect("sync");

    // This binary's only test, so no other thread reads the environment
    // while it is set; the store tier reads it once, at its first use.
    std::env::set_var("RF_STORE", "1");
    std::env::set_var("RF_STORE_DIR", &dir);
    runner::init_config().expect("the store knobs parse");
    let answers = SimPool::new(2).answer_many(&specs, &RunCache::new(), BatchOpts::default());
    assert_eq!(runner::store_counters(), Some((0, n, n)), "hits, misses, writes");
    for ((spec, answer), want) in specs.iter().zip(&answers).zip(&fresh) {
        let got = answer.outcome.as_ref().expect("answered");
        assert_eq!(encode_stats(got), encode_stats(want), "{spec:?}");
    }
    runner::store_sync();

    // Each spec's live record is now its answer under the current
    // generation...
    let snap = store.snapshot().expect("snapshot");
    assert_eq!(snap.schemas, BTreeMap::from([(DIGEST_SCHEMA, n)]));
    for (spec, want) in specs.iter().zip(&fresh) {
        let key = spec_key_bytes(spec);
        let payload = snap.get(DIGEST_SCHEMA, &Digest::of(&key), &key).expect("rewritten");
        let got = decode_stats(&payload).expect("decodes");
        assert_eq!(encode_stats(&got), encode_stats(want), "{spec:?}");
    }
    // ...and compaction drops the schema-1 records it superseded.
    let report = store.compact(DIGEST_SCHEMA).expect("compacts");
    assert_eq!((report.kept, report.dropped_superseded), (n, n));
    let snap = store.snapshot().expect("snapshot");
    assert_eq!(snap.records, n);
    assert!(snap.verify().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}
