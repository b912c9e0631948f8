//! Property tests over the data-cache models.

use proptest::prelude::*;
use rf_mem::{CacheConfig, CacheOrg, DataCache};

fn small_config() -> CacheConfig {
    // 8 sets x 2 ways x 32B = 512B: small enough for interesting
    // conflict behaviour under random addresses.
    CacheConfig::new(512, 2, 32, 1, 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Load completion times always respect the model's bounds: a hit
    /// completes after hit latency + delay slot, a miss no later than
    /// probe + fetch + write (merged secondary misses complete earlier,
    /// with the fill already in flight).
    #[test]
    fn load_latency_bounds(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        let mut cache = DataCache::new(small_config(), CacheOrg::LockupFree);
        let mut now = 0u64;
        for (i, addr) in addrs.into_iter().enumerate() {
            now += 3;
            cache.drain_fills(now);
            let r = cache.load(addr, now, i as u64);
            prop_assert!(r.complete_at() >= now + 2);
            prop_assert!(r.complete_at() <= now + 1 + 16 + 1);
            if r.hit() {
                prop_assert_eq!(r.complete_at(), now + 2);
            }
        }
    }

    /// The perfect cache hits on any access pattern; the lockup-free
    /// cache never misses more often than the blocking one hits... i.e.
    /// hit/miss accounting always balances.
    #[test]
    fn accounting_balances(addrs in prop::collection::vec(0u64..8192, 1..200)) {
        for org in CacheOrg::ALL {
            let mut cache = DataCache::new(small_config(), org);
            let mut now = 0u64;
            for (i, addr) in addrs.iter().enumerate() {
                now += 20; // generous spacing: the lockup cache unlocks
                cache.drain_fills(now);
                if cache.can_accept(now) {
                    cache.load(*addr, now, i as u64);
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.loads, s.load_hits + s.load_misses());
            if org == CacheOrg::Perfect {
                prop_assert_eq!(s.load_misses(), 0);
            }
        }
    }

    /// Replaying the same access sequence twice (second pass after the
    /// first fully drains) can only improve the hit rate: everything the
    /// first pass installed and did not evict now hits.
    #[test]
    fn second_pass_never_misses_more(addrs in prop::collection::vec(0u64..2048, 1..100)) {
        let mut cache = DataCache::new(small_config(), CacheOrg::LockupFree);
        let mut now = 0u64;
        let mut run_pass = |cache: &mut DataCache, base: u64| -> u64 {
            let before = cache.stats().load_misses();
            for (i, addr) in addrs.iter().enumerate() {
                now += 2;
                cache.drain_fills(now);
                cache.load(*addr, now, base + i as u64);
            }
            now += 40;
            cache.drain_fills(now);
            cache.stats().load_misses() - before
        };
        let first = run_pass(&mut cache, 0);
        let second = run_pass(&mut cache, 1_000_000);
        prop_assert!(second <= first, "second pass missed {second} > first {first}");
    }

    /// Cancelling every requester of every fill leaves the cache
    /// unchanged: a replay of the same loads misses again.
    #[test]
    fn cancelled_fills_install_nothing(addrs in prop::collection::vec(0u64..2048, 1..60)) {
        let mut cache = DataCache::new(small_config(), CacheOrg::LockupFree);
        let mut now = 0u64;
        for (i, addr) in addrs.iter().enumerate() {
            now += 1;
            let r = cache.load(*addr, now, i as u64);
            if !r.hit() {
                cache.cancel(i as u64);
            }
        }
        now += 40;
        cache.drain_fills(now);
        prop_assert_eq!(cache.stats().fills_installed, 0);
        // Every line access still misses.
        let mut seen = std::collections::HashSet::new();
        for (i, addr) in addrs.iter().enumerate() {
            now += 40;
            cache.drain_fills(now);
            let line = addr & !31;
            let r = cache.load(*addr, now, 1_000 + i as u64);
            if seen.insert(line) {
                prop_assert!(!r.hit(), "cancelled line {line:#x} was installed");
            }
            cache.cancel(1_000 + i as u64);
        }
    }
}
