//! The unified data-cache front end: perfect, lockup, and lockup-free.

use crate::config::CacheConfig;
use crate::mshr::InvertedMshr;
use crate::sets::SetArray;
use crate::stats::CacheStats;
use crate::wbuf::WriteBuffer;
use std::fmt;

/// The single load-delay slot of the paper's pipeline: a dependent
/// instruction can issue no earlier than two cycles after the load.
pub(crate) const LOAD_DELAY_SLOT: u64 = 1;

/// The three memory-system organisations evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOrg {
    /// An assumed 100% hit rate ("perfect cache").
    Perfect,
    /// A blocking cache: while a load miss is outstanding, no other memory
    /// operation may access the cache.
    Lockup,
    /// A non-blocking cache with inverted MSHRs: unlimited in-flight
    /// fetches, fill merging, simultaneous register writes on block return.
    LockupFree,
}

impl CacheOrg {
    /// Every organisation, in the order the CLI lists them.
    pub const ALL: [Self; 3] = [Self::Perfect, Self::Lockup, Self::LockupFree];
}

impl fmt::Display for CacheOrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheOrg::Perfect => "perfect",
            CacheOrg::Lockup => "lockup",
            CacheOrg::LockupFree => "lockup-free",
        };
        f.write_str(s)
    }
}

/// The outcome of issuing a load: when its register write completes, and
/// whether it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResult {
    complete_at: u64,
    hit: bool,
}

impl LoadResult {
    /// Absolute cycle at which the load's destination register is written
    /// and dependents may wake.
    #[inline]
    pub fn complete_at(self) -> u64 {
        self.complete_at
    }

    /// Whether the load hit in the cache.
    #[inline]
    pub fn hit(self) -> bool {
        self.hit
    }
}

/// A data cache of one of the paper's three organisations.
///
/// See the [crate-level documentation](crate) for the timing contract and
/// an example. The core drives this with four calls per cycle-phase:
/// [`drain_fills`](DataCache::drain_fills) at the top of each cycle,
/// [`can_accept`](DataCache::can_accept) as an issue gate for memory
/// operations, [`load`](DataCache::load)/[`store`](DataCache::store) at
/// issue, and [`cancel`](DataCache::cancel) during misprediction recovery.
#[derive(Debug, Clone)]
pub struct DataCache {
    config: CacheConfig,
    org: CacheOrg,
    tags: SetArray,
    mshr: InvertedMshr,
    /// For [`CacheOrg::Lockup`]: the cache is busy servicing a miss until
    /// this cycle (exclusive).
    locked_until: u64,
    wbuf: WriteBuffer,
    stats: CacheStats,
}

impl DataCache {
    /// Creates an empty cache with the given geometry and organisation.
    pub fn new(config: CacheConfig, org: CacheOrg) -> Self {
        Self {
            config,
            org,
            tags: SetArray::new(config),
            mshr: InvertedMshr::new(),
            locked_until: 0,
            wbuf: WriteBuffer::new(),
            stats: CacheStats::default(),
        }
    }

    /// The cache organisation.
    pub fn org(&self) -> CacheOrg {
        self.org
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Whether a memory operation may access the cache at cycle `now`.
    /// Always true except for a lockup cache with a miss outstanding.
    #[inline]
    pub fn can_accept(&self, now: u64) -> bool {
        self.org != CacheOrg::Lockup || now >= self.locked_until
    }

    /// The first cycle at which [`can_accept`](DataCache::can_accept) is
    /// guaranteed true again: the lockup cache's `locked_until`, or 0 for
    /// the organisations that never block. The event-driven kernel uses
    /// this as a wake-up target after a memory operation was refused.
    #[inline]
    pub fn next_accept_cycle(&self) -> u64 {
        if self.org == CacheOrg::Lockup {
            self.locked_until
        } else {
            0
        }
    }

    /// Issues a load of `addr` at cycle `now`; `tag` identifies the load
    /// for later cancellation (the core uses its sequence number).
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_accept`](DataCache::can_accept) is
    /// false (the scheduler must gate memory issue on it).
    pub fn load(&mut self, addr: u64, now: u64, tag: u64) -> LoadResult {
        let _s = rf_prof::hot_span("cache.load");
        assert!(self.can_accept(now), "load issued while the cache is locked");
        self.stats.loads += 1;
        let hit_complete = now + self.config.hit_latency() + LOAD_DELAY_SLOT;
        match self.org {
            CacheOrg::Perfect => {
                self.stats.load_hits += 1;
                LoadResult { complete_at: hit_complete, hit: true }
            }
            CacheOrg::Lockup => {
                if self.tags.access(addr) {
                    self.stats.load_hits += 1;
                    LoadResult { complete_at: hit_complete, hit: true }
                } else {
                    self.stats.load_misses_primary += 1;
                    // Probe (1 cycle) + block fetch; the line is installed
                    // and the register written when the block returns.
                    let line = self.config.line_of(addr);
                    let return_cycle = now + 1 + self.config.fetch_latency();
                    self.mshr.request(line, tag, return_cycle);
                    self.locked_until = return_cycle;
                    LoadResult { complete_at: return_cycle + 1, hit: false }
                }
            }
            CacheOrg::LockupFree => {
                let line = self.config.line_of(addr);
                // A line being fetched is not yet in the tag array: the
                // access misses and merges into the outstanding fill.
                if self.tags.access(addr) {
                    self.stats.load_hits += 1;
                    return LoadResult { complete_at: hit_complete, hit: true };
                }
                if self.mshr.is_pending(line) {
                    self.stats.load_misses_secondary += 1;
                    let return_cycle = self.mshr.request(line, tag, u64::MAX);
                    return LoadResult { complete_at: return_cycle + 1, hit: false };
                }
                self.stats.load_misses_primary += 1;
                let return_cycle = now + 1 + self.config.fetch_latency();
                self.mshr.request(line, tag, return_cycle);
                LoadResult { complete_at: return_cycle + 1, hit: false }
            }
        }
    }

    /// Issues a store of `addr` at cycle `now`. Stores are write-through /
    /// no-write-allocate: a hit refreshes the line, a miss changes nothing
    /// in the cache; either way the data enters the write buffer, which
    /// consumes no memory bandwidth. Stores resolve in one cycle.
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_accept`](DataCache::can_accept) is
    /// false.
    pub fn store(&mut self, addr: u64, now: u64) {
        let _s = rf_prof::hot_span("cache.store");
        assert!(self.can_accept(now), "store issued while the cache is locked");
        self.stats.stores += 1;
        if self.org == CacheOrg::Perfect || self.tags.access(addr) {
            self.stats.store_hits += 1;
        }
        self.wbuf.push(addr, now);
    }

    /// Installs every fill whose block has returned by cycle `now` and
    /// still has a live requester; fills whose requesters were all
    /// cancelled are discarded. Call once at the top of every cycle.
    pub fn drain_fills(&mut self, now: u64) {
        if !self.mshr.has_returned(now) {
            return;
        }
        let _s = rf_prof::hot_span("cache.drain_fills");
        let tags = &mut self.tags;
        let (installed, cancelled) = self.mshr.drain(now, |line| {
            tags.install(line);
        });
        self.stats.fills_installed += installed;
        self.stats.fills_cancelled += cancelled;
    }

    /// Cancels the pending fill requester `tag` (a squashed load): its
    /// register will not be written and, if it was the only requester, the
    /// block will not be installed.
    pub fn cancel(&mut self, tag: u64) {
        self.mshr.cancel(tag);
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The write buffer (stores retired to memory).
    pub fn write_buffer(&self) -> &WriteBuffer {
        &self.wbuf
    }

    /// Number of line fetches currently in flight.
    pub fn outstanding_fills(&self) -> usize {
        self.mshr.outstanding()
    }

    /// Peak simultaneous in-flight fetches observed.
    pub fn peak_outstanding_fills(&self) -> usize {
        self.mshr.peak_outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(org: CacheOrg) -> DataCache {
        DataCache::new(CacheConfig::baseline(), org)
    }

    #[test]
    fn perfect_cache_always_hits() {
        let mut c = cache(CacheOrg::Perfect);
        for i in 0..100 {
            let r = c.load(i * 4096, i, i);
            assert!(r.hit());
            assert_eq!(r.complete_at(), i + 2);
        }
        assert_eq!(c.stats().load_miss_rate(), 0.0);
    }

    #[test]
    fn lockup_free_miss_then_hit() {
        let mut c = cache(CacheOrg::LockupFree);
        let r = c.load(0x1000, 0, 1);
        assert!(!r.hit());
        assert_eq!(r.complete_at(), 1 + 16 + 1);
        c.drain_fills(17);
        let r2 = c.load(0x1004, 20, 2);
        assert!(r2.hit());
        assert_eq!(r2.complete_at(), 22);
    }

    #[test]
    fn lockup_free_secondary_miss_merges() {
        let mut c = cache(CacheOrg::LockupFree);
        let r1 = c.load(0x1000, 0, 1);
        let r2 = c.load(0x1010, 3, 2);
        assert_eq!(r1.complete_at(), r2.complete_at());
        assert_eq!(c.stats().load_misses_primary, 1);
        assert_eq!(c.stats().load_misses_secondary, 1);
    }

    #[test]
    fn lockup_free_supports_many_outstanding() {
        let mut c = cache(CacheOrg::LockupFree);
        for i in 0..64u64 {
            assert!(c.can_accept(i));
            c.load(0x10000 + i * 64, i, i);
        }
        assert_eq!(c.outstanding_fills(), 64);
        assert_eq!(c.peak_outstanding_fills(), 64);
    }

    #[test]
    fn lockup_blocks_until_fill_returns() {
        let mut c = cache(CacheOrg::Lockup);
        let r = c.load(0x1000, 10, 1);
        assert_eq!(r.complete_at(), 10 + 1 + 16 + 1);
        assert!(!c.can_accept(11));
        assert!(!c.can_accept(26));
        assert!(c.can_accept(27)); // locked_until = 27 exclusive
        c.drain_fills(27);
        let r2 = c.load(0x1000, 28, 2);
        assert!(r2.hit() || r2.complete_at() == 30); // hit after install
    }

    #[test]
    fn lockup_hit_reports_hit() {
        let mut c = cache(CacheOrg::Lockup);
        c.load(0x1000, 0, 1);
        c.drain_fills(17);
        let r = c.load(0x1008, 20, 2);
        // Lockup hits don't lock the cache.
        assert!(c.can_accept(21));
        assert_eq!(r.complete_at(), 22);
    }

    #[test]
    fn next_accept_cycle_tracks_the_lockup_window() {
        let mut c = cache(CacheOrg::Lockup);
        assert_eq!(c.next_accept_cycle(), 0);
        c.load(0x1000, 10, 1);
        // Probe (1) + fetch (16): accepts again at cycle 27.
        assert_eq!(c.next_accept_cycle(), 27);
        assert!(c.can_accept(c.next_accept_cycle()));
        // Non-blocking organisations never refuse an access.
        let mut free = cache(CacheOrg::LockupFree);
        free.load(0x1000, 10, 1);
        assert_eq!(free.next_accept_cycle(), 0);
    }

    #[test]
    #[should_panic(expected = "locked")]
    fn issuing_into_locked_cache_panics() {
        let mut c = cache(CacheOrg::Lockup);
        c.load(0x1000, 0, 1);
        let _ = c.load(0x2000, 5, 2);
    }

    #[test]
    fn stores_are_no_allocate() {
        let mut c = cache(CacheOrg::LockupFree);
        c.store(0x3000, 0);
        assert_eq!(c.stats().store_hits, 0);
        // The store did not allocate: a load to the same line misses.
        let r = c.load(0x3000, 1, 1);
        assert!(!r.hit());
    }

    #[test]
    fn stores_hit_resident_lines() {
        let mut c = cache(CacheOrg::LockupFree);
        c.load(0x3000, 0, 1);
        c.drain_fills(17);
        c.store(0x3010, 20);
        assert_eq!(c.stats().store_hits, 1);
        assert_eq!(c.write_buffer().pushed(), 1);
    }

    #[test]
    fn cancelled_solo_fill_is_not_installed() {
        let mut c = cache(CacheOrg::LockupFree);
        c.load(0x4000, 0, 7);
        c.cancel(7);
        c.drain_fills(17);
        assert_eq!((c.stats().fills_installed, c.stats().fills_cancelled), (0, 1));
        assert_eq!(c.outstanding_fills(), 0);
        assert_eq!(c.peak_outstanding_fills(), 1);
        // Line was not installed: the next load misses again.
        let r = c.load(0x4000, 20, 8);
        assert!(!r.hit());
        c.drain_fills(37);
        assert_eq!((c.stats().fills_installed, c.stats().fills_cancelled), (1, 1));
    }
}
