//! Cache geometry and timing configuration.

use crate::cache::{CacheOrg, DataCache};

/// Geometry and timing of the data cache.
///
/// The paper's baseline is 64 KB, 2-way set-associative, 32-byte lines,
/// 1-cycle hit latency and a 16-cycle fetch latency; the cache is
/// "configurable size & associativity".
///
/// # Examples
///
/// ```
/// use rf_mem::CacheConfig;
///
/// let c = CacheConfig::baseline();
/// assert_eq!(c.sets(), 1024);
/// assert_eq!(c.line_bytes(), 32);
///
/// let small = CacheConfig::new(8 * 1024, 1, 32, 1, 16);
/// assert_eq!(small.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: usize,
    assoc: usize,
    line_bytes: usize,
    hit_latency: u64,
    fetch_latency: u64,
}

impl CacheConfig {
    /// The paper's baseline configuration: 64 KB, 2-way, 32 B lines,
    /// 1-cycle hit, 16-cycle fetch latency.
    pub fn baseline() -> Self {
        Self::new(64 * 1024, 2, 32, 1, 16)
    }

    /// Creates a configuration from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, or the geometry does
    /// not divide into a whole power-of-two number of sets, or any
    /// parameter is zero.
    pub fn new(
        size_bytes: usize,
        assoc: usize,
        line_bytes: usize,
        hit_latency: u64,
        fetch_latency: u64,
    ) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_bytes > 0, "zero cache parameter");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert_eq!(
            size_bytes % (assoc * line_bytes),
            0,
            "size must be divisible by assoc * line size"
        );
        let sets = size_bytes / (assoc * line_bytes);
        assert!(sets.is_power_of_two(), "number of sets must be a power of two");
        Self { size_bytes, assoc, line_bytes, hit_latency, fetch_latency }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Hit latency in cycles (probe to data).
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }

    /// Fetch latency in cycles: the constant, deterministic time for the
    /// next level of the hierarchy to return a block.
    pub fn fetch_latency(&self) -> u64 {
        self.fetch_latency
    }

    /// The longest issue-to-complete delay of a load: a hit
    /// (`hit_latency` plus the load-delay slot) or a miss (a one-cycle
    /// probe, the block fetch, and the register write on return). A
    /// secondary miss merges into a fill issued earlier, so it returns no
    /// later than a primary one.
    pub fn max_load_latency(&self) -> u64 {
        (self.hit_latency + crate::cache::LOAD_DELAY_SLOT).max(1 + self.fetch_latency + 1)
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// Builds a [`DataCache`] of the chosen organisation with this
    /// geometry.
    pub fn build(self, org: CacheOrg) -> DataCache {
        DataCache::new(self, org)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = CacheConfig::baseline();
        assert_eq!(c.size_bytes(), 65536);
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.line_bytes(), 32);
        assert_eq!(c.hit_latency(), 1);
        assert_eq!(c.fetch_latency(), 16);
        assert_eq!(c.sets(), 1024);
    }

    #[test]
    fn line_alignment() {
        let c = CacheConfig::baseline();
        assert_eq!(c.line_of(0x1000), 0x1000);
        assert_eq!(c.line_of(0x101f), 0x1000);
        assert_eq!(c.line_of(0x1020), 0x1020);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new(64 * 1024, 2, 24, 1, 16);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn bad_geometry_panics() {
        let _ = CacheConfig::new(1000, 3, 32, 1, 16);
    }
}
