//! Memory disambiguation folded into readiness.
//!
//! A load may not issue while an older store to the same address is
//! incomplete; a store may not issue while any older load or store to the
//! same address is incomplete. (Addresses are known at insert, so the
//! scheduler disambiguates exactly.) The kernel turns that predicate into
//! a per-entry count, `ActiveEntry::blockers`: the older incomplete
//! operations at the entry's address that it must wait for. A load or
//! store is an issue candidate once it is data-ready and its count is
//! zero, exactly when the predicate holds, so the issue select does no
//! address work at all.
//!
//! [`AddrTable`] holds, per address with incomplete memory operations,
//! how many there are, how many are stores, and the head of their chain
//! (youngest first, linked through `ActiveEntry::mem_link`). It is
//! touched once per memory-operation event:
//!
//! * **insert** reads the counts — a new load's blockers are the stores,
//!   a new store's every operation, all of them older — and pushes the
//!   operation onto the chain;
//! * **completion** walks the chain from its head down to the completing
//!   operation, taking one blocker from each younger operation that
//!   conflicts with it, and unlinks it
//!   (`ActiveList::release_mem`);
//! * **squash** pops the chain head (squash runs youngest-first).
//!
//! # Hashing
//!
//! Keys are word-aligned simulated addresses, already well mixed by the
//! workload generator's layout. [`AddrHashBuilder`] applies a fixed
//! SplitMix64 finalizer — deterministic (no per-process seed), ~4
//! instructions, and strong enough for hashbrown's 7-bit control bytes.
//! Nothing iterates the map, so determinism of results never depends on
//! bucket order anyway; the fixed seed just keeps run timing stable.

use crate::active::NO_WAITER;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// SplitMix64 finalizer: a fixed, seedless avalanche of one `u64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; tolerate other widths anyway.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] for [`AddrHasher`]: stateless, so every map built
/// from it hashes identically across runs and processes. For maps keyed
/// by simulated addresses or sequence numbers, which need no defence
/// against adversarial keys.
///
/// # Examples
///
/// ```
/// use rf_core::AddrHashBuilder;
/// use std::collections::HashMap;
///
/// let mut finish: HashMap<u64, u64, AddrHashBuilder> = HashMap::default();
/// finish.insert(0x1000, 7);
/// assert_eq!(finish.get(&0x1000), Some(&7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHashBuilder;

impl BuildHasher for AddrHashBuilder {
    type Hasher = AddrHasher;

    #[inline]
    fn build_hasher(&self) -> AddrHasher {
        AddrHasher::default()
    }
}

/// The incomplete memory operations at one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AddrOps {
    /// Sequence number of the youngest: the head of the address chain.
    pub head: u64,
    /// How many there are.
    pub ops: u32,
    /// How many of them are stores.
    pub stores: u32,
}

/// Backing map of an [`AddrTable`], exposed for arena recycling.
pub(crate) type AddrMap = HashMap<u64, AddrOps, AddrHashBuilder>;

/// The incomplete loads and stores of the active list, by address.
#[derive(Debug, Default)]
pub(crate) struct AddrTable {
    map: AddrMap,
}

impl AddrTable {
    /// Builds an empty table on a recycled map (contents discarded,
    /// capacity kept).
    pub(crate) fn new_in(mut map: AddrMap) -> Self {
        map.clear();
        Self { map }
    }

    /// Tears the table down into its map for arena recycling.
    pub(crate) fn into_map(self) -> AddrMap {
        self.map
    }

    /// Records a load or store (renamed this cycle, hence younger than
    /// every operation present) at `addr`. Returns its blocker count and
    /// the address chain's head for `link` to push it onto.
    #[inline]
    pub(crate) fn insert(&mut self, addr: u64, store: bool, link: impl FnOnce(&mut u64)) -> u32 {
        let rec = self.map.entry(addr).or_insert(AddrOps { head: NO_WAITER, ops: 0, stores: 0 });
        let blockers = if store { rec.ops } else { rec.stores };
        link(&mut rec.head);
        rec.ops += 1;
        rec.stores += u32::from(store);
        blockers
    }

    /// Removes a load or store at `addr` (completion or squash); `unlink`
    /// takes it off the address chain, given the chain's head.
    #[inline]
    pub(crate) fn remove(&mut self, addr: u64, store: bool, unlink: impl FnOnce(&mut u64)) {
        let Entry::Occupied(mut slot) = self.map.entry(addr) else {
            debug_assert!(false, "removing an operation at untracked address {addr:#x}");
            return;
        };
        let rec = slot.get_mut();
        unlink(&mut rec.head);
        rec.ops -= 1;
        rec.stores -= u32::from(store);
        if rec.ops == 0 {
            debug_assert_eq!(rec.head, NO_WAITER, "an empty address has an empty chain");
            slot.remove();
        }
    }

    /// The incomplete operations at `addr`, if any.
    #[cfg(test)]
    pub(crate) fn get(&self, addr: u64) -> Option<AddrOps> {
        self.map.get(&addr).copied()
    }

    /// Number of addresses with incomplete operations.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_give_each_new_operation_its_blockers() {
        let mut t = AddrTable::default();
        let push =
            |t: &mut AddrTable, seq: u64, store: bool| t.insert(0x100, store, |head| *head = seq);
        assert_eq!(push(&mut t, 1, false), 0, "a first load waits for nothing");
        assert_eq!(push(&mut t, 2, false), 0, "loads do not block loads");
        assert_eq!(push(&mut t, 3, true), 2, "a store waits for both loads");
        assert_eq!(push(&mut t, 4, false), 1, "a load waits for the store");
        assert_eq!(push(&mut t, 5, true), 4);
        assert_eq!(t.get(0x100), Some(AddrOps { head: 5, ops: 5, stores: 2 }));
        assert_eq!(t.insert(0x200, true, |_| {}), 0, "addresses are independent");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn the_last_removal_drops_the_address() {
        let mut t = AddrTable::default();
        t.insert(0x40, true, |head| *head = 7);
        t.insert(0x40, false, |head| *head = 9);
        t.remove(0x40, true, |_| {});
        assert_eq!(t.get(0x40), Some(AddrOps { head: 9, ops: 1, stores: 0 }));
        t.remove(0x40, false, |head| *head = NO_WAITER);
        assert_eq!(t.get(0x40), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let b = AddrHashBuilder;
        let h1 = b.hash_one(0xdead_beefu64);
        let h2 = AddrHashBuilder.hash_one(0xdead_beefu64);
        assert_eq!(h1, h2);
        assert_ne!(b.hash_one(0u64), b.hash_one(1u64));
    }
}
