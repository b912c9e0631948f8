//! Thread-local recycling of per-run simulation buffers.
//!
//! A sweep point costs a dozen heap allocations before the first cycle
//! runs: per-register state, free/staged masks, the active list, the
//! completion wheel, the issue-phase scratch buffers, and the dense
//! liveness counters. None of them outlive the run, so a thread that
//! simulates thousands of sweep points (the experiment runner's worker
//! threads) can hand the buffers of a finished run to the next
//! [`Pipeline`](crate::Pipeline) instead of returning them to the
//! allocator.
//!
//! Recycling is invisible to the simulation: every constructor that
//! accepts recycled buffers clears them first, so a pipeline built from
//! the pool is byte-for-byte equivalent to one built from fresh
//! allocations (the run cost shows up only in the `profile-alloc`
//! counters). Buffers are recycled only when a run completes normally —
//! a panicked or cancelled pipeline drops its state, preserving the
//! fault-isolation rule that a poisoned run leaks nothing into later
//! ones.

use crate::active::{ActiveEntry, ColdEntry, CLASSES};
use crate::hazard::AddrMap;
use crate::regfile::RegState;
use rf_isa::RegClass;
use std::cell::RefCell;

/// The recyclable allocations of one simulation run.
#[derive(Debug, Default)]
pub(crate) struct RunBuffers {
    /// Per-register state, one per class.
    pub reg_state: [Vec<RegState>; 2],
    /// Free-register bitmask words, one per class.
    pub free_words: [Vec<u64>; 2],
    /// Staged-free bitmask words, one per class.
    pub staged_words: [Vec<u64>; 2],
    /// Active-list hot entry ring.
    pub entries: Vec<ActiveEntry>,
    /// Active-list cold entry ring.
    pub cold: Vec<ColdEntry>,
    /// Active-list per-class ready-set words.
    pub ready: Vec<[u64; CLASSES]>,
    /// Completion-wheel slots.
    pub wheel_slots: Vec<Vec<u64>>,
    /// Completion-wheel occupancy words.
    pub wheel_occupied: Vec<u64>,
    /// Issue-phase selection scratch.
    pub scratch_selected: Vec<u64>,
    /// Kill-engine drain scratch.
    pub scratch_kills: Vec<(RegClass, u32)>,
    /// Memory-disambiguation address table.
    pub addr_map: AddrMap,
    /// Per-class, per-register waiter-chain heads.
    pub wait_heads: [Vec<u64>; 2],
    /// Dense per-class precise liveness counters.
    pub live_hist: [Vec<u64>; 2],
    /// Dense per-class imprecise liveness counters.
    pub live_hist_imprecise: [Vec<u64>; 2],
}

thread_local! {
    static POOL: RefCell<Option<Box<RunBuffers>>> = const { RefCell::new(None) };
}

/// Takes the thread's pooled buffers (or a fresh, empty set).
pub(crate) fn take() -> Box<RunBuffers> {
    POOL.with(|p| p.borrow_mut().take()).unwrap_or_default()
}

/// Returns a completed run's buffers to the thread pool. Contents are
/// cleared here (capacity kept) so a poisoned value can never leak state;
/// the constructors that reuse them clear again defensively.
pub(crate) fn put(mut buffers: Box<RunBuffers>) {
    for v in &mut buffers.reg_state {
        v.clear();
    }
    for v in &mut buffers.free_words {
        v.clear();
    }
    for v in &mut buffers.staged_words {
        v.clear();
    }
    buffers.entries.clear();
    buffers.cold.clear();
    buffers.ready.clear();
    for slot in &mut buffers.wheel_slots {
        slot.clear();
    }
    buffers.wheel_occupied.clear();
    buffers.scratch_selected.clear();
    buffers.scratch_kills.clear();
    buffers.addr_map.clear();
    for v in buffers
        .wait_heads
        .iter_mut()
        .chain(&mut buffers.live_hist)
        .chain(&mut buffers.live_hist_imprecise)
    {
        v.clear();
    }
    POOL.with(|p| *p.borrow_mut() = Some(buffers));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_capacity() {
        // Ensure this thread's slot is in a known state.
        let _ = take();
        let mut b = Box::<RunBuffers>::default();
        b.scratch_selected.reserve(1024);
        b.addr_map.insert(7, crate::hazard::AddrOps { head: 1, ops: 1, stores: 0 });
        let cap = b.scratch_selected.capacity();
        put(b);
        let b = take();
        assert!(b.scratch_selected.capacity() >= cap, "capacity survives pooling");
        assert!(b.addr_map.is_empty(), "contents are cleared");
        // The slot is empty now: a second take is fresh.
        assert_eq!(take().scratch_selected.capacity(), 0);
    }
}
