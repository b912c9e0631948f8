//! The process-wide run-counter registry.
//!
//! Every count the suite reports about its own work — simulations run,
//! instructions committed, kernel idle-skips, phase CPU time, run-cache
//! and run-store lookups — has exactly one source: a slot in one static
//! array of relaxed atomics, indexed by [`Counter`]. Producers bump it
//! with [`count`]; every sink (the suite benchmark report, the ledger,
//! the live telemetry stream, `/metrics`, `RF_LOG`) reads it through a
//! [`Counts`] snapshot and differences two snapshots with
//! [`Counts::since`] to scope a count to a window of work.
//!
//! Counting is always on: a bump is one relaxed `fetch_add`, paid a few
//! times per simulation and once per cache or store lookup.

use std::sync::atomic::{AtomicU64, Ordering};

/// One process-wide run counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Simulations that entered the runner (each resolves exactly once
    /// more, as completed or failed).
    SimsStarted,
    /// Simulations that finished successfully.
    SimsCompleted,
    /// Simulations that panicked, were cancelled, or rejected their spec.
    SimsFailed,
    /// Instructions committed by completed simulations.
    InstructionsCommitted,
    /// Cycles simulated by completed simulations.
    Cycles,
    /// Insert-stall cycles with no free register, over completed
    /// simulations.
    StallNoReg,
    /// Insert-stall cycles with a full dispatch queue, over completed
    /// simulations.
    StallDqFull,
    /// Cycles with an empty free list (either class), over completed
    /// simulations.
    NoFreeCycles,
    /// Cycles the event-driven kernel accounted in bulk instead of
    /// stepping, over every completed pipeline run.
    CyclesSkipped,
    /// Idle-skip jumps the kernel took, over every completed pipeline
    /// run.
    WakeupEvents,
    /// Nanoseconds spent constructing trace generators, summed over
    /// workers (CPU time, not wall time). Generation itself is lazy and
    /// interleaves with simulation, so its cost counts in `SimulateNs`.
    GenerateNs,
    /// Nanoseconds spent inside the pipeline, summed over workers (CPU
    /// time, not wall time).
    SimulateNs,
    /// Run-cache lookups answered from memory.
    CacheHits,
    /// Run-cache lookups that missed.
    CacheMisses,
    /// Run-store lookups answered from disk.
    StoreHits,
    /// Run-store lookups that fell through to a simulation.
    StoreMisses,
    /// Executed results appended to the run store.
    StoreWrites,
}

impl Counter {
    /// Every counter, in registry (and rendering) order.
    pub const ALL: [Counter; 17] = [
        Counter::SimsStarted,
        Counter::SimsCompleted,
        Counter::SimsFailed,
        Counter::InstructionsCommitted,
        Counter::Cycles,
        Counter::StallNoReg,
        Counter::StallDqFull,
        Counter::NoFreeCycles,
        Counter::CyclesSkipped,
        Counter::WakeupEvents,
        Counter::GenerateNs,
        Counter::SimulateNs,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::StoreHits,
        Counter::StoreMisses,
        Counter::StoreWrites,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// The counter's snake-case name, as every sink renders it.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimsStarted => "sims_started",
            Counter::SimsCompleted => "sims_completed",
            Counter::SimsFailed => "sims_failed",
            Counter::InstructionsCommitted => "instructions_committed",
            Counter::Cycles => "cycles",
            Counter::StallNoReg => "stall_no_reg",
            Counter::StallDqFull => "stall_dq_full",
            Counter::NoFreeCycles => "no_free_cycles",
            Counter::CyclesSkipped => "cycles_skipped",
            Counter::WakeupEvents => "wakeup_events",
            Counter::GenerateNs => "generate_ns",
            Counter::SimulateNs => "simulate_ns",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::StoreHits => "store_hits",
            Counter::StoreMisses => "store_misses",
            Counter::StoreWrites => "store_writes",
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static REGISTRY: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];

/// Adds `n` to counter `c`.
#[inline]
pub fn count(c: Counter, n: u64) {
    REGISTRY[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Reads every counter. Each slot is read atomically; the set as a whole
/// is not, so a snapshot taken while producers run may split an event
/// that bumps two counters.
pub fn snapshot() -> Counts {
    Counts(std::array::from_fn(|i| REGISTRY[i].load(Ordering::Relaxed)))
}

/// A point-in-time copy of the registry, or the difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; Counter::COUNT]);

impl Counts {
    /// Builds a counter set from a per-counter value function (readers
    /// use it to decode a rendered snapshot).
    pub fn from_fn(mut value: impl FnMut(Counter) -> u64) -> Self {
        Counts(std::array::from_fn(|i| value(Counter::ALL[i])))
    }

    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// The counts accumulated between `earlier` and `self` (both taken
    /// from the same monotone registry, so no slot goes backwards).
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// `(name, value)` pairs in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, other: Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

impl std::iter::Sum for Counts {
    fn sum<I: Iterator<Item = Counts>>(iter: I) -> Counts {
        iter.fold(Counts::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_all_order() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            Counter::COUNT,
            "duplicate counter name in {names:?}"
        );
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} is out of ALL order", c.name());
        }
        let iterated: Vec<&str> = Counts::default().iter().map(|(n, _)| n).collect();
        assert_eq!(iterated, names);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        // Other tests in this binary may bump the registry concurrently,
        // so measure a counter no other test touches.
        const THREADS: u64 = 8;
        const ADDS: u64 = 10_000;
        let before = snapshot();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for _ in 0..ADDS {
                        count(Counter::StoreWrites, t + 1);
                    }
                });
            }
        });
        let delta = snapshot().since(&before);
        assert_eq!(
            delta.get(Counter::StoreWrites),
            ADDS * THREADS * (THREADS + 1) / 2
        );
    }

    #[test]
    fn since_is_exact_per_counter() {
        let earlier = Counts::from_fn(|c| c as u64 * 10);
        let later = Counts::from_fn(|c| c as u64 * 10 + c as u64 + 1);
        let delta = later.since(&earlier);
        for c in Counter::ALL {
            assert_eq!(delta.get(c), c as u64 + 1, "{}", c.name());
        }
        assert_eq!(earlier + delta, later);
        assert_eq!([earlier, delta].into_iter().sum::<Counts>(), later);
        assert_eq!(later.since(&later), Counts::default());
    }
}
