//! The completion timing wheel: issued instructions keyed by the cycle
//! their result arrives.
//!
//! Every issue-to-complete delay is bounded by the machine configuration
//! (the slowest functional unit, or a load miss's block fetch), so a ring
//! of `horizon` cycle slots — `horizon` the bound rounded up to a power of
//! two — holds every pending completion without collisions: after the
//! completion phase of cycle `now` has drained slot `now`, live records
//! lie in cycles `now + 1 ..= now + horizon`, one distinct slot each.
//!
//! Records are validated lazily by the pipeline: an entry squashed after
//! issue leaves a stale record behind, which stays in its slot until its
//! cycle. The next-due query counts stale records too, so the idle-skip
//! kernel wakes at the same cycles whether or not a record is stale.

/// A ring of per-cycle completion slots indexed by `cycle & mask`.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    /// Sequence numbers completing in each slot's cycle, unordered.
    slots: Vec<Vec<u64>>,
    /// One bit per slot: set while the slot holds a record.
    occupied: Vec<u64>,
    /// `horizon - 1`.
    mask: u64,
}

impl CompletionWheel {
    /// A wheel accepting delays of up to `max_delay` cycles, reusing
    /// `slots` and `occupied` (contents are discarded, capacity is kept).
    pub(crate) fn new_in(
        max_delay: u64,
        (mut slots, mut occupied): (Vec<Vec<u64>>, Vec<u64>),
    ) -> Self {
        let horizon = max_delay.max(1).next_power_of_two() as usize;
        for slot in &mut slots {
            slot.clear();
        }
        slots.resize_with(horizon, Vec::new);
        slots.truncate(horizon);
        occupied.clear();
        occupied.resize(horizon.div_ceil(64), 0);
        Self { slots, occupied, mask: horizon as u64 - 1 }
    }

    /// Tears the wheel down into its raw buffers for arena recycling.
    pub(crate) fn into_buffers(self) -> (Vec<Vec<u64>>, Vec<u64>) {
        (self.slots, self.occupied)
    }

    /// The largest delay a push may carry.
    pub(crate) fn horizon(&self) -> u64 {
        self.mask + 1
    }

    /// Records that `seq`, issued at `now`, completes at `complete_at`.
    ///
    /// # Panics
    ///
    /// Panics unless `now < complete_at <= now + horizon`: a record past
    /// the horizon would alias an earlier cycle's slot.
    #[inline]
    pub(crate) fn push(&mut self, now: u64, complete_at: u64, seq: u64) {
        assert!(
            complete_at > now && complete_at - now <= self.horizon(),
            "completion at {complete_at} issued at {now} is outside the {}-cycle horizon",
            self.horizon()
        );
        let pos = (complete_at & self.mask) as usize;
        self.slots[pos].push(seq);
        self.occupied[pos / 64] |= 1 << (pos % 64);
    }

    /// Removes the records due at cycle `now`, sorted by sequence number
    /// (program order; duplicates are kept). Hand the buffer back with
    /// [`CompletionWheel::restore`] once drained.
    #[inline]
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<u64> {
        let pos = (now & self.mask) as usize;
        self.occupied[pos / 64] &= !(1 << (pos % 64));
        let mut due = std::mem::take(&mut self.slots[pos]);
        due.sort_unstable();
        due
    }

    /// Returns the drained buffer of [`CompletionWheel::take_due`] to
    /// slot `now`, keeping its capacity.
    #[inline]
    pub(crate) fn restore(&mut self, now: u64, mut due: Vec<u64>) {
        let pos = (now & self.mask) as usize;
        debug_assert!(self.slots[pos].is_empty(), "nothing completes while a slot drains");
        due.clear();
        self.slots[pos] = due;
    }

    /// The earliest cycle after `now` holding a record (stale ones
    /// included), or `None` when the wheel is empty. Valid once cycle
    /// `now`'s slot has been drained.
    pub(crate) fn next_due(&self, now: u64) -> Option<u64> {
        let horizon = self.horizon() as usize;
        let start = ((now + 1) & self.mask) as usize;
        let offset = first_set(&self.occupied, start, horizon)
            .map(|pos| pos - start)
            .or_else(|| first_set(&self.occupied, 0, start).map(|pos| pos + horizon - start))?;
        Some(now + 1 + offset as u64)
    }
}

/// The lowest set bit position in `lo..hi` of the bitset `words`.
fn first_set(words: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let mut pos = lo;
    while pos < hi {
        let rest = words[pos / 64] >> (pos % 64);
        if rest != 0 {
            let found = pos + rest.trailing_zeros() as usize;
            return (found < hi).then_some(found);
        }
        pos += 64 - pos % 64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn wheel(max_delay: u64) -> CompletionWheel {
        CompletionWheel::new_in(max_delay, (Vec::new(), Vec::new()))
    }

    /// Drives the wheel and a `BinaryHeap` with the same random pushes
    /// and per-cycle drains: every drained slot must equal the heap's pops
    /// for that cycle, and the next-due query must equal the heap's peek.
    #[test]
    fn wheel_matches_binary_heap_reference() {
        for (case, max_delay) in [18u64, 16, 5, 64, 100].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(case as u64);
            let mut w = wheel(max_delay);
            let horizon = w.horizon();
            assert!(horizon >= max_delay && horizon.is_power_of_two());
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut now = 0u64;
            for _ in 0..5_000 {
                now += 1;
                // Complete phase: drain this cycle's slot.
                let due = w.take_due(now);
                let mut expected = Vec::new();
                while let Some(&Reverse((cycle, seq))) = heap.peek() {
                    if cycle > now {
                        break;
                    }
                    assert_eq!(cycle, now, "the heap never holds overdue records");
                    heap.pop();
                    expected.push(seq);
                }
                assert_eq!(due, expected, "cycle {now}");
                w.restore(now, due);
                // Issue phase: a burst of pushes within the horizon, with
                // reused sequence numbers (squash reuse, stale records)
                // and exact duplicates.
                for _ in 0..rng.gen_range(0..6) {
                    let seq = if next_seq > 0 && rng.gen_bool(0.2) {
                        next_seq - rng.gen_range(1..=next_seq.min(8))
                    } else {
                        next_seq += 1;
                        next_seq
                    };
                    let at = now + rng.gen_range(1..=horizon);
                    let copies = if rng.gen_bool(0.05) { 2 } else { 1 };
                    for _ in 0..copies {
                        w.push(now, at, seq);
                        heap.push(Reverse((at, seq)));
                    }
                }
                let peek = heap.peek().map(|&Reverse((cycle, _))| cycle);
                assert_eq!(w.next_due(now), peek, "next due after cycle {now}");
                // Idle skip: sometimes jump straight to the next due cycle.
                if let Some(wake) = peek {
                    if rng.gen_bool(0.3) {
                        now = wake - 1;
                    }
                }
            }
        }
    }

    #[test]
    fn empty_wheel_has_nothing_due() {
        let w = wheel(18);
        assert_eq!(w.horizon(), 32);
        assert_eq!(w.next_due(0), None);
        assert_eq!(w.next_due(12_345), None);
    }

    #[test]
    fn recycled_buffers_start_empty() {
        let mut w = wheel(18);
        w.push(0, 7, 3);
        let w = CompletionWheel::new_in(100, w.into_buffers());
        assert_eq!(w.horizon(), 128);
        assert_eq!(w.next_due(0), None);
    }

    #[test]
    #[should_panic(expected = "outside the 32-cycle horizon")]
    fn push_past_the_horizon_panics() {
        let mut w = wheel(18);
        w.push(10, 10 + 33, 1);
    }

    #[test]
    #[should_panic(expected = "outside the 32-cycle horizon")]
    fn push_due_now_panics() {
        let mut w = wheel(18);
        w.push(10, 10, 1);
    }
}
