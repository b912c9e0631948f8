//! The inverted MSHR: bookkeeping for in-flight cache-line fetches.

use std::collections::VecDeque;

/// One in-flight line fetch.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    line: u64,
    return_cycle: u64,
    /// Requesters merged into this fill that have not been cancelled. A
    /// cancelled requester is a squashed wrong-path load whose register
    /// must not be written; a fill left with none is not installed, per
    /// the paper's recovery rule ("the cache block will not be written
    /// into the cache or be used to write registers when the block
    /// returns from memory").
    live: u32,
}

/// Bookkeeping for outstanding cache-line fetches, modelling the *inverted
/// MSHR* organisation of Farkas–Jouppi (ISCA'94).
///
/// A conventional MSHR file has a fixed number of miss entries; an inverted
/// MSHR is indexed by *destination* (physical register), so it "can support
/// as many in-flight cache misses as there are registers and other
/// destinations for data in the processor". Behaviourally that means the
/// structure never rejects a request, which is how this type models it:
/// requests to a line already being fetched merge into the existing fill,
/// and new lines start new fetches, without bound.
///
/// # Examples
///
/// ```
/// use rf_mem::InvertedMshr;
///
/// let mut mshr = InvertedMshr::new();
/// let r1 = mshr.request(0x1000, 1, 26);
/// let r2 = mshr.request(0x1000, 2, 30); // merges: same line
/// assert_eq!(r1, 26);
/// assert_eq!(r2, 26);
/// let mut installed = Vec::new();
/// assert_eq!(mshr.drain(26, |line| installed.push(line)), (1, 0));
/// assert_eq!(installed, vec![0x1000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvertedMshr {
    /// Outstanding fills in return-cycle order. New fetches have
    /// monotonically non-decreasing return cycles (constant fetch latency,
    /// monotonic request cycles), so a deque stays sorted.
    fills: VecDeque<PendingFill>,
    /// `(tag, line)` of every live requester of an outstanding fill. The
    /// tag is the core's identifier for the load (its sequence number).
    requesters: Vec<(u64, u64)>,
    peak_outstanding: usize,
}

impl InvertedMshr {
    /// Creates an empty MSHR table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a fetch for `line` is already outstanding.
    pub fn is_pending(&self, line: u64) -> bool {
        self.fills.iter().any(|f| f.line == line)
    }

    /// Registers a load (identified by `tag`) missing on `line`. If a fetch
    /// for the line is already outstanding the load merges into it;
    /// otherwise a new fetch returning at `return_cycle_if_new` is started.
    /// Returns the cycle the block will return.
    pub fn request(&mut self, line: u64, tag: u64, return_cycle_if_new: u64) -> u64 {
        self.requesters.push((tag, line));
        if let Some(fill) = self.fills.iter_mut().find(|f| f.line == line) {
            fill.live += 1;
            return fill.return_cycle;
        }
        debug_assert!(
            self.fills.back().is_none_or(|f| f.return_cycle <= return_cycle_if_new),
            "fetch return cycles must be monotonic"
        );
        self.fills.push_back(PendingFill { line, return_cycle: return_cycle_if_new, live: 1 });
        self.peak_outstanding = self.peak_outstanding.max(self.fills.len());
        return_cycle_if_new
    }

    /// Cancels the requester `tag` (squashed load): its register will not
    /// be written, and if every requester of a fill is cancelled the
    /// block will not be installed.
    pub fn cancel(&mut self, tag: u64) {
        while let Some(i) = self.requesters.iter().position(|&(t, _)| t == tag) {
            let (_, line) = self.requesters.swap_remove(i);
            let fill = self.fills.iter_mut().find(|f| f.line == line);
            fill.expect("a live requester's fill is outstanding").live -= 1;
        }
    }

    /// Retires every fill whose block has returned by `now`, calling
    /// `install` with the line of each one that still has a live
    /// requester. Returns `(installed, cancelled)`: how many returned
    /// fills are installed and how many are discarded.
    pub fn drain(&mut self, now: u64, mut install: impl FnMut(u64)) -> (u64, u64) {
        let _s = rf_prof::hot_span("cache.mshr_drain");
        let (mut installed, mut cancelled) = (0, 0);
        while let Some(&PendingFill { line, return_cycle, live }) = self.fills.front() {
            if return_cycle > now {
                break;
            }
            self.fills.pop_front();
            if live == 0 {
                cancelled += 1;
            } else {
                installed += 1;
                self.requesters.retain(|&(_, l)| l != line);
                install(line);
            }
        }
        (installed, cancelled)
    }

    /// Whether any fill's block has returned by `now` (the next
    /// [`drain`](InvertedMshr::drain) has work).
    #[inline]
    pub fn has_returned(&self, now: u64) -> bool {
        self.fills.front().is_some_and(|f| f.return_cycle <= now)
    }

    /// Number of fetches currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.fills.len()
    }

    /// The maximum number of simultaneously outstanding fetches observed.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `m` at `now`, returning the installed lines and the
    /// `(installed, cancelled)` counts.
    fn drain(m: &mut InvertedMshr, now: u64) -> (Vec<u64>, (u64, u64)) {
        let mut lines = Vec::new();
        let counts = m.drain(now, |line| lines.push(line));
        (lines, counts)
    }

    #[test]
    fn merged_requests_share_return_cycle() {
        let mut m = InvertedMshr::new();
        assert_eq!(m.request(0x100, 1, 50), 50);
        assert_eq!(m.request(0x100, 2, 60), 50);
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.peak_outstanding(), 1);
    }

    #[test]
    fn distinct_lines_fetch_independently() {
        let mut m = InvertedMshr::new();
        m.request(0x100, 1, 50);
        m.request(0x200, 2, 51);
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.peak_outstanding(), 2);
    }

    #[test]
    fn drain_respects_time() {
        let mut m = InvertedMshr::new();
        m.request(0x100, 1, 50);
        m.request(0x200, 2, 60);
        assert!(!m.has_returned(49));
        assert_eq!(drain(&mut m, 49), (vec![], (0, 0)));
        assert!(m.has_returned(55));
        assert_eq!(drain(&mut m, 55), (vec![0x100], (1, 0)));
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.peak_outstanding(), 2, "the peak survives the drain");
    }

    #[test]
    fn fully_cancelled_fill_is_not_installed() {
        let mut m = InvertedMshr::new();
        m.request(0x100, 1, 50);
        m.cancel(1);
        assert_eq!(drain(&mut m, 50), (vec![], (0, 1)));
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn partially_cancelled_fill_still_installs() {
        let mut m = InvertedMshr::new();
        m.request(0x100, 1, 50);
        m.request(0x100, 2, 55);
        m.cancel(1);
        assert_eq!(drain(&mut m, 50), (vec![0x100], (1, 0)));
    }

    #[test]
    fn cancel_of_unknown_tag_is_a_no_op() {
        let mut m = InvertedMshr::new();
        m.request(0x100, 1, 50);
        m.cancel(99);
        assert_eq!(drain(&mut m, 50), (vec![0x100], (1, 0)));
    }

    #[test]
    fn a_reused_tag_cancels_only_its_outstanding_requests() {
        let mut m = InvertedMshr::new();
        // Tag 1's first load returns and installs; its tag is reused by a
        // later load, whose cancellation must not reach the drained fill.
        m.request(0x100, 1, 50);
        assert_eq!(drain(&mut m, 50), (vec![0x100], (1, 0)));
        m.request(0x100, 1, 70);
        m.request(0x200, 2, 71);
        m.cancel(1);
        assert_eq!(drain(&mut m, 71), (vec![0x200], (1, 1)));
    }
}
