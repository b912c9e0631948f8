//! Shared committed-path traces: generate a trace once, replay it through
//! many simulations.
//!
//! The original study generated each ATOM trace once and replayed it
//! through every machine configuration. A [`SharedTrace`] does the same
//! for one `(profile, seed)`: it packs the committed path into a compact
//! buffer once, and every simulation reads it through its own
//! [`TraceCursor`].

use crate::generator::{TraceGenerator, WrongPathGenerator};
use crate::profile::BenchmarkProfile;
use rf_isa::{Instruction, OpKind, PackedInst};

/// How many instructions the fill generates between two polls of its
/// cancellation callback.
const POLL_EVERY: usize = 4096;

/// One `(profile, seed)` committed-path trace, generated once and
/// replayed by any number of simulations.
///
/// It holds the first `len` instructions of
/// `TraceGenerator::new(profile, seed)` packed at about 7 bytes each,
/// the generator's state at the buffer's end, and a freshly built
/// [`WrongPathGenerator`] as a template. A [`TraceCursor`] yields the
/// buffer and then continues exactly from a clone of that state, so a
/// simulation that fetches past the buffer still sees the generator's
/// stream. [`SharedTrace::wrong_path`] clones the template, so no
/// simulation synthesizes a program.
///
/// A trace read from a file ([`SharedTrace::read_from`]) has no tail
/// state: its cursors end with the buffer, and a pipeline reading one
/// drains.
///
/// The buffer is three arrays: one 32-bit [`PackedInst`] per
/// instruction; the address of every load and store; and a jump list
/// holding the PC of every instruction whose PC is not its
/// predecessor's plus 4 (loop bodies are straight-line code, so that is
/// about one instruction in 30). Each array ends in a sentinel, so a
/// cursor reads them without bounds branches.
///
/// # Examples
///
/// ```
/// use rf_workload::{spec92, SharedTrace, TraceGenerator};
///
/// let profile = spec92::compress();
/// let shared = SharedTrace::new(&profile, 7, 1_000);
/// let replayed: Vec<_> = shared.cursor().take(1_500).collect();
/// let fresh: Vec<_> = TraceGenerator::new(&profile, 7).take(1_500).collect();
/// assert_eq!(replayed, fresh);
/// ```
#[derive(Debug)]
pub struct SharedTrace {
    /// The profile's name and the seed, which fix the whole stream.
    pub(crate) benchmark: String,
    pub(crate) seed: u64,
    pub(crate) words: Vec<PackedInst>,
    /// Memory addresses of the buffered loads and stores, in trace order,
    /// then a 0 sentinel.
    pub(crate) addrs: Vec<u64>,
    /// `(index, pc)` of every buffered instruction that does not follow
    /// its predecessor, then a `(u32::MAX, 0)` sentinel.
    pub(crate) jumps: Vec<(u32, u64)>,
    /// The generator's state just after the last buffered instruction;
    /// `None` when the trace was read from a file.
    tail: Option<TraceGenerator>,
    wrong_path: WrongPathGenerator,
}

impl SharedTrace {
    /// The most committed-path instructions a simulation's trace buffers
    /// (about 7 MB). A longer run reads the rest from its cursor's tail
    /// generator, so a huge commit budget costs time, not memory.
    pub const MAX_BUFFERED: u64 = 1 << 20;

    /// Generates the first `len` committed-path instructions of
    /// `(profile, seed)` and the wrong-path template.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit in a `u32`.
    pub fn new(profile: &BenchmarkProfile, seed: u64, len: usize) -> Self {
        Self::build(profile, seed, len, || false).expect("never cancelled")
    }

    /// As [`SharedTrace::new`], polling `cancelled` every few thousand
    /// instructions and returning `None` as soon as it answers `true`.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit in a `u32`.
    pub fn build(
        profile: &BenchmarkProfile,
        seed: u64,
        len: usize,
        mut cancelled: impl FnMut() -> bool,
    ) -> Option<Self> {
        assert!(u32::try_from(len).is_ok_and(|n| n < u32::MAX), "trace of {len} is too long");
        let mut tail = TraceGenerator::new(profile, seed);
        let mem_frac = profile.mix.fraction(OpKind::Load) + profile.mix.fraction(OpKind::Store);
        let mut words = Vec::with_capacity(len);
        let mut addrs = Vec::with_capacity((len as f64 * mem_frac * 1.1) as usize + 1);
        let mut jumps = Vec::new();
        let mut next_pc = None;
        while words.len() < len {
            if words.len() % POLL_EVERY == 0 && cancelled() {
                return None;
            }
            let inst = tail.next().expect("the generator is infinite");
            if next_pc != Some(inst.pc()) {
                jumps.push((words.len() as u32, inst.pc()));
            }
            next_pc = Some(inst.pc().wrapping_add(4));
            words.push(inst.pack());
            if let Some(mem) = inst.mem() {
                addrs.push(mem.addr());
            }
        }
        Some(Self::from_parts(profile, seed, words, addrs, jumps, Some(tail)))
    }

    /// Assembles a trace from its three arrays, appending their
    /// sentinels, and builds the wrong-path template.
    pub(crate) fn from_parts(
        profile: &BenchmarkProfile,
        seed: u64,
        words: Vec<PackedInst>,
        mut addrs: Vec<u64>,
        mut jumps: Vec<(u32, u64)>,
        tail: Option<TraceGenerator>,
    ) -> Self {
        addrs.push(0);
        jumps.push((u32::MAX, 0));
        addrs.shrink_to_fit();
        jumps.shrink_to_fit();
        Self {
            benchmark: profile.name.clone(),
            seed,
            words,
            addrs,
            jumps,
            tail,
            wrong_path: WrongPathGenerator::new(profile, seed),
        }
    }

    /// The name of the benchmark profile the trace was generated from.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The generator seed the trace was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Buffered instructions.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer is empty (every cursor reads the tail alone).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// A new cursor at the start of the trace. It yields the buffer,
    /// then the tail generator's stream, or ends with the buffer when
    /// the trace has no tail.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor { trace: self, pos: 0, mem: 0, jump: 0, pc: 0, tail: None }
    }

    /// A fresh wrong-path stream for one simulation: a clone of the
    /// template, equal to `WrongPathGenerator::new(profile, seed)`.
    pub fn wrong_path(&self) -> WrongPathGenerator {
        self.wrong_path.clone()
    }
}

/// One simulation's read position in a [`SharedTrace`]: an iterator over
/// the committed path, infinite unless the trace was read from a file.
/// Cursors over one trace advance independently.
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a SharedTrace,
    /// The next instruction, its address slot and its jump-list entry.
    pos: usize,
    mem: usize,
    jump: usize,
    /// The PC of the instruction last returned.
    pc: u64,
    /// Cloned from the trace's tail state on the first read past the
    /// buffer.
    tail: Option<TraceGenerator>,
}

impl Iterator for TraceCursor<'_> {
    type Item = Instruction;

    #[inline]
    fn next(&mut self) -> Option<Instruction> {
        let trace = self.trace;
        let Some(&word) = trace.words.get(self.pos) else {
            return self.next_from_tail();
        };
        // Branch-free: which instructions jump or access memory follows
        // the trace's data, so branches on them would mispredict. The
        // sentinels keep both reads in bounds.
        let (at, target) = trace.jumps[self.jump];
        let jumped = at as usize == self.pos;
        self.pc = if jumped { target } else { self.pc.wrapping_add(4) };
        self.jump += usize::from(jumped);
        let addr = trace.addrs[self.mem];
        self.mem += usize::from(word.has_mem());
        self.pos += 1;
        Some(word.unpack(self.pc, addr))
    }
}

impl TraceCursor<'_> {
    /// Reads past the buffer. Kept out of line, so the buffered path does
    /// not pay the generator's stack frame on every call.
    #[inline(never)]
    fn next_from_tail(&mut self) -> Option<Instruction> {
        if self.tail.is_none() {
            self.tail = self.trace.tail.clone();
        }
        self.tail.as_mut()?.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec92;

    #[test]
    fn cursors_match_a_fresh_generator_past_the_buffer() {
        const LEN: usize = 2_000;
        let mut classes = std::collections::HashSet::new();
        for profile in spec92::all() {
            for seed in [1, 12] {
                let shared = SharedTrace::new(&profile, seed, LEN);
                let fresh: Vec<_> = TraceGenerator::new(&profile, seed).take(3 * LEN).collect();
                let replayed: Vec<_> = shared.cursor().take(3 * LEN).collect();
                assert_eq!(replayed, fresh, "{} seed {seed}", profile.name);
                for inst in &fresh {
                    let addr = inst.mem().map_or(0, |m| m.addr());
                    let word = inst.pack();
                    // Every generated word is one a trace file may hold.
                    assert_eq!(PackedInst::from_bits(word.bits()), Some(word), "{inst}");
                    assert_eq!(word.unpack(inst.pc(), addr), *inst, "{}", profile.name);
                    classes.extend(inst.dest().map(|d| d.class()));
                }
            }
        }
        // Zero-register operands never occur in generated streams; rf-isa's
        // own pack tests cover them.
        assert_eq!(classes.len(), 2, "both register classes replayed");
    }

    #[test]
    fn cursors_advance_independently() {
        let profile = spec92::tomcatv();
        let shared = SharedTrace::new(&profile, 3, 500);
        let fresh: Vec<_> = TraceGenerator::new(&profile, 3).take(1_200).collect();
        let (mut a, mut b) = (shared.cursor(), shared.cursor());
        let head: Vec<_> = a.by_ref().take(700).collect();
        assert_eq!(head, fresh[..700]);
        assert_eq!(b.by_ref().take(100).collect::<Vec<_>>(), fresh[..100]);
        assert_eq!(a.take(500).collect::<Vec<_>>(), fresh[700..]);
        assert_eq!(b.take(1_100).collect::<Vec<_>>(), fresh[100..]);
    }

    #[test]
    fn wrong_path_template_clones_equal_a_fresh_generator() {
        for profile in spec92::all() {
            let shared = SharedTrace::new(&profile, 12, 10);
            let cloned: Vec<_> = shared.wrong_path().take(2_000).collect();
            let fresh: Vec<_> = WrongPathGenerator::new(&profile, 12).take(2_000).collect();
            assert_eq!(cloned, fresh, "{}", profile.name);
            // Taking from one clone leaves the template untouched.
            assert_eq!(shared.wrong_path().take(2_000).collect::<Vec<_>>(), fresh);
        }
    }

    #[test]
    fn an_empty_buffer_replays_the_generator_alone() {
        let profile = spec92::gcc1();
        let shared = SharedTrace::new(&profile, 5, 0);
        assert!(shared.is_empty());
        let fresh: Vec<_> = TraceGenerator::new(&profile, 5).take(300).collect();
        assert_eq!(shared.cursor().take(300).collect::<Vec<_>>(), fresh);
    }

    #[test]
    fn a_cancelled_fill_gives_up() {
        let profile = spec92::ora();
        let mut polls = 0;
        let built = SharedTrace::build(&profile, 1, 100_000, || {
            polls += 1;
            polls > 2
        });
        assert!(built.is_none());
        assert_eq!(polls, 3);
    }

    #[test]
    fn the_buffer_is_compact() {
        let shared = SharedTrace::new(&spec92::compress(), 1, 10_000);
        let bytes = std::mem::size_of_val(shared.words.as_slice())
            + std::mem::size_of_val(shared.addrs.as_slice())
            + std::mem::size_of_val(shared.jumps.as_slice());
        let per_inst = bytes as f64 / shared.len() as f64;
        assert!(per_inst < 8.0, "{per_inst:.1} bytes per instruction");
    }
}
