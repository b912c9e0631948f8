//! The dynamic trace walker: turns a static program into an infinite
//! instruction stream.

use crate::branch::BranchBehavior;
use crate::memstream::{StreamKind, StreamState};
use crate::profile::BenchmarkProfile;
use crate::program::{sample_geometric, Slot, StaticProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rf_isa::{ArchReg, Instruction, OpKind, RegClass};
use std::sync::Arc;

/// Number of architectural registers per class used as rotating
/// destinations. Leaving a few registers out of the rotation keeps some
/// long-lived values (as real compiled code does); 28 of the 31 renameable
/// registers rotate.
const DEST_POOL: u8 = 28;

/// Tracks the recent destination registers of one class so operand reuse
/// distances can be resolved. Distance `d` = the register written by the
/// `d`-th most recent register-writing instruction of that class.
#[derive(Debug, Clone)]
struct WriterRing {
    recent: [ArchReg; 32],
    head: usize,
    next_dest: u8,
    class: RegClass,
}

impl WriterRing {
    fn new(class: RegClass) -> Self {
        // Pre-populate so early distance lookups resolve to real registers.
        let mut recent = [ArchReg::new(class, 0); 32];
        for (i, slot) in recent.iter_mut().enumerate() {
            *slot = ArchReg::new(class, (i as u8) % DEST_POOL);
        }
        Self { recent, head: 0, next_dest: 0, class }
    }

    /// The register at reuse distance `d >= 1`.
    fn at_distance(&self, d: u16) -> ArchReg {
        let idx = (self.head + 32 - (d as usize % 32)) % 32;
        self.recent[idx]
    }

    /// Allocates the next rotating destination register and records it.
    fn alloc_dest(&mut self) -> ArchReg {
        let reg = ArchReg::new(self.class, self.next_dest);
        self.next_dest = (self.next_dest + 1) % DEST_POOL;
        self.recent[self.head] = reg;
        self.head = (self.head + 1) % 32;
        reg
    }
}

/// The dynamic trace generator: an infinite, deterministic iterator of
/// [`Instruction`]s for one benchmark profile.
///
/// See the [crate-level documentation](crate) for the generation model and
/// an example.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Immutable once synthesized, so clones share it.
    program: Arc<StaticProgram>,
    rng: SmallRng,
    rings: [WriterRing; 2],
    /// The profile's shared streams, then one private array walk per
    /// memory slot bound to a `Sequential` stream: real code's distinct
    /// load sites walk distinct arrays, so their same-line re-references
    /// recur one loop iteration apart (not back-to-back, which would
    /// merge into the same outstanding fill and count as secondary
    /// misses).
    streams: Vec<StreamState>,
    /// The index into `streams` each memory slot draws its addresses
    /// from, keyed densely by `loop_index * max_slots + slot`.
    slot_stream: Vec<u32>,
    max_slots: usize,
    /// Per-(loop, slot) dynamic-instance counters for `Pattern` sites.
    phases: Vec<Vec<u64>>,
    mean_trip: f64,
    iteration_local_frac: f64,
    /// Register writes per class since the current iteration began, for
    /// the iteration-local dependence clamp.
    iter_writes: [u16; 2],
    cur_loop: usize,
    slot: usize,
    trips_left: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile`, deterministic in
    /// `(profile, seed)`.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        Self::with_pc_base(profile, seed, 0x0001_0000)
    }

    /// As [`TraceGenerator::new`] but placing the program's code at
    /// `pc_base` (used to give wrong-path code a disjoint PC range).
    ///
    /// The *static program* is synthesized from a seed derived from the
    /// profile name alone — as in the original study, each benchmark is
    /// one fixed binary — so different `seed` values vary only the
    /// dynamic behaviour (branch outcomes, loop trips, addresses), not
    /// the code structure.
    pub fn with_pc_base(profile: &BenchmarkProfile, seed: u64, pc_base: u64) -> Self {
        let program = Arc::new(StaticProgram::synthesize(profile, program_seed(profile), pc_base));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut streams: Vec<StreamState> = profile
            .memory
            .streams
            .iter()
            .enumerate()
            .map(|(i, (_, kind))| {
                // Region bases depend only on the stream index, so a
                // wrong-path generator for the same profile touches the
                // same data regions as the correct-path one.
                StreamState::new(*kind, 0x1000_0000u64 * (i as u64 + 1))
            })
            .collect();
        let phases: Vec<Vec<u64>> =
            program.loops.iter().map(|l| vec![0u64; l.slots.len()]).collect();
        // Private array walks for sequential-bound memory slots.
        let max_slots = program.loops.iter().map(|l| l.slots.len()).max().unwrap_or(0);
        let mut slot_stream = vec![0u32; program.loops.len() * max_slots];
        for (li, l) in program.loops.iter().enumerate() {
            for (si, slot) in l.slots.iter().enumerate() {
                let stream = match *slot {
                    Slot::Load { stream, .. } | Slot::Store { stream, .. } => stream,
                    _ => continue,
                };
                slot_stream[li * max_slots + si] = stream as u32;
                if let StreamKind::Sequential { bytes, stride } =
                    profile.memory.streams[stream].1
                {
                    // Place each private array in its own region, disjoint
                    // from the shared regions and from each other.
                    let uid = (li * max_slots + si) as u64;
                    // Twice the array size per region so the staggering
                    // offset below cannot make neighbours overlap.
                    let region = bytes.next_power_of_two() * 2;
                    // Stagger starting sets: arrays advancing in lockstep
                    // from congruent bases would all contend for the same
                    // cache set forever.
                    let stagger = (uid.wrapping_mul(97) % 2048) * 32;
                    let base = 0x10_0000_0000 + uid * region + stagger;
                    slot_stream[li * max_slots + si] = streams.len() as u32;
                    streams.push(StreamState::new(StreamKind::Sequential { bytes, stride }, base));
                }
            }
        }
        let cur_loop = rng.gen_range(0..program.loops.len());
        let trips_left = sample_geometric(&mut rng, profile.branch.mean_trip, 1 << 20);
        Self {
            program,
            rng,
            rings: [WriterRing::new(RegClass::Int), WriterRing::new(RegClass::Fp)],
            streams,
            phases,
            mean_trip: profile.branch.mean_trip,
            iteration_local_frac: profile.deps.iteration_local_frac,
            iter_writes: [0, 0],
            slot_stream,
            max_slots,
            cur_loop,
            slot: 0,
            trips_left,
        }
    }

    fn ring(&mut self, class: RegClass) -> &mut WriterRing {
        &mut self.rings[class.index()]
    }

    fn src(&mut self, class: RegClass, d: u16) -> ArchReg {
        let mut d = d;
        // Iteration-local dependence clamp: with the configured
        // probability, the source comes from a value computed in the
        // *current* iteration (if any exist), keeping iterations
        // independent as in vectorisable code.
        if self.iteration_local_frac > 0.0
            && self.rng.gen_bool(self.iteration_local_frac)
        {
            let written = self.iter_writes[class.index()];
            if written > 0 {
                d = d.min(written);
            }
        }
        self.rings[class.index()].at_distance(d)
    }

    fn note_write(&mut self, class: RegClass) {
        self.iter_writes[class.index()] = self.iter_writes[class.index()].saturating_add(1);
    }

    /// The next address for the memory slot currently being emitted:
    /// sequential-bound slots walk their private array, others draw from
    /// their shared stream.
    fn mem_addr(&mut self) -> u64 {
        let stream = self.slot_stream[self.cur_loop * self.max_slots + self.slot];
        self.streams[stream as usize].next_addr(&mut self.rng)
    }

    fn emit_slot(&mut self) -> Instruction {
        let body = &self.program.loops[self.cur_loop];
        let pc = body.base_pc + 4 * self.slot as u64;
        let slot = body.slots[self.slot];
        let is_last = self.slot + 1 == body.slots.len();

        let inst = match slot {
            Slot::Op { kind, two_src, d1, d2 } => {
                let class = kind.default_reg_class();
                let s1 = Some(self.src(class, d1));
                let s2 = if two_src { Some(self.src(class, d2)) } else { None };
                let dest = self.ring(class).alloc_dest();
                self.note_write(class);
                match kind {
                    OpKind::IntAlu => Instruction::int_alu(dest, [s1, s2]),
                    OpKind::IntMul => Instruction::int_mul(dest, [s1, s2]),
                    OpKind::FpOp => Instruction::fp_op(dest, [s1, s2]),
                    OpKind::FpDiv32 => Instruction::fp_div(dest, [s1, s2], false),
                    OpKind::FpDiv64 => Instruction::fp_div(dest, [s1, s2], true),
                    _ => unreachable!("Op slots hold arithmetic kinds only"),
                }
                .with_pc(pc)
            }
            Slot::Load { fp_dest, addr_d, .. } => {
                let base = self.src(RegClass::Int, addr_d);
                let addr = self.mem_addr();
                let class = if fp_dest { RegClass::Fp } else { RegClass::Int };
                let dest = self.ring(class).alloc_dest();
                self.note_write(class);
                Instruction::load(dest, base, addr).with_pc(pc)
            }
            Slot::Store { fp_val, val_d, addr_d, .. } => {
                let base = self.src(RegClass::Int, addr_d);
                let class = if fp_val { RegClass::Fp } else { RegClass::Int };
                let value = self.src(class, val_d);
                let addr = self.mem_addr();
                Instruction::store(value, base, addr).with_pc(pc)
            }
            Slot::CondBranch { behavior, cond_d } => {
                let cond = Some(self.src(RegClass::Int, cond_d));
                let taken = match behavior {
                    BranchBehavior::LoopClose => self.trips_left > 1,
                    other => {
                        let phase = self.phases[self.cur_loop][self.slot];
                        self.phases[self.cur_loop][self.slot] += 1;
                        other.sample(phase, &mut self.rng)
                    }
                };
                Instruction::cond_branch(pc, taken, cond)
            }
            Slot::Jump { has_dest } => {
                let dest = has_dest.then(|| self.ring(RegClass::Int).alloc_dest());
                if dest.is_some() {
                    self.note_write(RegClass::Int);
                }
                Instruction::jump(dest, None).with_pc(pc)
            }
        };

        // Advance control flow.
        if is_last {
            // The last slot is the loop-closing branch; a new iteration
            // (or loop) begins.
            self.iter_writes = [0, 0];
            if self.trips_left > 1 {
                self.trips_left -= 1;
                self.slot = 0;
            } else {
                self.cur_loop = self.rng.gen_range(0..self.program.loops.len());
                self.trips_left = sample_geometric(&mut self.rng, self.mean_trip, 1 << 20);
                self.slot = 0;
            }
        } else {
            self.slot += 1;
        }

        inst
    }
}

impl Iterator for TraceGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        Some(self.emit_slot())
    }
}

/// A generator for wrong-path instructions: the stream the fetch engine
/// follows after a mispredicted branch until the branch resolves.
///
/// Wrong-path code in a real machine is simply other code from the same
/// program, so this wraps a [`TraceGenerator`] over the same profile with
/// (a) a different seed, (b) a disjoint PC range (so wrong-path branch
/// sites do not perturb correct-path predictor entries beyond history
/// effects, which the core models explicitly), and (c) the *same* data
/// regions (so wrong-path loads pollute and prefetch the same cache sets,
/// as they do in reality).
///
/// # Examples
///
/// ```
/// use rf_workload::{spec92, WrongPathGenerator};
///
/// let mut wp = WrongPathGenerator::new(&spec92::compress(), 3);
/// let inst = wp.next().unwrap();
/// assert!(inst.pc() >= WrongPathGenerator::PC_BASE);
/// ```
#[derive(Debug, Clone)]
pub struct WrongPathGenerator {
    inner: TraceGenerator,
}

impl WrongPathGenerator {
    /// Base PC of wrong-path code (disjoint from correct-path PCs).
    pub const PC_BASE: u64 = 0x4000_0000;

    /// Creates a wrong-path generator for `profile`.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        Self {
            inner: TraceGenerator::with_pc_base(
                profile,
                seed ^ wrong_path_seed_mix(),
                Self::PC_BASE,
            ),
        }
    }
}

/// Mixing constant for the wrong-path seed.
const fn wrong_path_seed_mix() -> u64 {
    0xfeed_beef_dead_cafe
}

/// The static-program synthesis seed: an FNV-1a hash of the profile
/// name, so each benchmark is a single fixed "binary" across runs.
fn program_seed(profile: &BenchmarkProfile) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in profile.name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Iterator for WrongPathGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec92;
    use std::collections::HashMap;

    #[test]
    fn generator_is_deterministic() {
        let p = spec92::espresso();
        let a: Vec<_> = TraceGenerator::new(&p, 11).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(&p, 11).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn generated_mix_tracks_target() {
        for p in [spec92::compress(), spec92::tomcatv(), spec92::gcc1()] {
            let n = 60_000;
            let mut counts: HashMap<OpKind, usize> = HashMap::new();
            for inst in TraceGenerator::new(&p, 3).take(n) {
                *counts.entry(inst.kind()).or_default() += 1;
            }
            for kind in [OpKind::Load, OpKind::CondBranch, OpKind::Store] {
                let got = *counts.get(&kind).unwrap_or(&0) as f64 / n as f64;
                let want = p.mix.fraction(kind);
                assert!(
                    (got - want).abs() < 0.05,
                    "{}: {kind} fraction {got:.3} vs target {want:.3}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn branch_pcs_are_stable_sites() {
        let p = spec92::compress();
        let mut branch_pcs = std::collections::HashSet::new();
        for inst in TraceGenerator::new(&p, 1).take(100_000) {
            if inst.kind() == OpKind::CondBranch {
                branch_pcs.insert(inst.pc());
            }
        }
        // Static footprint: a bounded number of distinct branch sites.
        assert!(branch_pcs.len() < 2000, "{} sites", branch_pcs.len());
        assert!(branch_pcs.len() > 4);
    }

    #[test]
    fn dependences_refer_to_recent_writers() {
        // Every source register of every instruction must have been
        // written at some point (the ring guarantees well-formedness).
        let p = spec92::doduc();
        for inst in TraceGenerator::new(&p, 2).take(20_000) {
            for s in inst.renameable_srcs() {
                assert!(s.index() < 31);
            }
        }
    }

    #[test]
    fn wrong_path_occupies_disjoint_pcs() {
        let p = spec92::compress();
        let correct_max = TraceGenerator::new(&p, 1)
            .take(10_000)
            .map(|i| i.pc())
            .max()
            .unwrap();
        assert!(correct_max < WrongPathGenerator::PC_BASE);
        for inst in WrongPathGenerator::new(&p, 1).take(1000) {
            assert!(inst.pc() >= WrongPathGenerator::PC_BASE);
        }
    }

    #[test]
    fn loops_iterate_before_switching() {
        // With a long mean trip, consecutive instructions should mostly
        // come from the same loop (PCs within one 0x1000 region).
        let p = spec92::tomcatv();
        let pcs: Vec<u64> = TraceGenerator::new(&p, 4).take(10_000).map(|i| i.pc()).collect();
        let switches = pcs.windows(2).filter(|w| w[0] >> 12 != w[1] >> 12).count();
        assert!(switches < 500, "{switches} region switches in 10k instructions");
    }
}
