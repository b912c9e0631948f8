//! Dynamic instructions as produced by a workload trace.

use crate::op::OpKind;
use crate::reg::{ArchReg, RegClass};
use std::fmt;

/// A memory access performed by a load or store.
///
/// The simulator is timing-only: data values are never modelled, but exact
/// byte addresses are, because they drive both the data cache (hit/miss,
/// line merging in the MSHRs) and dynamic memory disambiguation in the
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    addr: u64,
}

impl MemAccess {
    /// Creates a memory access to the given byte address.
    #[inline]
    pub fn new(addr: u64) -> Self {
        Self { addr }
    }

    /// The byte address accessed.
    #[inline]
    pub fn addr(self) -> u64 {
        self.addr
    }
}

/// A dynamic instruction: one element of the instruction trace fed to the
/// processor model.
///
/// Instructions carry everything the timing model needs and nothing else:
/// the operation kind, the architectural destination and source registers,
/// the memory address (for loads/stores), the word-aligned program counter
/// (for branch-predictor indexing) and the *actual* branch outcome (for
/// conditional branches), which the trace knows but the simulated predictor
/// must guess.
///
/// # Examples
///
/// ```
/// use rf_isa::{ArchReg, Instruction, MemAccess, OpKind};
///
/// let load = Instruction::load(ArchReg::int(1), ArchReg::int(2), 0x1000);
/// assert_eq!(load.kind(), OpKind::Load);
/// assert_eq!(load.mem().unwrap().addr(), 0x1000);
///
/// let br = Instruction::cond_branch(0x40, true, Some(ArchReg::int(1)));
/// assert!(br.taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    kind: OpKind,
    dest: Option<ArchReg>,
    srcs: [Option<ArchReg>; 2],
    mem: Option<MemAccess>,
    pc: u64,
    taken: bool,
}

impl Instruction {
    fn new(
        kind: OpKind,
        dest: Option<ArchReg>,
        srcs: [Option<ArchReg>; 2],
        mem: Option<MemAccess>,
    ) -> Self {
        // Writes to the zero register are architectural no-ops and must not
        // allocate a physical register: normalise them away here so the
        // renamer never sees them.
        let dest = dest.filter(|d| !d.is_zero());
        Self { kind, dest, srcs, mem, pc: 0, taken: false }
    }

    /// A single-cycle integer ALU operation.
    pub fn int_alu(dest: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert_eq!(dest.class(), RegClass::Int);
        Self::new(OpKind::IntAlu, Some(dest), srcs, None)
    }

    /// A pipelined 6-cycle integer multiply.
    pub fn int_mul(dest: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert_eq!(dest.class(), RegClass::Int);
        Self::new(OpKind::IntMul, Some(dest), srcs, None)
    }

    /// A pipelined 3-cycle floating-point operation.
    pub fn fp_op(dest: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert_eq!(dest.class(), RegClass::Fp);
        Self::new(OpKind::FpOp, Some(dest), srcs, None)
    }

    /// A non-pipelined floating-point divide; `wide` selects the 64-bit
    /// (16-cycle) variant over the 32-bit (8-cycle) one.
    pub fn fp_div(dest: ArchReg, srcs: [Option<ArchReg>; 2], wide: bool) -> Self {
        debug_assert_eq!(dest.class(), RegClass::Fp);
        let kind = if wide { OpKind::FpDiv64 } else { OpKind::FpDiv32 };
        Self::new(kind, Some(dest), srcs, None)
    }

    /// A load of `addr` into `dest`, with `base` as the address-forming
    /// source register. `dest` may be integer or floating-point.
    pub fn load(dest: ArchReg, base: ArchReg, addr: u64) -> Self {
        debug_assert_eq!(base.class(), RegClass::Int);
        Self::new(OpKind::Load, Some(dest), [Some(base), None], Some(MemAccess::new(addr)))
    }

    /// A store of `value` to `addr`, with `base` as the address-forming
    /// source register. Stores have no destination register.
    pub fn store(value: ArchReg, base: ArchReg, addr: u64) -> Self {
        debug_assert_eq!(base.class(), RegClass::Int);
        Self::new(OpKind::Store, None, [Some(base), Some(value)], Some(MemAccess::new(addr)))
    }

    /// A conditional branch at word-aligned `pc` whose *actual* direction is
    /// `taken`, testing the optional condition source register.
    pub fn cond_branch(pc: u64, taken: bool, cond: Option<ArchReg>) -> Self {
        let mut inst = Self::new(OpKind::CondBranch, None, [cond, None], None);
        inst.pc = pc;
        inst.taken = taken;
        inst
    }

    /// An unconditional control transfer (jump, call, or return), assumed
    /// 100% predictable by the paper's model. A call writes the return
    /// address to `dest`.
    pub fn jump(dest: Option<ArchReg>, src: Option<ArchReg>) -> Self {
        Self::new(OpKind::Jump, dest, [src, None], None)
    }

    /// Sets the program counter (used by the branch predictor's indexing).
    pub fn with_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// The operation kind.
    #[inline]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The architectural destination register, if any. Never the zero
    /// register (zero-register writes are normalised to `None`).
    #[inline]
    pub fn dest(&self) -> Option<ArchReg> {
        self.dest
    }

    /// The architectural source registers. Zero-register sources are kept
    /// (they read a constant and need no renaming; the renamer skips them).
    #[inline]
    pub fn srcs(&self) -> [Option<ArchReg>; 2] {
        self.srcs
    }

    /// Iterates over the *renameable* source registers (skipping `None` and
    /// zero registers).
    pub fn renameable_srcs(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied().filter(|r| !r.is_zero())
    }

    /// The memory access, for loads and stores.
    #[inline]
    pub fn mem(&self) -> Option<MemAccess> {
        self.mem
    }

    /// The word-aligned program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The actual direction of a conditional branch (meaningless for other
    /// kinds; always `false` there).
    #[inline]
    pub fn taken(&self) -> bool {
        self.taken
    }

    /// Packs the kind, the registers, the branch outcome and whether the
    /// instruction accesses memory into 32 bits. The PC and the memory
    /// address stay outside the word: [`PackedInst::unpack`] takes them
    /// back and restores the instruction exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use rf_isa::{ArchReg, Instruction};
    ///
    /// let ld = Instruction::load(ArchReg::fp(3), ArchReg::int(30), 0x2000).with_pc(0x1_0040);
    /// let word = ld.pack();
    /// assert!(word.has_mem());
    /// assert_eq!(word.unpack(0x1_0040, 0x2000), ld);
    /// ```
    pub fn pack(&self) -> PackedInst {
        PackedInst(
            self.kind as u32
                | u32::from(self.taken) << TAKEN_BIT
                | u32::from(self.mem.is_some()) << MEM_BIT
                | pack_reg(self.dest) << DEST_SHIFT
                | pack_reg(self.srcs[0]) << SRC0_SHIFT
                | pack_reg(self.srcs[1]) << SRC1_SHIFT,
        )
    }
}

// `PackedInst` layout, least significant bit first: kind (4 bits), taken,
// has-memory-address, then three 7-bit register fields (present, class,
// 5-bit index) for the destination and the two sources.
const TAKEN_BIT: u32 = 4;
const MEM_BIT: u32 = 5;
const DEST_SHIFT: u32 = 6;
const SRC0_SHIFT: u32 = 13;
const SRC1_SHIFT: u32 = 20;
const SPARE_SHIFT: u32 = 27;
const REG_PRESENT: u32 = 0x40;
const REG_FP: u32 = 0x20;

fn pack_reg(reg: Option<ArchReg>) -> u32 {
    reg.map_or(0, |r| {
        REG_PRESENT | if r.class() == RegClass::Fp { REG_FP } else { 0 } | u32::from(r.index())
    })
}

/// Every 7-bit register field, decoded: a table lookup instead of the
/// data-dependent branches a replayed trace would mispredict.
static REGS: [Option<ArchReg>; 128] = {
    let mut table = [None; 128];
    let mut bits = 0;
    while bits < 128 {
        if bits as u32 & REG_PRESENT != 0 {
            let class = if bits as u32 & REG_FP != 0 { RegClass::Fp } else { RegClass::Int };
            table[bits] = Some(ArchReg::from_parts(class, (bits & 0x1f) as u8));
        }
        bits += 1;
    }
    table
};

#[inline]
fn unpack_reg(word: u32, shift: u32) -> Option<ArchReg> {
    REGS[(word >> shift & 0x7f) as usize]
}

/// An [`Instruction`] without its PC and memory address, packed into 32
/// bits by [`Instruction::pack`]. A packed trace keeps the PCs and the
/// addresses of loads and stores beside its words, so an instruction
/// costs about 7 bytes instead of `Instruction`'s 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedInst(u32);

impl PackedInst {
    /// Validates a word read from outside the program, such as a trace
    /// file. Accepts exactly the words [`Instruction::pack`] produces: a
    /// known kind, zero spare bits, a taken bit only on a conditional
    /// branch, a memory bit iff the kind is a load or store, absent
    /// register fields all zero, never the zero register as destination,
    /// and the registers each kind's constructor requires.
    ///
    /// # Examples
    ///
    /// ```
    /// use rf_isa::{ArchReg, Instruction, PackedInst};
    ///
    /// let st = Instruction::store(ArchReg::fp(2), ArchReg::int(7), 0x40);
    /// assert_eq!(PackedInst::from_bits(st.pack().bits()), Some(st.pack()));
    /// assert_eq!(PackedInst::from_bits(u32::MAX), None);
    /// ```
    pub fn from_bits(bits: u32) -> Option<PackedInst> {
        let kind = *OpKind::ALL.get((bits & 0xf) as usize)?;
        let field = |shift: u32| bits >> shift & 0x7f;
        let [dest, src0, src1] =
            [DEST_SHIFT, SRC0_SHIFT, SRC1_SHIFT].map(|shift| unpack_reg(bits, shift));
        let is_int = |reg: Option<ArchReg>| reg.is_some_and(|r| r.class() == RegClass::Int);
        let registers = match kind {
            OpKind::IntAlu | OpKind::IntMul | OpKind::FpOp | OpKind::FpDiv32 | OpKind::FpDiv64 => {
                dest.is_none_or(|d| d.class() == kind.default_reg_class())
            }
            OpKind::Load => is_int(src0) && src1.is_none(),
            OpKind::Store => dest.is_none() && is_int(src0) && src1.is_some(),
            OpKind::CondBranch => dest.is_none() && src1.is_none(),
            OpKind::Jump => src1.is_none(),
        };
        let valid = bits >> SPARE_SHIFT == 0
            && registers
            && (bits >> TAKEN_BIT & 1 == 0 || kind == OpKind::CondBranch)
            && (bits >> MEM_BIT & 1 != 0) == kind.is_mem()
            && dest.is_none_or(|d| !d.is_zero())
            && [DEST_SHIFT, SRC0_SHIFT, SRC1_SHIFT]
                .into_iter()
                .all(|shift| field(shift) & REG_PRESENT != 0 || field(shift) == 0);
        valid.then_some(PackedInst(bits))
    }

    /// The raw 32-bit word, as a trace file stores it.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether the packed instruction accesses memory, and so needs its
    /// address back to unpack.
    #[inline]
    pub fn has_mem(self) -> bool {
        self.0 >> MEM_BIT & 1 != 0
    }

    /// Restores the instruction at `pc`; `addr` is its memory address,
    /// ignored when [`PackedInst::has_mem`] is false.
    #[inline]
    pub fn unpack(self, pc: u64, addr: u64) -> Instruction {
        let w = self.0;
        Instruction {
            kind: OpKind::ALL[(w & 0xf) as usize],
            dest: unpack_reg(w, DEST_SHIFT),
            srcs: [unpack_reg(w, SRC0_SHIFT), unpack_reg(w, SRC1_SHIFT)],
            mem: self.has_mem().then_some(MemAccess { addr }),
            pc,
            taken: w >> TAKEN_BIT & 1 != 0,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(d) = self.dest {
            write!(f, " {d} <-")?;
        }
        for s in self.srcs.iter().flatten() {
            write!(f, " {s}")?;
        }
        if let Some(m) = self.mem {
            write!(f, " @{:#x}", m.addr())?;
        }
        if self.kind == OpKind::CondBranch {
            write!(f, " ({})", if self.taken { "taken" } else { "not-taken" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_destinations_are_dropped() {
        let inst = Instruction::int_alu(ArchReg::int(31), [Some(ArchReg::int(1)), None]);
        assert_eq!(inst.dest(), None);
    }

    #[test]
    fn renameable_srcs_skip_zero_and_none() {
        let inst = Instruction::int_alu(
            ArchReg::int(1),
            [Some(ArchReg::int(31)), Some(ArchReg::int(4))],
        );
        let srcs: Vec<_> = inst.renameable_srcs().collect();
        assert_eq!(srcs, vec![ArchReg::int(4)]);
    }

    #[test]
    fn store_has_no_destination() {
        let st = Instruction::store(ArchReg::int(3), ArchReg::int(4), 0x100);
        assert_eq!(st.dest(), None);
        assert_eq!(st.mem().unwrap().addr(), 0x100);
        assert_eq!(st.kind(), OpKind::Store);
    }

    #[test]
    fn branch_carries_pc_and_outcome() {
        let br = Instruction::cond_branch(0x400, true, Some(ArchReg::int(9)));
        assert_eq!(br.pc(), 0x400);
        assert!(br.taken());
        assert_eq!(br.kind(), OpKind::CondBranch);
    }

    #[test]
    fn fp_div_width_selects_kind() {
        let d = ArchReg::fp(2);
        assert_eq!(Instruction::fp_div(d, [None, None], false).kind(), OpKind::FpDiv32);
        assert_eq!(Instruction::fp_div(d, [None, None], true).kind(), OpKind::FpDiv64);
    }

    #[test]
    fn fp_load_targets_fp_register() {
        let ld = Instruction::load(ArchReg::fp(5), ArchReg::int(30), 0x2000);
        assert_eq!(ld.dest().unwrap().class(), RegClass::Fp);
        // Address-forming source is an integer register.
        assert_eq!(ld.srcs()[0].unwrap().class(), RegClass::Int);
    }

    #[test]
    fn kind_discriminants_index_all() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn pack_roundtrips_every_shape() {
        let (zi, zf) = (ArchReg::int(31), ArchReg::fp(31));
        let insts = [
            Instruction::int_alu(zi, [Some(zi), Some(ArchReg::int(30))]),
            Instruction::int_mul(ArchReg::int(0), [Some(ArchReg::int(7)), None]),
            Instruction::fp_op(zf, [Some(zf), Some(ArchReg::fp(0))]),
            Instruction::fp_div(ArchReg::fp(30), [None, Some(ArchReg::fp(2))], true),
            Instruction::fp_div(ArchReg::fp(1), [None, None], false),
            Instruction::load(ArchReg::fp(5), ArchReg::int(30), u64::MAX),
            Instruction::load(zi, zi, 0),
            Instruction::store(zf, ArchReg::int(4), 0x10_0000_0008),
            Instruction::cond_branch(0x4000_0ffc, true, Some(zi)),
            Instruction::cond_branch(0, false, None),
            Instruction::jump(Some(ArchReg::int(26)), None).with_pc(u64::MAX),
        ];
        for inst in insts {
            let word = inst.pack();
            assert_eq!(PackedInst::from_bits(word.bits()), Some(word), "{inst}");
            assert_eq!(word.has_mem(), inst.mem().is_some(), "{inst}");
            let addr = inst.mem().map_or(0, MemAccess::addr);
            assert_eq!(word.unpack(inst.pc(), addr), inst, "{inst}");
        }
    }

    #[test]
    fn display_is_nonempty_for_all_kinds() {
        let insts = [
            Instruction::int_alu(ArchReg::int(1), [None, None]),
            Instruction::load(ArchReg::int(1), ArchReg::int(2), 8),
            Instruction::store(ArchReg::int(1), ArchReg::int(2), 8),
            Instruction::cond_branch(4, false, None),
            Instruction::jump(None, None),
        ];
        for inst in insts {
            assert!(!inst.to_string().is_empty());
        }
    }
}
