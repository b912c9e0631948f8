//! Property tests for the ISA layer: arbitrary well-formed instructions
//! survive a Display/parse round trip and a pack/validate round trip,
//! and structural invariants hold.

use proptest::prelude::*;
use rf_isa::{ArchReg, Instruction, OpKind, PackedInst, RegClass};

fn arb_reg(class: RegClass) -> impl Strategy<Value = ArchReg> {
    (0u8..31).prop_map(move |i| ArchReg::new(class, i))
}

fn arb_inst() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (arb_reg(RegClass::Int), arb_reg(RegClass::Int), prop::option::of(arb_reg(RegClass::Int)))
            .prop_map(|(d, s1, s2)| Instruction::int_alu(d, [Some(s1), s2])),
        (arb_reg(RegClass::Int), arb_reg(RegClass::Int))
            .prop_map(|(d, s)| Instruction::int_mul(d, [Some(s), None])),
        (arb_reg(RegClass::Fp), arb_reg(RegClass::Fp), prop::option::of(arb_reg(RegClass::Fp)))
            .prop_map(|(d, s1, s2)| Instruction::fp_op(d, [Some(s1), s2])),
        (arb_reg(RegClass::Fp), arb_reg(RegClass::Fp), any::<bool>())
            .prop_map(|(d, s, wide)| Instruction::fp_div(d, [Some(s), None], wide)),
        (arb_reg(RegClass::Int), arb_reg(RegClass::Int), 0u64..1 << 40)
            .prop_map(|(d, b, a)| Instruction::load(d, b, a)),
        (arb_reg(RegClass::Fp), arb_reg(RegClass::Int), 0u64..1 << 40)
            .prop_map(|(d, b, a)| Instruction::load(d, b, a)),
        (arb_reg(RegClass::Int), arb_reg(RegClass::Int), 0u64..1 << 40)
            .prop_map(|(v, b, a)| Instruction::store(v, b, a)),
        (0u64..1 << 30, any::<bool>(), prop::option::of(arb_reg(RegClass::Int)))
            .prop_map(|(pc, taken, c)| Instruction::cond_branch(pc * 4, taken, c)),
        (prop::option::of(arb_reg(RegClass::Int)), prop::option::of(arb_reg(RegClass::Int)))
            .prop_map(|(d, s)| Instruction::jump(d, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parse_roundtrip(inst in arb_inst()) {
        let text = if inst.kind() == OpKind::CondBranch {
            format!("{:#x}: {inst}", inst.pc())
        } else {
            inst.to_string()
        };
        let parsed: Instruction = text.parse().expect("display form parses");
        prop_assert_eq!(parsed.with_pc(inst.pc()), inst, "{}", text);
    }

    #[test]
    fn renameable_srcs_never_include_zero(inst in arb_inst()) {
        for s in inst.renameable_srcs() {
            prop_assert!(!s.is_zero());
        }
    }

    #[test]
    fn memory_ops_carry_addresses(inst in arb_inst()) {
        prop_assert_eq!(inst.kind().is_mem(), inst.mem().is_some());
    }

    #[test]
    fn packed_words_validate(inst in arb_inst()) {
        let word = inst.pack();
        prop_assert_eq!(PackedInst::from_bits(word.bits()), Some(word));
    }

    #[test]
    fn latency_is_positive_and_matches_class(inst in arb_inst()) {
        prop_assert!(inst.kind().latency() >= 1);
        if !inst.kind().is_pipelined() {
            prop_assert!(matches!(inst.kind(), OpKind::FpDiv32 | OpKind::FpDiv64));
        }
    }
}

/// A trace file is outside input: any 32-bit word is either rejected or
/// one that `Instruction::pack` reproduces exactly, and none panics.
#[test]
fn random_words_are_rejected_or_round_trip() {
    // SplitMix64: a fixed seed, so a failure reproduces.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u32
    };
    let mut accepted = [0; 2];
    for _ in 0..1_000_000 {
        let raw = next();
        // The raw word, then the same word with its spare bits cleared,
        // which reaches far more of the field combinations.
        for (pass, bits) in [raw, raw & 0x07ff_ffff].into_iter().enumerate() {
            if let Some(word) = PackedInst::from_bits(bits) {
                assert_eq!(word.bits(), bits);
                assert_eq!(word.unpack(0x40, 0x80).pack(), word, "{bits:#010x}");
                accepted[pass] += 1;
            }
        }
    }
    assert!(accepted[0] > 50 && accepted[1] > 2_000, "{accepted:?}");
}
