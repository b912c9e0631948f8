//! Deep-dive tests of misprediction recovery: rename-map rollback,
//! register reclamation, fill cancellation, and repeated recoveries.

use rf_core::{LiveModel, MachineConfig, Pipeline, SimStats};
use rf_isa::{ArchReg, Instruction};
use rf_isa::RegClass;
use rf_mem::CacheOrg;

fn run_seq(config: MachineConfig, insts: Vec<Instruction>) -> SimStats {
    let n = insts.len() as u64;
    let mut trace = insts.into_iter();
    let mut wrong_path = std::iter::repeat(Instruction::int_alu(
        ArchReg::int(7),
        [Some(ArchReg::int(8)), None],
    ));
    Pipeline::new(config)
        .run(&mut trace, &mut wrong_path, n)
        .expect("no cancel token")
        .0
}

fn alu(dest: u8, src: u8) -> Instruction {
    Instruction::int_alu(ArchReg::int(dest), [Some(ArchReg::int(src)), None])
}

/// A branch the fresh predictor will mispredict (predicts not-taken).
fn mispredicted_branch(pc: u64) -> Instruction {
    Instruction::cond_branch(pc, true, Some(ArchReg::int(1)))
}

#[test]
fn registers_freed_by_squash_are_reusable() {
    // A tiny register file: wrong-path instructions consume every free
    // register; after recovery the correct path must still complete,
    // proving the squash returned them.
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(36);
    let mut seq = vec![mispredicted_branch(0x40)];
    for i in 0..20 {
        seq.push(alu(i % 8, 20));
    }
    let stats = run_seq(config, seq);
    assert_eq!(stats.committed, 21);
    assert!(stats.squashed > 0, "wrong path must have been fetched");
}

#[test]
fn repeated_mispredictions_recover_every_time() {
    // Alternate mispredicted branches with work; each recovery must
    // restore a consistent machine.
    let config = MachineConfig::new(4).dispatch_queue(16).physical_regs(40);
    let mut seq = Vec::new();
    for b in 0..10u64 {
        seq.push(mispredicted_branch(0x100 + 8 * b));
        seq.push(alu((b % 8) as u8, 20));
    }
    let stats = run_seq(config, seq);
    assert_eq!(stats.committed, 20);
    // Early branches mispredict (fresh counters predict not-taken; the
    // trained counters flip later ones to correct).
    assert!(stats.bpred.mispredicted() >= 1);
    // Liveness accounting survived every rollback.
    let hist = stats.live_histogram(RegClass::Int, LiveModel::Precise);
    assert_eq!(hist.iter().sum::<u64>(), stats.cycles);
    assert!(hist.iter().take(31).all(|&c| c == 0));
}

#[test]
fn squashed_wrong_path_loads_cancel_their_fills() {
    // The wrong path is made of loads whose fills are all cancelled by
    // the squash: with no live requesters left, the returning blocks
    // must be discarded, not installed.
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(2048);
    let wrong_line = 0x7000u64;
    let mut wp_loads =
        (0..).map(move |i| Instruction::load(ArchReg::int(2), ArchReg::int(3), wrong_line + (i % 4) * 8));
    // The correct path touches a *different* line, so the wrong-path fill
    // has no live requesters left after the squash and must be discarded.
    let seq = vec![
        mispredicted_branch(0x80),
        Instruction::load(ArchReg::int(4), ArchReg::int(5), 0x100),
    ];
    let n = seq.len() as u64;
    let mut trace = seq.into_iter();
    let stats = Pipeline::new(config)
        .run(&mut trace, &mut wp_loads, n)
        .expect("no cancel token")
        .0;
    assert_eq!(stats.committed, 2);
    assert!(
        stats.cache.fills_cancelled > 0,
        "squashed loads should cancel fills: {:?}",
        stats.cache
    );
    // Only the correct-path load's fill installs.
    assert_eq!(stats.cache.fills_installed, 1);
}

#[test]
fn rename_map_rollback_preserves_dataflow_timing() {
    // After recovery, an instruction reading a register written *before*
    // the branch must see the pre-branch mapping: the dependent chain's
    // timing must match the same chain with no branch at all.
    let with_branch = vec![
        alu(0, 20),              // writes r0
        mispredicted_branch(0x90),
        alu(2, 0),               // reads r0 (post-recovery)
    ];
    let without_branch = vec![alu(0, 20), alu(2, 0)];
    let mk = || MachineConfig::new(4).dispatch_queue(32).physical_regs(64);
    let a = run_seq(mk(), with_branch);
    let b = run_seq(mk(), without_branch);
    // Without the branch: alu1 commits cycle 3, alu2 (dependent) cycle 4.
    // With it: the branch (inserted alongside alu1) completes at cycle 3,
    // recovery redirects fetch to cycle 4, so alu2 inserts at 4, issues
    // at 5 (its operand r0 has long been ready — the rollback restored
    // the pre-branch mapping), commits at 6: exactly 2 cycles of
    // misprediction penalty. If rollback corrupted the mapping this
    // would deadlock or diverge.
    assert_eq!(a.committed, 3);
    assert_eq!(a.cycles, b.cycles + 2, "a {} vs b {}", a.cycles, b.cycles);
}

#[test]
fn lockup_cache_survives_recovery_while_locked() {
    // A wrong-path load locks the blocking cache; recovery happens while
    // the fill is outstanding. The machine must neither deadlock nor
    // issue into the locked cache.
    let config = MachineConfig::new(4)
        .dispatch_queue(32)
        .physical_regs(64)
        .cache(CacheOrg::Lockup);
    let wrong_line = 0x9000u64;
    let mut wp_loads =
        (0..).map(move |i| Instruction::load(ArchReg::int(2), ArchReg::int(3), wrong_line + i * 64));
    let seq = vec![
        mispredicted_branch(0xA0),
        Instruction::load(ArchReg::int(4), ArchReg::int(5), 0x100),
        alu(0, 4),
    ];
    let n = seq.len() as u64;
    let mut trace = seq.into_iter();
    let stats = Pipeline::new(config)
        .run(&mut trace, &mut wp_loads, n)
        .expect("no cancel token")
        .0;
    assert_eq!(stats.committed, 3);
}
