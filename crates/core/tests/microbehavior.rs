//! Cycle-exact behavioural tests with hand-built instruction sequences.
//!
//! Pipeline timing contract exercised here (phases per cycle: complete →
//! recover → commit → issue → insert):
//!
//! * an instruction inserted in cycle 1 issues no earlier than cycle 2;
//! * a 1-cycle op issued in cycle `t` completes (and may commit) in `t+1`;
//! * dependents may issue in the cycle their producer completes
//!   (full bypassing);
//! * a load hit completes `hit latency + load-delay slot = 2` cycles
//!   after issue; a miss completes `1 (probe) + 16 (fetch) + 1 (write)`
//!   cycles after issue.

use rf_core::{ExceptionModel, MachineConfig, Pipeline, SimStats};
use rf_isa::{ArchReg, Instruction};
use rf_mem::CacheOrg;

/// Runs a hand-built correct-path sequence to completion. The wrong-path
/// source is an infinite stream of independent ALU ops.
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

fn four_way() -> MachineConfig {
    MachineConfig::new(4).dispatch_queue(32).physical_regs(2048)
}

fn alu(dest: u8, src: u8) -> Instruction {
    Instruction::int_alu(ArchReg::int(dest), [Some(ArchReg::int(src)), None])
}

#[test]
fn single_alu_takes_three_cycles() {
    // Insert at 1, issue at 2, complete+commit at 3.
    let stats = run_seq(four_way(), vec![alu(0, 1)]);
    assert_eq!(stats.cycles, 3);
    assert_eq!(stats.committed, 1);
}

#[test]
fn dependent_chain_is_one_cycle_per_link() {
    // r0 <- r1; r2 <- r0; r3 <- r2; ... each link issues the cycle its
    // producer completes.
    for k in [1usize, 3, 8] {
        let mut seq = vec![alu(0, 1)];
        for i in 1..k {
            seq.push(alu(i as u8, i as u8 - 1));
        }
        let stats = run_seq(four_way(), seq);
        assert_eq!(stats.cycles, k as u64 + 2, "chain of {k}");
    }
}

#[test]
fn independent_ops_fill_the_issue_width() {
    // Four independent ALU ops: all issue in cycle 2 on a 4-way machine.
    let seq: Vec<_> = (0..4).map(|i| alu(i, 20 + i)).collect();
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.cycles, 3);
    // A fifth spills into the next cycle.
    let seq: Vec<_> = (0..5).map(|i| alu(i, 20 + i)).collect();
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.cycles, 4);
}

#[test]
fn integer_multiply_is_pipelined_six_cycles() {
    let mul = |d: u8, s: u8| Instruction::int_mul(ArchReg::int(d), [Some(ArchReg::int(s)), None]);
    // Two independent multiplies issue together: 2 + 6 = complete at 8.
    let stats = run_seq(four_way(), vec![mul(0, 1), mul(2, 3)]);
    assert_eq!(stats.cycles, 8);
}

#[test]
fn fp_divider_is_not_pipelined() {
    let div = |d: u8, s: u8| {
        Instruction::fp_div(ArchReg::fp(d), [Some(ArchReg::fp(s)), None], false)
    };
    // One divider on the 4-way machine: the second divide waits for the
    // first. First: issue 2, complete 10. Second: issue 10, complete 18.
    let stats = run_seq(four_way(), vec![div(0, 1), div(2, 3)]);
    assert_eq!(stats.cycles, 18);
    // 64-bit divides take 16 cycles: issue 2 -> complete 18.
    let wide = Instruction::fp_div(ArchReg::fp(4), [Some(ArchReg::fp(5)), None], true);
    let stats = run_seq(four_way(), vec![wide]);
    assert_eq!(stats.cycles, 18);
}

#[test]
fn load_hit_has_a_load_delay_slot() {
    // Load: insert 1, issue 2, complete 4 (1-cycle hit + delay slot).
    // Dependent ALU: issue 4, complete 5.
    let seq = vec![
        Instruction::load(ArchReg::int(0), ArchReg::int(1), 0x1000),
        alu(2, 0),
    ];
    let stats = run_seq(four_way().cache(CacheOrg::Perfect), seq);
    assert_eq!(stats.cycles, 5);
}

#[test]
fn load_miss_pays_the_fetch_latency() {
    // Cold cache: issue 2, probe 1 + fetch 16 + register write 1 ->
    // complete at 20.
    let seq = vec![Instruction::load(ArchReg::int(0), ArchReg::int(1), 0x1000)];
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.cycles, 20);
    assert_eq!(stats.cache.load_misses_primary, 1);
}

#[test]
fn overlapping_misses_merge_on_a_lockup_free_cache() {
    // Two loads to the same line: both issue in cycle 2 (2 memory ops per
    // cycle), the second merges into the first's fill; both complete at
    // 20.
    let seq = vec![
        Instruction::load(ArchReg::int(0), ArchReg::int(1), 0x1000),
        Instruction::load(ArchReg::int(2), ArchReg::int(3), 0x1008),
    ];
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.cycles, 20);
    assert_eq!(stats.cache.load_misses_secondary, 1);
}

#[test]
fn lockup_cache_serialises_misses() {
    // Different lines on a blocking cache: the second load cannot even
    // probe until the first fill returns (cycle 19), so it issues at 19
    // and completes at 19 + 18 = 37.
    let seq = vec![
        Instruction::load(ArchReg::int(0), ArchReg::int(1), 0x1000),
        Instruction::load(ArchReg::int(2), ArchReg::int(3), 0x2000),
    ];
    let stats = run_seq(four_way().cache(CacheOrg::Lockup), seq);
    assert_eq!(stats.cycles, 37);
}

#[test]
fn loads_wait_for_older_same_address_stores() {
    // store @A (issue 2, resolve 3); load @A may only issue once the
    // store completed: issue 3, complete 5.
    let same = vec![
        Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x40),
        Instruction::load(ArchReg::int(0), ArchReg::int(3), 0x40),
    ];
    let stats = run_seq(four_way().cache(CacheOrg::Perfect), same);
    assert_eq!(stats.cycles, 5);

    // With different addresses both issue in cycle 2 (dynamic memory
    // disambiguation): load completes at 4.
    let diff = vec![
        Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x40),
        Instruction::load(ArchReg::int(0), ArchReg::int(3), 0x80),
    ];
    let stats = run_seq(four_way().cache(CacheOrg::Perfect), diff);
    assert_eq!(stats.cycles, 4);
}

#[test]
fn mispredicted_branch_squashes_wrong_path_and_redirects() {
    // A fresh predictor predicts not-taken; the branch is taken. Fetch
    // diverges immediately after the branch is inserted, so the 5
    // remaining insert slots of cycle 1 and all 6 of cycle 2 fetch
    // wrong-path instructions (11 total). The branch issues at 2 and
    // completes at 3: recovery squashes all 11 and suppresses cycle 3's
    // insertion; the following ALU inserts 4, issues 5, commits 6.
    let seq = vec![
        Instruction::cond_branch(0x100, true, Some(ArchReg::int(1))),
        alu(0, 2),
    ];
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.committed, 2);
    assert_eq!(stats.squashed, 11);
    assert_eq!(stats.cycles, 6);
    assert_eq!(stats.bpred.mispredicted(), 1);
}

#[test]
fn correctly_predicted_branch_costs_nothing() {
    // Not-taken branch predicted not-taken: no squash, no redirect.
    let seq = vec![
        Instruction::cond_branch(0x100, false, Some(ArchReg::int(1))),
        alu(0, 2),
    ];
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.squashed, 0);
    assert_eq!(stats.cycles, 3);
    assert_eq!(stats.bpred.mispredicted(), 0);
}

#[test]
fn register_starvation_stalls_insertion_until_commit_frees() {
    // 32 physical registers: 31 hold architectural state, 1 free. The
    // first ALU takes it; the second stalls until the first commits
    // (cycle 3) and its previous mapping's register becomes reusable
    // (cycle 4): insert 4, issue 5, commit 6.
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(32);
    let stats = run_seq(config, vec![alu(0, 1), alu(2, 3)]);
    assert_eq!(stats.committed, 2);
    assert_eq!(stats.cycles, 6);
    assert!(stats.insert_stall_no_reg > 0);
}

#[test]
fn imprecise_freeing_beats_precise_under_starvation() {
    // Writer chain to the same virtual register: under imprecise
    // exceptions the overwritten mapping frees at *completion* of the
    // next writer; under precise it waits for *commit*. With one long
    // pole (a load miss) at the head of the program, completion runs far
    // ahead of commitment, so the imprecise machine recycles registers
    // earlier and finishes sooner.
    let mut seq = vec![Instruction::load(ArchReg::int(30), ArchReg::int(29), 0x9000)];
    for i in 0..40u8 {
        seq.push(alu(i % 8, 20 + (i % 4)));
    }
    let mk = |model| {
        let config = MachineConfig::new(4)
            .dispatch_queue(32)
            .physical_regs(34)
            .exceptions(model);
        run_seq(config, seq.clone())
    };
    let precise = mk(ExceptionModel::Precise);
    let imprecise = mk(ExceptionModel::Imprecise);
    assert!(
        imprecise.cycles < precise.cycles,
        "imprecise {} should beat precise {}",
        imprecise.cycles,
        precise.cycles
    );
}

#[test]
fn commit_bandwidth_caps_retirement() {
    // 20 independent ALU ops on a 4-way machine, inserted 6/cycle,
    // issued 4/cycle: issue cycles 2..=6 (4+4+4+4+4), completions
    // 3..=7, commits track completions (8/cycle cap never binds here).
    let seq: Vec<_> = (0..20).map(|i| alu(i % 16, 20 + (i % 4))).collect();
    let stats = run_seq(four_way(), seq);
    assert_eq!(stats.cycles, 7);
}

#[test]
fn trace_exhaustion_drains_cleanly() {
    // Asking for more commits than the trace holds: the pipeline drains
    // and returns early with exactly the trace's length committed.
    let mut trace = vec![alu(0, 1), alu(2, 3)].into_iter();
    let mut wp = std::iter::empty();
    let stats = Pipeline::new(four_way())
        .run(&mut trace, &mut wp, 100)
        .expect("no cancel token")
        .0;
    assert_eq!(stats.committed, 2);
}
