//! Property test: the incremental [`KillEngine`] agrees with a
//! brute-force implementation of the paper's imprecise kill condition.
//!
//! The condition for a retired mapping `(phys, killer_seq)` of virtual
//! register `v`: it is killed once *some* completed writer `W` of `v`
//! with `W.seq >= killer_seq` exists such that every exception barrier
//! preceding `W` (i.e. with a smaller sequence number) has completed.
//! Barriers are branches, plus memory operations under the hybrid model;
//! they complete out of program order, and a mispredicted branch squashes
//! everything younger than itself.

use proptest::prelude::*;
use rf_core::{KillEngine, Killed, WriterChain};
use rf_isa::RegClass;
use std::collections::{BTreeMap, BTreeSet};

/// The writer chains, as the pipeline's active list keeps them: each
/// renamed writer's retired physical register and chain link.
#[derive(Default)]
struct Chains(BTreeMap<u64, (u32, u32)>);

impl WriterChain for Chains {
    fn retired_by(&self, seq: u64) -> (u32, u32) {
        self.0[&seq]
    }
}

/// A randomly generated event stream.
#[derive(Debug, Clone)]
enum Event {
    /// Insert a branch with the next sequence number.
    BranchInsert,
    /// Complete the oldest outstanding branch.
    BranchCompleteOldest,
    /// Insert a non-branch exception barrier (a hybrid-model memory
    /// operation) with the next sequence number.
    BarrierInsert,
    /// Complete the outstanding barrier (branch or not) picked by this
    /// index modulo their number: barriers complete out of program order.
    BarrierCompleteAny(usize),
    /// Retire a mapping of vreg (picked mod 4) with the next seq as the
    /// killer, then later complete that killer.
    RetireAndCompleteWriter(u8),
    /// Mispredict the outstanding branch picked by this index modulo
    /// their number: roll back every younger retirement youngest-first,
    /// squash the engine to the branch, then complete the branch, as the
    /// pipeline's recovery does. Sequence numbers above it are reused.
    Squash(usize),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::BranchInsert),
        Just(Event::BranchCompleteOldest),
        Just(Event::BarrierInsert),
        (0usize..8).prop_map(Event::BarrierCompleteAny),
        (0u8..4).prop_map(Event::RetireAndCompleteWriter),
        (0usize..8).prop_map(Event::Squash),
    ]
}

/// Brute-force evaluator over the full event history.
#[derive(Default)]
struct Reference {
    branches: Vec<(u64, bool, bool)>,      // (seq, completed, is_branch)
    retired: Vec<(u8, u32, u64, bool)>,    // (vreg, phys, killer_seq, writer_done)
}

impl Reference {
    fn killed_set(&self) -> BTreeSet<u32> {
        let mut killed = BTreeSet::new();
        for &(vreg, phys, killer_seq, _) in &self.retired {
            // Any completed writer of vreg with seq >= killer_seq and all
            // preceding barriers complete?
            let cleared = self.retired.iter().any(|&(v2, _, k2, done2)| {
                v2 == vreg
                    && done2
                    && k2 >= killer_seq
                    && self
                        .branches
                        .iter()
                        .all(|&(bseq, bdone, _)| bdone || bseq > k2)
            });
            if cleared {
                killed.insert(phys);
            }
        }
        killed
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn kill_engine_matches_brute_force(events in prop::collection::vec(event_strategy(), 1..60)) {
        let mut eng = KillEngine::new();
        let mut chains = Chains::default();
        let mut killed: Vec<Killed> = Vec::new();
        let mut reference = Reference::default();
        let mut seq = 0u64;
        let mut phys = 100u32;
        let mut engine_killed: BTreeSet<u32> = BTreeSet::new();

        for ev in events {
            match ev {
                Event::BranchInsert | Event::BarrierInsert => {
                    let is_branch = matches!(ev, Event::BranchInsert);
                    if is_branch {
                        eng.branch_inserted(seq);
                    } else {
                        eng.barrier_inserted(seq);
                    }
                    reference.branches.push((seq, false, is_branch));
                    seq += 1;
                }
                Event::BranchCompleteOldest => {
                    if let Some(entry) = reference
                        .branches
                        .iter_mut()
                        .find(|&&mut (_, done, is_branch)| !done && is_branch)
                    {
                        entry.1 = true;
                        eng.barrier_completed_into(entry.0, &chains, &mut killed);
                    }
                }
                Event::BarrierCompleteAny(pick) => {
                    let mut open: Vec<_> =
                        reference.branches.iter_mut().filter(|b| !b.1).collect();
                    if !open.is_empty() {
                        let n = open.len();
                        let entry = &mut open[pick % n];
                        entry.1 = true;
                        eng.barrier_completed_into(entry.0, &chains, &mut killed);
                    }
                }
                Event::RetireAndCompleteWriter(vreg) => {
                    let killer = seq;
                    seq += 1;
                    phys += 1;
                    let link = eng.writer_renamed(RegClass::Int, vreg, killer);
                    chains.0.insert(killer, (phys, link));
                    reference.retired.push((vreg, phys, killer, false));
                    // The writer completes immediately after retiring.
                    eng.writer_completed_into(RegClass::Int, vreg, killer, &chains, &mut killed);
                    let last = reference.retired.len() - 1;
                    reference.retired[last].3 = true;
                }
                Event::Squash(pick) => {
                    let open: Vec<u64> = reference
                        .branches
                        .iter()
                        .filter(|&&(_, done, is_branch)| !done && is_branch)
                        .map(|&(bseq, _, _)| bseq)
                        .collect();
                    if !open.is_empty() {
                        let boundary = open[pick % open.len()];
                        while let Some(&(vreg, _, killer, _)) = reference.retired.last() {
                            if killer <= boundary {
                                break;
                            }
                            let (_, link) = chains.0.remove(&killer).expect("renamed");
                            eng.writer_squashed(RegClass::Int, vreg, killer, link);
                            reference.retired.pop();
                        }
                        reference.branches.retain(|&(bseq, _, _)| bseq <= boundary);
                        eng.squash_younger_than_into(boundary, &chains, &mut killed);
                        eng.barrier_completed_into(boundary, &chains, &mut killed);
                        let entry = reference
                            .branches
                            .iter_mut()
                            .find(|b| b.0 == boundary)
                            .expect("the boundary survives its own squash");
                        entry.1 = true;
                        seq = boundary + 1;
                    }
                }
            }
            engine_killed.extend(killed.drain(..).map(|(_, p)| p));
            prop_assert_eq!(
                &engine_killed,
                &reference.killed_set(),
                "divergence after event stream prefix"
            );
        }
    }
}
