//! The issue select: one pass over the per-class ready sets.
//!
//! The active list keeps one ready bitset per [`IssueClass`]: the
//! in-queue entries that are data-ready and hazard-free, the only ones
//! that can issue. [`select`] walks the union of the sets in policy
//! order — ascending ring positions for oldest-first, descending for
//! youngest-first — and takes each entry while the width, its class's
//! budget and (for divides) a free divider last. A class leaves the walk
//! once it can take nothing more: the class budget is spent, the dividers
//! are busy, or (memory) a lockup cache is servicing a miss.
//!
//! The walk also decides the three [`IssueBlocks`] flags the idle-skip
//! kernel reads. They must equal what the former two-pass select (gather
//! every candidate, then apply the budgets) computed, because a spurious
//! or missing flag changes which cycles the kernel skips:
//!
//! * `cache`: a locked cache turned away a data-ready memory operation.
//!   The old scan tested the cache before the address hazards, so a
//!   hazard-blocked operation counts too: the flag is "cache locked and
//!   any data-ready in-queue load or store", a count the list keeps.
//! * `budget`: a candidate found the width or its class budget spent. A
//!   spent class stays in the walk until its next bit is seen (that bit
//!   sets the flag); once the width is spent, any candidate left in the
//!   window sets it.
//! * `div`: a divide found every divider busy before the width ran out.
//!   Like a spent class, the divide class stays in the walk until its
//!   next bit is seen.

use crate::active::{ReadySets, CLASSES};
use rf_isa::IssueClass;

/// Why the issue phase could not issue a ready candidate this cycle.
/// Recorded unconditionally (three flag writes) so the skip decision can
/// tell which wake-up sources matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IssueBlocks {
    /// A ready candidate was passed over by the width or per-class
    /// budget. Budgets reset every cycle, so the candidate could issue
    /// next cycle: never skip.
    pub budget: bool,
    /// A ready FP divide found every divider busy; wake when one frees.
    pub div: bool,
    /// A ready memory operation found the (lockup) cache busy; wake at
    /// `locked_until`.
    pub cache: bool,
}

/// The issue resources of one cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budgets {
    /// Total instructions that may still issue.
    pub width: usize,
    /// Per [`IssueClass`] index: instructions of the class that may
    /// still issue.
    pub class: [usize; CLASSES],
    /// Dividers free this cycle.
    pub divs_free: usize,
    /// Whether the cache accepts an access this cycle.
    pub cache_free: bool,
}

const DIV: usize = IssueClass::FpDivide.index();
const MEM: usize = IssueClass::Memory.index();
// Class masks are `u8`s.
const _: () = assert!(CLASSES <= 8);

/// The union of the words of the classes in `mask` (branch-free).
#[inline]
fn union(words: &[u64; CLASSES], mask: u8) -> u64 {
    let mut bits = 0;
    for (class, &word) in words.iter().enumerate() {
        bits |= word & 0u64.wrapping_sub(u64::from(mask >> class & 1));
    }
    bits
}

/// The class whose word holds `bit` (exactly one does: the classes'
/// sets are disjoint).
#[inline]
fn class_of(words: &[u64; CLASSES], bit: u32) -> usize {
    let mut class = 0;
    for (c, &word) in words.iter().enumerate().skip(1) {
        class += c * (word >> bit & 1) as usize;
    }
    debug_assert_eq!(words[class] >> bit & 1, 1, "bit {bit} is in some class");
    class
}

impl ReadySets<'_> {
    /// The window bits of the ring word holding sequence numbers
    /// `base..base + 64` (`base` a multiple of 64): a word can also hold
    /// positions of the other end of a wrapped window.
    #[inline]
    fn window(&self, base: u64) -> u64 {
        let below = if self.head > base { !0u64 << (self.head - base) } else { !0 };
        let above = if self.end - base < 64 { (1u64 << (self.end - base)) - 1 } else { !0 };
        below & above
    }

    /// The ready-set words of the ring word holding `base..base + 64`.
    #[inline]
    fn word(&self, base: u64) -> &[u64; CLASSES] {
        &self.words[((base & self.mask) / 64) as usize]
    }
}

/// Selects this cycle's issue group from the ready sets in one pass,
/// appending the chosen sequence numbers to `out` in selection order.
/// Returns the cycle's [`IssueBlocks`].
pub(crate) fn select(
    sets: &ReadySets<'_>,
    youngest_first: bool,
    mut b: Budgets,
    out: &mut Vec<u64>,
) -> IssueBlocks {
    let mut blocks =
        IssueBlocks { cache: !b.cache_free && sets.mem_ready > 0, ..IssueBlocks::default() };
    if sets.end == sets.head {
        return blocks;
    }
    // Classes that can issue at all this cycle; every one of their ready
    // entries is a candidate.
    let eligible: u8 = if b.cache_free { 0b11111 } else { 0b11111 & !(1 << MEM) };
    debug_assert!(b.width > 0 && b.class.iter().all(|&n| n > 0), "budgets start positive");
    // Classes the walk still visits, and those among them that can take
    // nothing more (their next bit decides a flag).
    let mut visit = eligible;
    let mut spent: u8 = 0;
    let mut divs_out = b.divs_free == 0;
    let first = sets.head & !63;
    let last = (sets.end - 1) & !63;
    let words = (last - first) / 64 + 1;
    let base_of = |k: u64| if youngest_first { last - 64 * k } else { first + 64 * k };
    for k in 0..words {
        let base = base_of(k);
        let word = sets.word(base);
        let window = sets.window(base);
        // The visited classes' bits this word still holds ahead of the walk.
        let mut bits = union(word, visit) & window;
        while bits != 0 {
            let bit =
                if youngest_first { 63 - bits.leading_zeros() } else { bits.trailing_zeros() };
            bits &= !(1u64 << bit);
            let class = class_of(word, bit);
            if spent >> class & 1 == 1 {
                blocks.budget = true;
                visit &= !spent;
                bits &= !union(word, spent);
            } else if class == DIV && divs_out {
                blocks.div = true;
                visit &= !(1 << DIV);
                bits &= !word[DIV];
            } else {
                out.push(base + u64::from(bit));
                b.width -= 1;
                b.class[class] -= 1;
                if class == DIV {
                    b.divs_free -= 1;
                }
                if b.width == 0 {
                    // Any candidate left in the window found the width
                    // spent.
                    let after = if youngest_first { (1u64 << bit) - 1 } else { !1u64 << bit };
                    blocks.budget |= union(word, eligible) & window & after != 0
                        || (k + 1..words).any(|j| {
                            let base = base_of(j);
                            union(sets.word(base), eligible) & sets.window(base) != 0
                        });
                    return blocks;
                }
                if b.class[class] == 0 {
                    spent |= 1 << class;
                    // A flag already set needs no further witness.
                    if blocks.budget {
                        visit &= !(1 << class);
                        bits &= !word[class];
                    }
                } else if class == DIV && b.divs_free == 0 {
                    // The divide class is still visited: `div` is not set
                    // yet, or no divide could have been selected.
                    divs_out = true;
                }
            }
        }
        if visit == 0 {
            break;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::{ActiveEntry, ActiveList, ColdEntry, Stage, VACANT};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rf_isa::{IssueLimits, OpKind};

    /// The former two-pass select, kept as the reference: gather every
    /// candidate oldest to youngest (a locked cache refuses data-ready
    /// memory operations before their address hazards are checked), then
    /// apply the budgets in policy order.
    fn two_pass(list: &ActiveList, youngest_first: bool, b: Budgets) -> (Vec<u64>, IssueBlocks) {
        let Budgets { mut width, class: mut class_budget, mut divs_free, cache_free } = b;
        let mut blocks = IssueBlocks::default();
        let mut candidates = Vec::new();
        for e in list.iter().filter(|e| e.stage == Stage::InQueue && e.data_ready()) {
            if e.kind.is_mem() {
                if !cache_free {
                    blocks.cache = true;
                    continue;
                }
                if !e.hazard_free() {
                    continue;
                }
            }
            candidates.push((e.seq, e.kind));
        }
        if youngest_first {
            candidates.reverse();
        }
        let mut selected = Vec::new();
        for (seq, kind) in candidates {
            if width == 0 {
                blocks.budget = true;
                break;
            }
            let class = kind.issue_class().index();
            if class_budget[class] == 0 {
                blocks.budget = true;
                continue;
            }
            if matches!(kind, OpKind::FpDiv32 | OpKind::FpDiv64) {
                if divs_free == 0 {
                    blocks.div = true;
                    continue;
                }
                divs_free -= 1;
            }
            class_budget[class] -= 1;
            width -= 1;
            selected.push(seq);
        }
        (selected, blocks)
    }

    /// A random window: up to a few hundred entries of every kind, in
    /// every stage, with random readiness and address hazards, starting
    /// at a random ring offset so the window wraps (and sometimes grows
    /// the ring).
    fn random_window(rng: &mut SmallRng) -> ActiveList {
        const KINDS: [OpKind; 9] = [
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::FpOp,
            OpKind::FpDiv32,
            OpKind::FpDiv64,
            OpKind::Load,
            OpKind::Store,
            OpKind::CondBranch,
            OpKind::Jump,
        ];
        let mut list = ActiveList::new();
        for _ in 0..rng.gen_range(0..600) {
            list.push(OpKind::IntAlu, false, 0);
            list.pop_front();
        }
        let len = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..8),
            1 => rng.gen_range(0..80),
            _ => rng.gen_range(0..400),
        };
        // Some windows are mostly waiting, some mostly ready.
        let ready_p = rng.gen_range(0.05..0.95);
        let kinds = rng.gen_range(1..=KINDS.len());
        for _ in 0..len {
            let kind = KINDS[rng.gen_range(0..kinds)];
            let stage = match rng.gen_range(0..10) {
                0 => Stage::Issued,
                1 => Stage::Completed,
                _ => Stage::InQueue,
            };
            let e = ActiveEntry {
                seq: list.next_seq(),
                kind,
                stage,
                unready: u8::from(!rng.gen_bool(ready_p)),
                blockers: if kind.is_mem() { u32::from(rng.gen_bool(0.3)) } else { 0 },
                ..VACANT
            };
            list.push_entry(e, ColdEntry::default());
        }
        list
    }

    fn random_budgets(rng: &mut SmallRng) -> Budgets {
        let width = [1, 2, 4, 8, 16][rng.gen_range(0..5)];
        let limits = IssueLimits::for_width(width);
        let mut class = [0; CLASSES];
        for c in IssueClass::ALL {
            // Mostly the paper's limits; sometimes tighter ones.
            class[c.index()] =
                if rng.gen_bool(0.7) { limits[c] } else { rng.gen_range(1..=limits[c]) };
        }
        // A lockup cache clamps memory issue to one operation per cycle.
        if rng.gen_bool(0.3) {
            class[MEM] = class[MEM].min(1);
        }
        let divs_free = rng.gen_range(0..=class[DIV]);
        Budgets { width, class, divs_free, cache_free: rng.gen_bool(0.75) }
    }

    #[test]
    fn one_pass_select_matches_the_two_pass_reference() {
        let mut rng = SmallRng::seed_from_u64(20);
        let mut seen = [0u32; 3];
        for case in 0..20_000 {
            let list = random_window(&mut rng);
            let budgets = random_budgets(&mut rng);
            for youngest_first in [false, true] {
                let (want, want_blocks) = two_pass(&list, youngest_first, budgets);
                let mut got = Vec::new();
                let blocks = select(&list.ready_sets(), youngest_first, budgets, &mut got);
                assert_eq!(
                    (got, blocks),
                    (want, want_blocks),
                    "case {case}, youngest-first {youngest_first}, {budgets:?}"
                );
                for (n, flag) in seen.iter_mut().zip([blocks.budget, blocks.div, blocks.cache]) {
                    *n += u32::from(flag);
                }
            }
        }
        // Every flag is exercised both ways.
        for n in seen {
            assert!(n > 1_000 && n < 39_000, "flag counts {seen:?}");
        }
    }

    #[test]
    fn exhausted_dividers_and_a_locked_cache_block_without_issuing() {
        let mut list = ActiveList::new();
        let div = list.push(OpKind::FpDiv64, false, 0);
        let load = list.push(OpKind::Load, false, 4);
        let alu = list.push(OpKind::IntAlu, false, 8);
        let limits = IssueLimits::for_width(4);
        let mut class = [0; CLASSES];
        for c in IssueClass::ALL {
            class[c.index()] = limits[c];
        }
        let budgets = Budgets { width: 4, class, divs_free: 0, cache_free: false };
        let mut out = Vec::new();
        let blocks = select(&list.ready_sets(), false, budgets, &mut out);
        assert_eq!(out, vec![alu]);
        assert_eq!(blocks, IssueBlocks { budget: false, div: true, cache: true });
        out.clear();
        let free = Budgets { divs_free: 1, cache_free: true, ..budgets };
        assert_eq!(select(&list.ready_sets(), true, free, &mut out), IssueBlocks::default());
        assert_eq!(out, vec![alu, load, div]);
    }
}
