//! Simulation statistics: IPCs, stalls, and per-cycle register-liveness
//! distributions.

use rf_bpred::PredictorStats;
use rf_isa::RegClass;
use rf_mem::CacheStats;

/// Which freeing model a liveness distribution refers to.
///
/// A simulation running under precise exceptions tracks both: the actual
/// (precise) live count, and the *shadow* imprecise count — what would be
/// live had registers been freed under the imprecise rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiveModel {
    /// Registers live under the precise freeing rules.
    Precise,
    /// Registers live under the imprecise freeing rules.
    Imprecise,
}

/// Statistics gathered over one simulation run.
///
/// The per-cycle liveness histograms (`live_hist*`) are indexed by live
/// register count: `live_hist[class][n]` is the number of cycles during
/// which exactly `n` registers of `class` were live. They drive the
/// paper's 90th-percentile metric (Figure 3), run-time coverage curves
/// (Figures 4, 5, 8), and category breakdowns (`cat_sums`).
///
/// Each histogram is stored *compact*: only up to its highest non-zero
/// bucket, so it never ends in a zero (and is empty when every bucket
/// is zero). Its logical length is `phys_regs + 1`; the buckets past
/// the stored ones are zero. A 2048-register run rarely holds more
/// than a few hundred registers live, so the stored prefix is a small
/// part of the logical histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions (program-order, correct path).
    pub committed: u64,
    /// Issued instructions, including wrong-path ones.
    pub issued: u64,
    /// Instructions inserted into the dispatch queue (incl. wrong path).
    pub inserted: u64,
    /// Instructions squashed by misprediction recovery.
    pub squashed: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed conditional branches.
    pub committed_cbr: u64,
    /// Issued loads (incl. wrong path).
    pub issued_loads: u64,
    /// Issued conditional branches (incl. wrong path).
    pub issued_cbr: u64,
    /// Branch-prediction accuracy over executed correct-path conditional
    /// branches.
    pub bpred: PredictorStats,
    /// Data-cache counters.
    pub cache: CacheStats,
    /// Peak number of simultaneously outstanding cache-line fetches (the
    /// inverted-MSHR occupancy high-water mark).
    pub peak_outstanding_fills: usize,
    /// Instruction-cache miss rate (0 when the I-cache is disabled, i.e.
    /// perfect, as in the paper's experiments).
    pub icache_miss_rate: f64,
    /// Cycles during which the integer free list was empty.
    pub no_free_int_cycles: u64,
    /// Cycles during which the FP free list was empty.
    pub no_free_fp_cycles: u64,
    /// Cycles during which either free list was empty.
    pub no_free_any_cycles: u64,
    /// Insertions blocked because no physical register was free.
    pub insert_stall_no_reg: u64,
    /// Insertions blocked because the dispatch queue was full.
    pub insert_stall_dq_full: u64,
    /// Sum over cycles of dispatch-queue occupancy.
    pub dq_occupancy_sum: u64,
    /// Registers per class: each liveness histogram logically has
    /// `phys_regs + 1` buckets.
    pub phys_regs: usize,
    /// Per-class histogram of the precise live-register count (compact).
    pub live_hist: [Vec<u64>; 2],
    /// Per-class histogram of the (shadow) imprecise live-register count
    /// (compact).
    pub live_hist_imprecise: [Vec<u64>; 2],
    /// Per-class, per-category sums over cycles of live registers in each
    /// of the four liveness categories (in-queue, in-flight,
    /// wait-imprecise, wait-precise).
    pub cat_sums: [[u64; 4]; 2],
}

impl SimStats {
    /// Creates zeroed statistics for files of `phys_regs` registers: the
    /// histograms are empty, which is the compact form of all zeros.
    pub fn new(phys_regs: usize) -> Self {
        Self {
            cycles: 0,
            committed: 0,
            issued: 0,
            inserted: 0,
            squashed: 0,
            committed_loads: 0,
            committed_cbr: 0,
            issued_loads: 0,
            issued_cbr: 0,
            bpred: PredictorStats::new(),
            cache: CacheStats::default(),
            peak_outstanding_fills: 0,
            icache_miss_rate: 0.0,
            no_free_int_cycles: 0,
            no_free_fp_cycles: 0,
            no_free_any_cycles: 0,
            insert_stall_no_reg: 0,
            insert_stall_dq_full: 0,
            dq_occupancy_sum: 0,
            phys_regs,
            live_hist: [Vec::new(), Vec::new()],
            live_hist_imprecise: [Vec::new(), Vec::new()],
            cat_sums: [[0; 4]; 2],
        }
    }

    /// Committed instructions per cycle.
    pub fn commit_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Issued instructions per cycle (includes wrong-path issue).
    pub fn issue_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Fraction of run cycles with an empty free list in either file.
    pub fn no_free_reg_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.no_free_any_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean dispatch-queue occupancy.
    pub fn mean_dq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dq_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// The selected liveness histogram for one register class, in its
    /// stored (compact) form: buckets past its end are zero.
    pub fn live_histogram(&self, class: RegClass, model: LiveModel) -> &[u64] {
        match model {
            LiveModel::Precise => &self.live_hist[class.index()],
            LiveModel::Imprecise => &self.live_hist_imprecise[class.index()],
        }
    }

    /// The histogram normalised by run time: `out[n]` = fraction of cycles
    /// with exactly `n` live registers, over all `phys_regs + 1` buckets.
    /// This is the paper's per-benchmark normalisation step (footnote 2)
    /// before averaging across benchmarks.
    pub fn live_distribution(&self, class: RegClass, model: LiveModel) -> Vec<f64> {
        let mut out = vec![0.0; self.phys_regs + 1];
        if self.cycles != 0 {
            for (o, &c) in out.iter_mut().zip(self.live_histogram(class, model)) {
                *o = c as f64 / self.cycles as f64;
            }
        }
        out
    }

    /// Whether every liveness histogram is compact: at most
    /// `phys_regs + 1` buckets and no trailing zero.
    pub fn histograms_are_compact(&self) -> bool {
        self.live_hist.iter().chain(&self.live_hist_imprecise).all(|h| {
            h.len() <= self.phys_regs + 1 && h.last().is_none_or(|&n| n > 0)
        })
    }

    /// The `pct` percentile (0–100) of the live-register distribution:
    /// the smallest register count `n` such that at least `pct` percent of
    /// cycles had at most `n` live registers.
    pub fn live_percentile(&self, class: RegClass, model: LiveModel, pct: f64) -> usize {
        percentile_of(self.live_histogram(class, model), pct)
    }

    /// Mean live registers per cycle in each of the four categories.
    pub fn category_means(&self, class: RegClass) -> [f64; 4] {
        let mut out = [0.0; 4];
        if self.cycles == 0 {
            return out;
        }
        for (o, &s) in out.iter_mut().zip(self.cat_sums[class.index()].iter()) {
            *o = s as f64 / self.cycles as f64;
        }
        out
    }

    /// Misprediction rate over executed correct-path conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        self.bpred.misprediction_rate()
    }
}

/// The `pct` percentile of a histogram (smallest index covering `pct`% of
/// the total mass). Returns 0 for an empty histogram.
pub(crate) fn percentile_of(hist: &[u64], pct: f64) -> usize {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let threshold = (pct / 100.0 * total as f64).ceil() as u64;
    let mut acc = 0u64;
    for (i, &c) in hist.iter().enumerate() {
        acc += c;
        if acc >= threshold {
            return i;
        }
    }
    hist.len() - 1
}

/// The compact form of a dense histogram: its buckets up to the highest
/// non-zero one, in an exact-size vector.
pub(crate) fn compact(dense: &[u64]) -> Vec<u64> {
    let len = dense.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    dense[..len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        // 10 cycles at 3 live, 10 cycles at 7 live.
        let mut h = vec![0u64; 10];
        h[3] = 10;
        h[7] = 10;
        assert_eq!(percentile_of(&h, 50.0), 3);
        assert_eq!(percentile_of(&h, 90.0), 7);
        assert_eq!(percentile_of(&h, 100.0), 7);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile_of(&[0, 0, 0], 90.0), 0);
    }

    #[test]
    fn ipcs_divide_by_cycles() {
        let mut s = SimStats::new(32);
        s.cycles = 100;
        s.committed = 250;
        s.issued = 300;
        assert!((s.commit_ipc() - 2.5).abs() < 1e-12);
        assert!((s.issue_ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_stats_are_zero() {
        let s = SimStats::new(32);
        assert_eq!(s.commit_ipc(), 0.0);
        assert_eq!(s.no_free_reg_fraction(), 0.0);
        assert_eq!(s.mean_dq_occupancy(), 0.0);
    }

    #[test]
    fn distribution_normalises() {
        let mut s = SimStats::new(4);
        s.cycles = 4;
        s.live_hist[0] = vec![0, 0, 4];
        let d = s.live_distribution(RegClass::Int, LiveModel::Precise);
        assert_eq!(d, [0.0, 0.0, 1.0, 0.0, 0.0], "logical length is phys_regs + 1");
        assert!(s.histograms_are_compact());
    }

    #[test]
    fn compact_drops_only_the_zero_tail() {
        assert_eq!(compact(&[0, 3, 0, 2, 0, 0]), [0, 3, 0, 2]);
        assert!(compact(&[0, 0, 0]).is_empty());
        let mut s = SimStats::new(4);
        assert!(s.histograms_are_compact(), "all-zero histograms are empty");
        s.live_hist_imprecise[1] = vec![1, 0];
        assert!(!s.histograms_are_compact(), "a trailing zero");
        s.live_hist_imprecise[1] = vec![1; 6];
        assert!(!s.histograms_are_compact(), "longer than phys_regs + 1");
    }

    #[test]
    fn category_means_divide_by_cycles() {
        let mut s = SimStats::new(4);
        s.cycles = 10;
        s.cat_sums[RegClass::Fp.index()] = [10, 20, 30, 40];
        assert_eq!(s.category_means(RegClass::Fp), [1.0, 2.0, 3.0, 4.0]);
    }
}
