//! The analytic estimator: a bound hierarchy plus CPI corrections.
//!
//! Throughput is `min` over independent capacity bounds — issue width,
//! insert bandwidth, the oracle's ideal-schedule IPC, the finite-window
//! dataflow limit at the machine's *effective* window, and each
//! functional-unit pool's M/G/c saturation point — then degraded by
//! additive CPI terms for branch-misprediction squashes and cache-miss
//! stalls. Every term is non-decreasing in issue width and physical
//! register count by construction, which is what the property tests
//! assert.
//!
//! Register pressure falls out of Little's law: the oracle's
//! reg-cycle sums per liveness category are schedule-independent, so
//! mean live counts at the predicted IPC are the ideal-schedule means
//! scaled by `ipc / ideal_ipc`. Peak demand is the ideal-schedule peak
//! clamped into the oracle's sound `[floor, ceiling]` bracket.

use crate::summary::WorkloadSummary;
use rf_core::{ExceptionModel, MachineConfig};
use rf_isa::{IssueClass, OpKind, RegClass};

/// Calibration constants, fitted against the simulator over the
/// 72-configuration cross-validation matrix (`rfstudy model --check`).
mod tune {
    /// Effective in-flight window per dispatch-queue entry. Fitted
    /// below 1: head-of-line blocking means the queue rarely sustains
    /// its full nominal size of distinct in-flight instructions.
    pub const K_DQ: f64 = 0.9;
    /// Registers per class reserved beyond the 31 architectural
    /// mappings under precise exceptions: superseded committed values
    /// whose free waits for the redefining instruction's in-order
    /// commit (the paper's category-3 occupancy).
    pub const R_PRECISE: f64 = 18.5;
    /// Same reservation under imprecise exceptions, where frees happen
    /// at the redefiner's completion and the lag is shorter.
    pub const R_IMPRECISE: f64 = 14.5;
    /// Mispredicted-branch penalty per cycle of mean load-completion
    /// delay. The sim resolves a branch only once its (often load-fed)
    /// operands arrive, so the effective squash-plus-refill cost
    /// tracks how slowly loads complete: cold caches (long delays)
    /// make every misprediction dearer.
    pub const K_BR_DELAY: f64 = 1.6;
    /// Fraction of a missing load's mean completion delay that
    /// survives as commit stall after out-of-order overlap (before the
    /// MLP divisor).
    pub const K_MISS: f64 = 0.6;
    /// Exponent on the distant-ILP boost to memory-level parallelism:
    /// workloads whose unbounded dataflow IPC far exceeds their
    /// 32-entry-window IPC (streaming codes like tomcatv) keep issuing
    /// independent work past outstanding misses, so their effective
    /// MLP grows with that headroom; dependence-bound codes (ratio
    /// near 1) get no boost.
    pub const K_ILP: f64 = 0.9;
}

/// The model's prediction for one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEstimate {
    /// Predicted committed IPC.
    pub ipc: f64,
    /// Utilisation of the busiest functional-unit pool, in `[0, 1]`.
    pub fu_occupancy: f64,
    /// Predicted mean dispatch-queue occupancy, in `[0, dq_size]`.
    pub dq_occupancy: f64,
    /// Mean registers (both classes, excluding the 31 architectural
    /// mappings per class) whose writer has committed and which await
    /// freeing.
    pub regs_live_committed: f64,
    /// Mean registers whose writer waits in the dispatch queue.
    pub regs_live_awaiting: f64,
    /// Mean registers whose writer is executing.
    pub regs_live_exec: f64,
    /// Predicted peak live registers per class (indexed by
    /// [`RegClass::index`]), clamped into the oracle's
    /// `[floor, ceiling]` bracket.
    pub regs_peak: [usize; 2],
}

/// Evaluates the analytic model for `config` against a workload
/// summary. Pure arithmetic over the summary — no simulation; the
/// summary must have been extracted at
/// `config.effective_insert_bandwidth()`.
pub fn evaluate(summary: &WorkloadSummary, config: &MachineConfig) -> ModelEstimate {
    let s = &summary.stats;
    let oracle = &s.oracle;
    let n = oracle.instructions as f64;
    if n == 0.0 {
        return ModelEstimate {
            ipc: 0.0,
            fu_occupancy: 0.0,
            dq_occupancy: 0.0,
            regs_live_committed: 0.0,
            regs_live_awaiting: 0.0,
            regs_live_exec: 0.0,
            regs_peak: [31, 31],
        };
    }
    let ideal_ipc = n / oracle.ideal_cycles.max(1) as f64;
    let width = config.width() as f64;
    let insert_bw = config.effective_insert_bandwidth() as f64;
    let limits = config.limits();

    // The effective instruction window: the dispatch queue sustains
    // K_DQ in-flight instructions per entry, the reorder limit (if
    // any) caps it outright, and each register class caps it at the
    // positions its spare registers can cover. "Spare" discounts both
    // the 31 architectural mappings and a reservation for superseded
    // committed values whose free lags their redefiner's commit
    // (larger under precise exceptions, where frees drain in order) —
    // every in-flight instruction that writes the class then needs one
    // register from what remains.
    let mut window = tune::K_DQ * config.dq_size() as f64;
    if let Some(limit) = config.reorder_capacity() {
        window = window.min(limit as f64);
    }
    let reserved = 31.0
        + match config.exception_model() {
            ExceptionModel::Precise => tune::R_PRECISE,
            _ => tune::R_IMPRECISE,
        };
    let spare = (config.phys_regs() as f64 - reserved).max(0.0);
    for class in RegClass::ALL {
        let def_frac = s.def_fraction(class);
        if def_frac > 1e-9 {
            window = window.min((spare / def_frac).max(1.0));
        }
    }
    let window_bound = s.window_ipc(window);

    // Per-pool M/G/c saturation: a pool of c units each busy s cycles
    // per instruction saturates at c / (f * s) committed IPC. Pipelined
    // units occupy their issue slot for one cycle; the non-pipelined
    // dividers for their full latency.
    let mut fu_bound = f64::INFINITY;
    for class in IssueClass::ALL {
        let frac = s.class_fraction(class);
        if frac <= 1e-12 {
            continue;
        }
        let service = if class == IssueClass::FpDivide { s.mean_service(class) } else { 1.0 };
        fu_bound = fu_bound.min(limits.limit(class) as f64 / (frac * service.max(1.0)));
    }

    let capacity_ipc =
        width.min(insert_bw).min(ideal_ipc).min(window_bound).min(fu_bound).max(1e-6);

    // Additive CPI corrections, both scaled by the replay-measured
    // mean load-completion delay: cold caches stretch it, warmed-up
    // caches shrink it, and both the branch-resolution and miss-stall
    // costs track it.
    let mut cpi = 1.0 / capacity_ipc;
    let load_delay = summary.mean_load_delay;
    let branch_frac = s.kind_fraction(OpKind::CondBranch);
    cpi += branch_frac * summary.mispredict_rate * tune::K_BR_DELAY * load_delay;
    // Memory-level parallelism: the overlap a lockup-free cache
    // achieves is set by how many missing loads the in-flight window
    // holds at once (the paced replay's MLP assumes an unbounded
    // window, so the window estimate is the binding one), boosted for
    // workloads with distant-ILP headroom that keeps independent work
    // flowing past outstanding misses.
    let load_frac = s.kind_fraction(OpKind::Load);
    let ilp_boost =
        (s.unbounded_ipc / s.window_ipc(32.0).max(1e-9)).max(1.0).powf(tune::K_ILP);
    let mlp = (window * load_frac * summary.load_miss_rate).max(1.0) * ilp_boost;
    cpi += load_frac * summary.load_miss_rate * load_delay * tune::K_MISS / mlp;
    let ipc = 1.0 / cpi;

    // Little's law: reg-cycles per category are schedule-independent,
    // so mean live counts scale with throughput relative to the ideal
    // schedule the oracle measured them under.
    let scale = ipc / ideal_ipc.max(1e-12);
    let cat_total = |cat: usize| -> f64 {
        oracle.classes.iter().map(|c| c.ideal_cat_means[cat]).sum::<f64>() * scale
    };
    let regs_live_awaiting = cat_total(0);
    let regs_live_exec = cat_total(1);
    let regs_live_committed = cat_total(2);

    // Queue occupancy: defs waiting to issue, de-rated to all
    // instructions by the def density.
    let def_frac_total: f64 = RegClass::ALL.iter().map(|&c| s.def_fraction(c)).sum();
    let dq_occupancy = if def_frac_total > 1e-9 {
        (regs_live_awaiting / def_frac_total).clamp(0.0, config.dq_size() as f64)
    } else {
        0.0
    };

    // Busiest-pool utilisation at the predicted throughput.
    let mut fu_occupancy: f64 = 0.0;
    for class in IssueClass::ALL {
        let frac = s.class_fraction(class);
        if frac <= 1e-12 {
            continue;
        }
        let service = if class == IssueClass::FpDivide { s.mean_service(class) } else { 1.0 };
        fu_occupancy =
            fu_occupancy.max(ipc * frac * service.max(1.0) / limits.limit(class) as f64);
    }
    let fu_occupancy = fu_occupancy.clamp(0.0, 1.0);

    let regs_peak = [RegClass::Int, RegClass::Fp].map(|class| {
        let c = &oracle.classes[class.index()];
        let ceiling = oracle.upper_bound(class, config.phys_regs(), 0);
        let lo = c.floor.min(ceiling);
        c.ideal_demand.clamp(lo, ceiling)
    });

    ModelEstimate {
        ipc,
        fu_occupancy,
        dq_occupancy,
        regs_live_committed,
        regs_live_awaiting,
        regs_live_exec,
        regs_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use rf_core::RunSpec;

    fn config(width: usize, regs: usize) -> MachineConfig {
        MachineConfig::new(width).physical_regs(regs)
    }

    fn summary_for(width: usize) -> WorkloadSummary {
        summarize(&RunSpec::baseline("compress", width).commits(5_000)).expect("known bench")
    }

    #[test]
    fn predictions_are_finite_and_bounded() {
        let s = summary_for(4);
        let cfg = config(4, 64);
        let e = evaluate(&s, &cfg);
        assert!(e.ipc.is_finite() && e.ipc > 0.0 && e.ipc <= 4.0, "{}", e.ipc);
        assert!((0.0..=1.0).contains(&e.fu_occupancy));
        assert!(e.dq_occupancy >= 0.0 && e.dq_occupancy <= 32.0);
        assert!(e.regs_live_committed >= 0.0);
        assert!(e.regs_live_awaiting >= 0.0);
        assert!(e.regs_live_exec >= 0.0);
    }

    #[test]
    fn more_registers_never_hurt() {
        let s = summary_for(4);
        let starved = evaluate(&s, &config(4, 40)).ipc;
        let roomy = evaluate(&s, &config(4, 2048)).ipc;
        assert!(roomy >= starved, "{roomy} < {starved}");
    }

    #[test]
    fn wider_machines_never_hurt() {
        let narrow = evaluate(&summary_for(4), &config(4, 2048)).ipc;
        let wide = evaluate(&summary_for(8), &config(8, 2048)).ipc;
        assert!(wide >= narrow, "{wide} < {narrow}");
    }

    #[test]
    fn peaks_sit_inside_the_oracle_bracket() {
        let s = summary_for(4);
        for regs in [40, 64, 128, 2048] {
            let e = evaluate(&s, &config(4, regs));
            for class in [RegClass::Int, RegClass::Fp] {
                let c = &s.stats.oracle.classes[class.index()];
                let ceiling = s.stats.oracle.upper_bound(class, regs, 0);
                let peak = e.regs_peak[class.index()];
                assert!(peak >= c.floor.min(ceiling), "{peak} below floor {}", c.floor);
                assert!(peak <= ceiling, "{peak} above ceiling {ceiling}");
            }
        }
    }

    #[test]
    fn empty_summary_yields_zeroes() {
        let mut s = summary_for(4);
        s.stats = rf_check::workload_stats(&[], 6);
        let e = evaluate(&s, &config(4, 64));
        assert_eq!(e.ipc, 0.0);
        assert_eq!(e.regs_peak, [31, 31]);
    }
}
