//! Figure 8: cumulative integer-register usage histogram for `compress`
//! under the three cache organisations (precise exceptions, 4-way issue,
//! 32-entry dispatch queue, 2048 registers).
//!
//! The paper's reading: the lockup-free cache needs more registers and
//! spreads them over a wider range (overlapped misses keep more loads and
//! dependents live); the lockup cache concentrates liveness in a narrow
//! band (in effect serialising around misses); the perfect cache sits in
//! between in shape but lowest in register count.

use crate::aggregate::coverage_curve;
use crate::fig7::ORGS;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::LiveModel;
use rf_isa::RegClass;
use rf_mem::CacheOrg;

/// X-axis sample points, as in the paper's Figure 8.
pub const SAMPLE_POINTS: &[usize] = &[30, 40, 50, 60, 70, 80, 90, 100, 120, 150];

/// compress under one cache organisation; the lockup-free point is the
/// baseline Table 1 also reads.
pub fn compress(org: CacheOrg, scale: &Scale) -> RunSpec {
    RunSpec::baseline("compress", 4).cache(org).commits(scale.commits)
}

/// compress under the three organisations, in the paper's legend order.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    ORGS.iter().map(|&org| compress(org, scale)).collect()
}

/// Renders Figure 8.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let curves: Vec<Vec<f64>> = plan(scale)
        .iter()
        .map(|spec| {
            let s = answers.get(spec);
            coverage_curve(&s.live_distribution(RegClass::Int, LiveModel::Precise))
        })
        .collect();
    let at = |c: &[f64], p: usize| {
        c.get(p).copied().unwrap_or_else(|| c.last().copied().unwrap_or(0.0))
    };
    let mut t = Table::new(vec!["regs", "perfect%", "lockup-free%", "lockup%"]);
    for &p in SAMPLE_POINTS {
        t.row(vec![
            p.to_string(),
            format!("{:.1}", at(&curves[0], p)),
            format!("{:.1}", at(&curves[1], p)),
            format!("{:.1}", at(&curves[2], p)),
        ]);
    }
    format!(
        "Figure 8: compress integer-register coverage by cache organisation\n\
         (precise exceptions, 4-way issue, dq 32, 2048 registers)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockup_free_needs_more_registers_than_perfect() {
        let scale = Scale { commits: 15_000 };
        let perfect = crate::runner::simulate(&compress(CacheOrg::Perfect, &scale));
        let lockup_free = crate::runner::simulate(&compress(CacheOrg::LockupFree, &scale));
        let p90 = perfect.live_percentile(RegClass::Int, LiveModel::Precise, 90.0);
        let lf90 = lockup_free.live_percentile(RegClass::Int, LiveModel::Precise, 90.0);
        assert!(
            lf90 >= p90,
            "lockup-free 90th pct {lf90} should be at least perfect's {p90}"
        );
    }
}
