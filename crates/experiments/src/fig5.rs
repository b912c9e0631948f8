//! Figure 5: impact of the exception model on the floating-point
//! registers of `tomcatv` (8-way issue, 64-entry dispatch queue,
//! lockup-free cache).
//!
//! The paper's headline observation: the precise-model distribution is
//! *bimodal* — flat between the first mode and a second mode hundreds of
//! registers out, because one long-latency instruction at the head of the
//! machine holds up commitment while hundreds of later instructions
//! complete — whereas the imprecise model reaches full coverage with a
//! few times fewer registers.

use crate::aggregate::coverage_curve;
use crate::plot::Chart;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::{LiveModel, SimStats};
use rf_isa::RegClass;

/// X-axis sample points for the coverage table.
pub const SAMPLE_POINTS: &[usize] =
    &[32, 64, 100, 150, 200, 250, 300, 350, 400, 450, 500, 600];

/// The figure's one point: the 8-way tomcatv baseline, which Table 1
/// also reads.
pub fn tomcatv(scale: &Scale) -> RunSpec {
    RunSpec::baseline("tomcatv", 8).commits(scale.commits)
}

/// The tomcatv point.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    vec![tomcatv(scale)]
}

/// Renders the Figure 5 report from a tomcatv run.
pub fn report(stats: &SimStats) -> String {
    let precise = coverage_curve(&stats.live_distribution(RegClass::Fp, LiveModel::Precise));
    let imprecise =
        coverage_curve(&stats.live_distribution(RegClass::Fp, LiveModel::Imprecise));
    let mut t = Table::new(vec!["regs", "precise%", "imprecise%"]);
    let at = |curve: &[f64], p: usize| {
        curve.get(p).copied().unwrap_or_else(|| curve.last().copied().unwrap_or(0.0))
    };
    for &p in SAMPLE_POINTS {
        t.row(vec![
            p.to_string(),
            format!("{:.1}", at(&precise, p)),
            format!("{:.1}", at(&imprecise, p)),
        ]);
    }
    let full = |curve: &[f64]| curve.iter().position(|&v| v >= 99.9).unwrap_or(curve.len() - 1);
    let sample = |curve: &[f64]| -> Vec<(f64, f64)> {
        (0..=60)
            .map(|i| {
                let x = i * 10;
                (x as f64, at(curve, x))
            })
            .collect()
    };
    let mut chart =
        Chart::new("tomcatv fp-register run-time coverage", "registers", "coverage %");
    chart.series('p', "precise", sample(&precise));
    chart.series('i', "imprecise", sample(&imprecise));
    format!(
        "Figure 5: tomcatv floating-point registers, 8-way issue, dq 64\n\n{}\
         ~100% coverage at: precise {} registers, imprecise {} registers\n\n{}",
        t.render(),
        full(&precise),
        full(&imprecise),
        chart.render(64, 14)
    )
}

/// Renders Figure 5.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    report(&answers.get(&tomcatv(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tomcatv_precise_needs_far_more_registers() {
        // Assert the contrast at the 95% coverage point, which is stable
        // across seeds; the extreme tail (99.9%+) is dominated by rare
        // deep-stall events and is noisy at test-sized runs.
        let stats = crate::runner::simulate(&tomcatv(&Scale { commits: 30_000 }));
        let p95 = stats.live_percentile(RegClass::Fp, LiveModel::Precise, 95.0);
        let i95 = stats.live_percentile(RegClass::Fp, LiveModel::Imprecise, 95.0);
        assert!(
            p95 as f64 > 1.2 * i95 as f64,
            "precise {p95} should need far more registers than imprecise {i95}"
        );
    }
}
