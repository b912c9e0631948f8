//! Figure 4: average register-usage run-time coverage histograms under
//! both exception models, for both issue widths.
//!
//! Coverage curves are produced per benchmark from the per-cycle liveness
//! histograms, normalised by run time, averaged across benchmarks
//! (integer: all nine; FP: the FP-intensive six), and sampled at the
//! paper's x-axis points.

use crate::aggregate::{all_names, averaged_distribution, coverage_curve, sample_coverage};
use crate::runner::{fp_benchmarks, RunSpec, Scale};
use crate::suite::Answers;
use crate::table1::baselines;
use crate::table::Table;
use rf_core::LiveModel;
use rf_isa::RegClass;

/// X-axis sample points, as in the paper's Figure 4.
pub const SAMPLE_POINTS: &[usize] = &[30, 45, 60, 75, 105, 150, 210, 300, 450];

/// The averaged coverage curves for one issue width.
#[derive(Debug, Clone)]
pub struct Curves {
    /// `curves[class][model]` = averaged run-time coverage curve.
    pub curves: [[Vec<f64>; 2]; 2],
}

/// Table 1's baselines: the figure reads no other points.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    crate::table1::plan(scale)
}

/// Builds one width's averaged curves from its baseline runs.
pub fn curves(width: usize, scale: &Scale, answers: &Answers) -> Curves {
    let runs = answers.runs(&baselines(width, scale));
    let names = all_names();
    let fp_names = fp_benchmarks();
    let build = |class: RegClass, model: LiveModel| {
        let include = if class == RegClass::Int { &names } else { &fp_names };
        coverage_curve(&averaged_distribution(&runs, include, class, model))
    };
    Curves {
        curves: [RegClass::Int, RegClass::Fp].map(|class| {
            [LiveModel::Precise, LiveModel::Imprecise].map(|m| build(class, m))
        }),
    }
}

/// 90% coverage register counts from a set of curves:
/// `(int precise, int imprecise, fp precise, fp imprecise)`.
pub fn coverage90(c: &Curves) -> (usize, usize, usize, usize) {
    let pct = |curve: &[f64]| {
        curve.iter().position(|&v| v >= 90.0).unwrap_or(curve.len().saturating_sub(1))
    };
    (
        pct(&c.curves[0][0]),
        pct(&c.curves[0][1]),
        pct(&c.curves[1][0]),
        pct(&c.curves[1][1]),
    )
}

fn render_width(width: usize, c: &Curves) -> String {
    let mut out = format!("({width}-way issue processor)\n");
    let mut t = Table::new(vec![
        "regs",
        "int.precise%",
        "int.imprecise%",
        "fp.precise%",
        "fp.imprecise%",
    ]);
    let sampled: Vec<Vec<(usize, f64)>> = [
        &c.curves[0][0],
        &c.curves[0][1],
        &c.curves[1][0],
        &c.curves[1][1],
    ]
    .iter()
    .map(|curve| sample_coverage(curve, SAMPLE_POINTS))
    .collect();
    for (i, &p) in SAMPLE_POINTS.iter().enumerate() {
        t.row(vec![
            p.to_string(),
            format!("{:.1}", sampled[0][i].1),
            format!("{:.1}", sampled[1][i].1),
            format!("{:.1}", sampled[2][i].1),
            format!("{:.1}", sampled[3][i].1),
        ]);
    }
    out.push_str(&t.render());
    let (ip, ii, fp, fi) = coverage90(c);
    out.push_str(&format!(
        "90% coverage at: int precise {ip}, int imprecise {ii}, fp precise {fp}, fp imprecise {fi}\n",
    ));
    out
}

/// Renders Figure 4 for both widths.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut out = String::from(
        "Figure 4: average register-usage run-time coverage, precise vs imprecise\n\
         (2048 registers, lockup-free cache, dq 32 / 64)\n\n",
    );
    out.push_str(&render_width(4, &curves(4, scale, answers)));
    out.push('\n');
    out.push_str(&render_width(8, &curves(8, scale, answers)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imprecise_coverage_dominates_precise() {
        // At every register count, imprecise coverage >= precise coverage
        // (fewer registers live under imprecise freeing).
        let scale = Scale { commits: 3_000 };
        let c = curves(4, &scale, &crate::suite::answer(&baselines(4, &scale)));
        for class in 0..2 {
            for (p, i) in c.curves[class][0].iter().zip(c.curves[class][1].iter()) {
                assert!(i + 1e-9 >= *p, "imprecise {i} < precise {p}");
            }
        }
    }
}
