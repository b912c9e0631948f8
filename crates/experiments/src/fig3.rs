//! Figure 3: IPC and 90th-percentile live registers vs dispatch-queue
//! size, with the four-category liveness breakdown.
//!
//! One simulation per (width, dispatch-queue size, benchmark) with 2048
//! registers under the precise model; the shadow imprecise engine
//! provides the imprecise liveness distribution from the same run, so a
//! single simulation yields both curves and the stacked categories.

use crate::aggregate::{
    all_names, averaged_distribution, distribution_percentile, mean_over,
};
use crate::runner::{fp_benchmarks, RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::{LiveModel, SimStats};
use rf_isa::RegClass;

/// Dispatch-queue sizes swept by the paper.
pub const DQ_SIZES: &[usize] = &[8, 16, 32, 64, 128, 256];

/// One sweep point, aggregated over benchmarks.
#[derive(Debug, Clone)]
pub struct Point {
    /// Dispatch-queue size.
    pub dq: usize,
    /// Average issue IPC (all benchmarks).
    pub issue_ipc: f64,
    /// Average commit IPC (all benchmarks).
    pub commit_ipc: f64,
    /// 90th-percentile live registers per class: `(precise, imprecise)`.
    pub live90: [(usize, usize); 2],
    /// Mean live registers per class per category
    /// (in-queue, in-flight, wait-imprecise, wait-precise).
    pub categories: [[f64; 4]; 2],
}

/// The (queue size x benchmark) grid of one issue width.
fn grid(width: usize, scale: &Scale) -> Vec<RunSpec> {
    let names = all_names();
    DQ_SIZES
        .iter()
        .flat_map(|&dq| {
            names
                .iter()
                .map(move |n| RunSpec::baseline(n, width).dq(dq).commits(scale.commits))
        })
        .collect()
}

/// Both widths' grids.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    [4, 8].into_iter().flat_map(|width| grid(width, scale)).collect()
}

/// One issue width's sweep over the dispatch-queue sizes.
pub fn sweep(width: usize, scale: &Scale, answers: &Answers) -> Vec<Point> {
    let names = all_names();
    let fp_names = fp_benchmarks();
    DQ_SIZES
        .iter()
        .zip(grid(width, scale).chunks(names.len()))
        .map(|(&dq, chunk)| {
            let runs = answers.runs(chunk);
            let live90 = [RegClass::Int, RegClass::Fp].map(|class| {
                let include = if class == RegClass::Int { &names } else { &fp_names };
                let p = averaged_distribution(&runs, include, class, LiveModel::Precise);
                let i = averaged_distribution(&runs, include, class, LiveModel::Imprecise);
                (distribution_percentile(&p, 90.0), distribution_percentile(&i, 90.0))
            });
            let categories = [RegClass::Int, RegClass::Fp].map(|class| {
                let include = if class == RegClass::Int { &names } else { &fp_names };
                let mut cat = [0.0; 4];
                for (k, slot) in cat.iter_mut().enumerate() {
                    *slot = mean_over(&runs, include, |s: &SimStats| s.category_means(class)[k]);
                }
                cat
            });
            Point {
                dq,
                issue_ipc: mean_over(&runs, &names, SimStats::issue_ipc),
                commit_ipc: mean_over(&runs, &names, SimStats::commit_ipc),
                live90,
                categories,
            }
        })
        .collect()
}

fn render_width(width: usize, points: &[Point]) -> String {
    let mut out = format!("{width}-way issue\n");
    for (class, label) in [(RegClass::Int, "integer"), (RegClass::Fp, "floating-point")] {
        let mut t = Table::new(vec![
            "dq",
            "issueIPC",
            "commitIPC",
            "live90.precise",
            "live90.imprecise",
            "cat.queue",
            "cat.flight",
            "cat.waitImp",
            "cat.waitPrec",
        ]);
        for p in points {
            let (pr, im) = p.live90[class.index()];
            let c = p.categories[class.index()];
            t.row(vec![
                p.dq.to_string(),
                format!("{:.2}", p.issue_ipc),
                format!("{:.2}", p.commit_ipc),
                pr.to_string(),
                im.to_string(),
                format!("{:.1}", c[0]),
                format!("{:.1}", c[1]),
                format!("{:.1}", c[2]),
                format!("{:.1}", c[3]),
            ]);
        }
        out.push_str(&format!("\n{label} registers\n"));
        out.push_str(&t.render());
    }
    out
}

/// Renders the Figure 3 sweep for both widths.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut out = String::from(
        "Figure 3: IPC and 90th-percentile live registers vs dispatch queue size\n\
         (2048 registers, lockup-free cache; categories are per-cycle means)\n\n",
    );
    out.push_str(&render_width(4, &sweep(4, scale, answers)));
    out.push('\n');
    out.push_str(&render_width(8, &sweep(8, scale, answers)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_invariants() {
        // A tiny sweep at two dq sizes: IPC grows (or holds) with a larger
        // queue, and the precise 90th percentile is at least the
        // imprecise one.
        let base = RunSpec::baseline("espresso", 4).dq(8).commits(4_000);
        let small = crate::runner::simulate(&base);
        let big = crate::runner::simulate(&base.clone().dq(64));
        assert!(big.commit_ipc() >= small.commit_ipc() * 0.9);
        for class in [RegClass::Int, RegClass::Fp] {
            let p = small.live_percentile(class, LiveModel::Precise, 90.0);
            let i = small.live_percentile(class, LiveModel::Imprecise, 90.0);
            assert!(p >= i, "precise {p} < imprecise {i}");
            assert!(p >= 31, "at least the architectural mappings are live");
        }
    }
}
