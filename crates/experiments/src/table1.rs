//! Table 1: per-benchmark dynamic statistics for both issue widths.
//!
//! Reproduces the paper's Table 1 columns — committed and executed
//! instruction counts (total / loads / conditional branches), issue and
//! commit IPC, load miss rate and conditional-branch misprediction rate —
//! for the baseline machine: 2048 physical registers, lockup-free 64 KB
//! 2-way cache with 16-cycle fetch latency, dispatch queue of 32 entries
//! at 4-way issue and 64 at 8-way.

use crate::aggregate::all_names;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::SimStats;
use std::sync::Arc;

/// Paper values for comparison: (benchmark, issue IPC, commit IPC,
/// load miss %, cbr mispredict %) per width.
pub const PAPER_4WAY: &[(&str, f64, f64, f64, f64)] = &[
    ("compress", 3.06, 2.09, 15.0, 14.0),
    ("doduc", 2.75, 2.49, 1.0, 10.0),
    ("espresso", 3.39, 3.04, 1.0, 13.0),
    ("gcc1", 2.80, 2.35, 1.0, 19.0),
    ("mdljdp2", 2.33, 2.12, 3.0, 6.0),
    ("mdljsp2", 2.97, 2.69, 1.0, 6.0),
    ("ora", 1.86, 1.86, 0.0, 6.0),
    ("su2cor", 3.38, 3.22, 17.0, 7.0),
    ("tomcatv", 2.77, 2.77, 33.0, 1.0),
];

/// Paper values for the 8-way machine.
#[allow(clippy::approx_constant)] // gcc1's commit IPC really is 3.14
pub const PAPER_8WAY: &[(&str, f64, f64, f64, f64)] = &[
    ("compress", 4.90, 2.50, 10.0, 14.0),
    ("doduc", 4.92, 3.97, 1.0, 10.0),
    ("espresso", 5.57, 4.26, 1.0, 14.0),
    ("gcc1", 4.47, 3.14, 1.0, 20.0),
    ("mdljdp2", 4.05, 3.36, 3.0, 6.0),
    ("mdljsp2", 5.25, 4.28, 1.0, 6.0),
    ("ora", 2.08, 2.08, 0.0, 6.0),
    ("su2cor", 6.24, 5.65, 22.0, 7.0),
    ("tomcatv", 5.52, 5.51, 39.0, 1.0),
];

/// The paper's baseline machine at `width` for all nine benchmarks, in
/// Table 1 order. Figures 4, 5 and 8 and the dataflow limits read these
/// points too.
pub fn baselines(width: usize, scale: &Scale) -> Vec<RunSpec> {
    all_names().iter().map(|n| RunSpec::baseline(n, width).commits(scale.commits)).collect()
}

/// The baselines at both widths, 4-way first.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    [4, 8].into_iter().flat_map(|width| baselines(width, scale)).collect()
}

fn width_table(runs: &[(String, Arc<SimStats>)], paper: &[(&str, f64, f64, f64, f64)]) -> Table {
    let mut t = Table::new(vec![
        "benchmark",
        "commit",
        "exec",
        "exec.ld",
        "exec.cbr",
        "issueIPC",
        "commitIPC",
        "miss%",
        "mispred%",
        "paper.iIPC",
        "paper.cIPC",
        "paper.miss%",
        "paper.mis%",
    ]);
    for (name, s) in runs {
        let p = paper.iter().find(|(n, ..)| n == name).expect("all nine present");
        t.row(row_for(name, s, p));
    }
    t
}

fn row_for(name: &str, s: &SimStats, paper: &(&str, f64, f64, f64, f64)) -> Vec<String> {
    vec![
        name.to_owned(),
        s.committed.to_string(),
        s.issued.to_string(),
        s.issued_loads.to_string(),
        s.issued_cbr.to_string(),
        format!("{:.2}", s.issue_ipc()),
        format!("{:.2}", s.commit_ipc()),
        format!("{:.1}", 100.0 * s.cache.load_miss_rate()),
        format!("{:.1}", 100.0 * s.mispredict_rate()),
        format!("{:.2}", paper.1),
        format!("{:.2}", paper.2),
        format!("{:.1}", paper.3),
        format!("{:.1}", paper.4),
    ]
}

/// Renders Table 1 for both widths.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1: dynamic statistics (2048 regs, lockup-free cache, {} commits/run)\n\n",
        scale.commits
    ));
    out.push_str("4-way issue, 32-entry dispatch queue\n");
    out.push_str(&width_table(&answers.runs(&baselines(4, scale)), PAPER_4WAY).render());
    out.push('\n');
    out.push_str("8-way issue, 64-entry dispatch queue\n");
    out.push_str(&width_table(&answers.runs(&baselines(8, scale)), PAPER_8WAY).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_benchmarks_and_both_widths() {
        let scale = Scale { commits: 2_000 };
        let report = render(&scale, &crate::suite::answer(&plan(&scale)));
        for name in crate::aggregate::all_names() {
            assert!(report.contains(&name), "{name} missing");
        }
        assert!(report.contains("4-way"));
        assert!(report.contains("8-way"));
    }
}
