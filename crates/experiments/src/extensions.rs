//! Extension experiments beyond the paper's evaluation:
//!
//! 1. **Alpha-style hybrid exceptions** — the paper notes its imprecise
//!    model is a lower bound on hybrids like the Alpha architecture's
//!    (arithmetic imprecise, memory precise); this experiment adds the
//!    hybrid as a third curve to the Figure 6 register sweep.
//! 2. **Split dispatch queues** — the paper uses a single unified queue
//!    "because one queue is simpler"; this experiment quantifies what a
//!    two-queue organisation of the same total capacity costs.

use crate::aggregate::{all_names, mean_over};
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::{ExceptionModel, SimStats};

/// Register counts of the exception-model spectrum.
const SPECTRUM_REGS: [usize; 6] = [40, 48, 64, 80, 96, 128];
/// The spectrum's exception models, in column order.
const MODELS: [ExceptionModel; 3] =
    [ExceptionModel::Precise, ExceptionModel::AlphaHybrid, ExceptionModel::Imprecise];
/// Bounded reorder-buffer capacities (an unbounded row follows).
const ROB: [usize; 3] = [32, 64, 128];
/// Total dispatch-queue sizes of the unified/split comparison.
const SPLIT_DQ: [usize; 3] = [16, 32, 64];

/// The nine benchmarks on the 4-way baseline, each spec adjusted by
/// `configure`.
fn suite(configure: impl Fn(RunSpec) -> RunSpec, scale: &Scale) -> Vec<RunSpec> {
    all_names()
        .iter()
        .map(|n| configure(RunSpec::baseline(n, 4).commits(scale.commits)))
        .collect()
}

/// Every extension experiment's suite, in report order.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for regs in SPECTRUM_REGS {
        for model in MODELS {
            specs.extend(suite(|c| c.regs(regs).exceptions(model), scale));
        }
    }
    for rob in ROB {
        specs.extend(suite(|c| c.reorder(rob), scale));
    }
    specs.extend(suite(|c| c, scale));
    for dq in SPLIT_DQ {
        specs.extend(suite(|c| c.dq(dq), scale));
        specs.extend(suite(|c| c.dq(dq).split_dq(true), scale));
    }
    specs
}

/// Renders both extension experiments.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let names = all_names();
    let ipc = |configure: &dyn Fn(RunSpec) -> RunSpec| {
        let runs = answers.runs(&suite(configure, scale));
        format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc))
    };
    let mut out = String::from("Extension experiments (4-way issue, dq 32)\n\n");

    out.push_str("Exception-model spectrum: average commit IPC vs register count\n");
    let mut t = Table::new(vec!["regs", "precise", "alpha-hybrid", "imprecise"]);
    for regs in SPECTRUM_REGS {
        let mut row = vec![regs.to_string()];
        for model in MODELS {
            row.push(ipc(&|c| c.regs(regs).exceptions(model)));
        }
        t.row(row);
    }
    out.push_str(&t.render());

    out.push_str("\nBounded reorder buffer (active-list capacity): average commit IPC\n");
    let mut t = Table::new(vec!["rob", "avg commit IPC"]);
    for rob in ROB {
        t.row(vec![rob.to_string(), ipc(&|c| c.reorder(rob))]);
    }
    t.row(vec!["unbounded".to_owned(), ipc(&|c| c)]);
    out.push_str(&t.render());

    out.push_str("\nUnified vs split dispatch queues: average commit IPC\n");
    let mut t = Table::new(vec!["dq(total)", "unified", "split"]);
    for dq in SPLIT_DQ {
        t.row(vec![dq.to_string(), ipc(&|c| c.dq(dq)), ipc(&|c| c.dq(dq).split_dq(true))]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mentions_all_three_models() {
        let scale = Scale { commits: 1_500 };
        let report = render(&scale, &crate::suite::answer(&plan(&scale)));
        assert!(report.contains("alpha-hybrid"));
        assert!(report.contains("split"));
    }
}
