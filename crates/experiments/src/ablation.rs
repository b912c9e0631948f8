//! Ablations of the machine-model design choices called out in DESIGN.md:
//! the scheduler's selection policy (greedy oldest-first vs
//! youngest-first), the branch predictor (bimodal / gshare / the paper's
//! combining predictor), and the dispatch-queue insertion bandwidth (the
//! paper's 1.5x issue width vs 1.0x and 2.0x).

use crate::aggregate::{all_names, mean_over};
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_bpred::PredictorKind;
use rf_core::{SchedPolicy, SimStats};

/// Scheduler selection policies compared.
const POLICIES: [SchedPolicy; 2] = [SchedPolicy::OldestFirst, SchedPolicy::YoungestFirst];
/// Branch predictors compared.
const PREDICTORS: [PredictorKind; 3] =
    [PredictorKind::Bimodal, PredictorKind::Gshare, PredictorKind::Combining];
/// Dispatch-queue insertion bandwidths compared.
const INSERT_BW: [usize; 3] = [4, 6, 8];

/// The nine benchmarks on the 4-way baseline, each spec adjusted by
/// `configure`.
fn suite(configure: impl Fn(RunSpec) -> RunSpec, scale: &Scale) -> Vec<RunSpec> {
    all_names()
        .iter()
        .map(|n| configure(RunSpec::baseline(n, 4).commits(scale.commits)))
        .collect()
}

/// Every ablation's suite, in report order.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for policy in POLICIES {
        specs.extend(suite(|c| c.policy(policy), scale));
    }
    for kind in PREDICTORS {
        specs.extend(suite(|c| c.predictor(kind), scale));
    }
    for bw in INSERT_BW {
        specs.extend(suite(|c| c.insert_bw(bw), scale));
    }
    specs
}

/// Renders the ablations.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let names = all_names();
    let runs = |configure: &dyn Fn(RunSpec) -> RunSpec| answers.runs(&suite(configure, scale));
    let mut out = String::from(
        "Ablations (4-way issue, dq 32, 2048 registers, lockup-free cache)\n\n",
    );

    out.push_str("Scheduler selection policy\n");
    let mut t = Table::new(vec!["policy", "avg issue IPC", "avg commit IPC"]);
    for policy in POLICIES {
        let runs = runs(&|c| c.policy(policy));
        t.row(vec![
            policy.to_string(),
            format!("{:.2}", mean_over(&runs, &names, SimStats::issue_ipc)),
            format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nBranch predictor (paper: McFarling combining, 12 Kbit)\n");
    let mut t = Table::new(vec!["predictor", "avg mispredict %", "avg commit IPC"]);
    for kind in PREDICTORS {
        let runs = runs(&|c| c.predictor(kind));
        t.row(vec![
            kind.to_string(),
            format!("{:.1}", 100.0 * mean_over(&runs, &names, SimStats::mispredict_rate)),
            format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nDispatch-queue insertion bandwidth (paper: 1.5 x width = 6)\n");
    let mut t = Table::new(vec!["insert/cycle", "avg commit IPC", "avg dq occupancy"]);
    for bw in INSERT_BW {
        let runs = runs(&|c| c.insert_bw(bw));
        t.row(vec![
            bw.to_string(),
            format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc)),
            format!("{:.1}", mean_over(&runs, &names, SimStats::mean_dq_occupancy)),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn run_suite(
        configure: impl Fn(RunSpec) -> RunSpec,
        commits: u64,
    ) -> Vec<(String, Arc<SimStats>)> {
        let specs = suite(configure, &Scale { commits });
        crate::suite::answer(&specs).runs(&specs)
    }

    #[test]
    fn oldest_first_commits_at_least_as_fast() {
        let commits = 8_000;
        let old = run_suite(|c| c.policy(SchedPolicy::OldestFirst), commits);
        let young = run_suite(|c| c.policy(SchedPolicy::YoungestFirst), commits);
        let names = all_names();
        let o = mean_over(&old, &names, SimStats::commit_ipc);
        let y = mean_over(&young, &names, SimStats::commit_ipc);
        assert!(o >= y * 0.98, "oldest-first {o} vs youngest-first {y}");
    }

    #[test]
    fn wider_insertion_never_hurts_much() {
        let commits = 6_000;
        let narrow = run_suite(|c| c.insert_bw(4), commits);
        let wide = run_suite(|c| c.insert_bw(8), commits);
        let names = all_names();
        let n = mean_over(&narrow, &names, SimStats::commit_ipc);
        let w = mean_over(&wide, &names, SimStats::commit_ipc);
        assert!(w >= n * 0.97, "wide {w} vs narrow {n}");
    }
}
