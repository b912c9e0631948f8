//! Figure 7: average commit IPC for the three data-cache organisations
//! (perfect, lockup-free, lockup) as the register-file size varies, for
//! both widths; panel (a) imprecise exceptions, panel (b) precise.

use crate::aggregate::{all_names, mean_over};
use crate::fig6::REG_SIZES;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::{ExceptionModel, SimStats};
use rf_mem::CacheOrg;

/// The three organisations in the paper's legend order.
pub const ORGS: &[CacheOrg] = &[CacheOrg::Perfect, CacheOrg::LockupFree, CacheOrg::Lockup];

/// One cache organisation's IPC series over the register sweep.
pub type OrgSeries = (CacheOrg, Vec<(usize, f64)>);

/// The panels' exception models, panel (a) first.
const PANELS: [(&str, ExceptionModel); 2] =
    [("a", ExceptionModel::Imprecise), ("b", ExceptionModel::Precise)];

/// The (org x register count x benchmark) grid of one width and model.
/// Its lockup-free third is Figure 6's grid.
fn grid(width: usize, model: ExceptionModel, scale: &Scale) -> Vec<RunSpec> {
    let names = all_names();
    let mut specs = Vec::new();
    for &org in ORGS {
        for &regs in REG_SIZES {
            for n in &names {
                specs.push(
                    RunSpec::baseline(n, width)
                        .regs(regs)
                        .exceptions(model)
                        .cache(org)
                        .commits(scale.commits),
                );
            }
        }
    }
    specs
}

/// Both panels' grids at both widths.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (_, model) in PANELS {
        for width in [4, 8] {
            specs.extend(grid(width, model, scale));
        }
    }
    specs
}

/// Average commit IPC per (org, register count) for one width and model.
pub fn sweep(
    width: usize,
    model: ExceptionModel,
    scale: &Scale,
    answers: &Answers,
) -> Vec<OrgSeries> {
    let names = all_names();
    let per_org = REG_SIZES.len() * names.len();
    ORGS.iter()
        .zip(grid(width, model, scale).chunks(per_org))
        .map(|(&org, org_chunk)| {
            let series = REG_SIZES
                .iter()
                .zip(org_chunk.chunks(names.len()))
                .map(|(&regs, chunk)| {
                    (regs, mean_over(&answers.runs(chunk), &names, SimStats::commit_ipc))
                })
                .collect();
            (org, series)
        })
        .collect()
}

fn render_panel(label: &str, model: ExceptionModel, scale: &Scale, answers: &Answers) -> String {
    let mut out = format!("({label}) {model} exception model\n");
    for width in [4usize, 8] {
        let data = sweep(width, model, scale, answers);
        let mut t = Table::new(vec!["regs", "perfect", "lockup-free", "lockup"]);
        for (i, &regs) in REG_SIZES.iter().enumerate() {
            t.row(vec![
                regs.to_string(),
                format!("{:.2}", data[0].1[i].1),
                format!("{:.2}", data[1].1[i].1),
                format!("{:.2}", data[2].1[i].1),
            ]);
        }
        out.push_str(&format!("\n{width}-way issue (dq {})\n", width * 8));
        out.push_str(&t.render());
    }
    out
}

/// Renders Figure 7 (both panels).
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut out = String::from(
        "Figure 7: average commit IPC for three data cache organisations\n\n",
    );
    let [a, b] = PANELS.map(|(label, model)| render_panel(label, model, scale, answers));
    out.push_str(&a);
    out.push('\n');
    out.push_str(&b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;

    #[test]
    fn cache_quality_orders_performance() {
        // On a miss-heavy benchmark: perfect >= lockup-free > lockup.
        let commits = 10_000;
        let mk = |org| {
            simulate(
                &RunSpec::baseline("tomcatv", 4).regs(96).cache(org).commits(commits),
            )
            .commit_ipc()
        };
        let perfect = mk(CacheOrg::Perfect);
        let lockup_free = mk(CacheOrg::LockupFree);
        let lockup = mk(CacheOrg::Lockup);
        assert!(perfect >= lockup_free * 0.98, "perfect {perfect} vs lf {lockup_free}");
        assert!(
            lockup_free > lockup * 1.3,
            "lockup-free {lockup_free} should clearly beat lockup {lockup}"
        );
    }
}
