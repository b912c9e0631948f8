//! Figure 6: average commit IPC and the fraction of run time with no
//! free registers, as the register-file size varies (dispatch queue held
//! constant), for both exception models and both widths.

use crate::aggregate::{all_names, mean_over};
use crate::plot::Chart;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::{ExceptionModel, SimStats};

/// Register-file sizes swept by the paper.
pub const REG_SIZES: &[usize] = &[32, 48, 64, 80, 96, 128, 160, 256];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Registers per class.
    pub regs: usize,
    /// Average commit IPC.
    pub commit_ipc: f64,
    /// Average fraction of cycles with an empty free list (either class).
    pub no_free_frac: f64,
}

/// The exception models, in the order each width sweeps them.
const MODELS: [ExceptionModel; 2] = [ExceptionModel::Precise, ExceptionModel::Imprecise];

/// The (register count x benchmark) grid of one width and exception
/// model.
fn grid(width: usize, model: ExceptionModel, scale: &Scale) -> Vec<RunSpec> {
    let names = all_names();
    REG_SIZES
        .iter()
        .flat_map(|&regs| {
            names.iter().map(move |n| {
                RunSpec::baseline(n, width).regs(regs).exceptions(model).commits(scale.commits)
            })
        })
        .collect()
}

/// Both widths' grids under both exception models. Figure 10 reads
/// exactly these points.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    [4, 8]
        .into_iter()
        .flat_map(|width| MODELS.into_iter().flat_map(move |model| grid(width, model, scale)))
        .collect()
}

/// The register sweep of one width and exception model.
pub fn sweep(width: usize, model: ExceptionModel, scale: &Scale, answers: &Answers) -> Vec<Point> {
    let names = all_names();
    REG_SIZES
        .iter()
        .zip(grid(width, model, scale).chunks(names.len()))
        .map(|(&regs, chunk)| {
            let runs = answers.runs(chunk);
            Point {
                regs,
                commit_ipc: mean_over(&runs, &names, SimStats::commit_ipc),
                no_free_frac: mean_over(&runs, &names, SimStats::no_free_reg_fraction),
            }
        })
        .collect()
}

fn render_width(width: usize, scale: &Scale, answers: &Answers) -> String {
    let [precise, imprecise] = MODELS.map(|model| sweep(width, model, scale, answers));
    let mut t = Table::new(vec![
        "regs",
        "IPC.precise",
        "IPC.imprecise",
        "noFree%.precise",
        "noFree%.imprecise",
    ]);
    for (p, i) in precise.iter().zip(imprecise.iter()) {
        t.row(vec![
            p.regs.to_string(),
            format!("{:.2}", p.commit_ipc),
            format!("{:.2}", i.commit_ipc),
            format!("{:.1}", 100.0 * p.no_free_frac),
            format!("{:.1}", 100.0 * i.no_free_frac),
        ]);
    }
    let mut chart = Chart::new(
        &format!("{width}-way issue: commit IPC vs registers"),
        "registers",
        "IPC",
    );
    chart.series(
        'p',
        "precise",
        precise.iter().map(|p| (p.regs as f64, p.commit_ipc)).collect(),
    );
    chart.series(
        'i',
        "imprecise",
        imprecise.iter().map(|p| (p.regs as f64, p.commit_ipc)).collect(),
    );
    format!(
        "({width}-way issue, dq {})\n{}\n{}",
        width * 8,
        t.render(),
        chart.render(64, 12)
    )
}

/// Renders Figure 6 for both widths.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut out = String::from(
        "Figure 6: average commit IPC and %cycles with no free registers\n\
         vs register-file size (lockup-free cache)\n\n",
    );
    out.push_str(&render_width(4, scale, answers));
    out.push('\n');
    out.push_str(&render_width(8, scale, answers));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;

    #[test]
    fn more_registers_help_and_imprecise_helps_when_small() {
        let scale = Scale { commits: 8_000 };
        let small_p = simulate(
            &RunSpec::baseline("tomcatv", 4)
                .regs(40)
                .exceptions(ExceptionModel::Precise)
                .commits(scale.commits),
        );
        let small_i = simulate(
            &RunSpec::baseline("tomcatv", 4)
                .regs(40)
                .exceptions(ExceptionModel::Imprecise)
                .commits(scale.commits),
        );
        let big_p = simulate(
            &RunSpec::baseline("tomcatv", 4)
                .regs(256)
                .exceptions(ExceptionModel::Precise)
                .commits(scale.commits),
        );
        assert!(big_p.commit_ipc() > small_p.commit_ipc(), "registers should help tomcatv");
        assert!(
            small_i.commit_ipc() >= small_p.commit_ipc() * 0.98,
            "imprecise should not be slower when registers are scarce: {} vs {}",
            small_i.commit_ipc(),
            small_p.commit_ipc()
        );
        assert!(small_p.no_free_reg_fraction() > big_p.no_free_reg_fraction());
    }
}
