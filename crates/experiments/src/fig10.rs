//! Figure 10: register-file cycle time and estimated machine performance
//! (BIPS) vs register-file size, for both widths and exception models.
//!
//! As in the paper, machine cycle time is assumed to scale with the
//! *integer* register file's cycle time; BIPS = commit IPC / cycle time.
//! The characteristic result: BIPS has a maximum at a moderate register
//! count (below it, register-starvation stalls dominate; above it, the
//! growing register file slows every cycle), and the 8-way machine's peak
//! is only modestly above the 4-way machine's.

use crate::fig6::{self, REG_SIZES};
use crate::plot::Chart;
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::ExceptionModel;
use rf_timing::{bips, RegFileGeometry, TimingModel};

/// One width's Figure 10 data.
#[derive(Debug, Clone)]
pub struct WidthData {
    /// Issue width.
    pub width: usize,
    /// `(regs, int cycle ns, fp cycle ns, BIPS precise, BIPS imprecise)`.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
}

impl WidthData {
    /// The maximum BIPS under the given model, with its register count.
    pub fn peak(&self, model: ExceptionModel) -> (usize, f64) {
        self.rows
            .iter()
            .map(|&(regs, _, _, p, i)| {
                (regs, if model == ExceptionModel::Precise { p } else { i })
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("rows are non-empty")
    }
}

/// Figure 6's points: the figure re-reads its IPC sweeps.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    fig6::plan(scale)
}

/// Computes Figure 10 data for one width from the Figure 6 IPC sweeps
/// under both models.
pub fn width_data(width: usize, scale: &Scale, answers: &Answers) -> WidthData {
    let model = TimingModel::cmos_05um();
    let precise = fig6::sweep(width, ExceptionModel::Precise, scale, answers);
    let imprecise = fig6::sweep(width, ExceptionModel::Imprecise, scale, answers);
    let rows = REG_SIZES
        .iter()
        .enumerate()
        .map(|(i, &regs)| {
            let t_int = model.cycle_time_ns(&RegFileGeometry::int_for_width(width, regs));
            let t_fp = model.cycle_time_ns(&RegFileGeometry::fp_for_width(width, regs));
            (
                regs,
                t_int,
                t_fp,
                bips(precise[i].commit_ipc, t_int),
                bips(imprecise[i].commit_ipc, t_int),
            )
        })
        .collect();
    WidthData { width, rows }
}

fn render_width(data: &WidthData) -> String {
    let mut t = Table::new(vec![
        "regs",
        "int.cycle(ns)",
        "fp.cycle(ns)",
        "BIPS.precise",
        "BIPS.imprecise",
    ]);
    for &(regs, ti, tf, bp, bi) in &data.rows {
        t.row(vec![
            regs.to_string(),
            format!("{ti:.3}"),
            format!("{tf:.3}"),
            format!("{bp:.2}"),
            format!("{bi:.2}"),
        ]);
    }
    let (pr, pb) = data.peak(ExceptionModel::Precise);
    let (ir, ib) = data.peak(ExceptionModel::Imprecise);
    let mut chart = Chart::new(
        &format!("{}-way issue: BIPS and cycle time vs registers", data.width),
        "registers",
        "BIPS / ns*4",
    );
    chart.series(
        'P',
        "BIPS precise",
        data.rows.iter().map(|r| (r.0 as f64, r.3)).collect(),
    );
    chart.series(
        'I',
        "BIPS imprecise",
        data.rows.iter().map(|r| (r.0 as f64, r.4)).collect(),
    );
    chart.series(
        't',
        "int cycle (ns, x4 scale)",
        data.rows.iter().map(|r| (r.0 as f64, r.1 * 4.0)).collect(),
    );
    format!(
        "({}-way issue, dq {})\n{}peak BIPS: precise {pb:.2} at {pr} regs, imprecise {ib:.2} at {ir} regs\n\n{}",
        data.width,
        data.width * 8,
        t.render(),
        chart.render(64, 14)
    )
}

/// Renders Figure 10 for both widths, including the paper's 4-way vs
/// 8-way peak comparison.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let four = width_data(4, scale, answers);
    let eight = width_data(8, scale, answers);
    let gain = eight.peak(ExceptionModel::Precise).1 / four.peak(ExceptionModel::Precise).1;
    format!(
        "Figure 10: register-file timing and estimated machine performance\n\
         (machine cycle time assumed proportional to the integer register file's)\n\n{}\n{}\n\
         8-way peak BIPS / 4-way peak BIPS (precise) = {gain:.2} \
         (paper: ~1.20)\n",
        render_width(&four),
        render_width(&eight),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bips_peaks_at_moderate_register_counts() {
        let scale = Scale { commits: 6_000 };
        let four: Vec<RunSpec> = plan(&scale).into_iter().filter(|s| s.width == 4).collect();
        let answers = crate::suite::answer(&four);
        let data = width_data(4, &scale, &answers);
        let (peak_regs, peak) = data.peak(ExceptionModel::Precise);
        // The smallest and largest register files must not be the peak by
        // a clear margin (the paper's maxima are interior).
        let first = data.rows.first().unwrap().3;
        let last = data.rows.last().unwrap().3;
        assert!(peak > first, "peak {peak} at {peak_regs} vs 32-reg {first}");
        assert!(peak >= last, "peak {peak} at {peak_regs} vs 256-reg {last}");
    }
}
