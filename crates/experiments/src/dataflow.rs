//! Dataflow ILP limits vs achieved IPC.
//!
//! The paper cites Wall's limits-of-ILP study when motivating register
//! requirements; this experiment computes the matching numbers for our
//! traces: the idealised dataflow-limited IPC of each benchmark
//! (unbounded, and with sliding windows approximating finite instruction
//! buffers), next to the IPC the simulated 4- and 8-way machines actually
//! achieve — i.e. how much of the available parallelism realistic
//! configurations harvest.

use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::dataflow::Schedule;
use rf_workload::{spec92, TraceGenerator};

/// One benchmark's row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Unbounded dataflow-limit IPC.
    pub limit: f64,
    /// Dataflow-limit IPC with a 64-entry sliding window.
    pub limit_w64: f64,
    /// Achieved commit IPC, 4-way machine.
    pub achieved4: f64,
    /// Achieved commit IPC, 8-way machine.
    pub achieved8: f64,
}

/// Table 1's baselines: the achieved-IPC columns.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    crate::table1::plan(scale)
}

/// Computes the rows for all nine benchmarks.
pub fn rows(scale: &Scale, answers: &Answers) -> Vec<Row> {
    let [four, eight] = [4, 8].map(|width| crate::table1::baselines(width, scale));
    spec92::all()
        .into_iter()
        .zip(four.iter().zip(&eight))
        .map(|(p, (four, eight))| {
            let (a4, a8) = (answers.get(four), answers.get(eight));
            // The limits analyse the trace the baselines simulate, both
            // windows in one pass.
            let mut limits = [None, Some(64)].map(|w| Schedule::new(None, w));
            for inst in TraceGenerator::new(&p, four.seed).take(four.commits as usize) {
                for schedule in &mut limits {
                    schedule.step(&inst);
                }
            }
            let [limit, limit_w64] = limits.map(|s| s.limit());
            Row {
                name: p.name,
                limit: limit.ipc(),
                limit_w64: limit_w64.ipc(),
                achieved4: a4.commit_ipc(),
                achieved8: a8.commit_ipc(),
            }
        })
        .collect()
}

/// Renders the dataflow-limit comparison.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "dataflow IPC",
        "window-64 IPC",
        "4-way IPC",
        "8-way IPC",
        "harvest@8 %",
    ]);
    for r in rows(scale, answers) {
        t.row(vec![
            r.name,
            format!("{:.1}", r.limit),
            format!("{:.1}", r.limit_w64),
            format!("{:.2}", r.achieved4),
            format!("{:.2}", r.achieved8),
            format!("{:.0}", 100.0 * r.achieved8 / r.limit_w64.max(1e-9)),
        ]);
    }
    format!(
        "Dataflow ILP limits vs achieved IPC (perfect prediction + memory,\n\
         unlimited units/registers for the limits; baseline machines for\n\
         the achieved columns).\n\
         Note: the window-64 limit uses a *completion* window (instruction\n\
         i waits for i-64 to finish), which is stricter than a 64-entry\n\
         dispatch queue that frees entries at issue — so harvest can\n\
         exceed 100%.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_dominate_achieved_ipc() {
        let scale = Scale { commits: 5_000 };
        let answers = crate::suite::answer(&plan(&scale));
        for r in rows(&scale, &answers) {
            assert!(
                r.limit + 1e-9 >= r.limit_w64,
                "{}: window can only reduce the limit",
                r.name
            );
            assert!(
                r.limit_w64 * 1.05 >= r.achieved4,
                "{}: 4-way {} exceeds window-64 limit {}",
                r.name,
                r.achieved4,
                r.limit_w64
            );
        }
    }
}
