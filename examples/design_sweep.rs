//! Design-space sweep: find the BIPS-optimal register-file size for a
//! machine, combining the simulator with the register-file timing model
//! (the paper's Figure 10 methodology as a reusable tool).
//!
//! Machine cycle time is assumed proportional to the integer register
//! file's cycle time, so growing the register file trades fewer
//! register-starvation stalls against a slower clock; the sweet spot is
//! interior.
//!
//! ```sh
//! cargo run --release --example design_sweep [width] [commits]
//! ```

use rfstudy::core::{MachineConfig, Pipeline};
use rfstudy::timing::{bips, RegFileGeometry, TimingModel};
use rfstudy::workload::{spec92, SharedTrace};

fn main() {
    let mut args = std::env::args().skip(1);
    let width: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(4);
    let commits: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let timing = TimingModel::cmos_05um();

    println!("{width}-way issue, dq {}, averaged over all nine benchmarks\n", width * 8);
    println!("{:>6} {:>10} {:>12} {:>8}", "regs", "avg IPC", "cycle (ns)", "BIPS");
    // Each benchmark's trace is generated once and replayed at every size.
    let len = commits.min(SharedTrace::MAX_BUFFERED) as usize;
    let traces: Vec<_> = spec92::all().iter().map(|p| SharedTrace::new(p, 1, len)).collect();
    let mut best = (0usize, 0.0f64);
    for regs in [32usize, 48, 64, 80, 96, 128, 160, 256] {
        let mut ipc_sum = 0.0;
        for trace in &traces {
            let config = MachineConfig::new(width).physical_regs(regs);
            let (stats, _) = Pipeline::new(config)
                .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
                .expect("no cancel token");
            ipc_sum += stats.commit_ipc();
        }
        let ipc = ipc_sum / traces.len() as f64;
        let cycle = timing.cycle_time_ns(&RegFileGeometry::int_for_width(width, regs));
        let b = bips(ipc, cycle);
        if b > best.1 {
            best = (regs, b);
        }
        println!("{regs:>6} {ipc:>10.2} {cycle:>12.3} {b:>8.2}");
    }
    println!("\nBIPS-optimal register file: {} registers ({:.2} BIPS)", best.0, best.1);
}
