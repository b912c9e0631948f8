//! End-to-end shape check against Table 1 of the paper: per-benchmark
//! issue/commit IPC for both issue widths on the baseline machine
//! (2048 registers, lockup-free cache, dq 32 / 64).
//!
//! Absolute IPCs need not match the paper (our traces are synthetic), but
//! the broad shape must: every benchmark sustains reasonable throughput,
//! issue IPC >= commit IPC, widening the machine helps (except for the
//! serial `ora`), and tomcatv gains the most from width.

use rf_core::{MachineConfig, Pipeline};
use rf_workload::{spec92, TraceGenerator, WrongPathGenerator};

const N: u64 = 60_000;

fn run(name: &str, width: usize, dq: usize) -> rf_core::SimStats {
    let profile = spec92::by_name(name).expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, 7);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    let config = MachineConfig::new(width).dispatch_queue(dq).physical_regs(2048);
    Pipeline::new(config)
        .run(&mut trace, &mut wrong_path, N)
        .expect("no cancel token")
        .0
}

#[test]
fn table1_ipc_shape() {
    // (name, paper commit IPC 4-way, paper commit IPC 8-way)
    #[allow(clippy::approx_constant)] // gcc1's 8-way commit IPC really is 3.14
    let rows = [
        ("compress", 2.09, 2.50),
        ("doduc", 2.49, 3.97),
        ("espresso", 3.04, 4.26),
        ("gcc1", 2.35, 3.14),
        ("mdljdp2", 2.12, 3.36),
        ("mdljsp2", 2.69, 4.28),
        ("ora", 1.86, 2.08),
        ("su2cor", 3.22, 5.65),
        ("tomcatv", 2.77, 5.51),
    ];
    let mut failures = Vec::new();
    for (name, paper4, paper8) in rows {
        let s4 = run(name, 4, 32);
        let s8 = run(name, 8, 64);
        println!(
            "{name:10} 4-way issue {:.2} commit {:.2} (paper {paper4:.2})  miss {:.3} mispred {:.3} | \
             8-way issue {:.2} commit {:.2} (paper {paper8:.2})  miss {:.3} mispred {:.3}",
            s4.issue_ipc(),
            s4.commit_ipc(),
            s4.cache.load_miss_rate(),
            s4.mispredict_rate(),
            s8.issue_ipc(),
            s8.commit_ipc(),
            s8.cache.load_miss_rate(),
            s8.mispredict_rate(),
        );
        // Issue IPC always at least commit IPC (wrong-path work).
        if s4.issue_ipc() + 1e-9 < s4.commit_ipc() || s8.issue_ipc() + 1e-9 < s8.commit_ipc() {
            failures.push(format!("{name}: issue IPC below commit IPC"));
        }
        // Commit IPC within a factor band of the paper's value.
        for (got, want, w) in [(s4.commit_ipc(), paper4, 4), (s8.commit_ipc(), paper8, 8)] {
            if got < want * 0.6 || got > want * 1.45 {
                failures.push(format!("{name} {w}-way: commit IPC {got:.2} vs paper {want:.2}"));
            }
        }
        // Widening never hurts materially.
        if s8.commit_ipc() < s4.commit_ipc() * 0.95 {
            failures.push(format!("{name}: 8-way slower than 4-way"));
        }
    }
    assert!(failures.is_empty(), "shape drift:\n{}", failures.join("\n"));
}
