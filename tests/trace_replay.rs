//! Record/replay integration: a trace written to the RFT2 format and read
//! back must reproduce the original simulation exactly, through the
//! library and through the `rfstudy record`/`replay` commands.

use rfstudy::core::{MachineConfig, Pipeline, SimStats};
use rfstudy::workload::{spec92, SharedTrace, TraceGenerator};
use std::process::Command;

fn simulate(trace: &SharedTrace, commits: u64) -> SimStats {
    let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(96);
    Pipeline::new(config)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
        .expect("no cancel token")
        .0
}

#[test]
fn replayed_trace_reproduces_the_simulation() {
    const N: u64 = 6_000;
    for name in ["compress", "tomcatv"] {
        let profile = spec92::by_name(name).unwrap();
        // Record enough instructions to cover the fetch-ahead of N commits.
        let original = SharedTrace::new(&profile, 5, 4 * N as usize);
        let mut buf = Vec::new();
        original.write_to(&mut buf).unwrap();
        let replayed = SharedTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(
            original.cursor().take(4 * N as usize).collect::<Vec<_>>(),
            replayed.cursor().collect::<Vec<_>>()
        );
        assert_eq!(simulate(&original, N), simulate(&replayed, N), "{name}");
    }
}

#[test]
fn trace_files_round_trip_through_disk() {
    let profile = spec92::espresso();
    let path = std::env::temp_dir().join(format!("rfstudy_trace_test_{}.rft", std::process::id()));
    SharedTrace::new(&profile, 9, 2_000)
        .write_to(&mut std::fs::File::create(&path).unwrap())
        .unwrap();
    let replayed = SharedTrace::read_from(&mut std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let fresh: Vec<_> = TraceGenerator::new(&profile, 9).take(2_000).collect();
    assert_eq!(replayed.cursor().collect::<Vec<_>>(), fresh);
}

fn rfstudy(args: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(args.split_whitespace())
        .env_remove("RF_SANITIZE")
        .output()
        .expect("rfstudy runs")
}

/// The standard output of a successful run.
fn stdout_of(out: std::process::Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A recorded trace carries its benchmark and seed, so replaying it is
/// the same simulation as running the benchmark: same committed path,
/// same wrong path, the same statistics line for line.
#[test]
fn replay_reproduces_run() {
    let path = std::env::temp_dir().join(format!("rfstudy_replay_{}.rft", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    stdout_of(rfstudy(&format!("record --bench su2cor --seed 3 --count 60000 --out {file}")));
    let replay = rfstudy(&format!("replay --trace {file} --commits 20000"));
    let reseeded = rfstudy(&format!("replay --trace {file} --seed 4"));
    std::fs::remove_file(&path).ok();
    let (replayed, ran) =
        (stdout_of(replay), stdout_of(rfstudy("run --bench su2cor --seed 3 --commits 20000")));
    assert!(ran.contains("committed            : 20000"), "{ran}");
    assert_eq!(replayed.lines().collect::<Vec<_>>(), ran.lines().collect::<Vec<_>>());
    // The file fixes the seed: asking replay for another is a usage error.
    assert_eq!(reseeded.status.code(), Some(2));
}
