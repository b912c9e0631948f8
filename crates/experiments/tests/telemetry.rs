//! End-to-end live-telemetry contract through the real suite binary:
//!
//! 1. **Neutrality** — a run with `RF_TELEMETRY=1` produces report
//!    files byte-identical to a run without it.
//! 2. **Monotonicity** — snapshot sequence numbers and every counter
//!    are non-decreasing across the stream, even with four workers.
//! 3. **Reconciliation** — the final snapshot's counters equal the
//!    corresponding `BENCH_suite.json` totals exactly, and the ledger's
//!    telemetry block repeats the stream's closing digest.

use rf_obs::ledger;
use rf_obs::live;
use rf_prof::counters::Counter;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Commit budget for the miniature suite runs (matches tests/faults.rs).
const COMMITS: &str = "300";

fn workdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rf-telemetry-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the suite binary in `dir` with four workers and a pinned git
/// revision; `telemetry` flips the live runtime (at a 25ms sampler so a
/// sub-minute suite still produces several snapshots).
fn run_suite(dir: &Path, telemetry: bool) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    cmd.arg(COMMITS)
        .current_dir(dir)
        .env("RF_JOBS", "4")
        .env("RF_GIT_REV", "telemetry-e2e-rev")
        .env_remove("RF_METRICS_ADDR")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if telemetry {
        cmd.env("RF_TELEMETRY", "1").env("RF_TELEMETRY_INTERVAL_MS", "25");
    } else {
        cmd.env_remove("RF_TELEMETRY").env_remove("RF_TELEMETRY_INTERVAL_MS");
    }
    cmd.status().expect("suite binary runs").code().expect("not killed by a signal")
}

/// Every `results/*.txt` report in `dir`, sorted by name.
fn report_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results directory exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".txt"))
        .collect();
    names.sort();
    names
}

#[test]
fn telemetry_is_neutral_monotone_and_reconciles_with_the_bench_report() {
    let off_dir = workdir("off");
    let on_dir = workdir("on");
    assert_eq!(run_suite(&off_dir, false), 0, "baseline suite exits 0");
    assert_eq!(run_suite(&on_dir, true), 0, "telemetry suite exits 0");

    // --- Neutrality: every report is byte-identical either way. ---
    let names = report_files(&off_dir);
    assert!(!names.is_empty(), "suite wrote report files");
    assert_eq!(names, report_files(&on_dir), "same report set");
    for name in &names {
        let off = std::fs::read(off_dir.join("results").join(name)).unwrap();
        let on = std::fs::read(on_dir.join("results").join(name)).unwrap();
        assert_eq!(off, on, "{name} changed under RF_TELEMETRY=1");
    }
    assert!(
        !off_dir.join(live::LIVE_PATH).exists(),
        "a telemetry-off run must not touch the stream file"
    );

    // --- The stream parses, and its counters only ever grow. ---
    let text = std::fs::read_to_string(on_dir.join(live::LIVE_PATH)).unwrap();
    let (header, snaps) = live::parse_stream(&text).expect("stream parses");
    let header = header.expect("stream opens with a run header");
    assert_eq!(header.interval_ms, 25);
    assert_eq!(header.commits, 300);
    assert_eq!(header.jobs, 4);
    assert!(!snaps.is_empty(), "at least the final snapshot is written");
    for pair in snaps.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq must increase");
        assert!(pair[1].elapsed_s >= pair[0].elapsed_s, "time must advance");
        assert!(pair[1].suite.done >= pair[0].suite.done, "done must grow");
        for ((name, a), (_, b)) in pair[0].counters.iter().zip(pair[1].counters.iter()) {
            assert!(b >= a, "counter {name} decreased: {a} -> {b}");
        }
    }
    let last = snaps.last().unwrap();
    assert!(last.is_final, "the stream ends with the final snapshot");
    assert!(snaps.iter().rev().skip(1).all(|s| !s.is_final), "exactly one final snapshot");
    let c = |counter| last.counters.get(counter);
    assert_eq!(
        c(Counter::SimsStarted),
        c(Counter::SimsCompleted) + c(Counter::SimsFailed),
        "every started simulation resolves before finalize"
    );
    assert_eq!(c(Counter::SimsFailed), 0, "a clean suite fails nothing");
    assert_eq!(last.suite.done, last.suite.total, "all harnesses finished");
    let worker_sims: u64 = last.workers.iter().map(|w| w.sims).sum();
    assert_eq!(worker_sims, c(Counter::SimsCompleted), "worker cells cover every executed sim");

    // --- Exact reconciliation with the bench report. ---
    let bench =
        std::fs::read_to_string(on_dir.join("results/BENCH_suite.json")).unwrap();
    let bench = rf_obs::json::parse(&bench).expect("bench report is JSON");
    let total = |key: &str| bench.get_f64(key).unwrap_or_else(|| panic!("missing {key}")) as u64;
    assert_eq!(c(Counter::SimsCompleted), total("simulations"));
    assert_eq!(c(Counter::InstructionsCommitted), total("instructions_committed"));
    assert_eq!(c(Counter::CacheHits), total("cache_hits"));
    assert_eq!(c(Counter::CacheMisses), total("cache_misses"));
    let harness_cycles: u64 = bench
        .get("harnesses")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|h| h.get_f64("cycles").unwrap() as u64)
        .sum();
    assert_eq!(c(Counter::Cycles), harness_cycles, "cycles reconcile harness-by-harness");

    // --- The ledger's telemetry block ties back to the stream. ---
    let records = ledger::read_ledger(&on_dir.join(ledger::LEDGER_PATH)).unwrap();
    assert_eq!(records.len(), 1);
    let t = records[0].get("telemetry").expect("telemetry block recorded");
    assert_eq!(t.get_f64("interval_ms"), Some(25.0));
    assert_eq!(t.get_f64("snapshots"), Some(snaps.len() as f64));
    assert_eq!(t.get_f64("snapshots"), Some(last.seq as f64));
    assert_eq!(
        t.get_str("digest"),
        last.digest.as_deref(),
        "ledger digest repeats the final snapshot's"
    );
    assert_eq!(last.digest.as_deref(), Some(live::digest_counters(&last.counters).as_str()));

    // A telemetry-off run records no block at all.
    let off_records = ledger::read_ledger(&off_dir.join(ledger::LEDGER_PATH)).unwrap();
    assert_eq!(off_records[0].get("telemetry"), Some(&rf_obs::json::Value::Null));

    let _ = std::fs::remove_dir_all(&off_dir);
    let _ = std::fs::remove_dir_all(&on_dir);
}
