//! End-to-end durable-store behavior through the real suite binary:
//! `RF_STORE=1` must be output-neutral on a cold run, serve a warm
//! re-run from disk byte-identically, recover from a crash-torn segment
//! tail, and stay consistent under two concurrent writer processes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Commit budget for the miniature suite runs (matches tests/faults.rs).
const COMMITS: &str = "300";

const ALL_HARNESSES: [&str; 12] = [
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "ablation",
    "extensions",
    "sensitivity",
    "dataflow",
];

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-store-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a suite-binary invocation rooted in `dir` (sequential, pinned
/// git revision), with the durable store pointed at `store_dir` when
/// given and fully off otherwise.
fn suite_command(dir: &Path, store_dir: Option<&Path>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    cmd.arg(COMMITS)
        .current_dir(dir)
        .env("RF_JOBS", "1")
        .env("RF_GIT_REV", "store-e2e-rev")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    match store_dir {
        Some(s) => cmd.env("RF_STORE", "1").env("RF_STORE_DIR", s),
        None => cmd.env_remove("RF_STORE"),
    };
    cmd
}

fn run_suite(dir: &Path, store_dir: Option<&Path>) -> i32 {
    suite_command(dir, store_dir)
        .status()
        .expect("suite binary runs")
        .code()
        .expect("not killed by a signal")
}

/// Asserts every harness report in `a` and `b` is byte-identical.
fn assert_reports_identical(a: &Path, b: &Path, context: &str) {
    for name in ALL_HARNESSES {
        let path = format!("results/{name}.txt");
        let left = std::fs::read(a.join(&path)).expect(&path);
        let right = std::fs::read(b.join(&path)).expect(&path);
        assert_eq!(left, right, "{context}: {name} report diverged");
    }
}

/// The `store` block of the newest record in a run's ledger.
fn ledger_store(dir: &Path) -> rf_obs::json::Value {
    let records =
        rf_obs::ledger::read_ledger(&dir.join(rf_obs::ledger::LEDGER_PATH)).expect("ledger");
    records.last().expect("one record per run").get("store").expect("store key").clone()
}

/// The `(hits, misses, writes)` store block of a run's ledger record.
fn store_block(dir: &Path) -> (u64, u64, u64) {
    let s = ledger_store(dir);
    (
        s.get_f64("hits").expect("hits") as u64,
        s.get_f64("misses").expect("misses") as u64,
        s.get_f64("writes").expect("writes") as u64,
    )
}

#[test]
fn store_is_neutral_cold_serves_warm_runs_and_recovers_from_a_torn_tail() {
    let off_dir = workdir("off");
    let cold_dir = workdir("cold");
    let warm_dir = workdir("warm");
    let crash_dir = workdir("crash");
    let store_dir = workdir("store").join("store");

    // Baseline without the store, then a cold run that populates it.
    assert_eq!(run_suite(&off_dir, None), 0, "store-off suite exits 0");
    assert_eq!(run_suite(&cold_dir, Some(&store_dir)), 0, "cold suite exits 0");

    // Neutrality: RF_STORE=1 must not change a single report byte.
    assert_reports_identical(&off_dir, &cold_dir, "store-off vs cold store-on");
    assert_eq!(
        ledger_store(&off_dir),
        rf_obs::json::Value::Null,
        "store-off run renders a null store block"
    );
    let (cold_hits, cold_misses, cold_writes) = store_block(&cold_dir);
    assert_eq!(cold_hits, 0, "an empty store serves nothing");
    assert!(cold_writes > 0, "the cold run persists its results");
    assert_eq!(cold_writes, cold_misses, "every cold miss is written behind");

    // Warm re-run in a fresh working directory: byte-identical reports,
    // with at least 95% of store lookups served from disk.
    assert_eq!(run_suite(&warm_dir, Some(&store_dir)), 0, "warm suite exits 0");
    assert_reports_identical(&cold_dir, &warm_dir, "cold vs warm");
    let (hits, misses, writes) = store_block(&warm_dir);
    let served = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        served >= 0.95,
        "warm run must serve >=95% from disk (hits {hits}, misses {misses})"
    );
    assert_eq!(writes, misses, "only re-executed results are re-persisted");

    // Crash simulation: tear the active segment's tail mid-record. The
    // next run must recover (rotate past the damage), re-execute only
    // what the tear lost, and still reproduce every report byte.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort();
    let active = segs.last().expect("cold run created a segment");
    let len = std::fs::metadata(active).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(active)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    assert_eq!(run_suite(&crash_dir, Some(&store_dir)), 0, "post-crash suite exits 0");
    assert_reports_identical(&cold_dir, &crash_dir, "cold vs post-crash");
    let (_, _, crash_writes) = store_block(&crash_dir);
    assert!(crash_writes >= 1, "the torn record's spec is re-executed and re-written");

    // The recovered store passes a full integrity check.
    let report = rf_store::Store::open(&store_dir).unwrap().snapshot().unwrap().verify();
    assert!(report.is_clean(), "recovered store verifies clean: {report:?}");
    assert!(report.torn >= 1, "the damaged tail is still counted until compaction");

    for dir in [&off_dir, &cold_dir, &warm_dir, &crash_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(store_dir.parent().unwrap());
}

#[test]
fn two_concurrent_suite_processes_share_one_store_consistently() {
    let a_dir = workdir("proc-a");
    let b_dir = workdir("proc-b");
    let store_dir = workdir("shared").join("store");

    // Both processes race cold against the same store: every append is
    // a whole-record O_APPEND write under the shared lock, so neither
    // can tear or clobber the other.
    let mut a = suite_command(&a_dir, Some(&store_dir)).spawn().unwrap();
    let mut b = suite_command(&b_dir, Some(&store_dir)).spawn().unwrap();
    assert_eq!(a.wait().unwrap().code(), Some(0), "process A exits 0");
    assert_eq!(b.wait().unwrap().code(), Some(0), "process B exits 0");

    assert_reports_identical(&a_dir, &b_dir, "concurrent writers");
    let snap = rf_store::Store::open(&store_dir).unwrap().snapshot().unwrap();
    assert!(!snap.is_empty());
    let report = snap.verify();
    assert!(report.is_clean(), "shared store verifies clean: {report:?}");
    assert_eq!(report.torn, 0, "concurrent whole-record appends never tear");

    let _ = std::fs::remove_dir_all(&a_dir);
    let _ = std::fs::remove_dir_all(&b_dir);
    let _ = std::fs::remove_dir_all(store_dir.parent().unwrap());
}
