//! End-to-end durable-store behavior through the real suite binary:
//! `RF_STORE=1` must be output-neutral on a cold run, serve a warm
//! re-run from disk byte-identically, recover from a crash-torn segment
//! tail, and stay consistent under two concurrent writer processes. The
//! suite's answer audit samples what the store served, so a wrong stored
//! answer fails a warm run.

use rf_experiments::codec;
use rf_experiments::runner::{self, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// The `(fresh, reused, store, violations)` audit block of the newest
/// record in a run's ledger.
fn audit_block(dir: &Path) -> (u64, u64, u64, u64) {
    let records =
        rf_obs::ledger::read_ledger(&dir.join(rf_obs::ledger::LEDGER_PATH)).expect("ledger");
    let audit = records.last().expect("one record per run").get("audit").expect("audit key");
    let samples = audit.get("samples").expect("audit samples");
    let n = |v: &rf_obs::json::Value, key: &str| v.get_f64(key).expect(key) as u64;
    (n(samples, "fresh"), n(samples, "reused"), n(samples, "store"), n(audit, "violations"))
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
    let (fresh, reused, store, violations) = audit_block(&cold_dir);
    assert!(fresh > 0 && reused > 0, "a cold run audits fresh and reused answers");
    assert_eq!((store, violations), (0, 0), "a clean cold run passes its audit");

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
    let (_, _, store, violations) = audit_block(&warm_dir);
    assert!(store > 0, "a warm run audits what the store served");
    assert_eq!(violations, 0, "a clean warm run passes its audit");

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

/// Runs the suite's fig8 harness alone in `dir` against `store_dir`.
fn only_fig8(dir: &Path, store_dir: &Path) -> std::process::Output {
    let mut cmd = suite_command(dir, Some(store_dir));
    cmd.args(["--only", "fig8"]).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.output().expect("suite binary runs")
}

#[test]
fn a_damaged_record_is_rewritten_by_the_next_run() {
    let dirs = ["heal-cold", "heal-first", "heal-second"].map(workdir);
    let store_dir = workdir("heal").join("store");
    assert!(only_fig8(&dirs[0], &store_dir).status.success(), "cold run exits 0");
    let (_, planned, _) = store_block(&dirs[0]);

    // Flip the last payload byte of the last record: its checksum fails.
    let seg = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .max()
        .expect("the cold run wrote a segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    // The next run simulates and rewrites that one spec; the run after
    // it is served entirely from the store.
    assert!(only_fig8(&dirs[1], &store_dir).status.success(), "first warm run exits 0");
    assert_eq!(store_block(&dirs[1]), (planned - 1, 1, 1), "hits, misses, writes");
    assert!(only_fig8(&dirs[2], &store_dir).status.success(), "second warm run exits 0");
    assert_eq!(store_block(&dirs[2]), (planned, 0, 0), "hits, misses, writes");
    for dir in &dirs[1..] {
        let (a, b) = (dirs[0].join("results/fig8.txt"), dir.join("results/fig8.txt"));
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "fig8 report");
    }

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(store_dir.parent().unwrap());
}

#[test]
fn a_wrong_store_answer_fails_the_warm_audit() {
    let cold_dir = workdir("tamper-cold");
    let warm_dir = workdir("tamper-warm");
    let store_dir = workdir("tamper").join("store");
    let only_fig8 = |dir: &Path| only_fig8(dir, &store_dir);
    assert!(only_fig8(&cold_dir).status.success(), "cold run exits 0");

    // On a warm store every answer is a store answer, so the sample
    // holds the lowest-ranked spec. Supersede its record with one whose
    // statistics are wrong, under the spec's real key: the record is
    // well formed, its checksum valid and its histograms still sum to
    // its cycles, only the answer is wrong.
    let plan = (rf_experiments::suite::harness("fig8").unwrap().plan)(&Scale {
        commits: COMMITS.parse().unwrap(),
    });
    let spec = plan.iter().min_by_key(|s| codec::spec_digest(s)).expect("fig8 plans specs");
    let mut wrong = runner::try_simulate(spec).expect("simulates");
    wrong.issued += 1;
    let key = codec::spec_key_bytes(spec);
    let store = rf_store::Store::open(&store_dir).unwrap();
    let digest = rf_store::Digest::of(&key);
    store.append(codec::DIGEST_SCHEMA, digest, &key, &codec::encode_stored_stats(&wrong)).unwrap();
    store.sync().unwrap();

    let warm = only_fig8(&warm_dir);
    let stdout = String::from_utf8_lossy(&warm.stdout);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert_eq!(warm.status.code(), Some(1), "a wrong answer fails the suite: {stdout}");
    let named = format!("store answer {digest} {spec:?}: ");
    assert!(stdout.contains("audit: VIOLATED ("), "{stdout}");
    assert!(stdout.contains(&named), "the violation names the spec: {stdout}");
    assert!(stderr.contains("suite FAILED: 1 of "), "{stderr}");
    assert!(stderr.contains(&named), "{stderr}");
    // The record is appended before the exit.
    let (_, _, store_samples, violations) = audit_block(&warm_dir);
    assert!(store_samples > 0);
    assert_eq!(violations, 1);

    for dir in [&cold_dir, &warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(store_dir.parent().unwrap());
}
