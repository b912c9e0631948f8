//! End-to-end fault isolation through the real suite binary (requires
//! the `fault-probe` feature): `RF_FAULT=<harness>` adds a panicking
//! simulation to one harness's plan, and the suite must lose *only* that
//! harness — every other report file is byte-identical to a fault-free
//! run, the ledger record carries the error, and the process exits
//! nonzero.
//!
//! Run with `cargo test -p rf-experiments --features fault-probe
//! --test faults` (the CI fault-injection smoke job does exactly this).

#![cfg(feature = "fault-probe")]

use rf_experiments::suite::HARNESSES;
use rf_obs::ledger;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Commit budget for the miniature suite runs (matches tests/ledger.rs).
const COMMITS: &str = "300";

/// The harness the fault is injected into, chosen from the middle of
/// the suite so the test observes both "already ran" and "still to run"
/// harnesses surviving the panic.
const VICTIM: &str = "fig5";

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-faults-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the suite binary in `dir` (sequential, pinned git revision so
/// ledger payloads are comparable) and returns its exit code.
fn run_suite(dir: &Path, fault: Option<&str>) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    cmd.arg(COMMITS)
        .current_dir(dir)
        .env("RF_JOBS", "1")
        .env("RF_GIT_REV", "faults-e2e-rev")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    match fault {
        Some(name) => cmd.env("RF_FAULT", name),
        None => cmd.env_remove("RF_FAULT"),
    };
    cmd.status().expect("suite binary runs").code().expect("not killed by a signal")
}

#[test]
fn injected_panic_loses_only_the_faulted_harness() {
    let clean_dir = workdir("clean");
    let fault_dir = workdir("fault");

    assert_eq!(run_suite(&clean_dir, None), 0, "fault-free suite exits 0");
    assert_eq!(run_suite(&fault_dir, Some(VICTIM)), 1, "faulted suite exits 1");

    // The victim writes no report; every survivor's report is
    // byte-identical to the fault-free run's.
    assert!(
        !fault_dir.join(format!("results/{VICTIM}.txt")).exists(),
        "a failed harness must not write a report file"
    );
    for name in HARNESSES.iter().map(|h| h.name).filter(|&n| n != VICTIM) {
        let path = format!("results/{name}.txt");
        let clean = std::fs::read(clean_dir.join(&path)).expect(&path);
        let faulted = std::fs::read(fault_dir.join(&path)).expect(&path);
        assert_eq!(clean, faulted, "{name} report changed under a fault elsewhere");
    }

    // The ledger record still covers all twelve harnesses and pins the
    // error to the victim alone.
    let records = ledger::read_ledger(&fault_dir.join(ledger::LEDGER_PATH)).unwrap();
    assert_eq!(records.len(), 1);
    let harnesses = records[0].get("harnesses").unwrap().as_array().unwrap();
    assert_eq!(harnesses.len(), 12);
    for h in harnesses {
        let name = h.get_str("name").unwrap();
        let error = h.get("error").and_then(rf_obs::json::Value::as_str);
        if name == VICTIM {
            let error = error.expect("victim carries an error");
            assert!(error.contains("injected fault probe"), "{error}");
        } else {
            assert_eq!(error, None, "{name} must not carry an error");
        }
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}
