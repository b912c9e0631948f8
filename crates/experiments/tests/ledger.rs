//! End-to-end tests of the run-history ledger through the real suite
//! binary: two sequential runs of `all` must append
//! records whose deterministic metric payloads are byte-identical, and
//! every record must carry the schema-versioned structure `rfstudy
//! report` consumes.
//!
//! The suite runs at a tiny commit budget in a private temp directory,
//! so these tests exercise the whole write path (harness timing, phase
//! timers, probe attachment, headline extraction, atomic append)
//! without the cost of a real suite run. The ledger is the suite's one
//! run record: no other run-record file is written.

use rf_obs::json::Value;
use rf_obs::ledger::{self, metric_payload};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Commit budget for the miniature suite runs. Small enough to keep the
/// test fast, large enough that every harness commits real work.
const COMMITS: &str = "300";

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-ledger-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the suite binary once in `dir` with a sequential worker pool
/// and a pinned git revision, then returns the parsed records of the
/// ledger it wrote.
fn run_suite(dir: &Path) -> Vec<Value> {
    let status = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg(COMMITS)
        .current_dir(dir)
        .env("RF_JOBS", "1")
        .env("RF_GIT_REV", "e2e-test-rev")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("suite binary runs");
    assert!(status.success(), "suite binary exited with {status}");
    ledger::read_ledger(&dir.join(ledger::LEDGER_PATH)).expect("ledger parses")
}

#[test]
fn suite_runs_append_deterministic_schema_versioned_records() {
    // First invocation in a fresh directory: one record.
    let dir_a = workdir("a");
    let first = run_suite(&dir_a);
    assert_eq!(first.len(), 1, "one invocation appends one record");

    // Second invocation in the same directory: the ledger accumulates.
    let second = run_suite(&dir_a);
    assert_eq!(second.len(), 2, "appends accumulate across invocations");
    // The ledger is the only run record: neither the deleted JSON bench
    // report nor a repo-root copy of the newest record is written.
    let mut written = Vec::new();
    for sub in [".", "results"] {
        for entry in std::fs::read_dir(dir_a.join(sub)).unwrap() {
            written.push(format!("{sub}/{}", entry.unwrap().file_name().to_string_lossy()));
        }
    }
    written.sort();
    let reports = written.iter().filter(|p| p.ends_with(".txt")).count();
    assert_eq!(reports, 12, "one report per harness: {written:?}");
    let others: Vec<&String> = written.iter().filter(|p| !p.ends_with(".txt")).collect();
    assert_eq!(others, ["./results", "results/history"], "no other run-record file");

    // A run in a different directory reproduces the same deterministic
    // payload: strip volatile members (timestamps, seconds, peak RSS) and
    // the renderings must be byte-identical. This is the determinism
    // guarantee the ledger's cross-run comparisons rest on.
    let dir_b = workdir("b");
    let other = run_suite(&dir_b);
    let payloads: Vec<String> = [&second[0], &second[1], &other[0]]
        .iter()
        .map(|r| metric_payload(r).to_string())
        .collect();
    assert_eq!(payloads[0], payloads[1], "same-dir reruns agree");
    assert_eq!(payloads[0], payloads[2], "fresh-dir reruns agree");

    // Schema and content sanity on the record the report layer will read.
    let rec = &second[1];
    assert_eq!(rec.get_f64("schema"), Some(ledger::SCHEMA_VERSION as f64));
    assert_eq!(rec.get_str("git_rev"), Some("e2e-test-rev"));
    let config = rec.get("config").unwrap();
    assert_eq!(config.get_f64("commits"), Some(300.0));
    assert_eq!(config.get_f64("jobs"), Some(1.0));
    assert_eq!(config.get("cache"), None, "the RF_CACHE flag is gone");
    // The sanitizer block replaced the constant `config.sanitize` flag.
    assert_eq!(config.get("sanitize"), None);
    // Eight sanitized configurations, plus the reuse audit: the register
    // sweeps reuse saturated runs even at this scale.
    let sanitizer = rec.get("sanitizer").unwrap();
    assert!(rec.get("totals").unwrap().get_f64("reused").unwrap() > 0.0);
    assert_eq!(sanitizer.get_f64("probes"), Some(9.0));
    assert!(sanitizer.get_f64("events").unwrap() > 0.0);
    assert_eq!(sanitizer.get_f64("violations"), Some(0.0));
    let phase = rec.get("phase_seconds").unwrap();
    for key in ["generate", "simulate", "aggregate"] {
        assert!(phase.get_f64(key).unwrap() >= 0.0);
    }
    let harnesses = rec.get("harnesses").unwrap().as_array().unwrap();
    assert_eq!(harnesses.len(), 12, "all twelve harnesses recorded");
    // Each spec is charged to its first owner: the harnesses that only
    // re-read earlier harnesses' points own nothing, and the owned specs
    // add up to the totals.
    let served: Vec<&str> = harnesses
        .iter()
        .filter(|h| h.get("cache_served") == Some(&Value::Bool(true)))
        .map(|h| h.get_str("name").unwrap())
        .collect();
    assert_eq!(served, ["fig4", "fig5", "fig10", "dataflow"]);
    let totals = rec.get("totals").unwrap();
    for key in ["sims", "committed", "cycles"] {
        let sum: f64 = harnesses.iter().map(|h| h.get_f64(key).unwrap()).sum();
        assert_eq!(Some(sum), totals.get_f64(key), "harness {key} add up to the totals");
    }
    for h in harnesses {
        let owns = h.get("cache_served") == Some(&Value::Bool(false));
        assert_eq!(h.get_f64("sims").unwrap() > 0.0, owns, "{:?}", h.get_str("name"));
        let probe = h.get("probe").unwrap();
        assert!(probe.get_str("bench").is_some(), "probe attached");
        let stalls = probe.get("stalls").and_then(Value::as_object).expect("probe stalls");
        assert_eq!(stalls.len(), 6, "six-cause stall attribution");
    }
    // Headline extraction found the fidelity targets even at this tiny
    // scale (values differ from the 200k anchors; presence is the test).
    let headlines = rec.get("headlines").unwrap().as_object().unwrap();
    assert!(
        headlines.len() >= 20,
        "expected >=20 extracted headlines, got {}: {:?}",
        headlines.len(),
        headlines.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
