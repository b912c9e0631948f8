//! The `rfstudy report --check` CI gate, driven through the real
//! binary: exit code 0 on a clean ledger, nonzero when the latest
//! record carries an injected perf regression or fidelity drift.

use rf_obs::fidelity;
use rf_obs::ledger::{HarnessRecord, LedgerRecord, PhaseRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A synthetic suite record: two harnesses totalling `3.0 * scale`
/// wall seconds, headlines pinned to the fidelity anchors except for
/// the ids in `drift` (scaled by their paired factor).
fn record(seq: u64, scale: f64, drift: &[(&str, f64)]) -> LedgerRecord {
    let headlines = fidelity::TARGETS
        .iter()
        .map(|t| {
            let f = drift
                .iter()
                .find(|(id, _)| *id == t.id)
                .map_or(1.0, |(_, f)| *f);
            (t.id.to_owned(), t.accepted * f)
        })
        .collect();
    let harness = |name: &str, seconds: f64| HarnessRecord {
        name: name.to_owned(),
        seconds,
        sims: 40,
        committed: 400_000,
        cycles: 160_000,
        stall_no_reg: 7,
        stall_dq_full: 11,
        no_free_cycles: 3,
        cache_served: false,
        probe: None,
        error: None,
    };
    LedgerRecord {
        timestamp_unix: 1_754_000_000 + seq,
        git_rev: format!("rev{seq:04}"),
        commits: 10_000,
        jobs: 4,
        total_seconds: 3.0 * scale,
        peak_rss_kb: Some(12_288),
        sims: 80,
        committed: 800_000,
        cycles: 320_000,
        cycles_skipped: 128_000,
        wakeup_events: 4_000,
        reused: 0,
        cache_hits: 10,
        cache_misses: 70,
        phase: PhaseRecord { generate: 0.002, simulate: 2.7 * scale, aggregate: 0.0 },
        profile: None,
        harnesses: vec![harness("fig3", 1.0 * scale), harness("fig6", 2.0 * scale)],
        headlines,
        model_error: None,
        telemetry: None,
        store: None,
        sanitizer: None,
    }
}

fn write_ledger(name: &str, records: &[LedgerRecord]) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("rfstudy-report-gate-{}-{name}.jsonl", std::process::id()));
    let lines: String = records.iter().map(|r| format!("{}\n", r.to_line())).collect();
    std::fs::write(&path, lines).unwrap();
    path
}

fn run_report(ledger: &Path, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(["report", "--ledger", ledger.to_str().unwrap(), "--check"])
        .args(extra)
        .output()
        .expect("rfstudy runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn check_passes_on_a_clean_ledger_and_fails_on_injected_regression() {
    // Three steady baseline runs plus an equally-fast latest: clean.
    let clean = write_ledger(
        "clean",
        &[record(1, 1.0, &[]), record(2, 1.0, &[]), record(3, 1.0, &[]), record(4, 1.0, &[])],
    );
    let (ok, text) = run_report(&clean, &[]);
    assert!(ok, "clean ledger must pass --check:\n{text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("peak RSS     12288 KiB"), "peak RSS beside wall time:\n{text}");

    // Same history, but the latest run is 20% slower across the board:
    // the perf gate fires and the process exits nonzero.
    let slow = write_ledger(
        "slow",
        &[record(1, 1.0, &[]), record(2, 1.0, &[]), record(3, 1.0, &[]), record(5, 1.2, &[])],
    );
    let (ok, text) = run_report(&slow, &[]);
    assert!(!ok, "20% slowdown must fail --check:\n{text}");
    assert!(text.contains("perf:"), "failure names the perf finding:\n{text}");

    // A generous perf threshold lets the same ledger pass again.
    let (ok, text) = run_report(&slow, &["--max-regress-pct", "40"]);
    assert!(ok, "40% threshold tolerates a 20% slowdown:\n{text}");

    let _ = std::fs::remove_file(&clean);
    let _ = std::fs::remove_file(&slow);
}

#[test]
fn check_fails_on_fidelity_drift_unless_warned_off() {
    // Latest run is as fast as ever but one headline drifted 50% from
    // its accepted anchor (band is 5%): the fidelity gate fires.
    let drifted = write_ledger(
        "drift",
        &[
            record(1, 1.0, &[]),
            record(2, 1.0, &[]),
            record(6, 1.0, &[("fig10.bips_ratio_precise", 1.5)]),
        ],
    );
    let (ok, text) = run_report(&drifted, &[]);
    assert!(!ok, "out-of-band headline must fail --check:\n{text}");
    assert!(text.contains("fidelity: fig10.bips_ratio_precise"), "{text}");

    // --fidelity warn demotes the drift to a warning; --fidelity off
    // skips the scorecard gate entirely. Both exit zero.
    for mode in ["warn", "off"] {
        let (ok, text) = run_report(&drifted, &["--fidelity", mode]);
        assert!(ok, "--fidelity {mode} must not gate:\n{text}");
    }
    let _ = std::fs::remove_file(&drifted);
}

#[test]
fn report_writes_a_markdown_artifact() {
    let ledger = write_ledger("artifacts", &[record(1, 1.0, &[]), record(2, 1.0, &[])]);
    let md = std::env::temp_dir()
        .join(format!("rfstudy-report-gate-{}.md", std::process::id()));
    let (ok, text) = run_report(&ledger, &["--format", "markdown", "--out", md.to_str().unwrap()]);
    assert!(ok, "{text}");
    let md_text = std::fs::read_to_string(&md).unwrap();
    assert!(md_text.contains("| harness |"), "markdown table present:\n{md_text}");
    assert!(md_text.contains("| fig10.bips_ratio_precise |"), "scorecard rows:\n{md_text}");
    assert!(md_text.contains("- peak RSS: 12288 KiB"), "{md_text}");
    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&md);
}

#[test]
fn report_rejects_an_empty_window_and_an_unbounded_threshold() {
    // Either value would leave a 3x slower run ungated: an empty window
    // has no baseline, an infinite threshold no bound. Both, and the
    // removed options, are usage errors (exit 2) before any analysis.
    let slow = write_ledger("usage", &[record(1, 1.0, &[]), record(2, 3.0, &[])]);
    let (ok, text) = run_report(&slow, &[]);
    let finding = "TOTAL took 9.000s vs baseline 3.000s (+200.0% > 10.0%)";
    assert!(!ok && text.contains(finding), "{text}");
    for extra in [
        ["--window", "0"],
        ["--max-regress-pct", "inf"],
        ["--max-regress-pct", "-1"],
        ["--prom", "metrics.prom"],
        ["--profile-drift", "gate"],
        ["--band-scale", "3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rfstudy"))
            .args(["report", "--ledger", slow.to_str().unwrap(), "--check"])
            .args(extra)
            .output()
            .expect("rfstudy runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(extra[0]), "{extra:?} named in:\n{stderr}");
    }
    let _ = std::fs::remove_file(&slow);
}
