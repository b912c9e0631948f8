//! CLI contract for the run configuration: every `rfstudy` command
//! parses the `RF_*` knobs once at startup, so a malformed value is a
//! usage error (exit code 2, stderr naming the variable) before any
//! work — never a silent default, a panic, or a second reading that
//! disagrees with the first. `RF_SANITIZE` is the one way to sanitize a
//! `run`, so both of its settings are pinned too.

use std::process::{Command, Output};

/// Every run knob, cleared before each row so the caller's environment
/// cannot leak in.
const KNOBS: [&str; 8] = [
    "RF_COMMITS",
    "RF_JOBS",
    "RF_STORE",
    "RF_STORE_DIR",
    "RF_PROFILE",
    "RF_SANITIZE",
    "RF_TELEMETRY",
    "RF_TELEMETRY_INTERVAL_MS",
];

const MATRIX: [&str; 6] = ["--bench", "compress", "--width", "4", "--regs", "64"];

fn rfstudy(var: &str, value: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfstudy"));
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.env(var, value).args(args).output().expect("rfstudy runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_malformed_knob_is_a_usage_error_on_every_command() {
    let check: Vec<&str> = ["check"].iter().chain(&MATRIX).copied().collect();
    let model: Vec<&str> = ["model", "--check"].iter().chain(&MATRIX).copied().collect();
    let run = ["run", "--bench", "compress", "--commits", "1000"];
    let rows: [(&str, &str, &[&str]); 6] = [
        ("RF_COMMITS", "200k", &check),
        ("RF_COMMITS", "0", &check),
        ("RF_COMMITS", "abc", &model),
        ("RF_JOBS", "abc", &model),
        ("RF_PROFILE", "maybe", &run),
        ("RF_STORE_DIR", "  ", &["store", "stats"]),
    ];
    for (var, value, args) in rows {
        let out = rfstudy(var, value, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value:?} rfstudy {args:?}: {stderr}");
        assert!(stderr.contains(var), "{var}={value:?}: stderr names the variable: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value:?}: no work before the usage error");
    }
}

#[test]
fn help_prints_even_under_a_malformed_knob() {
    let out = rfstudy("RF_COMMITS", "abc", &["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(text(&out.stdout).contains("USAGE:"));
}

#[test]
fn rf_sanitize_switches_the_run_sanitizer() {
    let run = ["run", "--bench", "tomcatv", "--regs", "64", "--commits", "2000"];
    let on = rfstudy("RF_SANITIZE", "1", &run);
    let stdout = text(&on.stdout);
    assert_eq!(on.status.code(), Some(0), "{}", text(&on.stderr));
    assert!(stdout.lines().any(|l| l.starts_with("sanitizer: clean")), "{stdout}");

    let off = rfstudy("RF_SANITIZE", "0", &run);
    let stdout = text(&off.stdout);
    assert_eq!(off.status.code(), Some(0), "{}", text(&off.stderr));
    assert!(!stdout.contains("sanitizer"), "{stdout}");
}

#[test]
fn a_machine_size_no_machine_can_have_is_a_usage_error_on_every_command() {
    // A matrix command's zero commit budget is one too: its check would
    // see no cycle.
    let rows: [(&[&str], &str); 13] = [
        (&["run", "--bench", "gcc1", "--regs", "16"], "--regs 16"),
        (&["run", "--bench", "gcc1", "--width", "0"], "--width 0"),
        (&["run", "--bench", "gcc1", "--dq", "0"], "--dq 0"),
        (&["trace", "--bench", "gcc1", "--regs", "16"], "--regs 16"),
        (&["replay", "--trace", "missing.rft", "--regs", "31"], "--regs 31"),
        (&["check", "--bench", "compress", "--regs", "16"], "--regs 16"),
        (&["model", "--bench", "compress", "--width", "0"], "--width 0"),
        (&["model", "--check", "--bench", "compress", "--regs", "16"], "--regs 16"),
        (&["profile", "--bench", "compress", "--regs", "16"], "--regs 16"),
        (&["check", "--bench", "compress", "--commits", "0"], "--commits 0"),
        (&["model", "--check", "--bench", "compress", "--commits", "0"], "--commits 0"),
        (&["profile", "--bench", "compress", "--commits", "0"], "--commits 0"),
        (&["dataflow", "--bench", "gcc1", "--window", "0"], "--window 0"),
    ];
    for (args, opt) in rows {
        let out = rfstudy("RF_COMMITS", "1000", args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rfstudy {args:?}: {stderr}");
        assert!(stderr.contains(opt), "rfstudy {args:?}: stderr names {opt}: {stderr}");
        assert!(out.stdout.is_empty(), "rfstudy {args:?}: no work before the usage error");
    }
}

#[test]
fn an_unknown_benchmark_is_a_usage_error_on_every_command() {
    let rows: [&[&str]; 7] = [
        &["run", "--bench", "nope"],
        &["trace", "--bench", "nope"],
        &["record", "--bench", "nope", "--out", "never-written.rft"],
        &["dataflow", "--bench", "nope"],
        &["check", "--bench", "nope"],
        &["model", "--bench", "nope"],
        &["profile", "--bench", "nope"],
    ];
    for args in rows {
        let out = rfstudy("RF_COMMITS", "1000", args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rfstudy {args:?}: {stderr}");
        assert!(stderr.contains("unknown benchmark \"nope\""), "rfstudy {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "rfstudy {args:?}: no work before the usage error");
    }
    assert!(!std::path::Path::new("never-written.rft").exists());
}
