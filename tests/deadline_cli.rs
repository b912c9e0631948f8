//! CLI contract for `--deadline-secs` on the batch subcommands: `check`,
//! `model --check` and `profile`. A generous budget changes nothing; an
//! impossible one fails with exit code 1 and a deadline message; a
//! malformed value is a usage error (exit code 2) before any simulation
//! starts. A `check` whose commit budget dwarfs the trace buffer's cap
//! stops at its deadline too, rather than failing to size its trace.

use std::process::{Command, Output};

/// A single cheap configuration so even the "generous deadline" runs
/// stay fast.
const PINS: [&str; 10] = [
    "--bench",
    "compress",
    "--width",
    "4",
    "--exceptions",
    "precise",
    "--regs",
    "64",
    "--commits",
    "2000",
];

fn rfstudy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(args)
        .env_remove("RF_JOBS")
        .output()
        .expect("rfstudy runs")
}

fn args_with(base: &[&str], deadline: &str) -> Vec<&'static str> {
    // Leaked so the slices can share a lifetime; test-only.
    let mut v: Vec<&'static str> = Vec::new();
    for a in base {
        v.push(Box::leak(a.to_string().into_boxed_str()));
    }
    v.extend(PINS);
    v.push("--deadline-secs");
    v.push(Box::leak(deadline.to_string().into_boxed_str()));
    v
}

#[test]
fn model_check_honors_a_generous_deadline() {
    let out = rfstudy(&args_with(&["model", "--check"], "120"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("model check: 1 configurations"), "{stdout}");
}

#[test]
fn model_check_fails_cleanly_when_the_deadline_is_impossible() {
    let out = rfstudy(&args_with(&["model", "--check"], "0.000001"));
    assert_eq!(out.status.code(), Some(1), "runtime failure, not a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "names the deadline: {stderr}");
}

#[test]
fn profile_honors_a_generous_deadline() {
    let out = rfstudy(&args_with(&["profile"], "120"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("attributed"), "profile table rendered: {stdout}");
}

#[test]
fn profile_fails_cleanly_when_the_deadline_is_impossible() {
    let out = rfstudy(&args_with(&["profile"], "0.000001"));
    assert_eq!(out.status.code(), Some(1), "runtime failure, not a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "names the deadline: {stderr}");
}

#[test]
fn check_with_an_oversized_budget_stops_at_its_deadline() {
    let mut args = PINS.to_vec();
    args[9] = "5000000000";
    args.splice(0..0, ["check"]);
    args.extend(["--deadline-secs", "0.5"]);
    let out = rfstudy(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a runtime failure, not a panic: {stderr}");
    assert!(stderr.contains("cancelled"), "names the cancellation: {stderr}");
}

#[test]
fn malformed_deadlines_are_usage_errors_before_anything_runs() {
    for sub in [&["model", "--check"][..], &["profile"][..]] {
        for bad in ["0", "-1", "abc", "inf"] {
            let out = rfstudy(&args_with(sub, bad));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{sub:?} --deadline-secs {bad} must be a usage error"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--deadline-secs"), "{stderr}");
        }
    }
}
