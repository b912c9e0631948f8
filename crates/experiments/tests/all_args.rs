//! The suite binary's argument contract: an unknown option, an unknown
//! harness, a second commit budget, a repeated option and a trailing
//! option without its value each exit 2 before simulating, so no report
//! and no ledger record is written; `--help` prints usage and exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-all-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .current_dir(dir)
        .env_remove("RF_COMMITS")
        .env("RF_JOBS", "1")
        .output()
        .expect("suite binary runs")
}

#[test]
fn malformed_command_lines_exit_2_before_simulating() {
    let dir = workdir();
    let rows: [(&[&str], &str); 6] = [
        (&["--bogus", "1"], "unknown option \"--bogus\" for all"),
        (&["--only", "fig9"], "--only: unknown harness \"fig9\""),
        (&["300", "400"], "unexpected argument \"400\" for all"),
        (&["300", "--deadline-secs"], "--deadline-secs requires a value"),
        (&["--only", "fig3", "--only", "fig6"], "repeated option \"--only\" for all"),
        (&["200k"], "commit budget \"200k\" is not a non-negative integer"),
    ];
    for (args, message) in rows {
        let out = all(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "all {args:?}: {stderr}");
        assert!(stderr.contains(message), "all {args:?}: stderr says {message:?}: {stderr}");
        assert!(stderr.contains("usage: all"), "all {args:?}: usage follows the message");
        assert!(out.stdout.is_empty(), "all {args:?}: nothing simulated");
        assert!(!dir.join("results").exists(), "all {args:?}: no report or ledger record");
    }
    let out = all(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: all [COMMITS] [--only NAMES]"), "{stdout}");
    assert!(!dir.join("results").exists(), "--help simulates nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
