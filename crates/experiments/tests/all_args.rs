//! The suite binary's argument contract: an unknown option, an unknown
//! harness, a second commit budget, a commit budget of 0 (as the argument
//! or from `RF_COMMITS`), a repeated option and a trailing option without
//! its value each exit 2 before simulating, so no report and no ledger
//! record is written; `--help` prints the usage pinned in
//! `tests/golden/all_help.txt` and exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-all-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all(dir: &PathBuf, args: &[&str]) -> Output {
    all_with(dir, args, None)
}

/// `all args` in `dir`, with `RF_COMMITS` set to `commits` or unset.
fn all_with(dir: &PathBuf, args: &[&str], commits: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    match commits {
        Some(c) => cmd.env("RF_COMMITS", c),
        None => cmd.env_remove("RF_COMMITS"),
    };
    cmd.args(args).current_dir(dir).env("RF_JOBS", "1").output().expect("suite binary runs")
}

#[test]
fn malformed_command_lines_exit_2_before_simulating() {
    let dir = workdir();
    let rows: [(&[&str], &str); 7] = [
        (&["--bogus", "1"], "unknown option \"--bogus\" for all"),
        (&["--only", "fig9"], "--only: unknown harness \"fig9\""),
        (&["300", "400"], "unexpected argument \"400\" for all"),
        (&["300", "--deadline-secs"], "--deadline-secs requires a value"),
        (&["--only", "fig3", "--only", "fig6"], "repeated option \"--only\" for all"),
        (&["200k"], "commit budget \"200k\" is not a non-negative integer"),
        (&["0", "--only", "fig8"], "--commits 0 is below the minimum of 1"),
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
    // A zero budget from the environment is the same usage error.
    let out = all_with(&dir, &["--only", "fig8"], Some("0"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "RF_COMMITS=0 all: {stderr}");
    assert!(stderr.contains("RF_COMMITS: --commits 0 is below the minimum of 1"), "{stderr}");
    assert!(out.stdout.is_empty() && !dir.join("results").exists(), "RF_COMMITS=0: nothing run");
    // `--help` prints before the environment is read.
    let out = all_with(&dir, &["--help"], Some("0"));
    assert_eq!(out.status.code(), Some(0));
    let out = all(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = format!("{}/tests/golden/all_help.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::write(&golden, &stdout).expect("bless golden");
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden file present (regenerate with BLESS_GOLDEN=1)");
    assert_eq!(stdout, expected, "all --help drifted from tests/golden/all_help.txt");
    assert!(!dir.join("results").exists(), "--help simulates nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
