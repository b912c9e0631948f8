//! CLI contract for the one command grammar: every `rfstudy` subcommand
//! exits 2 on an unknown option, a repeated option and a trailing
//! option without its value, before any work, so a misspelt or doubled
//! option can never run a machine other than the one asked for. The
//! suite binary's rows are in `crates/experiments/tests/all_args.rs`.

use std::path::PathBuf;
use std::process::Command;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf-grammar-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_repeated_and_value_less_options_are_usage_errors_on_every_subcommand() {
    // (the subcommand with its required arguments, a repeated option, a
    // trailing option without its value); `list` declares no option.
    let rows: [(&[&str], &[&str], &str); 14] = [
        (&["list"], &[], ""),
        (&["run", "--bench", "gcc1"], &["--width", "4", "--width", "8"], "--deadline-secs"),
        (&["trace", "--bench", "gcc1"], &["--format", "text", "--format", "chrome"], "--out"),
        (&["record", "--bench", "ora", "--out", "t"], &["--seed", "1", "--seed", "2"], "--count"),
        (&["replay", "--trace", "t.rft"], &["--regs", "64", "--regs", "96"], "--regs"),
        (&["check", "--bench", "compress"], &["--width", "4", "--width", "8"], "--deadline-secs"),
        (&["model", "--bench", "compress"], &["--check", "--check"], "--format"),
        (&["dataflow", "--bench", "gcc1"], &["--count", "10", "--count", "20"], "--window"),
        (&["report"], &["--check", "--check"], "--ledger"),
        (&["profile", "--bench", "compress"], &["--top", "1", "--top", "2"], "--out"),
        (&["top"], &["--once", "--once"], "--file"),
        (&["store", "stats"], &["--dir", "a", "--dir", "b"], "--dir"),
        (&["timing"], &["--width", "4", "--width", "8"], "--width"),
        (&["dump", "--trace", "t.rft"], &["--count", "1", "--count", "2"], "--count"),
    ];
    let dir = workdir();
    for (base, repeated, value_less) in rows {
        let cmd = base[0];
        let unknown = format!("unknown option \"--bogus\" for {cmd}");
        let mut cases = vec![([base, &["--bogus", "1"]].concat(), unknown)];
        if !repeated.is_empty() {
            let message = format!("repeated option \"{}\" for {cmd}", repeated[0]);
            cases.push(([base, repeated].concat(), message));
        }
        if !value_less.is_empty() {
            cases.push(([base, &[value_less]].concat(), format!("{value_less} requires a value")));
        }
        for (args, message) in cases {
            let out = Command::new(env!("CARGO_BIN_EXE_rfstudy"))
                .args(&args)
                .current_dir(&dir)
                .output()
                .expect("rfstudy runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "rfstudy {args:?}: {stderr}");
            assert!(stderr.contains(&message), "rfstudy {args:?}: says {message:?}: {stderr}");
            assert!(out.stdout.is_empty(), "rfstudy {args:?}: no work before the usage error");
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "nothing is written: {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
