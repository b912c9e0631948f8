//! Pins the bytes of `rfstudy help` against `tests/golden/rfstudy_help.txt`:
//! the usage text is rendered from the command grammars, so a change to
//! a declaration shows up here as a diff of the text a reader sees. If a
//! change is intentional, regenerate the file by running the test with
//! `BLESS_GOLDEN=1` and commit it. `all --help` is pinned the same way in
//! `crates/experiments/tests/all_args.rs`.

use std::process::Command;

#[test]
fn rfstudy_help_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_rfstudy")).arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let actual = String::from_utf8(out.stdout).unwrap();
    let path = format!("{}/tests/golden/rfstudy_help.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("bless golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file present (regenerate with BLESS_GOLDEN=1)");
    assert_eq!(
        actual, golden,
        "rfstudy help drifted from tests/golden/rfstudy_help.txt; \
         if intentional, regenerate with BLESS_GOLDEN=1"
    );
}
