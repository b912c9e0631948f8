//! Exit-code contract of the `rfstudy store` subcommand and the `top`
//! missing-stream path, through the real binary: usage errors exit 2,
//! runtime failures exit 1, and maintenance of a real store works end
//! to end.

use std::path::PathBuf;
use std::process::Command;

fn rfstudy(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(args)
        .output()
        .expect("rfstudy runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rfstudy-store-cli-{}-{name}", std::process::id()))
}

#[test]
fn top_attach_to_a_missing_stream_is_a_clean_usage_error() {
    let missing = temp_path("no-stream.jsonl");
    let _ = std::fs::remove_file(&missing);
    let (code, text) = rfstudy(&["top", "--file", missing.to_str().unwrap(), "--once"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("does not exist"), "{text}");
    assert!(text.contains("RF_TELEMETRY=1"), "the error suggests the fix: {text}");
}

#[test]
fn store_usage_errors_exit_2_and_missing_stores_exit_1() {
    let (code, text) = rfstudy(&["store"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("requires an action"), "{text}");

    let (code, text) = rfstudy(&["store", "defrag"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("unknown store action"), "{text}");

    let missing = temp_path("no-store-dir");
    let _ = std::fs::remove_dir_all(&missing);
    let (code, text) = rfstudy(&["store", "stats", "--dir", missing.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("does not exist"), "{text}");
}

#[test]
fn store_maintenance_works_on_a_populated_store() {
    let dir = temp_path("real-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = rf_store::Store::open(&dir).unwrap();
    for key in [b"alpha".as_slice(), b"beta".as_slice()] {
        store.append(1, rf_store::Digest::of(key), key, b"payload").unwrap();
    }
    // Supersede one record and leave a stale-schema generation behind.
    store.append(1, rf_store::Digest::of(b"alpha"), b"alpha", b"payload v2").unwrap();
    store.append(0, rf_store::Digest::of(b"old"), b"old", b"stale").unwrap();
    store.sync().unwrap();
    let d = dir.to_str().unwrap();

    let (code, text) = rfstudy(&["store", "stats", "--dir", d]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("live entries     : 3"), "{text}");
    assert!(text.contains("records scanned  : 4"), "{text}");
    assert!(text.contains("v0: 1, v1: 2"), "{text}");

    let (code, text) = rfstudy(&["store", "verify", "--dir", d]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("0 bad checksum"), "{text}");

    let (code, text) = rfstudy(&["store", "compact", "--dir", d]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("kept 3 record(s); dropped 1 superseded"), "{text}");

    // gc additionally drops the schema-0 generation.
    let (code, text) = rfstudy(&["store", "gc", "--dir", d]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("kept 2 record(s)"), "{text}");
    assert!(text.contains("1 stale-schema"), "{text}");

    // Corruption makes verify exit 1.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&seg, &bytes).unwrap();
    let (code, text) = rfstudy(&["store", "verify", "--dir", d]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("store verification failed"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}
