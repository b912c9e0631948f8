//! Golden-file test for the live telemetry stream schema.
//!
//! `results/telemetry/live.jsonl` is an interface: `rfstudy top` tails
//! it, the CI smoke job validates it with a stock JSON parser, and
//! external scrapers may follow it. This test pins the exact byte
//! rendering of the three record shapes — the run header, a mid-run
//! snapshot, and the final snapshot (digest-carrying) — against
//! `tests/golden/live_snapshot.jsonl`. If it fails because of an
//! intentional schema change, bump
//! [`rf_obs::live::SNAPSHOT_SCHEMA_VERSION`], regenerate the golden
//! file (`RF_REGEN_GOLDEN=1 cargo test -p rf-obs --test live_golden`),
//! and teach `parse_stream` about the new layout.

use rf_obs::live::{self, SuiteView, WorkerSample, SNAPSHOT_SCHEMA_VERSION};
use rf_prof::counters::{Counter, Counts};

const GOLDEN: &str = include_str!("golden/live_snapshot.jsonl");

fn counters() -> Counts {
    Counts::from_fn(|c| match c {
        Counter::SimsStarted => 412,
        Counter::SimsCompleted => 409,
        Counter::SimsFailed => 3,
        Counter::InstructionsCommitted => 81_800_000,
        Counter::Cycles => 33_500_000,
        Counter::StallNoReg => 1_250_000,
        Counter::StallDqFull => 2_700_000,
        Counter::NoFreeCycles => 1_900_000,
        Counter::CyclesSkipped => 4_200_000,
        Counter::WakeupEvents => 96_000,
        Counter::GenerateNs => 310_000_000,
        Counter::SimulateNs => 18_400_000_000,
        Counter::CacheHits => 57,
        Counter::CacheMisses => 436,
        Counter::StoreHits => 101,
        Counter::StoreMisses => 335,
        Counter::StoreWrites => 330,
    })
}

fn workers() -> Vec<WorkerSample> {
    vec![
        WorkerSample { id: 0, busy_ns: 9_500_000_000, sims: 205 },
        WorkerSample { id: 1, busy_ns: 9_125_000_000, sims: 204 },
    ]
}

fn suite() -> SuiteView {
    SuiteView {
        total: 12,
        done: 7,
        current: Some("ablation".to_owned()),
        current_elapsed_s: 1.5,
    }
}

/// The three record shapes a stream is made of, rendered exactly as the
/// sampler writes them.
fn stream() -> String {
    let header =
        live::header_value(1_754_000_000, 250, 200_000, 8, Some("127.0.0.1:9090"));
    let mid = live::snapshot_value(41, 10.25, false, &counters(), &workers(), &suite());
    let done = SuiteView { total: 12, done: 12, current: None, current_elapsed_s: 0.0 };
    let fin = live::snapshot_value(42, 10.5, true, &counters(), &workers(), &done);
    format!("{header}\n{mid}\n{fin}\n")
}

#[test]
fn stream_rendering_matches_golden_file() {
    let got = stream();
    if std::env::var("RF_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/live_snapshot.jsonl");
        std::fs::write(path, &got).expect("write regenerated golden file");
    }
    assert_eq!(
        got, GOLDEN,
        "live stream rendering drifted from the golden file; if the \
         schema change is intentional, bump SNAPSHOT_SCHEMA_VERSION and \
         regenerate\n=== got ===\n{got}=== golden ===\n{GOLDEN}"
    );
}

#[test]
fn golden_stream_parses_back_to_current_schema() {
    let (header, snaps) = live::parse_stream(GOLDEN).expect("golden stream parses");
    let header = header.expect("header present");
    assert_eq!(header.schema, SNAPSHOT_SCHEMA_VERSION);
    assert_eq!((header.interval_ms, header.commits, header.jobs), (250, 200_000, 8));

    assert_eq!(snaps.len(), 2);
    let mid = &snaps[0];
    assert_eq!((mid.seq, mid.is_final), (41, false));
    assert_eq!(mid.counters, counters());
    assert_eq!(mid.workers, workers());
    assert_eq!(mid.suite, suite());
    assert!(mid.digest.is_none(), "only the final snapshot carries a digest");

    let fin = &snaps[1];
    assert!(fin.is_final && fin.seq == 42);
    assert_eq!(
        fin.digest.as_deref(),
        Some(live::digest_counters(&counters()).as_str()),
        "the pinned digest is the FNV-1a of the pinned counters"
    );
}

#[test]
fn golden_lines_name_every_member_readers_rely_on() {
    let mut lines = GOLDEN.lines();
    let header = rf_obs::json::parse(lines.next().unwrap()).unwrap();
    for key in ["schema", "event", "timestamp_unix", "interval_ms", "commits", "jobs", "metrics_addr"]
    {
        assert!(header.get(key).is_some(), "header missing {key}");
    }
    for line in lines {
        let snap = rf_obs::json::parse(line).unwrap();
        for key in ["schema", "event", "seq", "elapsed_s", "final", "counters", "workers", "suite"]
        {
            assert!(snap.get(key).is_some(), "snapshot missing {key}");
        }
        let c = snap.get("counters").unwrap();
        for (key, _) in counters().iter() {
            assert!(c.get(key).is_some(), "counters missing {key}");
        }
        let s = snap.get("suite").unwrap();
        for key in ["total", "done", "current", "current_elapsed_s"] {
            assert!(s.get(key).is_some(), "suite missing {key}");
        }
        // Writer and parser agree byte-for-byte on the rendering.
        assert_eq!(snap.to_string(), line);
    }
}
