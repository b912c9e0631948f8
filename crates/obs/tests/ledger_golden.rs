//! Golden-file test for the run-history ledger schema.
//!
//! The rendered form of a ledger record is an interface: `rfstudy
//! report` parses it, CI tooling greps it, and schema changes must bump
//! [`rf_obs::ledger::SCHEMA_VERSION`]. This test pins the exact byte
//! rendering of a fully-populated record (every optional present) and a
//! minimal one (every optional absent) against
//! `tests/golden/ledger_record.jsonl`. If it fails because of an
//! intentional schema change, bump the schema version, regenerate the
//! golden file (`RF_REGEN_GOLDEN=1 cargo test -p rf-obs --test
//! ledger_golden`, or copy the `=== got ===` output), and teach
//! `rf_obs::trend::analyze` about the new layout.

use rf_obs::json::{self, Value};
use rf_obs::ledger::{
    AuditRecord, HarnessRecord, LedgerRecord, ModelErrorRecord, PhaseRecord, ProbeRecord,
    StoreRecord, TelemetryRecord, SCHEMA_VERSION,
};

const GOLDEN: &str = include_str!("golden/ledger_record.jsonl");

/// A record with every optional field populated.
fn full_record() -> LedgerRecord {
    LedgerRecord {
        timestamp_unix: 1_754_000_000,
        git_rev: "0123456789ab".to_owned(),
        commits: 200_000,
        jobs: 8,
        total_seconds: 123.456789,
        peak_rss_kb: Some(14_652),
        sims: 1_234,
        committed: 246_800_000,
        cycles: 98_765_432,
        cycles_skipped: 750_000,
        wakeup_events: 31_000,
        reused: 108,
        phase: PhaseRecord { generate: 0.002, simulate: 10.25, aggregate: 0.248 },
        profile: Some(rf_prof::ProfileNode {
            name: "all".to_owned(),
            total_ns: 10_500_000_000,
            count: 1,
            children: vec![rf_prof::ProfileNode {
                name: "run.simulate".to_owned(),
                total_ns: 10_250_000_000,
                count: 18,
                children: vec![
                    rf_prof::ProfileNode {
                        name: "cycle.insert".to_owned(),
                        total_ns: 1_984_000_000,
                        count: 23_437,
                        children: vec![],
                    },
                    rf_prof::ProfileNode {
                        name: "cycle.issue".to_owned(),
                        total_ns: 4_096_000_000,
                        count: 23_437,
                        children: vec![],
                    },
                ],
            }],
        }),
        harnesses: vec![
            HarnessRecord {
                name: "table1".to_owned(),
                seconds: 10.5,
                sims: 18,
                committed: 3_600_000,
                cycles: 1_500_000,
                stall_no_reg: 0,
                stall_dq_full: 42_000,
                no_free_cycles: 0,
                cache_served: false,
                probe: Some(ProbeRecord {
                    bench: "compress".to_owned(),
                    cycles: 2_048,
                    stalls: [0, 120, 0, 310, 42, 96],
                    insert_to_commit: (9, 21, 55),
                    issue_to_commit: (4, 11, 30),
                }),
                error: None,
            },
            HarnessRecord {
                name: "fig10".to_owned(),
                seconds: 0.75,
                sims: 64,
                committed: 12_800_000,
                cycles: 4_300_000,
                stall_no_reg: 77,
                stall_dq_full: 0,
                no_free_cycles: 13,
                cache_served: false,
                probe: None,
                error: Some(
                    "simulation of \"gcc1\" panicked: injected fault probe".to_owned(),
                ),
            },
            // The cache-served shape: the harness owns no spec, so its
            // counters are zero, with no error.
            HarnessRecord {
                name: "fig4".to_owned(),
                seconds: 0.012,
                sims: 0,
                committed: 0,
                cycles: 0,
                stall_no_reg: 0,
                stall_dq_full: 0,
                no_free_cycles: 0,
                cache_served: true,
                probe: None,
                error: None,
            },
        ],
        headlines: vec![
            ("table1.commit_ipc_mean.4way".to_owned(), 2.6833),
            ("fig10.bips_ratio_precise".to_owned(), 1.055),
        ],
        model_error: Some(ModelErrorRecord {
            configs: 72,
            mean_abs_pct_err: 7.8125,
            worst_pct_err: 27.25,
            worst_config: "mdljdp2 width=4 precise regs=64".to_owned(),
        }),
        telemetry: Some(TelemetryRecord {
            interval_ms: 250,
            snapshots: 338,
            digest: "9d2c5e7f01a3b486".to_owned(),
        }),
        store: Some(StoreRecord { hits: 1_156, misses: 78, writes: 78 }),
        audit: Some(AuditRecord { samples: [11, 1, 1], events: 1_310_720, violations: 0 }),
    }
}

/// A record with every optional field absent.
fn minimal_record() -> LedgerRecord {
    LedgerRecord {
        timestamp_unix: 0,
        git_rev: "unknown".to_owned(),
        commits: 2_000,
        jobs: 1,
        total_seconds: 0.0,
        peak_rss_kb: None,
        sims: 0,
        committed: 0,
        cycles: 0,
        cycles_skipped: 0,
        wakeup_events: 0,
        reused: 0,
        phase: PhaseRecord::default(),
        profile: None,
        harnesses: Vec::new(),
        headlines: Vec::new(),
        model_error: None,
        telemetry: None,
        store: None,
        audit: None,
    }
}

#[test]
fn record_rendering_matches_golden_file() {
    let got = format!("{}\n{}\n", full_record().to_line(), minimal_record().to_line());
    if std::env::var("RF_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledger_record.jsonl");
        std::fs::write(path, &got).expect("write regenerated golden file");
    }
    assert_eq!(
        got, GOLDEN,
        "ledger rendering drifted from the golden file; if the schema \
         change is intentional, bump SCHEMA_VERSION and regenerate\n\
         === got ===\n{got}=== golden ===\n{GOLDEN}"
    );
}

#[test]
fn golden_lines_parse_back_to_current_schema() {
    for (i, line) in GOLDEN.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("golden line {}: {e}", i + 1));
        assert_eq!(v.get_f64("schema"), Some(SCHEMA_VERSION as f64));
        // Every top-level member the report layer relies on is present.
        for key in [
            "timestamp_unix",
            "git_rev",
            "config",
            "totals",
            "phase_seconds",
            "profile",
            "harnesses",
            "headlines",
            "model_error",
            "telemetry",
            "store",
            "audit",
        ] {
            assert!(v.get(key).is_some(), "line {} missing {key}", i + 1);
        }
        let config = v.get("config").unwrap();
        for key in ["commits", "jobs"] {
            assert!(config.get(key).is_some(), "config missing {key}");
        }
        assert!(config.get("sanitize").is_none(), "v9 moved sanitize to the sanitizer block");
        assert!(v.get("sanitizer").is_none(), "v14 replaced the sanitizer block with audit");
        assert!(config.get("cache").is_none(), "v10 dropped the RF_CACHE flag");
        let totals = v.get("totals").unwrap();
        for key in [
            "seconds",
            "peak_rss_kb",
            "sims",
            "committed",
            "cycles",
            "cycles_skipped",
            "wakeup_events",
            "reused",
        ] {
            assert!(totals.get(key).is_some(), "totals missing {key}");
        }
        for key in ["cache_hits", "cache_misses"] {
            assert!(totals.get(key).is_none(), "v14 dropped totals.{key}");
        }
        for h in v.get("harnesses").unwrap().as_array().unwrap() {
            for key in [
                "name",
                "seconds",
                "sims",
                "committed",
                "cycles",
                "stall_no_reg",
                "stall_dq_full",
                "no_free_cycles",
                "cache_served",
                "probe",
                "error",
            ] {
                assert!(h.get(key).is_some(), "harness missing {key}");
            }
            for key in ["cycles_skipped", "phase_seconds", "profile", "cycles_per_second"] {
                assert!(h.get(key).is_none(), "v10 moved {key} off the harness");
            }
        }
    }
}

#[test]
fn full_golden_line_round_trips_through_the_parser() {
    let line = GOLDEN.lines().next().unwrap();
    let v = json::parse(line).unwrap();
    // Re-rendering the parsed tree reproduces the line exactly: the
    // writer and parser agree on number formatting and member order.
    assert_eq!(v.to_string(), line);
    // Spot-check nested payloads survive.
    let h = &v.get("harnesses").unwrap().as_array().unwrap()[0];
    let probe = h.get("probe").unwrap();
    assert_eq!(probe.get_str("bench"), Some("compress"));
    let p99 = &probe.get("insert_to_commit").unwrap().as_array().unwrap()[2];
    assert_eq!(p99.as_f64(), Some(55.0));
    let stalls = probe.get("stalls").unwrap();
    for (cause, want) in rf_core::StallCause::ALL.iter().zip([0.0, 120.0, 0.0, 310.0, 42.0, 96.0]) {
        assert_eq!(stalls.get_f64(cause.label()), Some(want), "{}", cause.label());
    }
    // The embedded profile decodes back to the tree we rendered.
    let profile = rf_obs::profile::from_value(v.get("profile").unwrap()).unwrap();
    assert_eq!(Some(profile), full_record().profile);
    let served = &v.get("harnesses").unwrap().as_array().unwrap()[2];
    assert_eq!(served.get("cache_served"), Some(&Value::Bool(true)));
    assert_eq!(v.get("totals").unwrap().get_f64("peak_rss_kb"), Some(14_652.0));
    // The model-error telemetry block survives the round trip.
    let model = v.get("model_error").unwrap();
    assert_eq!(model.get_f64("configs"), Some(72.0));
    assert_eq!(model.get_str("worst_config"), Some("mdljdp2 width=4 precise regs=64"));
    // The live-telemetry block survives the round trip.
    let telemetry = v.get("telemetry").unwrap();
    assert_eq!(telemetry.get_f64("interval_ms"), Some(250.0));
    assert_eq!(telemetry.get_f64("snapshots"), Some(338.0));
    assert_eq!(telemetry.get_str("digest"), Some("9d2c5e7f01a3b486"));
    // The durable-store block survives the round trip.
    let store = v.get("store").unwrap();
    assert_eq!(store.get_f64("hits"), Some(1_156.0));
    assert_eq!(store.get_f64("misses"), Some(78.0));
    assert_eq!(store.get_f64("writes"), Some(78.0));
    // The audit block survives the round trip.
    let audit = v.get("audit").unwrap();
    let samples = audit.get("samples").unwrap();
    for (tier, want) in [("fresh", 11.0), ("reused", 1.0), ("store", 1.0)] {
        assert_eq!(samples.get_f64(tier), Some(want), "{tier}");
    }
    assert_eq!(audit.get_f64("events"), Some(1_310_720.0));
    assert_eq!(audit.get_f64("violations"), Some(0.0));
    let minimal = json::parse(GOLDEN.lines().nth(1).unwrap()).unwrap();
    assert_eq!(minimal.get("totals").unwrap().get("peak_rss_kb"), Some(&Value::Null));
    assert_eq!(minimal.get("profile"), Some(&Value::Null));
    assert_eq!(minimal.get("model_error"), Some(&Value::Null));
    assert_eq!(minimal.get("telemetry"), Some(&Value::Null));
    assert_eq!(minimal.get("store"), Some(&Value::Null));
    assert_eq!(minimal.get("audit"), Some(&Value::Null));
}
