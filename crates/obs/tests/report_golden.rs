//! Golden-file test for the `rfstudy report` rendering.
//!
//! Renders a fixed three-record ledger — two steady baseline runs, then
//! a latest run with a perf regression, a fidelity drift, a profile
//! share that moved and an analytic model that lost calibration — in
//! both formats, and pins the bytes against `tests/golden/report.txt`
//! and `tests/golden/report.md`. If a rendering change is intentional,
//! regenerate both by running the test with `BLESS_GOLDEN=1` and commit
//! the updated files.

use rf_obs::fidelity;
use rf_obs::json;
use rf_obs::ledger::{HarnessRecord, LedgerRecord, ModelErrorRecord, PhaseRecord};
use rf_obs::trend::{analyze, render, Format, Options};
use rf_prof::ProfileNode;

/// One suite run: `scale` multiplies every harness's seconds, `kill_ns`
/// is the kill engine's self time beside a fixed issue and cache span,
/// `model_err` the model's mean |IPC error|, and `drift` scales the Figure
/// 10 ratio headline off its anchor.
fn record(seq: u64, scale: f64, kill_ns: u64, model_err: f64, drift: f64) -> LedgerRecord {
    let harness = |name: &str, seconds: f64, cache_served: bool| HarnessRecord {
        name: name.to_owned(),
        seconds,
        sims: if cache_served { 0 } else { 40 },
        committed: 400_000,
        cycles: 160_000,
        stall_no_reg: 0,
        stall_dq_full: 0,
        no_free_cycles: 0,
        cache_served,
        probe: None,
        error: None,
    };
    let span = |name: &str, ns: u64| ProfileNode {
        name: name.to_owned(),
        total_ns: ns,
        count: 1,
        children: vec![],
    };
    let headlines = fidelity::TARGETS
        .iter()
        .map(|t| {
            let f = if t.id == "fig10.bips_ratio_precise" { drift } else { 1.0 };
            (t.id.to_owned(), t.accepted * f)
        })
        .collect();
    LedgerRecord {
        timestamp_unix: 1_754_000_000 + seq,
        git_rev: format!("rev{seq:04}"),
        commits: 2_000,
        jobs: 2,
        total_seconds: 4.0 * scale,
        peak_rss_kb: Some(20_480 + seq),
        sims: 80,
        committed: 800_000,
        cycles: 320_000,
        cycles_skipped: 0,
        wakeup_events: 0,
        reused: 0,
        phase: PhaseRecord { generate: 0.0, simulate: 3.5 * scale, aggregate: 0.0 },
        profile: Some(ProfileNode {
            name: "all".to_owned(),
            total_ns: 700 + kill_ns,
            count: 1,
            children: vec![
                span("cycle.issue", 500),
                span("kill_engine", kill_ns),
                span("cache.load", 200),
            ],
        }),
        harnesses: vec![
            harness("fig3", 1.0 * scale, false),
            harness("fig4", 0.001, true),
            harness("fig6", 3.0 * scale, false),
        ],
        headlines,
        model_error: Some(ModelErrorRecord {
            configs: 72,
            mean_abs_pct_err: model_err,
            worst_pct_err: model_err + 15.0,
            worst_config: "mdljdp2 width=4 precise regs=64".to_owned(),
        }),
        telemetry: None,
        store: None,
        audit: None,
    }
}

fn ledger() -> Vec<json::Value> {
    [record(1, 1.0, 100, 8.0, 1.0), record(2, 1.02, 110, 8.2, 1.0), record(3, 1.5, 500, 19.0, 1.2)]
        .iter()
        .map(|r| json::parse(&r.to_line()).expect("a ledger line parses"))
        .collect()
}

#[test]
fn report_renders_match_golden_files() {
    let a = analyze(&ledger(), &Options::DEFAULT).expect("fixture analyses");
    // Everything the fixture is built to show: the perf gate and the
    // fidelity gate fail, profile and model drift only warn.
    assert_eq!(a.failures.len(), 4, "fig3, fig6, TOTAL, fidelity: {:?}", a.failures);
    assert!(a.failures[3].starts_with("fidelity: fig10.bips_ratio_precise"), "{:?}", a.failures);
    assert!(a.warnings.iter().any(|w| w.starts_with("profile: kill_engine")), "{:?}", a.warnings);
    assert!(a.warnings.iter().any(|w| w.starts_with("model: ")), "{:?}", a.warnings);
    for (format, file) in [(Format::Text, "report.txt"), (Format::Markdown, "report.md")] {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        let actual = render(&a, format);
        if std::env::var("BLESS_GOLDEN").is_ok() {
            std::fs::write(&path, &actual).expect("bless golden");
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden file present (regenerate with BLESS_GOLDEN=1)");
        assert_eq!(
            actual, golden,
            "report rendering drifted from tests/golden/{file}; \
             if intentional, regenerate with BLESS_GOLDEN=1"
        );
    }
}
