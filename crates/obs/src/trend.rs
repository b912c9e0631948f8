//! Cross-run trend analysis: the engine behind `rfstudy report`.
//!
//! Takes parsed ledger records (see [`ledger`](crate::ledger)), compares
//! the latest run against a baseline, scores paper fidelity (see
//! [`fidelity`]), and renders the result as text,
//! markdown, or a Prometheus text-format exposition.
//!
//! The baseline is either an explicit git revision from the ledger or —
//! the default — a rolling median of the last N comparable prior runs
//! (same `RF_COMMITS` and `RF_JOBS`, so smoke records never gate a full
//! run). Per-harness noise thresholds come from the median absolute
//! deviation of that window: `threshold = max(floor, k · 1.4826 ·
//! MAD/median · 100%)`, the usual robust-sigma construction, so a noisy
//! harness earns a wide band and a single-sample blip does not fire the
//! gate. [`Analysis::passed`] is the CI contract: false on a perf
//! regression beyond threshold or a fidelity drift beyond band.

use crate::fidelity::{self, ScoreEntry};
use crate::json::Value;
use std::fmt::Write as _;

/// How fidelity findings affect the check gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityMode {
    /// Out-of-band drift fails the check (default).
    Gate,
    /// Drift is reported as a warning only.
    Warn,
    /// Scorecard is skipped entirely.
    Off,
}

/// Tunables for [`analyze`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Compare against the newest prior record whose `git_rev` starts
    /// with this prefix, instead of the rolling window.
    pub baseline: Option<String>,
    /// Rolling-window size (prior comparable runs) for the median
    /// baseline.
    pub window: usize,
    /// Noise floor for the perf threshold, in percent.
    pub max_regress_pct: f64,
    /// MAD multiplier `k` in the robust threshold.
    pub mad_k: f64,
    /// Scales every fidelity band (e.g. widen for reduced-commit smoke
    /// runs).
    pub band_scale: f64,
    /// Fidelity gating mode.
    pub fidelity: FidelityMode,
    /// Harnesses whose baseline is below this many seconds are not
    /// perf-gated (relative deltas on micro-times are all noise).
    pub min_seconds: f64,
    /// Profile-drift handling: how a span's share of suite self time
    /// shifting beyond the noise band affects the gate. Defaults to
    /// `Warn` — wall-time shares are real signal but too noisy to block
    /// CI by default.
    pub profile_drift: FidelityMode,
    /// Noise floor for profile-share drift, in percentage points.
    pub profile_band_pp: f64,
    /// Noise floor for analytic-model error drift, in percentage
    /// points of mean |IPC error|. Model-error growth is always a
    /// warning, never a gate: a drifting model needs recalibration,
    /// it does not mean the simulator regressed.
    pub model_band_pp: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            baseline: None,
            window: 5,
            max_regress_pct: 10.0,
            mad_k: 3.0,
            band_scale: 1.0,
            fidelity: FidelityMode::Gate,
            min_seconds: 0.05,
            profile_drift: FidelityMode::Warn,
            profile_band_pp: 2.0,
            model_band_pp: 3.0,
        }
    }
}

/// One perf comparison row (a harness, or the suite total).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Harness name, or `TOTAL`.
    pub name: String,
    /// Latest run's seconds.
    pub latest: f64,
    /// Baseline seconds (window median), if any baseline run has this
    /// harness.
    pub baseline: Option<f64>,
    /// Relative delta vs baseline, percent (positive = slower).
    pub delta_pct: Option<f64>,
    /// Regression threshold applied to this row, percent.
    pub threshold_pct: f64,
    /// Whether this row trips the perf gate.
    pub regressed: bool,
}

/// One profile-drift row: a span name's share of the suite's
/// self-profiled time, latest vs the baseline window.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Span name (phase), e.g. `cycle.issue` or `cache.load`.
    pub name: String,
    /// Latest run's share of attributed self time, percent.
    pub latest_pp: f64,
    /// Baseline share (window median over profiled runs), if any.
    pub baseline_pp: Option<f64>,
    /// Shift vs baseline, percentage points (positive = grew).
    pub delta_pp: Option<f64>,
    /// Drift band applied to this row, percentage points.
    pub band_pp: f64,
    /// Whether the shift exceeds the band.
    pub drifted: bool,
}

/// The latest run's analytic-model calibration, compared against the
/// baseline window's runs that also measured it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Configurations the model-vs-sim probe covered.
    pub configs: u64,
    /// Latest mean |IPC error|, percent.
    pub mean_pct: f64,
    /// Latest worst single-config |IPC error|, percent.
    pub worst_pct: f64,
    /// The configuration behind `worst_pct`.
    pub worst_config: String,
    /// Window median of prior runs' mean errors, if any measured it.
    pub baseline_mean_pct: Option<f64>,
    /// Growth vs baseline, percentage points (positive = model worse).
    pub delta_pp: Option<f64>,
    /// Drift band applied, percentage points.
    pub band_pp: f64,
    /// Whether the growth exceeds the band (warning-only).
    pub drifted: bool,
}

/// The full analysis of a ledger: everything the renderers and the
/// check gate need.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Latest run's git revision.
    pub latest_rev: String,
    /// Latest run's Unix timestamp.
    pub latest_timestamp: u64,
    /// Latest run's commit budget (`RF_COMMITS`).
    pub commits: u64,
    /// Latest run's worker count (`RF_JOBS`).
    pub jobs: u64,
    /// Human description of the baseline used.
    pub baseline_desc: String,
    /// Prior runs the baseline was computed from.
    pub baseline_runs: usize,
    /// Per-harness rows, suite order.
    pub rows: Vec<PerfRow>,
    /// The suite-total row.
    pub total: PerfRow,
    /// Latest run's peak resident set size in KiB (`None` when the
    /// record carries none).
    pub peak_rss_kb: Option<u64>,
    /// Fidelity scorecard (empty when `FidelityMode::Off`).
    pub scorecard: Vec<ScoreEntry>,
    /// Band scale the scorecard was judged with.
    pub band_scale: f64,
    /// Profile-drift rows (empty when the latest record carries no
    /// profile or profile drift is `Off`).
    pub profile_drift: Vec<DriftRow>,
    /// Baseline runs that carried profiles.
    pub profile_runs: usize,
    /// Analytic-model error telemetry (absent when the latest record
    /// carries no `model_error` block).
    pub model: Option<ModelRow>,
    /// Gate failures (perf regressions; fidelity when gating).
    pub failures: Vec<String>,
    /// Non-gating findings (fidelity drift under `Warn`, scale
    /// mismatches, …).
    pub warnings: Vec<String>,
}

impl Analysis {
    /// The CI contract: no failures.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Median of a non-empty slice (mean of the middle pair for even
/// lengths). Returns 0 for an empty slice.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in ledger seconds"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median absolute deviation around `center`.
fn mad(values: &[f64], center: f64) -> f64 {
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&mut deviations)
}

fn harness_seconds(record: &Value) -> Vec<(String, f64)> {
    record
        .get("harnesses")
        .and_then(Value::as_array)
        .map(|hs| {
            hs.iter()
                // A cache-served harness owns no spec: its seconds
                // measure rendering, not simulation, so it neither earns
                // a perf row nor feeds a baseline window (averaging its
                // near-zeros would poison the median).
                .filter(|h| h.get("cache_served").and_then(Value::as_bool) != Some(true))
                .filter_map(|h| {
                    Some((h.get_str("name")?.to_owned(), h.get_f64("seconds")?))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn total_seconds(record: &Value) -> Option<f64> {
    record.get("totals")?.get_f64("seconds")
}

fn config_u64(record: &Value, key: &str) -> Option<u64> {
    Some(record.get("config")?.get_f64(key)? as u64)
}

/// Builds a perf row from the latest value and the baseline window's
/// values for the same quantity.
fn perf_row(name: &str, latest: f64, window: &[f64], opts: &Options) -> PerfRow {
    if window.is_empty() {
        return PerfRow {
            name: name.to_owned(),
            latest,
            baseline: None,
            delta_pct: None,
            threshold_pct: opts.max_regress_pct,
            regressed: false,
        };
    }
    let mut sorted = window.to_vec();
    let base = median(&mut sorted);
    let noise_pct = if base > 0.0 {
        opts.mad_k * 1.4826 * mad(window, base) / base * 100.0
    } else {
        0.0
    };
    let threshold_pct = opts.max_regress_pct.max(noise_pct);
    let delta_pct = if base > 0.0 { Some((latest - base) / base * 100.0) } else { None };
    let regressed = base >= opts.min_seconds
        && delta_pct.is_some_and(|d| d > threshold_pct);
    PerfRow {
        name: name.to_owned(),
        latest,
        baseline: Some(base),
        delta_pct,
        threshold_pct,
        regressed,
    }
}

/// Analyses a ledger (append-ordered records; the last is "latest").
///
/// # Errors
///
/// Returns an error when the ledger is empty, the latest record has an
/// unknown schema version, or an explicit `--baseline` revision matches
/// no record.
pub fn analyze(records: &[Value], opts: &Options) -> Result<Analysis, String> {
    let latest = records.last().ok_or("ledger has no records")?;
    let schema = latest.get_f64("schema").unwrap_or(0.0) as u64;
    if schema != crate::ledger::SCHEMA_VERSION {
        return Err(format!(
            "latest record has schema {schema}, this build reads {}",
            crate::ledger::SCHEMA_VERSION
        ));
    }
    let commits = config_u64(latest, "commits").unwrap_or(0);
    let jobs = config_u64(latest, "jobs").unwrap_or(0);
    let prior = &records[..records.len() - 1];

    let mut warnings = Vec::new();
    let (window_records, baseline_desc): (Vec<&Value>, String) = match &opts.baseline {
        Some(rev) => {
            let hit = prior
                .iter()
                .rev()
                .find(|r| r.get_str("git_rev").is_some_and(|g| g.starts_with(rev.as_str())))
                .ok_or_else(|| format!("no prior ledger record matches baseline {rev:?}"))?;
            if config_u64(hit, "commits") != Some(commits) {
                warnings.push(format!(
                    "baseline {rev} ran at RF_COMMITS={}, latest at {commits}; seconds are not comparable",
                    config_u64(hit, "commits").unwrap_or(0)
                ));
            }
            let desc = format!(
                "explicit rev {}",
                hit.get_str("git_rev").unwrap_or("unknown")
            );
            (vec![hit], desc)
        }
        None => {
            let comparable: Vec<&Value> = prior
                .iter()
                .rev()
                .filter(|r| {
                    r.get_f64("schema").map(|s| s as u64)
                        == Some(crate::ledger::SCHEMA_VERSION)
                        && config_u64(r, "commits") == Some(commits)
                        && config_u64(r, "jobs") == Some(jobs)
                })
                .take(opts.window)
                .collect();
            let skipped = prior.len() - comparable.len();
            if skipped > 0 && comparable.len() < opts.window {
                warnings.push(format!(
                    "{skipped} prior record(s) ignored (different scale/jobs/schema)"
                ));
            }
            let desc = if comparable.is_empty() {
                "none (no comparable prior runs)".to_owned()
            } else {
                format!("rolling median of {} prior run(s)", comparable.len())
            };
            (comparable, desc)
        }
    };

    // Per-harness rows in the latest run's order.
    let latest_harnesses = harness_seconds(latest);
    let window_harnesses: Vec<Vec<(String, f64)>> =
        window_records.iter().map(|r| harness_seconds(r)).collect();
    let mut rows = Vec::new();
    for (name, secs) in &latest_harnesses {
        let window: Vec<f64> = window_harnesses
            .iter()
            .filter_map(|hs| hs.iter().find(|(n, _)| n == name).map(|(_, s)| *s))
            .collect();
        rows.push(perf_row(name, *secs, &window, opts));
    }
    let total_window: Vec<f64> =
        window_records.iter().filter_map(|r| total_seconds(r)).collect();
    let total = perf_row(
        "TOTAL",
        total_seconds(latest).unwrap_or(0.0),
        &total_window,
        opts,
    );

    let mut failures = Vec::new();
    for row in rows.iter().chain(std::iter::once(&total)) {
        if row.regressed {
            failures.push(format!(
                "perf: {} took {:.3}s vs baseline {:.3}s ({:+.1}% > {:.1}%)",
                row.name,
                row.latest,
                row.baseline.unwrap_or(0.0),
                row.delta_pct.unwrap_or(0.0),
                row.threshold_pct
            ));
        }
    }

    // Fidelity scorecard from the latest record's extracted headlines.
    let scorecard: Vec<ScoreEntry> = if opts.fidelity == FidelityMode::Off {
        Vec::new()
    } else {
        let headlines = latest.get("headlines");
        fidelity::TARGETS
            .iter()
            .map(|target| ScoreEntry {
                target,
                measured: headlines.and_then(|h| h.get_f64(target.id)),
            })
            .collect()
    };
    for entry in &scorecard {
        if entry.within(opts.band_scale) {
            continue;
        }
        let finding = match (entry.measured, entry.drift_pct()) {
            (Some(m), Some(d)) => format!(
                "fidelity: {} = {m:.4} vs accepted {:.4} ({d:+.1}% beyond band {:.1}%)",
                entry.target.id,
                entry.target.accepted,
                entry.target.band_pct * opts.band_scale
            ),
            _ => format!(
                "fidelity: {} missing from latest record (headline not extracted)",
                entry.target.id
            ),
        };
        match opts.fidelity {
            FidelityMode::Gate => failures.push(finding),
            FidelityMode::Warn => warnings.push(finding),
            FidelityMode::Off => unreachable!("scorecard empty when off"),
        }
    }

    // Profile drift: each span name's share of suite self time vs the
    // window of prior profiled runs. Same robust-band construction as
    // perf, but in absolute percentage points (shares already are
    // relative quantities).
    let mut profile_drift = Vec::new();
    let mut profile_runs = 0;
    if opts.profile_drift != FidelityMode::Off {
        if let Some(latest_prof) = crate::profile::suite_profile_of_record(latest) {
            let window_shares: Vec<Vec<(String, f64)>> = window_records
                .iter()
                .filter_map(|r| crate::profile::suite_profile_of_record(r))
                .map(|p| crate::profile::phase_shares(&p))
                .collect();
            profile_runs = window_shares.len();
            for (name, share) in crate::profile::phase_shares(&latest_prof) {
                if window_shares.is_empty() {
                    profile_drift.push(DriftRow {
                        name,
                        latest_pp: share,
                        baseline_pp: None,
                        delta_pp: None,
                        band_pp: opts.profile_band_pp,
                        drifted: false,
                    });
                    continue;
                }
                // A span absent from a prior profile held 0% there.
                let window: Vec<f64> = window_shares
                    .iter()
                    .map(|ws| {
                        ws.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s)
                    })
                    .collect();
                let mut sorted = window.clone();
                let base = median(&mut sorted);
                let band_pp = opts
                    .profile_band_pp
                    .max(opts.mad_k * 1.4826 * mad(&window, base));
                let delta = share - base;
                profile_drift.push(DriftRow {
                    name,
                    latest_pp: share,
                    baseline_pp: Some(base),
                    delta_pp: Some(delta),
                    band_pp,
                    drifted: delta.abs() > band_pp,
                });
            }
        }
    }
    for row in &profile_drift {
        if !row.drifted {
            continue;
        }
        let finding = format!(
            "profile: {} holds {:.1}% of self time vs baseline {:.1}% ({:+.1}pp beyond band {:.1}pp)",
            row.name,
            row.latest_pp,
            row.baseline_pp.unwrap_or(0.0),
            row.delta_pp.unwrap_or(0.0),
            row.band_pp
        );
        match opts.profile_drift {
            FidelityMode::Gate => failures.push(finding),
            FidelityMode::Warn => warnings.push(finding),
            FidelityMode::Off => unreachable!("rows empty when off"),
        }
    }

    // Analytic-model calibration: the static model's mean |IPC error|
    // against this run's simulations, compared to the window median of
    // prior runs that measured it. Same robust-band construction as
    // profile drift, but warnings-only — the model drifting out of
    // calibration is a maintenance signal, not a simulator regression.
    let model = latest.get("model_error").and_then(|me| {
        let configs = me.get_f64("configs")? as u64;
        let mean_pct = me.get_f64("mean_abs_pct_err")?;
        let worst_pct = me.get_f64("worst_pct_err")?;
        let window: Vec<f64> = window_records
            .iter()
            .filter_map(|r| r.get("model_error")?.get_f64("mean_abs_pct_err"))
            .collect();
        let baseline_mean_pct = (!window.is_empty()).then(|| {
            let mut sorted = window.clone();
            median(&mut sorted)
        });
        let band_pp = baseline_mean_pct.map_or(opts.model_band_pp, |b| {
            opts.model_band_pp.max(opts.mad_k * 1.4826 * mad(&window, b))
        });
        let delta_pp = baseline_mean_pct.map(|b| mean_pct - b);
        Some(ModelRow {
            configs,
            mean_pct,
            worst_pct,
            worst_config: me.get_str("worst_config").unwrap_or("unknown").to_owned(),
            baseline_mean_pct,
            delta_pp,
            band_pp,
            drifted: delta_pp.is_some_and(|d| d > band_pp),
        })
    });
    if let Some(m) = &model {
        if m.drifted {
            warnings.push(format!(
                "model: mean |IPC error| {:.1}% vs baseline {:.1}% ({:+.1}pp beyond band \
                 {:.1}pp); the analytic model wants recalibration",
                m.mean_pct,
                m.baseline_mean_pct.unwrap_or(0.0),
                m.delta_pp.unwrap_or(0.0),
                m.band_pp
            ));
        }
    }

    Ok(Analysis {
        latest_rev: latest.get_str("git_rev").unwrap_or("unknown").to_owned(),
        latest_timestamp: latest.get_f64("timestamp_unix").unwrap_or(0.0) as u64,
        commits,
        jobs,
        baseline_desc,
        baseline_runs: window_records.len(),
        rows,
        total,
        peak_rss_kb: latest.get("totals").and_then(|t| t.get_f64("peak_rss_kb")).map(|kb| kb as u64),
        scorecard,
        band_scale: opts.band_scale,
        profile_drift,
        profile_runs,
        model,
        failures,
        warnings,
    })
}

fn fmt_opt(v: Option<f64>, width: usize, precision: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.precision$}"),
        None => format!("{:>width$}", "-"),
    }
}

fn fmt_delta(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:+.1}%"),
        None => "-".to_owned(),
    }
}

fn fmt_rss(kb: Option<u64>) -> String {
    kb.map_or_else(|| "- (not recorded)".to_owned(), |kb| format!("{kb} KiB"))
}

/// Renders the plain-text report.
pub fn render_text(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "suite report — latest rev {} (t={}, RF_COMMITS={}, jobs={})",
        a.latest_rev, a.latest_timestamp, a.commits, a.jobs
    );
    let _ = writeln!(out, "baseline: {}", a.baseline_desc);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>8} {:>8}  status",
        "harness", "latest(s)", "base(s)", "delta", "thresh"
    );
    for row in a.rows.iter().chain(std::iter::once(&a.total)) {
        let _ = writeln!(
            out,
            "{:<12} {:>9.3} {} {:>8} {:>7.1}%  {}",
            row.name,
            row.latest,
            fmt_opt(row.baseline, 9, 3),
            fmt_delta(row.delta_pct),
            row.threshold_pct,
            if row.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let _ = writeln!(out, "{:<12} {}", "peak RSS", fmt_rss(a.peak_rss_kb));
    if !a.scorecard.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "paper-fidelity scorecard (band scale {:.1})", a.band_scale);
        let _ = writeln!(
            out,
            "{:<36} {:>10} {:>10} {:>8} {:>7} {:>9}  status",
            "target", "measured", "accepted", "drift", "band", "vs.paper"
        );
        for entry in &a.scorecard {
            let _ = writeln!(
                out,
                "{:<36} {} {:>10.4} {:>8} {:>6.1}% {:>9}  {}",
                entry.target.id,
                fmt_opt(entry.measured, 10, 4),
                entry.target.accepted,
                fmt_delta(entry.drift_pct()),
                entry.target.band_pct * a.band_scale,
                fmt_delta(entry.deviation_vs_paper_pct()),
                if entry.within(a.band_scale) { "ok" } else { "DRIFT" }
            );
        }
    }
    if !a.profile_drift.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "profile drift (share of suite self time, {} profiled baseline run(s))",
            a.profile_runs
        );
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>8} {:>7}  status",
            "span", "latest", "base", "delta", "band"
        );
        for row in &a.profile_drift {
            let _ = writeln!(
                out,
                "{:<24} {:>7.1}% {} {:>8} {:>6.1}pp  {}",
                row.name,
                row.latest_pp,
                fmt_opt(row.baseline_pp, 7, 1) + "%",
                match row.delta_pp {
                    Some(d) => format!("{d:+.1}pp"),
                    None => "-".to_owned(),
                },
                row.band_pp,
                if row.drifted { "DRIFT" } else { "ok" }
            );
        }
    }
    if let Some(m) = &a.model {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "analytic model: mean |IPC error| {:.1}% over {} config(s), worst {:.1}% ({}); \
             baseline {} ({}, band {:.1}pp)  {}",
            m.mean_pct,
            m.configs,
            m.worst_pct,
            m.worst_config,
            match m.baseline_mean_pct {
                Some(b) => format!("{b:.1}%"),
                None => "-".to_owned(),
            },
            match m.delta_pp {
                Some(d) => format!("{d:+.1}pp"),
                None => "-".to_owned(),
            },
            m.band_pp,
            if m.drifted { "DRIFT" } else { "ok" }
        );
    }
    for w in &a.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    let _ = writeln!(out);
    if a.passed() {
        let _ = writeln!(out, "check: PASS");
    } else {
        let _ = writeln!(out, "check: FAIL ({} finding(s))", a.failures.len());
        for f in &a.failures {
            let _ = writeln!(out, "  - {f}");
        }
    }
    out
}

/// Renders the markdown report (the CI artifact).
pub fn render_markdown(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Suite report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Latest rev `{}` at t={}, `RF_COMMITS={}`, {} job(s). Baseline: {}.",
        a.latest_rev, a.latest_timestamp, a.commits, a.jobs, a.baseline_desc
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Performance");
    let _ = writeln!(out);
    let _ = writeln!(out, "| harness | latest (s) | baseline (s) | delta | threshold | status |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---|");
    for row in a.rows.iter().chain(std::iter::once(&a.total)) {
        let _ = writeln!(
            out,
            "| {} | {:.3} | {} | {} | {:.1}% | {} |",
            row.name,
            row.latest,
            fmt_opt(row.baseline, 1, 3).trim().to_owned(),
            fmt_delta(row.delta_pct),
            row.threshold_pct,
            if row.regressed { "**REGRESSED**" } else { "ok" }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Peak RSS of the suite process: {}", fmt_rss(a.peak_rss_kb));
    if !a.scorecard.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Paper fidelity (band scale {:.1})", a.band_scale);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| target | source | measured | accepted | drift | band | paper | vs. paper | status |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---|");
        for entry in &a.scorecard {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {:.4} | {} | {:.1}% | {} | {} | {} |",
                entry.target.id,
                entry.target.source,
                fmt_opt(entry.measured, 1, 4).trim().to_owned(),
                entry.target.accepted,
                fmt_delta(entry.drift_pct()),
                entry.target.band_pct * a.band_scale,
                fmt_opt(entry.target.paper, 1, 4).trim().to_owned(),
                fmt_delta(entry.deviation_vs_paper_pct()),
                if entry.within(a.band_scale) { "ok" } else { "**DRIFT**" }
            );
        }
    }
    if !a.profile_drift.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "## Profile drift ({} profiled baseline run(s))",
            a.profile_runs
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| span | latest | baseline | delta | band | status |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---|");
        for row in &a.profile_drift {
            let _ = writeln!(
                out,
                "| `{}` | {:.1}% | {} | {} | {:.1}pp | {} |",
                row.name,
                row.latest_pp,
                match row.baseline_pp {
                    Some(b) => format!("{b:.1}%"),
                    None => "-".to_owned(),
                },
                match row.delta_pp {
                    Some(d) => format!("{d:+.1}pp"),
                    None => "-".to_owned(),
                },
                row.band_pp,
                if row.drifted { "**DRIFT**" } else { "ok" }
            );
        }
    }
    if let Some(m) = &a.model {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Analytic model");
        let _ = writeln!(out);
        let _ = writeln!(out, "| configs | mean err | worst err | worst config | baseline | delta | band | status |");
        let _ = writeln!(out, "|---:|---:|---:|---|---:|---:|---:|---|");
        let _ = writeln!(
            out,
            "| {} | {:.1}% | {:.1}% | `{}` | {} | {} | {:.1}pp | {} |",
            m.configs,
            m.mean_pct,
            m.worst_pct,
            m.worst_config,
            match m.baseline_mean_pct {
                Some(b) => format!("{b:.1}%"),
                None => "-".to_owned(),
            },
            match m.delta_pp {
                Some(d) => format!("{d:+.1}pp"),
                None => "-".to_owned(),
            },
            m.band_pp,
            if m.drifted { "**DRIFT**" } else { "ok" }
        );
    }
    if !a.warnings.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Warnings");
        let _ = writeln!(out);
        for w in &a.warnings {
            let _ = writeln!(out, "- {w}");
        }
    }
    let _ = writeln!(out);
    if a.passed() {
        let _ = writeln!(out, "**Check: PASS**");
    } else {
        let _ = writeln!(out, "**Check: FAIL**");
        let _ = writeln!(out);
        for f in &a.failures {
            let _ = writeln!(out, "- {f}");
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a Prometheus text-format exposition of the latest run.
pub fn render_prometheus(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP rf_suite_total_seconds Suite wall-clock seconds.");
    let _ = writeln!(out, "# TYPE rf_suite_total_seconds gauge");
    let _ = writeln!(out, "rf_suite_total_seconds {}", a.total.latest);
    let _ = writeln!(out, "# HELP rf_suite_timestamp_seconds Unix time of the latest run.");
    let _ = writeln!(out, "# TYPE rf_suite_timestamp_seconds gauge");
    let _ = writeln!(out, "rf_suite_timestamp_seconds {}", a.latest_timestamp);
    let _ = writeln!(out, "# HELP rf_harness_seconds Per-harness wall seconds.");
    let _ = writeln!(out, "# TYPE rf_harness_seconds gauge");
    for row in &a.rows {
        let _ = writeln!(
            out,
            "rf_harness_seconds{{harness=\"{}\"}} {}",
            prom_escape(&row.name),
            row.latest
        );
    }
    if !a.scorecard.is_empty() {
        let _ = writeln!(out, "# HELP rf_fidelity_measured Measured headline value.");
        let _ = writeln!(out, "# TYPE rf_fidelity_measured gauge");
        for e in &a.scorecard {
            if let Some(m) = e.measured {
                let _ = writeln!(
                    out,
                    "rf_fidelity_measured{{target=\"{}\"}} {m}",
                    prom_escape(e.target.id)
                );
            }
        }
        let _ = writeln!(out, "# HELP rf_fidelity_drift_pct Drift vs accepted anchor, percent.");
        let _ = writeln!(out, "# TYPE rf_fidelity_drift_pct gauge");
        for e in &a.scorecard {
            if let Some(d) = e.drift_pct() {
                let _ = writeln!(
                    out,
                    "rf_fidelity_drift_pct{{target=\"{}\"}} {d}",
                    prom_escape(e.target.id)
                );
            }
        }
        let _ = writeln!(out, "# HELP rf_fidelity_within 1 when inside the accepted band.");
        let _ = writeln!(out, "# TYPE rf_fidelity_within gauge");
        for e in &a.scorecard {
            let _ = writeln!(
                out,
                "rf_fidelity_within{{target=\"{}\"}} {}",
                prom_escape(e.target.id),
                u8::from(e.within(a.band_scale))
            );
        }
    }
    if !a.profile_drift.is_empty() {
        let _ = writeln!(out, "# HELP rf_profile_share_pct Span share of suite self time.");
        let _ = writeln!(out, "# TYPE rf_profile_share_pct gauge");
        for row in &a.profile_drift {
            let _ = writeln!(
                out,
                "rf_profile_share_pct{{span=\"{}\"}} {}",
                prom_escape(&row.name),
                row.latest_pp
            );
        }
    }
    if let Some(m) = &a.model {
        let _ = writeln!(out, "# HELP rf_model_mean_abs_err_pct Analytic-model mean |IPC error|.");
        let _ = writeln!(out, "# TYPE rf_model_mean_abs_err_pct gauge");
        let _ = writeln!(out, "rf_model_mean_abs_err_pct {}", m.mean_pct);
        let _ = writeln!(out, "# HELP rf_model_worst_err_pct Analytic-model worst config |IPC error|.");
        let _ = writeln!(out, "# TYPE rf_model_worst_err_pct gauge");
        let _ = writeln!(out, "rf_model_worst_err_pct {}", m.worst_pct);
    }
    let _ = writeln!(out, "# HELP rf_report_failures Gate findings in the latest report.");
    let _ = writeln!(out, "# TYPE rf_report_failures gauge");
    let _ = writeln!(out, "rf_report_failures {}", a.failures.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Builds a synthetic ledger record: `(rev, harness seconds scale,
    /// headline overrides)`.
    fn record(rev: &str, scale: f64, overrides: &[(&str, f64)]) -> Value {
        let mut headlines: Vec<(String, f64)> = fidelity::TARGETS
            .iter()
            .map(|t| (t.id.to_owned(), t.accepted))
            .collect();
        for (id, v) in overrides {
            if let Some(slot) = headlines.iter_mut().find(|(k, _)| k == id) {
                slot.1 = *v;
            }
        }
        let heads: String = headlines
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        let doc = format!(
            concat!(
                "{{\"schema\":{schema},\"timestamp_unix\":100,\"git_rev\":\"{rev}\",",
                "\"config\":{{\"commits\":2000,\"jobs\":1}},",
                "\"totals\":{{\"seconds\":{total},\"peak_rss_kb\":8192,\"sims\":10,",
                "\"committed\":20000,",
                "\"cycles\":9000,\"cycles_skipped\":0,\"wakeup_events\":0,\"reused\":0,",
                "\"cache_hits\":1,\"cache_misses\":9}},",
                "\"phase_seconds\":{{\"generate\":0,\"simulate\":0,\"aggregate\":0}},",
                "\"profile\":null,",
                "\"harnesses\":[",
                "{{\"name\":\"fig3\",\"seconds\":{h1},\"sims\":5,\"committed\":1,\"cycles\":1,",
                "\"stall_no_reg\":0,\"stall_dq_full\":0,\"no_free_cycles\":0,",
                "\"cache_served\":false,\"probe\":null,\"error\":null}},",
                "{{\"name\":\"fig6\",\"seconds\":{h2},\"sims\":5,\"committed\":1,\"cycles\":1,",
                "\"stall_no_reg\":0,\"stall_dq_full\":0,\"no_free_cycles\":0,",
                "\"cache_served\":false,\"probe\":null,\"error\":null}}",
                "],\"headlines\":{{{heads}}},\"model_error\":null,\"alloc\":null,",
                "\"telemetry\":null}}"
            ),
            schema = crate::ledger::SCHEMA_VERSION,
            rev = rev,
            total = 3.0 * scale,
            h1 = 1.0 * scale,
            h2 = 2.0 * scale,
            heads = heads
        );
        json::parse(&doc).unwrap()
    }

    /// Marks the named harness as fully cache-served in a fixture.
    fn mark_cache_served(record: &mut Value, harness: &str) {
        let Value::Object(members) = record else { unreachable!() };
        for (k, v) in members.iter_mut() {
            if k != "harnesses" {
                continue;
            }
            let Value::Array(hs) = v else { unreachable!() };
            for h in hs {
                if h.get_str("name") != Some(harness) {
                    continue;
                }
                let Value::Object(fields) = h else { unreachable!() };
                for (fk, fv) in fields.iter_mut() {
                    if fk == "cache_served" {
                        *fv = Value::Bool(true);
                    }
                }
            }
        }
    }

    /// Attaches a profile (`span name -> self ns` under the root) to the
    /// fixture record.
    fn attach_profile(record: &mut Value, spans: &[(&str, u64)]) {
        let children: Vec<Value> = spans
            .iter()
            .map(|(name, ns)| {
                Value::Object(vec![
                    ("name".to_owned(), Value::String((*name).to_owned())),
                    ("ns".to_owned(), Value::Number(*ns as f64)),
                    ("n".to_owned(), Value::Number(1.0)),
                    ("children".to_owned(), Value::Array(vec![])),
                ])
            })
            .collect();
        let total: u64 = spans.iter().map(|(_, ns)| ns).sum();
        let tree = Value::Object(vec![
            ("name".to_owned(), Value::String("all".to_owned())),
            ("ns".to_owned(), Value::Number(total as f64)),
            ("n".to_owned(), Value::Number(1.0)),
            ("children".to_owned(), Value::Array(children)),
        ]);
        let Value::Object(members) = record else { unreachable!() };
        for (k, v) in members.iter_mut() {
            if k == "profile" {
                *v = tree.clone();
            }
        }
    }

    /// Replaces the fixture's null `model_error` with a measured block.
    fn attach_model_error(record: &mut Value, mean_pct: f64, worst_pct: f64) {
        let Value::Object(members) = record else { unreachable!() };
        for (k, v) in members.iter_mut() {
            if k == "model_error" {
                *v = Value::Object(vec![
                    ("configs".to_owned(), Value::Number(72.0)),
                    ("mean_abs_pct_err".to_owned(), Value::Number(mean_pct)),
                    ("worst_pct_err".to_owned(), Value::Number(worst_pct)),
                    (
                        "worst_config".to_owned(),
                        Value::String("mdljdp2 width=4 precise regs=64".to_owned()),
                    ),
                ]);
            }
        }
    }

    /// Restamps a fixture with another schema version, as a record an
    /// older build appended would carry.
    fn with_schema(mut record: Value, schema: u64) -> Value {
        let Value::Object(members) = &mut record else { unreachable!() };
        for (k, v) in members.iter_mut() {
            if k == "schema" {
                *v = Value::Number(schema as f64);
            }
        }
        record
    }

    fn ledger_of(scales: &[f64]) -> Vec<Value> {
        scales
            .iter()
            .enumerate()
            .map(|(i, s)| record(&format!("rev{i}"), *s, &[]))
            .collect()
    }

    #[test]
    fn clean_rerun_passes() {
        let records = ledger_of(&[1.0, 1.01, 0.99, 1.0]);
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(a.passed(), "failures: {:?}", a.failures);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.baseline_runs, 3);
        assert!(!a.total.regressed);
        assert!(a.scorecard.iter().all(|e| e.within(1.0)));
    }

    #[test]
    fn injected_20pct_slowdown_fires_and_small_jitter_does_not() {
        // Three steady runs then a 20% slower one: beyond the 10% floor.
        let slow = ledger_of(&[1.0, 1.0, 1.0, 1.2]);
        let a = analyze(&slow, &Options::default()).unwrap();
        assert!(!a.passed());
        assert!(
            a.failures.iter().any(|f| f.starts_with("perf: TOTAL")),
            "total regression reported: {:?}",
            a.failures
        );
        assert!(a.total.regressed);

        // 2% jitter stays inside the floor.
        let ok = ledger_of(&[1.0, 1.0, 1.0, 1.02]);
        assert!(analyze(&ok, &Options::default()).unwrap().passed());
    }

    #[test]
    fn mad_widens_threshold_for_noisy_history() {
        // Noisy window: MAD-based threshold should exceed the 10% floor
        // and absorb a 30% excursion that the floor alone would flag.
        let records = ledger_of(&[1.0, 1.6, 0.7, 1.4, 0.8, 1.3]);
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(a.total.threshold_pct > 10.0, "threshold {}", a.total.threshold_pct);
        assert!(a.passed(), "failures: {:?}", a.failures);
    }

    #[test]
    fn injected_fidelity_drift_fires_under_gate_not_under_warn() {
        let mut records = ledger_of(&[1.0, 1.0]);
        // fig10 ratio drifts 20% beyond its 5% band.
        let t = fidelity::target("fig10.bips_ratio_precise").unwrap();
        records.push(record("drift", 1.0, &[("fig10.bips_ratio_precise", t.accepted * 1.2)]));
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(!a.passed());
        assert!(a.failures.iter().any(|f| f.contains("fig10.bips_ratio_precise")));

        let warn = Options { fidelity: FidelityMode::Warn, ..Options::default() };
        let a = analyze(&records, &warn).unwrap();
        assert!(a.passed(), "warn mode must not gate: {:?}", a.failures);
        assert!(a.warnings.iter().any(|w| w.contains("fig10.bips_ratio_precise")));

        let off = Options { fidelity: FidelityMode::Off, ..Options::default() };
        let a = analyze(&records, &off).unwrap();
        assert!(a.passed());
        assert!(a.scorecard.is_empty());
    }

    #[test]
    fn band_scale_absorbs_smoke_noise() {
        let mut records = ledger_of(&[1.0]);
        let t = fidelity::target("fig3.commit_ipc.4way_dq32").unwrap();
        records.push(record("smoke", 1.0, &[("fig3.commit_ipc.4way_dq32", t.accepted * 1.3)]));
        assert!(!analyze(&records, &Options::default()).unwrap().passed());
        let scaled = Options { band_scale: 10.0, ..Options::default() };
        assert!(analyze(&records, &scaled).unwrap().passed());
    }

    #[test]
    fn missing_headline_is_a_fidelity_failure() {
        // A record whose headlines lack one target id entirely.
        let mut records = ledger_of(&[1.0]);
        let mut latest = record("latest", 1.0, &[]);
        if let Value::Object(members) = &mut latest {
            for (k, v) in members.iter_mut() {
                if k == "headlines" {
                    if let Value::Object(heads) = v {
                        heads.retain(|(id, _)| id != "fig5.cov100_fp_precise");
                    }
                }
            }
        }
        records.push(latest);
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(!a.passed());
        assert!(a
            .failures
            .iter()
            .any(|f| f.contains("fig5.cov100_fp_precise") && f.contains("missing")));
    }

    #[test]
    fn cache_served_harnesses_are_skipped_not_averaged() {
        // fig6 becomes fully cache-served in the latest run: near-zero
        // seconds must not show up as a perf row, and a cache-served
        // harness in a baseline record must not drag the window median.
        let mut records = ledger_of(&[1.0, 1.0]);
        let mut latest = record("latest", 1.0, &[]);
        mark_cache_served(&mut latest, "fig6");
        records.push(latest);
        let a = analyze(&records, &Options::default()).unwrap();
        assert_eq!(a.rows.len(), 1, "only fig3 earns a perf row");
        assert_eq!(a.rows[0].name, "fig3");
        assert!(a.passed(), "failures: {:?}", a.failures);

        mark_cache_served(&mut records[0], "fig3");
        let a = analyze(&records, &Options::default()).unwrap();
        let fig3 = &a.rows[0];
        assert_eq!(
            fig3.baseline,
            Some(1.0),
            "window median comes from the one run that executed fig3"
        );
    }

    #[test]
    fn profile_drift_warns_by_default_and_gates_on_request() {
        // Two baseline runs where the kill engine holds ~10% of self
        // time, then a run where it balloons to ~40%.
        let steady = [("cycle.issue", 700_u64), ("kill_engine", 100), ("cache.load", 200)];
        let shifted = [("cycle.issue", 400_u64), ("kill_engine", 400), ("cache.load", 200)];
        let mut records = Vec::new();
        for (i, spans) in [&steady, &steady, &shifted].into_iter().enumerate() {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_profile(&mut r, spans);
            records.push(r);
        }
        let a = analyze(&records, &Options::default()).unwrap();
        assert_eq!(a.profile_runs, 2);
        assert!(a.passed(), "warn by default: {:?}", a.failures);
        assert!(
            a.warnings.iter().any(|w| w.contains("profile: kill_engine")),
            "warnings: {:?}",
            a.warnings
        );
        let kill = a
            .profile_drift
            .iter()
            .find(|r| r.name == "kill_engine")
            .expect("kill_engine row");
        assert!(kill.drifted);
        assert!((kill.latest_pp - 40.0).abs() < 1e-9);
        assert_eq!(kill.baseline_pp, Some(10.0));

        let gate = Options { profile_drift: FidelityMode::Gate, ..Options::default() };
        let a = analyze(&records, &gate).unwrap();
        assert!(!a.passed());
        assert!(a.failures.iter().any(|f| f.contains("profile: kill_engine")));

        let off = Options { profile_drift: FidelityMode::Off, ..Options::default() };
        let a = analyze(&records, &off).unwrap();
        assert!(a.profile_drift.is_empty());
        assert!(a.passed());

        // A steady rerun stays inside the band.
        let mut steady_records = Vec::new();
        for (i, _) in [0; 3].iter().enumerate() {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_profile(&mut r, &steady);
            steady_records.push(r);
        }
        let a = analyze(&steady_records, &Options::default()).unwrap();
        assert!(a.profile_drift.iter().all(|r| !r.drifted));
        assert!(a.warnings.iter().all(|w| !w.contains("profile:")));
    }

    #[test]
    fn unprofiled_ledger_renders_no_drift_section() {
        let records = ledger_of(&[1.0, 1.0]);
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(a.profile_drift.is_empty());
        assert!(!render_text(&a).contains("profile drift"));
        assert!(!render_markdown(&a).contains("## Profile drift"));

        // First profiled run: rows render with no baseline, no findings.
        let mut records = ledger_of(&[1.0]);
        let mut latest = record("p0", 1.0, &[]);
        attach_profile(&mut latest, &[("cycle.issue", 900), ("cache.load", 100)]);
        records.push(latest);
        let a = analyze(&records, &Options::default()).unwrap();
        assert_eq!(a.profile_runs, 0);
        assert!(a.profile_drift.iter().all(|r| r.baseline_pp.is_none() && !r.drifted));
        let text = render_text(&a);
        assert!(text.contains("profile drift"), "{text}");
        assert!(text.contains("cycle.issue"), "{text}");
        let prom = render_prometheus(&a);
        assert!(prom.contains("rf_profile_share_pct{span=\"cycle.issue\"} 90"), "{prom}");
    }

    #[test]
    fn model_error_growth_warns_but_never_gates() {
        // Two baseline runs with a well-calibrated model, then one where
        // the mean error balloons: warn, never fail.
        let mut records = Vec::new();
        for (i, mean) in [8.0, 8.2, 19.0].into_iter().enumerate() {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_model_error(&mut r, mean, mean + 15.0);
            records.push(r);
        }
        let a = analyze(&records, &Options::default()).unwrap();
        assert!(a.passed(), "model drift must not gate: {:?}", a.failures);
        let m = a.model.as_ref().expect("model row");
        assert!(m.drifted, "{m:?}");
        assert_eq!(m.configs, 72);
        assert_eq!(m.baseline_mean_pct, Some(8.1));
        assert!(a.warnings.iter().any(|w| w.contains("recalibration")), "{:?}", a.warnings);
        let text = render_text(&a);
        assert!(text.contains("analytic model"), "{text}");
        assert!(text.contains("DRIFT"), "{text}");
        assert!(render_markdown(&a).contains("## Analytic model"));
        assert!(render_prometheus(&a).contains("rf_model_mean_abs_err_pct 19"));

        // A steady rerun stays quiet.
        let mut steady = Vec::new();
        for i in 0..3 {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_model_error(&mut r, 8.0, 23.0);
            steady.push(r);
        }
        let a = analyze(&steady, &Options::default()).unwrap();
        assert!(!a.model.as_ref().unwrap().drifted);
        assert!(a.warnings.iter().all(|w| !w.contains("model:")));

        // First measured run: a row with no baseline, no warning.
        let mut records = ledger_of(&[1.0]);
        let mut latest = record("m0", 1.0, &[]);
        attach_model_error(&mut latest, 9.0, 27.0);
        records.push(latest);
        let a = analyze(&records, &Options::default()).unwrap();
        let m = a.model.as_ref().unwrap();
        assert!(m.baseline_mean_pct.is_none() && !m.drifted);

        // An unmeasured ledger carries no row and renders no section.
        let a = analyze(&ledger_of(&[1.0, 1.0]), &Options::default()).unwrap();
        assert!(a.model.is_none());
        assert!(!render_text(&a).contains("analytic model"));
        assert!(!render_markdown(&a).contains("## Analytic model"));
        assert!(!render_prometheus(&a).contains("rf_model_mean_abs_err_pct"));
    }

    #[test]
    fn explicit_baseline_rev_and_mismatch_errors() {
        let records = ledger_of(&[1.0, 1.5, 1.0]);
        let opts = Options { baseline: Some("rev0".to_owned()), ..Options::default() };
        let a = analyze(&records, &opts).unwrap();
        assert!(a.baseline_desc.contains("rev0"));
        assert_eq!(a.baseline_runs, 1);
        assert!(a.passed());

        let missing = Options { baseline: Some("nope".to_owned()), ..Options::default() };
        assert!(analyze(&records, &missing).is_err());
        assert!(analyze(&[], &Options::default()).is_err());

        // A latest record from before the last schema bump is refused.
        let current = crate::ledger::SCHEMA_VERSION;
        let mut stale = ledger_of(&[1.0]);
        stale.push(with_schema(record("old", 1.0, &[]), current - 1));
        let err = analyze(&stale, &Options::default()).expect_err("stale latest schema");
        assert_eq!(
            err,
            format!("latest record has schema {}, this build reads {current}", current - 1)
        );
    }

    #[test]
    fn first_run_has_no_baseline_and_passes_perf() {
        let records = ledger_of(&[1.0]);
        let a = analyze(&records, &Options::default()).unwrap();
        assert_eq!(a.baseline_runs, 0);
        assert!(a.total.baseline.is_none());
        assert!(a.passed());
    }

    #[test]
    fn incomparable_scales_are_excluded_from_the_window() {
        // A smoke record (different commits) must not poison the window.
        let mut records = vec![record("full0", 1.0, &[])];
        let mut smoke = record("smoke", 50.0, &[]);
        if let Value::Object(members) = &mut smoke {
            for (k, v) in members.iter_mut() {
                if k == "config" {
                    if let Value::Object(cfg) = v {
                        for (ck, cv) in cfg.iter_mut() {
                            if ck == "commits" {
                                *cv = Value::Number(200000.0);
                            }
                        }
                    }
                }
            }
        }
        records.push(smoke);
        records.push(record("full1", 1.0, &[]));
        let a = analyze(&records, &Options::default()).unwrap();
        assert_eq!(a.baseline_runs, 1, "only the comparable prior run counts");
        assert!(a.passed());
        assert!(!a.warnings.is_empty());

        // Priors written before the last schema bump are dropped the
        // same way, even at the same scale and jobs.
        let current = crate::ledger::SCHEMA_VERSION;
        let mut mixed: Vec<Value> =
            ledger_of(&[1.0, 1.0]).into_iter().map(|r| with_schema(r, current - 1)).collect();
        mixed.push(record("latest", 1.0, &[]));
        let a = analyze(&mixed, &Options::default()).unwrap();
        assert_eq!(a.baseline_runs, 0, "older-schema priors never enter the window");
        assert!(
            a.warnings
                .iter()
                .any(|w| w == "2 prior record(s) ignored (different scale/jobs/schema)"),
            "warnings: {:?}",
            a.warnings
        );
    }

    #[test]
    fn renders_cover_all_sections() {
        let records = ledger_of(&[1.0, 1.0, 1.3]);
        let a = analyze(&records, &Options::default()).unwrap();
        let text = render_text(&a);
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("\npeak RSS     8192 KiB\n"), "{text}");
        assert!(text.contains("check: FAIL"), "{text}");
        assert!(text.contains("paper-fidelity scorecard"), "{text}");
        let md = render_markdown(&a);
        assert!(md.contains("# Suite report"));
        assert!(md.contains("| harness |"));
        assert!(md.contains("**Check: FAIL**"));
        assert!(md.contains("Peak RSS of the suite process: 8192 KiB"), "{md}");
        let prom = render_prometheus(&a);
        assert!(prom.contains("rf_suite_total_seconds 3.9"), "{prom}");
        assert!(prom.contains("rf_harness_seconds{harness=\"fig3\"}"));
        assert!(prom.contains("rf_fidelity_within{target=\"fig10.bips_ratio_precise\"} 1"));
        // fig3, fig6, and TOTAL all regressed 30%.
        assert!(prom.contains("rf_report_failures 3"), "{prom}");

        // A passing analysis renders PASS.
        let ok = analyze(&ledger_of(&[1.0, 1.0]), &Options::default()).unwrap();
        assert!(render_text(&ok).contains("check: PASS"));
        assert!(render_markdown(&ok).contains("**Check: PASS**"));
        assert!(render_prometheus(&ok).contains("rf_report_failures 0"));
    }

    #[test]
    fn median_and_mad_are_robust() {
        let mut v = vec![1.0, 9.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 1.0], 1.0), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 9.0], 2.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
