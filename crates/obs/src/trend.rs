//! Cross-run trend analysis: the engine behind `rfstudy report`.
//!
//! Compares the latest parsed ledger record (see [`ledger`](crate::ledger))
//! against a baseline, scores paper fidelity against [`fidelity::TARGETS`],
//! and renders every section as aligned text or markdown through one
//! table writer. Every section is [`Row`]s of one shape: the latest value,
//! the reference it is judged against, their delta, and the band that
//! delta must stay inside. For perf seconds, profile shares and the
//! analytic model's error the reference is the baseline: an explicit git
//! revision from the ledger or — the default — the median of the last N
//! comparable prior runs (same `RF_COMMITS`, `RF_JOBS` and store mode, so
//! smoke records never gate a full run and warm-store runs never a cold
//! one), and one rule sets every band:
//! `max(floor, k · 1.4826 · MAD)` of the window, the usual robust-sigma
//! construction, so a noisy row earns a wide band and a single-sample
//! blip does not fire. A fidelity row's reference is its target's
//! accepted anchor. [`Analysis::passed`] is the CI contract: false on a
//! perf regression, or a fidelity drift under [`Mode::Gate`]. Profile and
//! model drift only warn: wall-time shares are too noisy to block CI, and
//! a drifting model needs recalibration, not a simulator fix.

use crate::fidelity;
use crate::json::Value;
use crate::ledger::SCHEMA_VERSION;
use crate::profile::{phase_shares, suite_profile_of_record};
use std::fmt::Write as _;

/// How a section's flagged rows affect the check gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A flagged row fails the check.
    Gate,
    /// A flagged row is reported as a warning only.
    Warn,
    /// The section is skipped entirely.
    Off,
}

impl Mode {
    /// Every mode, in the order `rfstudy report --fidelity` lists them.
    pub const ALL: [Self; 3] = [Self::Gate, Self::Warn, Self::Off];
}

/// The name `rfstudy report --fidelity` takes.
impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Gate => "gate",
            Mode::Warn => "warn",
            Mode::Off => "off",
        })
    }
}

/// Output format of [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned text tables.
    Text,
    /// Markdown (the CI artifact format).
    Markdown,
}

impl Format {
    /// Every format, in the order `rfstudy report --format` lists them.
    pub const ALL: [Self; 2] = [Self::Text, Self::Markdown];
}

/// The name `rfstudy report --format` takes.
impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::Text => "text",
            Format::Markdown => "markdown",
        })
    }
}

/// The `rfstudy report` options [`analyze`] takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Compare against the newest prior record whose `git_rev` starts
    /// with this prefix, instead of the rolling window.
    pub baseline: Option<String>,
    /// Rolling-window size (prior comparable runs) for the median
    /// baseline; at least 1.
    pub window: usize,
    /// Band floor of the perf rows, in percent.
    pub max_regress_pct: f64,
    /// Whether fidelity drift gates, warns, or is not scored.
    pub fidelity: Mode,
}

impl Options {
    /// The defaults, which `rfstudy report`'s help states.
    pub const DEFAULT: Self =
        Self { baseline: None, window: 5, max_regress_pct: 10.0, fidelity: Mode::Gate };
}

/// MAD multiplier `k` of every windowed band.
const MAD_K: f64 = 3.0;
/// Harnesses whose baseline is below this many seconds are not
/// perf-gated (relative deltas on micro-times are all noise).
const MIN_SECONDS: f64 = 0.05;
/// Band floor of profile-share drift, in percentage points.
const PROFILE_BAND_PP: f64 = 2.0;
/// Band floor of analytic-model error growth, in percentage points of
/// mean |IPC error|.
const MODEL_BAND_PP: f64 = 3.0;

/// One judged line of a report section.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Harness (or `TOTAL`), fidelity target, span, or model quantity.
    pub name: String,
    /// The latest run's value (`None`: a headline the run did not
    /// produce).
    pub latest: Option<f64>,
    /// What `latest` is judged against: the baseline window's median,
    /// or a fidelity target's accepted anchor. `None` without a baseline.
    pub reference: Option<f64>,
    /// `latest` against `reference`: percent of the reference for
    /// seconds and headlines, percentage points for shares and model
    /// error (positive = grew).
    pub delta: Option<f64>,
    /// How far `delta` may go, in `delta`'s unit.
    pub band: f64,
    /// Whether `delta` left the band.
    pub flagged: bool,
    /// Section-specific cells rendered after the band: a fidelity
    /// target's source, paper value and deviation from it; the model's
    /// configuration count and worst case.
    pub extra: Vec<String>,
}

/// Column layout of one section kind.
#[derive(Debug, PartialEq)]
struct Layout {
    /// Headers: name, latest, reference, delta, band, each extra cell,
    /// status.
    head: &'static [&'static str],
    /// Decimals of `latest` and `reference`.
    digits: usize,
    /// `latest` and `reference` are percentages, `delta` and `band`
    /// percentage points (else `delta` and `band` are percent).
    points: bool,
    /// Status of a flagged row.
    flag: &'static str,
}

const PERF: Layout = Layout {
    head: &["harness", "latest(s)", "base(s)", "delta", "thresh", "status"],
    digits: 3, points: false, flag: "REGRESSED",
};
const FIDELITY: Layout = Layout {
    head: &[
        "target", "measured", "accepted", "drift", "band", "source", "paper", "vs.paper", "status",
    ],
    digits: 4, points: false, flag: "DRIFT",
};
const SHARE: Layout = Layout {
    head: &["span", "latest", "base", "delta", "band", "status"],
    digits: 1, points: true, flag: "DRIFT",
};
const MODEL: Layout = Layout {
    head: &[
        "model", "latest", "base", "delta", "band", "configs", "worst", "worst config", "status",
    ],
    digits: 1, points: true, flag: "DRIFT",
};

/// One report table: a heading over rows of one layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Heading.
    pub title: String,
    layout: &'static Layout,
    /// Rows, in report order (empty: the section is not rendered).
    pub rows: Vec<Row>,
}

impl Section {
    /// The table cells, header row first.
    fn cells(&self) -> Vec<Vec<String>> {
        let l = self.layout;
        let (unit, delta_unit) = if l.points { ("%", "pp") } else { ("", "%") };
        let head = l.head.iter().map(|h| (*h).to_owned()).collect();
        std::iter::once(head)
            .chain(self.rows.iter().map(|r| {
                let mut cells = vec![
                    r.name.clone(),
                    num(r.latest, l.digits, unit),
                    num(r.reference, l.digits, unit),
                    signed(r.delta, delta_unit),
                    num(Some(r.band), 1, delta_unit),
                ];
                cells.extend(r.extra.iter().cloned());
                cells.push((if r.flagged { l.flag } else { "ok" }).to_owned());
                cells
            }))
            .collect()
    }
}

fn num(v: Option<f64>, digits: usize, unit: &str) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:.digits$}{unit}"))
}

fn signed(v: Option<f64>, unit: &str) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:+.1}{unit}"))
}

/// The full analysis of a ledger: everything the renderer and the check
/// gate need.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The report's title: the latest run's git revision, timestamp,
    /// commit budget (`RF_COMMITS`) and worker count (`RF_JOBS`).
    pub title: String,
    /// Human description of the baseline used.
    pub baseline_desc: String,
    /// Prior runs the baseline was computed from.
    pub baseline_runs: usize,
    /// Latest run's peak resident set size in KiB (`None` when the
    /// record carries none).
    pub peak_rss_kb: Option<u64>,
    /// Per-harness seconds in suite order, then the suite `TOTAL`.
    pub perf: Section,
    /// Fidelity scorecard, in [`fidelity::TARGETS`] order (empty under
    /// [`Mode::Off`]).
    pub scorecard: Section,
    /// Each span's share of suite self time (empty when the latest
    /// record carries no profile).
    pub profile: Section,
    /// The analytic model's mean |IPC error| (empty when the latest
    /// record carries no `model_error` block).
    pub model: Section,
    /// Gate failures (perf regressions; fidelity when gating).
    pub failures: Vec<String>,
    /// Non-gating findings (fidelity drift under `Warn`, profile and
    /// model drift, scale mismatches, …).
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
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in ledger values"));
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

/// The one comparison rule: judges `latest` against the `window` of
/// prior values. The reference is the window median and the band is
/// `floor` widened to `MAD_K` robust sigmas of the window's spread. With
/// `relative`, delta and band are percent of the reference; otherwise
/// they are in `latest`'s own unit. Flags growth beyond the band; an
/// empty window leaves the row unjudged.
fn judge(name: &str, latest: f64, window: &[f64], floor: f64, relative: bool) -> Row {
    let (reference, delta, band) = if window.is_empty() {
        (None, None, floor)
    } else {
        let base = median(&mut window.to_vec());
        let spread = MAD_K * 1.4826 * mad(window, base);
        let (delta, noise) = match relative {
            false => (Some(latest - base), spread),
            true if base > 0.0 => (Some((latest - base) / base * 100.0), spread / base * 100.0),
            true => (None, 0.0),
        };
        (Some(base), delta, floor.max(noise))
    };
    let (name, latest, flagged) = (name.to_owned(), Some(latest), delta.is_some_and(|d| d > band));
    Row { name, latest, reference, delta, band, flagged, extra: Vec::new() }
}

/// Sends each flagged row's finding where `mode` says: to `failures`
/// under [`Mode::Gate`], to `warnings` under [`Mode::Warn`]. `finding`
/// words a row from it and its latest, reference and delta values.
fn route(
    rows: &[Row],
    mode: Mode,
    failures: &mut Vec<String>,
    warnings: &mut Vec<String>,
    finding: impl Fn(&Row, (f64, f64, f64)) -> String,
) {
    let sink = match mode {
        Mode::Gate => failures,
        Mode::Warn => warnings,
        Mode::Off => return,
    };
    let value = |v: Option<f64>| v.unwrap_or(0.0);
    let flagged = rows.iter().filter(|r| r.flagged);
    sink.extend(flagged.map(|r| finding(r, (value(r.latest), value(r.reference), value(r.delta)))));
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

/// Scores a record's headlines against every pinned target, in
/// [`fidelity::TARGETS`] order. A headline the record lacks is out of
/// band: a harness that stops printing its headline is a regression,
/// not a pass.
fn scorecard(headlines: Option<&Value>) -> Vec<Row> {
    let pct = |v: f64, of: f64| (of != 0.0).then(|| 100.0 * (v - of) / of);
    fidelity::TARGETS
        .iter()
        .map(|t| {
            let measured = headlines.and_then(|h| h.get_f64(t.id));
            let delta = measured.and_then(|m| pct(m, t.accepted));
            let vs_paper = measured.zip(t.paper).and_then(|(m, p)| pct(m, p));
            Row {
                name: t.id.to_owned(),
                latest: measured,
                reference: Some(t.accepted),
                delta,
                band: t.band_pct,
                flagged: !delta.is_some_and(|d| d.abs() <= t.band_pct + 1e-9),
                extra: vec![t.source.to_owned(), num(t.paper, 4, ""), signed(vs_paper, "%")],
            }
        })
        .collect()
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
    if schema != SCHEMA_VERSION {
        return Err(format!("latest record has schema {schema}, this build reads {SCHEMA_VERSION}"));
    }
    let commits = config_u64(latest, "commits").unwrap_or(0);
    let jobs = config_u64(latest, "jobs").unwrap_or(0);
    let prior = &records[..records.len() - 1];

    let mut warnings = Vec::new();
    let (window, baseline_desc): (Vec<&Value>, String) = match &opts.baseline {
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
            let desc = format!("explicit rev {}", hit.get_str("git_rev").unwrap_or("unknown"));
            (vec![hit], desc)
        }
        None => {
            // A warm run, one the durable store answered, times store reads.
            let warm = |r: &Value| r.get("store").and_then(|s| s.get_f64("hits")) > Some(0.0);
            let comparable: Vec<&Value> = prior
                .iter()
                .rev()
                .filter(|r| {
                    r.get_f64("schema").map(|s| s as u64) == Some(SCHEMA_VERSION)
                        && config_u64(r, "commits") == Some(commits)
                        && config_u64(r, "jobs") == Some(jobs)
                        && warm(r) == warm(latest)
                })
                .take(opts.window)
                .collect();
            let skipped = prior.len() - comparable.len();
            if skipped > 0 && comparable.len() < opts.window {
                warnings.push(format!(
                    "{skipped} prior record(s) ignored (different scale/jobs/store/schema)"
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

    // Perf: each harness the latest run simulated, in its order, then
    // the suite total.
    let window_secs: Vec<Vec<(String, f64)>> = window.iter().map(|r| harness_seconds(r)).collect();
    let mut perf: Vec<Row> = harness_seconds(latest)
        .iter()
        .map(|(name, secs)| {
            let prior: Vec<f64> = window_secs
                .iter()
                .filter_map(|hs| hs.iter().find(|(n, _)| n == name).map(|(_, s)| *s))
                .collect();
            judge(name, *secs, &prior, opts.max_regress_pct, true)
        })
        .collect();
    let prior: Vec<f64> = window.iter().filter_map(|r| total_seconds(r)).collect();
    let total = total_seconds(latest).unwrap_or(0.0);
    perf.push(judge("TOTAL", total, &prior, opts.max_regress_pct, true));
    for row in &mut perf {
        row.flagged &= row.reference.is_some_and(|b| b >= MIN_SECONDS);
    }

    let scorecard =
        if opts.fidelity == Mode::Off { Vec::new() } else { scorecard(latest.get("headlines")) };

    // Profile drift: each span name's share of suite self time, in
    // absolute percentage points (shares already are relative), either
    // way. A span absent from a prior profile held 0% there.
    let mut profile = Vec::new();
    let mut profile_runs = 0;
    if let Some(tree) = suite_profile_of_record(latest) {
        let window_shares: Vec<Vec<(String, f64)>> = window
            .iter()
            .filter_map(|r| suite_profile_of_record(r))
            .map(|p| phase_shares(&p))
            .collect();
        profile_runs = window_shares.len();
        for (name, share) in phase_shares(&tree) {
            let prior: Vec<f64> = window_shares
                .iter()
                .map(|ws| ws.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s))
                .collect();
            let mut row = judge(&name, share, &prior, PROFILE_BAND_PP, false);
            row.flagged = row.delta.is_some_and(|d| d.abs() > row.band);
            profile.push(row);
        }
    }

    // Analytic-model calibration: the static model's mean |IPC error|
    // against this run's simulations.
    let model: Vec<Row> = latest
        .get("model_error")
        .and_then(|me| {
            let configs = me.get_f64("configs")? as u64;
            let mean = me.get_f64("mean_abs_pct_err")?;
            let worst = me.get_f64("worst_pct_err")?;
            let prior: Vec<f64> = window
                .iter()
                .filter_map(|r| r.get("model_error")?.get_f64("mean_abs_pct_err"))
                .collect();
            let mut row = judge("mean |IPC error|", mean, &prior, MODEL_BAND_PP, false);
            let worst_config = me.get_str("worst_config").unwrap_or("unknown");
            row.extra = vec![configs.to_string(), format!("{worst:.1}%"), worst_config.to_owned()];
            Some(row)
        })
        .into_iter()
        .collect();

    // Each flagged row's finding, worded for its section.
    let mut failures = Vec::new();
    let (f, w) = (&mut failures, &mut warnings);
    route(&perf, Mode::Gate, f, w, |r, (l, b, d)| {
        format!("perf: {} took {l:.3}s vs baseline {b:.3}s ({d:+.1}% > {:.1}%)", r.name, r.band)
    });
    route(&scorecard, opts.fidelity, f, w, |r, (l, b, d)| match r.latest.and(r.delta) {
        Some(_) => format!(
            "fidelity: {} = {l:.4} vs accepted {b:.4} ({d:+.1}% beyond band {:.1}%)",
            r.name, r.band
        ),
        None => format!("fidelity: {} missing from latest record (headline not extracted)", r.name),
    });
    route(&profile, Mode::Warn, f, w, |r, (l, b, d)| {
        format!(
            "profile: {} holds {l:.1}% of self time vs baseline {b:.1}% ({d:+.1}pp beyond band {:.1}pp)",
            r.name, r.band
        )
    });
    route(&model, Mode::Warn, f, w, |r, (l, b, d)| {
        format!(
            "model: mean |IPC error| {l:.1}% vs baseline {b:.1}% ({d:+.1}pp beyond band {:.1}pp); \
             the analytic model wants recalibration",
            r.band
        )
    });

    Ok(Analysis {
        title: format!(
            "suite report — latest rev {} (t={}, RF_COMMITS={commits}, jobs={jobs})",
            latest.get_str("git_rev").unwrap_or("unknown"),
            latest.get_f64("timestamp_unix").unwrap_or(0.0) as u64
        ),
        baseline_desc,
        baseline_runs: window.len(),
        peak_rss_kb: latest.get("totals").and_then(|t| t.get_f64("peak_rss_kb")).map(|kb| kb as u64),
        perf: Section { title: "performance".into(), layout: &PERF, rows: perf },
        scorecard: Section {
            title: "paper-fidelity scorecard".into(),
            layout: &FIDELITY,
            rows: scorecard,
        },
        profile: Section {
            title: format!(
                "profile drift (share of suite self time, {profile_runs} profiled baseline run(s))"
            ),
            layout: &SHARE,
            rows: profile,
        },
        model: Section { title: "analytic model".into(), layout: &MODEL, rows: model },
        failures,
        warnings,
    })
}

/// Renders the report: a title, the baseline and peak RSS, every
/// non-empty section through the one table writer, the warnings, and
/// the check verdict with its failures.
pub fn render(a: &Analysis, format: Format) -> String {
    let md = format == Format::Markdown;
    let mut out = String::new();
    let _ = match md {
        true => writeln!(out, "# {}\n", a.title),
        false => writeln!(out, "{}", a.title),
    };
    let rss = a.peak_rss_kb.map_or_else(|| "- (not recorded)".to_owned(), |kb| format!("{kb} KiB"));
    for (key, value) in [("baseline", a.baseline_desc.as_str()), ("peak RSS", &rss)] {
        let _ = match md {
            true => writeln!(out, "- {key}: {value}"),
            false => writeln!(out, "{key:<12} {value}"),
        };
    }
    for s in [&a.perf, &a.scorecard, &a.profile, &a.model] {
        if !s.rows.is_empty() {
            heading(&mut out, md, &s.title);
            table(&mut out, md, &s.cells());
        }
    }
    if !a.warnings.is_empty() {
        heading(&mut out, md, "warnings");
        items(&mut out, md, &a.warnings);
    }
    heading(&mut out, md, &match a.passed() {
        true => "check: PASS".to_owned(),
        false => format!("check: FAIL ({} finding(s))", a.failures.len()),
    });
    items(&mut out, md, &a.failures);
    out
}

fn heading(out: &mut String, md: bool, title: &str) {
    let _ = match md {
        true => writeln!(out, "\n## {title}\n"),
        false => writeln!(out, "\n{title}"),
    };
}

fn items(out: &mut String, md: bool, items: &[String]) {
    for item in items {
        let _ = writeln!(out, "{}- {item}", if md { "" } else { "  " });
    }
}

/// The one table writer: markdown pipes, or text columns padded to
/// their widest cell. A column of numbers (and `-` placeholders) is
/// right-aligned, any other left-aligned.
fn table(out: &mut String, md: bool, rows: &[Vec<String>]) {
    let numeric = |cell: &str| cell.starts_with(|c: char| c.is_ascii_digit() || "+-".contains(c));
    let right: Vec<bool> =
        (0..rows[0].len()).map(|c| rows[1..].iter().all(|r| numeric(&r[c]))).collect();
    if md {
        for (i, row) in rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| c.replace('|', "\\|")).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
            if i == 0 {
                let rule: Vec<_> = right.iter().map(|&r| if r { "---:" } else { "---" }).collect();
                let _ = writeln!(out, "|{}|", rule.join("|"));
            }
        }
        return;
    }
    let widths: Vec<usize> = (0..right.len())
        .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(widths.iter().zip(&right))
            .map(|(cell, (&w, &r))| if r { format!("{cell:>w$}") } else { format!("{cell:<w$}") })
            .collect();
        let _ = writeln!(out, "{}", cells.join("  ").trim_end());
    }
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
                "\"cycles\":9000,\"cycles_skipped\":0,\"wakeup_events\":0,\"reused\":0}},",
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

    /// The suite-total perf row.
    fn total(a: &Analysis) -> &Row {
        a.perf.rows.last().expect("the total row is always present")
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(a.passed(), "failures: {:?}", a.failures);
        assert_eq!(a.perf.rows.len(), 3, "two harnesses and the total");
        assert_eq!(a.baseline_runs, 3);
        assert!(!total(&a).flagged);
        assert!(a.scorecard.rows.iter().all(|r| !r.flagged));
    }

    #[test]
    fn injected_20pct_slowdown_fires_and_small_jitter_does_not() {
        // Three steady runs then a 20% slower one: beyond the 10% floor.
        let slow = ledger_of(&[1.0, 1.0, 1.0, 1.2]);
        let a = analyze(&slow, &Options::DEFAULT).unwrap();
        assert!(!a.passed());
        assert!(
            a.failures.iter().any(|f| f.starts_with("perf: TOTAL")),
            "total regression reported: {:?}",
            a.failures
        );
        assert!(total(&a).flagged);

        // 2% jitter stays inside the floor.
        let ok = ledger_of(&[1.0, 1.0, 1.0, 1.02]);
        assert!(analyze(&ok, &Options::DEFAULT).unwrap().passed());
    }

    /// Gives a fixture the `store` block of a run the durable store
    /// served `hits` specs of.
    fn with_store_hits(mut record: Value, hits: u64) -> Value {
        let Value::Object(members) = &mut record else { unreachable!() };
        members.push((
            "store".to_owned(),
            Value::Object(vec![
                ("hits".to_owned(), Value::Number(hits as f64)),
                ("misses".to_owned(), Value::Number(0.0)),
                ("writes".to_owned(), Value::Number(0.0)),
            ]),
        ));
        record
    }

    #[test]
    fn warm_store_runs_never_share_a_cold_runs_window() {
        // Two warm-store priors (0.6 s) and two cold ones (45 s; one ran
        // with the store off, one on an empty store), then a cold run
        // three times slower. Mixed into one window, the warm records
        // would pull the median down and open the MAD band wide enough
        // to pass it.
        let warm = |rev: &str| with_store_hits(record(rev, 0.2, &[]), 1226);
        let mut records = vec![
            warm("warm0"),
            with_store_hits(record("cold0", 15.0, &[]), 0),
            warm("warm1"),
            record("cold1", 15.0, &[]),
            record("slow", 45.0, &[]),
        ];
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert_eq!(a.baseline_runs, 2, "only the cold priors are comparable");
        assert_eq!(total(&a).reference, Some(45.0), "the median of the cold priors");
        assert!(total(&a).flagged);
        assert!(!a.passed(), "a cold run three times slower fails the gate");

        // A warm run is judged by the warm priors alone.
        records.pop();
        records.push(warm("warm2"));
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert_eq!(a.baseline_runs, 2, "only the warm priors are comparable");
        assert!(total(&a).reference.is_some_and(|r| (r - 0.6).abs() < 1e-9));
        assert!(a.passed(), "failures: {:?}", a.failures);
    }

    #[test]
    fn mad_widens_threshold_for_noisy_history() {
        // Noisy window: MAD-based threshold should exceed the 10% floor
        // and absorb a 30% excursion that the floor alone would flag.
        let records = ledger_of(&[1.0, 1.6, 0.7, 1.4, 0.8, 1.3]);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(total(&a).band > 10.0, "threshold {}", total(&a).band);
        assert!(a.passed(), "failures: {:?}", a.failures);
    }

    #[test]
    fn injected_fidelity_drift_fires_under_gate_not_under_warn() {
        let mut records = ledger_of(&[1.0, 1.0]);
        // fig10 ratio drifts 20% beyond its 5% band.
        let t = fidelity::target("fig10.bips_ratio_precise").unwrap();
        records.push(record("drift", 1.0, &[("fig10.bips_ratio_precise", t.accepted * 1.2)]));
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(!a.passed());
        assert!(a.failures.iter().any(|f| f.contains("fig10.bips_ratio_precise")));

        let warn = Options { fidelity: Mode::Warn, ..Options::DEFAULT };
        let a = analyze(&records, &warn).unwrap();
        assert!(a.passed(), "warn mode must not gate: {:?}", a.failures);
        assert!(a.warnings.iter().any(|w| w.contains("fig10.bips_ratio_precise")));

        let off = Options { fidelity: Mode::Off, ..Options::DEFAULT };
        let a = analyze(&records, &off).unwrap();
        assert!(a.passed());
        assert!(a.scorecard.rows.is_empty());
    }

    #[test]
    fn scorecard_covers_every_target_and_flags_missing() {
        let heads = json::parse("{\"fig5.cov100_fp_precise\":206}").unwrap();
        let cards = scorecard(Some(&heads));
        assert_eq!(cards.len(), fidelity::TARGETS.len());
        let hit = cards.iter().find(|c| c.name == "fig5.cov100_fp_precise").unwrap();
        assert!(!hit.flagged);
        assert!(hit.delta.unwrap().abs() < 1e-9);
        assert_eq!(hit.reference, Some(206.0), "the anchor is the reference");
        assert_eq!(hit.extra, ["Figure 5", "500.0000", "-58.8%"], "source, paper, vs paper");
        let miss = cards.iter().find(|c| c.name == "fig3.commit_ipc.4way_dq32").unwrap();
        assert!(miss.flagged, "missing measurement is out of band");
        assert_eq!(miss.delta, None);
        assert_eq!(miss.extra[1..], ["-", "-"], "the paper states no value");
    }

    #[test]
    fn drift_band_and_paper_deviation() {
        let t = fidelity::target("fig10.bips_ratio_precise").unwrap();
        let row = |v: f64| {
            let heads = json::parse(&format!("{{\"{}\":{v}}}", t.id)).unwrap();
            scorecard(Some(&heads)).into_iter().find(|r| r.name == t.id).unwrap()
        };
        assert!(!row(t.accepted * 1.04).flagged, "4% inside a 5% band");
        assert!(row(t.accepted * 1.20).flagged, "20% outside a 5% band");
        // Deviation vs paper is informational and signed.
        assert!(row(1.08).extra[2].starts_with('-'));
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert_eq!(a.perf.rows.len(), 2, "only fig3 earns a perf row beside the total");
        assert_eq!(a.perf.rows[0].name, "fig3");
        assert!(a.passed(), "failures: {:?}", a.failures);

        mark_cache_served(&mut records[0], "fig3");
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        let fig3 = &a.perf.rows[0];
        assert_eq!(
            fig3.reference,
            Some(1.0),
            "window median comes from the one run that executed fig3"
        );
    }

    #[test]
    fn profile_drift_warns_and_never_gates() {
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(a.profile.title.contains("2 profiled baseline run(s)"), "{}", a.profile.title);
        assert!(a.passed(), "profile drift only warns: {:?}", a.failures);
        assert!(
            a.warnings.iter().any(|w| w.contains("profile: kill_engine")),
            "warnings: {:?}",
            a.warnings
        );
        let kill = a
            .profile
            .rows
            .iter()
            .find(|r| r.name == "kill_engine")
            .expect("kill_engine row");
        assert!(kill.flagged);
        assert!((kill.latest.unwrap() - 40.0).abs() < 1e-9);
        assert_eq!(kill.reference, Some(10.0));

        // A steady rerun stays inside the band.
        let mut steady_records = Vec::new();
        for (i, _) in [0; 3].iter().enumerate() {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_profile(&mut r, &steady);
            steady_records.push(r);
        }
        let a = analyze(&steady_records, &Options::DEFAULT).unwrap();
        assert!(a.profile.rows.iter().all(|r| !r.flagged));
        assert!(a.warnings.iter().all(|w| !w.contains("profile:")));
    }

    #[test]
    fn unprofiled_ledger_renders_no_drift_section() {
        let records = ledger_of(&[1.0, 1.0]);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(a.profile.rows.is_empty());
        assert!(!render(&a, Format::Text).contains("profile drift"));
        assert!(!render(&a, Format::Markdown).contains("## profile drift"));

        // First profiled run: rows render with no baseline, no findings.
        let mut records = ledger_of(&[1.0]);
        let mut latest = record("p0", 1.0, &[]);
        attach_profile(&mut latest, &[("cycle.issue", 900), ("cache.load", 100)]);
        records.push(latest);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(a.profile.title.contains("0 profiled baseline run(s)"), "{}", a.profile.title);
        assert!(a.profile.rows.iter().all(|r| r.reference.is_none() && !r.flagged));
        let text = render(&a, Format::Text);
        assert!(text.contains("profile drift"), "{text}");
        assert!(text.contains("cycle.issue"), "{text}");
        assert_eq!(a.profile.rows[0].latest, Some(90.0));
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert!(a.passed(), "model drift must not gate: {:?}", a.failures);
        let m = a.model.rows.first().expect("model row");
        assert!(m.flagged, "{m:?}");
        assert_eq!(m.extra[0], "72", "configs");
        assert_eq!(m.reference, Some(8.1));
        assert!(a.warnings.iter().any(|w| w.contains("recalibration")), "{:?}", a.warnings);
        let text = render(&a, Format::Text);
        assert!(text.contains("analytic model"), "{text}");
        assert!(text.contains("DRIFT"), "{text}");
        assert!(render(&a, Format::Markdown).contains("## analytic model"));

        // A steady rerun stays quiet.
        let mut steady = Vec::new();
        for i in 0..3 {
            let mut r = record(&format!("rev{i}"), 1.0, &[]);
            attach_model_error(&mut r, 8.0, 23.0);
            steady.push(r);
        }
        let a = analyze(&steady, &Options::DEFAULT).unwrap();
        assert!(!a.model.rows[0].flagged);
        assert!(a.warnings.iter().all(|w| !w.contains("model:")));

        // First measured run: a row with no baseline, no warning.
        let mut records = ledger_of(&[1.0]);
        let mut latest = record("m0", 1.0, &[]);
        attach_model_error(&mut latest, 9.0, 27.0);
        records.push(latest);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        let m = &a.model.rows[0];
        assert!(m.reference.is_none() && !m.flagged);

        // An unmeasured ledger carries no row and renders no section.
        let a = analyze(&ledger_of(&[1.0, 1.0]), &Options::DEFAULT).unwrap();
        assert!(a.model.rows.is_empty());
        assert!(!render(&a, Format::Text).contains("analytic model"));
        assert!(!render(&a, Format::Markdown).contains("## analytic model"));
    }

    #[test]
    fn explicit_baseline_rev_and_mismatch_errors() {
        let records = ledger_of(&[1.0, 1.5, 1.0]);
        let opts = Options { baseline: Some("rev0".to_owned()), ..Options::DEFAULT };
        let a = analyze(&records, &opts).unwrap();
        assert!(a.baseline_desc.contains("rev0"));
        assert_eq!(a.baseline_runs, 1);
        assert!(a.passed());

        let missing = Options { baseline: Some("nope".to_owned()), ..Options::DEFAULT };
        assert!(analyze(&records, &missing).is_err());
        assert!(analyze(&[], &Options::DEFAULT).is_err());

        // A latest record from before the last schema bump is refused.
        let current = crate::ledger::SCHEMA_VERSION;
        let mut stale = ledger_of(&[1.0]);
        stale.push(with_schema(record("old", 1.0, &[]), current - 1));
        let err = analyze(&stale, &Options::DEFAULT).expect_err("stale latest schema");
        assert_eq!(
            err,
            format!("latest record has schema {}, this build reads {current}", current - 1)
        );
    }

    #[test]
    fn first_run_has_no_baseline_and_passes_perf() {
        let records = ledger_of(&[1.0]);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert_eq!(a.baseline_runs, 0);
        assert!(total(&a).reference.is_none());
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
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        assert_eq!(a.baseline_runs, 1, "only the comparable prior run counts");
        assert!(a.passed());
        assert!(!a.warnings.is_empty());

        // Priors written before the last schema bump are dropped the
        // same way, even at the same scale and jobs.
        let current = crate::ledger::SCHEMA_VERSION;
        let mut mixed: Vec<Value> =
            ledger_of(&[1.0, 1.0]).into_iter().map(|r| with_schema(r, current - 1)).collect();
        mixed.push(record("latest", 1.0, &[]));
        let a = analyze(&mixed, &Options::DEFAULT).unwrap();
        assert_eq!(a.baseline_runs, 0, "older-schema priors never enter the window");
        assert!(
            a.warnings
                .iter()
                .any(|w| w == "2 prior record(s) ignored (different scale/jobs/store/schema)"),
            "warnings: {:?}",
            a.warnings
        );
    }

    #[test]
    fn renders_cover_all_sections() {
        let records = ledger_of(&[1.0, 1.0, 1.3]);
        let a = analyze(&records, &Options::DEFAULT).unwrap();
        let text = render(&a, Format::Text);
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("\npeak RSS     8192 KiB\n"), "{text}");
        assert!(text.contains("check: FAIL"), "{text}");
        assert!(text.contains("paper-fidelity scorecard"), "{text}");
        assert!(text.contains("TOTAL        3.900    3.000  +30.0%   10.0%  REGRESSED"), "{text}");
        let md = render(&a, Format::Markdown);
        assert!(md.starts_with("# suite report"), "{md}");
        assert!(md.contains("| harness |"));
        assert!(md.contains("| TOTAL | 3.900 | 3.000 | +30.0% | 10.0% | REGRESSED |"), "{md}");
        // fig3, fig6, and TOTAL all regressed 30%.
        assert!(md.contains("## check: FAIL (3 finding(s))"), "{md}");
        assert!(md.contains("- peak RSS: 8192 KiB"), "{md}");
        assert_eq!(a.failures.len(), 3);

        // A passing analysis renders PASS.
        let ok = analyze(&ledger_of(&[1.0, 1.0]), &Options::DEFAULT).unwrap();
        assert!(render(&ok, Format::Text).contains("check: PASS"));
        assert!(render(&ok, Format::Markdown).contains("## check: PASS"));
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
