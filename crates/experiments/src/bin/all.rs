//! Runs every table/figure harness and writes reports under `results/`,
//! plus a `results/BENCH_suite.json` timing report for the whole suite.
//!
//! Every invocation also appends one schema-versioned record to the
//! run-history ledger `results/history/suite.jsonl` — the **authoritative**
//! history file — and then mirrors that record to `BENCH_history.jsonl`
//! at the repo root. A mirror failure is reported but non-fatal: the two
//! files can disagree only in the direction of the mirror being stale,
//! and `rfstudy report` reads the authoritative ledger.
//!
//! # Arguments (strict)
//!
//! ```text
//! all [COMMITS] [--deadline-secs N] [--help]
//! ```
//!
//! `COMMITS` is the per-simulation commit budget (default: `RF_COMMITS`
//! or 200000). `--deadline-secs N` bounds every simulation batch to `N`
//! wall seconds (cooperative cancellation; overrunning specs fail, the
//! suite keeps going). A malformed argument or environment variable
//! exits 2 with a message — it no longer silently launches a
//! full-scale run — and `--help` prints usage instead of simulating.
//!
//! # Fault tolerance
//!
//! A harness that panics loses only itself: its bench entry and ledger
//! record carry `"error": ...`, its report file is not written, the
//! remaining harnesses still run and write their reports, and the
//! process exits 1 with a suite-level failure summary.
//!
//! RF_JOBS sets the number of parallel simulation workers (default: all
//! cores); RF_CACHE=0/off/false/no disables the shared run cache;
//! RF_STORE=1 layers the durable on-disk run store under the cache
//! (warm re-runs replay results byte-identically from `RF_STORE_DIR`);
//! RF_LOG=text|json emits a structured progress line on stderr as each
//! harness finishes plus a final suite-summary record. With the
//! `fault-probe` feature, RF_FAULT=<harness> injects a panicking
//! simulation into that harness (the CI smoke path).

use rf_experiments::bench::{SanitizerStatus, SuiteBench};
use rf_experiments::runner::{self, Scale};
use rf_obs::fidelity;
use rf_obs::ledger;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Commit budget of the per-harness traced probes (small: each probe is
/// one extra observed simulation whose stall attribution and latency
/// percentiles annotate the harness in `BENCH_suite.json`).
const PROBE_COMMITS: u64 = 5_000;

const USAGE: &str = "usage: all [COMMITS] [--deadline-secs N] [--help]

Runs every table/figure harness, writes reports under results/, appends
one record to the run-history ledger results/history/suite.jsonl
(authoritative; mirrored to BENCH_history.jsonl), and exits nonzero if
any harness failed.

arguments:
  COMMITS             committed instructions per simulation
                      (default: RF_COMMITS or 200000)
  --deadline-secs N   wall-clock budget per simulation batch; overrunning
                      specs fail with a deadline error, the suite goes on

environment:
  RF_COMMITS      default commit budget
  RF_JOBS         parallel simulation workers (default: all cores)
  RF_CACHE        0/off/false/no disables the shared run cache
  RF_STORE        1/on/true/yes enables the durable content-addressed
                  run store: executed results persist under RF_STORE_DIR
                  and warm re-runs are served from disk byte-identically
  RF_STORE_DIR    store directory (default: results/store)
  RF_LOG          off|text|json progress lines on stderr (default off)
  RF_PROFILE      1/on/true/yes embeds rf-prof self-profiles in the
                  suite report and ledger record
  RF_TELEMETRY    1/on/true/yes streams live counter snapshots to
                  results/telemetry/live.jsonl while the suite runs
                  (attach with `rfstudy top`); off-runs are unaffected
  RF_TELEMETRY_INTERVAL_MS
                  sampler period in milliseconds (default 250)
  RF_METRICS_ADDR host:port for a live Prometheus /metrics endpoint
                  (port 0 picks a free port; bound address is printed)";

/// Parsed command line: commit budget override and batch deadline.
struct Args {
    commits: Option<u64>,
    deadline_secs: Option<f64>,
}

/// Parses the strict argument contract. `Ok(None)` means `--help` was
/// printed; `Err` carries the usage-error message (exit 2).
fn parse_args() -> Result<Option<Args>, String> {
    let mut commits = None;
    let mut deadline_secs = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--deadline-secs" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--deadline-secs needs a value".to_owned())?;
                let secs: f64 = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("--deadline-secs {raw:?} is not a positive number of seconds")
                    })?;
                deadline_secs = Some(secs);
            }
            _ if arg.starts_with('-') => {
                return Err(format!("unknown option {arg:?}"));
            }
            _ => {
                if commits.is_some() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                let budget: u64 = arg.parse().map_err(|_| {
                    format!("commit budget {arg:?} is not a non-negative integer")
                })?;
                commits = Some(budget);
            }
        }
    }
    Ok(Some(Args { commits, deadline_secs }))
}

/// The harness name RF_FAULT injects a panicking simulation into
/// (`fault-probe` builds only; elsewhere the variable is ignored).
#[cfg(feature = "fault-probe")]
fn fault_target() -> Option<String> {
    std::env::var("RF_FAULT").ok().filter(|v| !v.is_empty())
}

#[cfg(not(feature = "fault-probe"))]
fn fault_target() -> Option<String> {
    None
}

/// Cross-validates the analytic model against the simulator on the
/// nine 4-wide baselines at the suite's commit budget and returns the
/// error telemetry for the ledger, so `rfstudy report` can flag drift
/// when simulator changes leave the model's fitted constants behind.
///
/// The baselines were already simulated by the figure harnesses, so the
/// probe *peeks* at the shared run cache instead of re-running them:
/// a non-counting read. Baselines absent from the cache (or the whole
/// probe, under `RF_CACHE=0`) are skipped; `None` if nothing was
/// comparable.
fn model_error_probe(commits: u64) -> Option<ledger::ModelErrorRecord> {
    use rf_experiments::runner::{RunCache, RunSpec};
    if commits == 0 {
        return None;
    }
    let specs: Vec<RunSpec> = rf_experiments::aggregate::all_names()
        .iter()
        .map(|n| RunSpec::baseline(n, 4).commits(commits))
        .collect();
    let cache = RunCache::global();
    let (mut sum, mut n, mut worst, mut worst_config) = (0.0f64, 0u64, 0.0f64, String::new());
    for spec in &specs {
        let Some(stats) = cache.peek(spec) else { continue };
        let sim_ipc = stats.commit_ipc();
        if sim_ipc <= 0.0 {
            continue;
        }
        let config = spec.machine_config();
        let Some(summary) = rf_model::summarize(
            &spec.benchmark,
            spec.commits,
            spec.seed,
            config.effective_insert_bandwidth(),
            config.cache_geometry(),
            config.cache_org(),
            config.predictor_kind(),
        ) else {
            continue;
        };
        let err = ((rf_model::evaluate(&summary, &config).ipc - sim_ipc) / sim_ipc * 100.0).abs();
        sum += err;
        n += 1;
        if err > worst {
            worst = err;
            worst_config = format!("{} width=4 regs={}", spec.benchmark, spec.regs);
        }
    }
    (n > 0).then(|| ledger::ModelErrorRecord {
        configs: n,
        mean_abs_pct_err: sum / n as f64,
        worst_pct_err: worst,
        worst_config,
    })
}

/// Runs the injected fault through the real pool/cache path, so the
/// panic travels the exact route a model bug would take.
#[cfg(feature = "fault-probe")]
fn run_fault_probe(commits: u64) -> String {
    let spec = rf_experiments::runner::RunSpec::baseline(runner::FAULT_BENCHMARK, 4)
        .commits(commits.clamp(1, 1_000));
    let _ = rf_experiments::runner::SimPool::from_env()
        .run_many(std::slice::from_ref(&spec));
    unreachable!("the fault probe always panics inside the pool");
}

#[cfg(not(feature = "fault-probe"))]
fn run_fault_probe(_commits: u64) -> String {
    unreachable!("fault_target() is always None without the fault-probe feature");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("all: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = runner::validate_env() {
        eprintln!("all: {message}");
        return ExitCode::from(2);
    }
    if let Some(secs) = args.deadline_secs {
        runner::set_default_deadline(Some(Duration::from_secs_f64(secs)));
    }
    let scale = args.commits.map_or_else(Scale::from_env, |commits| Scale { commits });
    match run_suite(&scale) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("all: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_suite(scale: &Scale) -> std::io::Result<ExitCode> {
    fs::create_dir_all("results")?;
    type Harness = fn(&Scale) -> String;
    // Each harness carries a representative benchmark for its traced
    // probe: FP-heavy figures probe an FP benchmark, integer-focused
    // ones an integer benchmark.
    let experiments: Vec<(&str, Harness, &str)> = vec![
        ("table1", rf_experiments::table1::run, "compress"),
        ("fig3", rf_experiments::fig3::run, "espresso"),
        ("fig4", rf_experiments::fig4::run, "tomcatv"),
        ("fig5", rf_experiments::fig5::run, "su2cor"),
        ("fig6", rf_experiments::fig6::run, "tomcatv"),
        ("fig7", rf_experiments::fig7::run, "doduc"),
        ("fig8", rf_experiments::fig8::run, "su2cor"),
        ("fig10", rf_experiments::fig10::run, "gcc1"),
        ("ablation", rf_experiments::ablation::run, "mdljdp2"),
        ("extensions", rf_experiments::extensions::run, "espresso"),
        ("sensitivity", rf_experiments::sensitivity::run, "ora"),
        ("dataflow", rf_experiments::dataflow::run, "mdljsp2"),
    ];
    let fault = fault_target();
    let mut bench = SuiteBench::start(scale.commits);
    // Ledger-informed ETA for RF_LOG progress lines: weight the
    // remaining harnesses by their historical median wall time at this
    // commit budget. Best-effort — no history, no estimate.
    let names: Vec<&str> = experiments.iter().map(|(n, _, _)| *n).collect();
    let medians = ledger::read_ledger(Path::new(ledger::LEDGER_PATH))
        .map(|records| ledger::harness_median_seconds(&records, Some(scale.commits)))
        .unwrap_or_default();
    bench.set_plan(&names, medians);
    // Live telemetry (RF_TELEMETRY=1): sampler + optional /metrics
    // endpoint over the harness loop; `finalize` below stops it before
    // the out-of-band calibration passes, so the final snapshot covers
    // the same work as the BENCH_suite.json totals.
    if let Some(cfg) = rf_obs::live::env_config().expect("telemetry env validated in main") {
        let jobs = rf_experiments::runner::SimPool::from_env().jobs() as u64;
        rf_obs::live::start(&cfg, scale.commits, jobs, experiments.len() as u64)?;
    }
    let mut headlines: Vec<(String, f64)> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    let planned = experiments.len();
    for (name, run, probe_bench) in experiments {
        let outcome = if fault.as_deref() == Some(name) {
            bench.try_time(name, || run_fault_probe(scale.commits))
        } else {
            bench.try_time(name, || run(scale))
        };
        match outcome {
            Ok(report) => {
                bench.attach_probe(probe_bench, PROBE_COMMITS.min(scale.commits));
                headlines.extend(
                    fidelity::extract_headlines(name, &report)
                        .into_iter()
                        .map(|h| (h.id.to_owned(), h.value)),
                );
                let path = format!("results/{name}.txt");
                fs::write(&path, &report)?;
                let timed = bench.entries().last().expect("just recorded");
                println!(
                    "== {name} ({:.1}s, {} sims) -> {path}\n{report}",
                    timed.seconds,
                    timed.sims()
                );
            }
            Err(message) => {
                // No report file and no probe for a failed harness; its
                // bench entry and ledger record carry the error, and the
                // remaining harnesses still run.
                eprintln!("== {name} FAILED: {message}");
                failures.push((name.to_owned(), message));
            }
        }
    }
    // Stop the sampler once the suite's measured work is complete: the
    // speedup calibration and sanitizer probes below are out-of-band
    // re-measurements, not suite work.
    if let Some(t) = rf_obs::live::finalize() {
        println!(
            "telemetry: {} snapshots @ {}ms -> {} (digest {})",
            t.snapshots,
            t.interval_ms,
            rf_obs::live::LIVE_PATH,
            t.digest
        );
        bench.set_telemetry(ledger::TelemetryRecord {
            interval_ms: t.interval_ms,
            snapshots: t.snapshots,
            digest: t.digest,
        });
    }
    let speedup = bench.measure_speedup(scale.commits.min(10_000));
    println!("parallel speedup vs 1 worker: {speedup:.2}x");
    // Sanitized probes: invariant-checked simulations over a small corner
    // of the configuration space, so every suite report certifies the
    // rename/freeing protocol of the binary that produced it.
    let probe = rf_check::suite_probe(scale.commits.min(2_000));
    bench.set_sanitizer(SanitizerStatus {
        probes: probe.probes,
        events: probe.events,
        violations: probe.violations,
    });
    println!("sanitizer: {} ({} probes, {} events)", probe.status(), probe.probes, probe.events);
    if let Some(m) = model_error_probe(scale.commits) {
        println!(
            "model error: mean |IPC err| {:.1}% over {} baselines, worst {:.1}% ({})",
            m.mean_abs_pct_err, m.configs, m.worst_pct_err, m.worst_config
        );
        bench.set_model_error(m);
    }
    // Seal the durable store once, after the last batch: per-append
    // fsyncs would serialize the pool on disk latency, and an unsynced
    // tail is dropped cleanly by the next reader's checksum scan.
    runner::store_sync();
    if let Some((hits, misses, writes)) = runner::store_counters() {
        println!("store: {hits} hits, {misses} misses, {writes} writes");
    }
    let json = bench.to_json();
    fs::write("results/BENCH_suite.json", &json)?;
    println!("== benchmark -> results/BENCH_suite.json\n{json}");
    // Append this run to the history ledger first: it is the
    // authoritative record. The repo-root mirror is best-effort — if it
    // fails, the mirror is stale but the history is intact.
    let line = bench.to_ledger_record(headlines).to_line();
    ledger::append_line(Path::new(ledger::LEDGER_PATH), &line)?;
    match ledger::write_latest(Path::new(ledger::LATEST_PATH), &line) {
        Ok(()) => println!(
            "== ledger record appended -> {} (latest copied to {})",
            ledger::LEDGER_PATH,
            ledger::LATEST_PATH
        ),
        Err(e) => eprintln!(
            "== ledger record appended -> {} (warning: mirror {} not updated: {e}; \
             the ledger is authoritative)",
            ledger::LEDGER_PATH,
            ledger::LATEST_PATH
        ),
    }
    if let Some(summary) = bench.suite_summary_line() {
        eprintln!("{summary}");
    }
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("suite FAILED: {}/{planned} harnesses did not complete", failures.len());
        for (name, message) in &failures {
            eprintln!("  {name}: {message}");
        }
        Ok(ExitCode::FAILURE)
    }
}
