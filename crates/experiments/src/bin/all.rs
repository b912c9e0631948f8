//! Runs every table/figure harness and writes reports under `results/`.
//!
//! Every invocation also appends one schema-versioned record to the
//! run-history ledger `results/history/suite.jsonl`: the suite's one run
//! record (timings, counters, probes, sanitizer outcome, headlines), which
//! `rfstudy report` reads. Under `RF_TELEMETRY=1` the suite also streams
//! live snapshots to `results/telemetry/live.jsonl`, its one progress
//! stream, which `rfstudy top` follows.
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
//! A harness that panics loses only itself: its ledger harness record
//! carries `"error": ...`, its report file is not written, and the
//! remaining harnesses still run and write their reports. A sanitizer
//! probe that finds an invariant violation likewise fails the suite.
//! Either way the ledger record is appended first, then the process
//! exits 1 with a suite-level failure summary.
//!
//! The `RF_*` knobs in the usage text are parsed once, by
//! [`runner::init_config`], before any work. With the `fault-probe`
//! feature, RF_FAULT=<harness> injects a panicking simulation into that
//! harness (the CI smoke path).

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{self, RunConfig, Scale};
use rf_obs::fidelity;
use rf_obs::ledger;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Commit budget of the per-harness traced probes (small: each probe is
/// one extra observed simulation whose stall attribution and latency
/// percentiles annotate the harness in the ledger record).
const PROBE_COMMITS: u64 = 5_000;

const USAGE: &str = "usage: all [COMMITS] [--deadline-secs N] [--help]

Runs every table/figure harness, writes reports under results/, appends
one record to the run-history ledger results/history/suite.jsonl, and
exits 1 if any harness failed or the sanitizer probe found a violation.

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
  RF_PROFILE      1/on/true/yes embeds rf-prof self-profiles in the
                  ledger record
  RF_TELEMETRY    1/on/true/yes streams live counter snapshots to
                  results/telemetry/live.jsonl while the suite runs
                  (attach with `rfstudy top`); off-runs are unaffected
  RF_TELEMETRY_INTERVAL_MS
                  sampler period in milliseconds (default 250)";

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
    let _ = runner::SimPool::from_env()
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
    let cfg = match runner::init_config() {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("all: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(secs) = args.deadline_secs {
        runner::set_default_deadline(Some(Duration::from_secs_f64(secs)));
    }
    rf_prof::set_enabled(cfg.profile);
    let scale = args.commits.map_or_else(|| cfg.scale(), |commits| Scale { commits });
    match run_suite(cfg, &scale) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("all: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_suite(cfg: &RunConfig, scale: &Scale) -> std::io::Result<ExitCode> {
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
    // Live telemetry (RF_TELEMETRY=1): the sampler runs over the harness
    // loop; `finalize` below stops it before the post-suite probes, so
    // the final snapshot covers the same work as the ledger totals.
    if let Some(live) = &cfg.telemetry {
        rf_obs::live::start(live, scale.commits, cfg.jobs as u64, experiments.len() as u64)?;
    }
    let mut headlines: Vec<(String, f64)> = Vec::new();
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
                // ledger record carries the error, and the remaining
                // harnesses still run.
                eprintln!("== {name} FAILED: {message}");
            }
        }
    }
    // Stop the sampler once the suite's measured work is complete: the
    // sanitizer and model probes below are out-of-band checks, not
    // suite work.
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
    // Sanitized probes: invariant-checked simulations over a small corner
    // of the configuration space, so every suite report certifies the
    // rename/freeing protocol of the binary that produced it.
    let probe = rf_check::suite_probe(scale.commits.min(2_000));
    bench.set_sanitizer(ledger::SanitizerRecord {
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
    let line = bench.to_ledger_record(headlines).to_line();
    ledger::append_line(Path::new(ledger::LEDGER_PATH), &line)?;
    println!("== ledger record appended -> {}", ledger::LEDGER_PATH);
    Ok(match bench.verdict() {
        Ok(()) => ExitCode::SUCCESS,
        Err(summary) => {
            eprintln!("{summary}");
            ExitCode::FAILURE
        }
    })
}
