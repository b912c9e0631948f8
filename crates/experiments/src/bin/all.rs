//! Runs the table/figure harnesses and writes reports under `results/`.
//!
//! The suite gathers every harness's plan, answers the distinct specs in
//! one batch, and renders each report from the shared answers (see
//! `rf_experiments::suite`). Every invocation also appends one
//! schema-versioned record to the run-history ledger
//! `results/history/suite.jsonl`: the suite's one run record (timings,
//! counters, probes, sanitizer outcome, headlines), which `rfstudy
//! report` reads. Under `RF_TELEMETRY=1` the suite also streams live
//! snapshots to `results/telemetry/live.jsonl`, its one progress stream,
//! which `rfstudy top` follows.
//!
//! # Arguments (strict)
//!
//! `all [COMMITS] [--only NAMES] [--deadline-secs S] [--help]`, declared
//! once as [`GRAMMAR`], which also renders `all --help`. An unknown,
//! repeated or value-less option, a second `COMMITS`, a malformed value,
//! a commit budget of 0 (from `COMMITS` or `RF_COMMITS`), an unknown
//! harness name or a malformed environment variable exits 2 with a
//! message before simulating.
//!
//! # Fault tolerance
//!
//! A failed spec fails exactly the harnesses whose plans contain it, and
//! a panicking render fails only its own harness: its ledger harness
//! record carries `"error": ...`, its report file is not written, and
//! the other harnesses still write theirs. A sanitizer probe that finds
//! an invariant violation likewise fails the suite. Either way the
//! ledger record is appended first, then the process exits 1 with a
//! suite-level failure summary.
//!
//! The `RF_*` knobs are parsed once, by [`runner::init_config`], before
//! any work; the usage text renders them from [`runner::KNOBS`]. With
//! the `fault-probe` feature, `RF_FAULT=<harness>` adds a panicking
//! simulation to that harness's plan (the CI smoke path).

use rf_experiments::args::{self, commit_budget, Grammar, Group, Opt};
use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{
    self, BatchOpts, RunConfig, RunSpec, Scale, SimPool, DEFAULT_COMMITS, KNOBS,
};
use rf_experiments::suite::{Answers, Harness, Plan, HARNESSES};
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

/// The suite binary's command line.
const GRAMMAR: Grammar = Grammar::new("all", &[
    Group::of(&[Opt::new("[--only NAMES]", "run only these comma-separated harnesses ({a, b})")
        .choices(&HARNESSES)]),
    args::DEADLINE,
    Group::of(&[Opt::new("[--help]", "print this usage and exit")]),
])
.positional(
    Opt::new("[COMMITS]", "committed instructions per simulation (default: RF_COMMITS or {default})")
        .default(&DEFAULT_COMMITS),
)
.about(
    "Runs the table/figure harnesses: answers the union of their plans in one
simulation batch, writes each report under results/, appends one record
to the run-history ledger results/history/suite.jsonl, and exits 1 if any
harness failed or the sanitizer probe found a violation. A spec that
overruns --deadline-secs fails, and with it every harness that planned it.
",
);

/// Column the help text of a knob line starts at.
const KNOB_COLUMN: usize = 18;

/// The usage text: the grammar's, then the knobs the suite reads (all
/// but `RF_SANITIZE`: the suite always runs its own sanitizer probe).
fn usage() -> String {
    let knobs: String = KNOBS
        .iter()
        .filter(|k| k.name() != runner::SANITIZE.name())
        .map(|k| k.help_line(KNOB_COLUMN))
        .collect();
    let text = format!(
        "{}\n{}\narguments:\n{}\nenvironment:\n{knobs}",
        GRAMMAR.synopsis("usage: all "),
        GRAMMAR.about,
        GRAMMAR.help()
    );
    text.trim_end().to_owned()
}

/// Parsed command line.
struct Args {
    commits: Option<u64>,
    /// The harnesses to run, in suite order.
    harnesses: Vec<&'static Harness>,
    deadline_secs: Option<f64>,
}

/// Checks the command line against [`GRAMMAR`]. `Ok(None)` means
/// `--help` was printed; `Err` carries the usage-error message (exit 2).
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let Some(a) = GRAMMAR.parse(argv)? else {
        println!("{}", usage());
        return Ok(None);
    };
    let only = a.get("--only", |_, raw| {
        let names: Vec<&str> = raw.split(',').collect();
        match names.iter().find(|n| rf_experiments::suite::harness(n).is_none()) {
            Some(bad) => Err(format!("--only: unknown harness {bad:?}")),
            None => Ok(names),
        }
    })?;
    let commits = a.get("COMMITS", |_, c| {
        let n = c.parse().map_err(|_| format!("commit budget {c:?} is not a non-negative integer"));
        n.and_then(commit_budget)
    })?;
    Ok(Some(Args {
        commits,
        harnesses: HARNESSES
            .iter()
            .filter(|h| only.as_ref().is_none_or(|names| names.contains(&h.name)))
            .collect(),
        deadline_secs: a.get("--deadline-secs", |_, v| runner::parse_deadline_secs(v))?,
    }))
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
/// The baselines are Table 1's points, so the probe reads their answers
/// instead of re-running them. Baselines the suite did not answer (an
/// `--only` run without them, or a failed spec) are skipped; `None` if
/// nothing was comparable.
///
/// Each workload summary streams the baseline's whole trace prefix, so
/// the summaries run on `jobs` scoped threads, each over a contiguous
/// run of baselines; the errors are folded in baseline order, so the
/// record is the same for every worker count.
fn model_error_probe(
    scale: &Scale,
    answers: &Answers,
    jobs: usize,
) -> Option<ledger::ModelErrorRecord> {
    let compared: Vec<(RunSpec, f64)> = rf_experiments::table1::baselines(4, scale)
        .into_iter()
        .filter_map(|spec| {
            let Ok(stats) = &answers.answer(&spec)?.outcome else { return None };
            let sim_ipc = stats.commit_ipc();
            (sim_ipc > 0.0).then_some((spec, sim_ipc))
        })
        .collect();
    let per_thread = compared.len().div_ceil(jobs).max(1);
    let model_ipcs: Vec<Option<f64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = compared
            .chunks(per_thread)
            .map(|run| {
                scope.spawn(move || {
                    run.iter()
                        .map(|(spec, _)| {
                            let summary = rf_model::summarize(spec)?;
                            Some(rf_model::evaluate(&summary, &spec.machine_config()).ipc)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a model summary panicked"))
            .collect()
    });
    let (mut sum, mut n, mut worst, mut worst_config) = (0.0f64, 0u64, 0.0f64, String::new());
    for ((spec, sim_ipc), model_ipc) in compared.iter().zip(model_ipcs) {
        let Some(model_ipc) = model_ipc else { continue };
        let err = ((model_ipc - sim_ipc) / sim_ipc * 100.0).abs();
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

/// Re-simulates the first spec in plan order that the batch answered by
/// saturation reuse and compares the run with that answer: `None` when
/// nothing was reused, else the spec and whether the two agree.
fn reuse_audit<'p>(plan: &'p Plan, answers: &Answers) -> Option<(&'p RunSpec, bool)> {
    let (spec, stats) = plan.specs.iter().find_map(|spec| {
        let answer = answers.answer(spec).filter(|a| a.reused)?;
        Some((spec, answer.outcome.as_ref().ok()?))
    })?;
    Some((spec, runner::try_simulate(spec).is_ok_and(|fresh| fresh == **stats)))
}

fn main() -> ExitCode {
    // `-h` is the one short spelling, of `--help`.
    let argv: Vec<String> =
        std::env::args().skip(1).map(|a| if a == "-h" { "--help".into() } else { a }).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("all: {message}\n{}", usage());
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
    rf_prof::set_enabled(cfg.profile);
    let scale = args.commits.map_or_else(|| cfg.scale(), |commits| Scale { commits });
    let opts = BatchOpts { deadline: args.deadline_secs.map(Duration::from_secs_f64) };
    match run_suite(cfg, &scale, &args.harnesses, opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("all: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_suite(
    cfg: &RunConfig,
    scale: &Scale,
    harnesses: &[&Harness],
    opts: BatchOpts,
) -> std::io::Result<ExitCode> {
    fs::create_dir_all("results")?;
    let fault = fault_target();
    let plan = Plan::new(
        harnesses
            .iter()
            .map(|h| {
                let mut specs = (h.plan)(scale);
                if fault.as_deref() == Some(h.name) {
                    // The injected fault travels the exact route a model
                    // bug would take: a spec of the harness's plan whose
                    // simulation panics inside the pool.
                    specs.push(
                        RunSpec::baseline(runner::FAULT_BENCHMARK, 4)
                            .commits(scale.commits.clamp(1, 1_000)),
                    );
                }
                (h.name, specs)
            })
            .collect(),
    );
    let mut bench = SuiteBench::start(scale.commits);
    // Live telemetry (RF_TELEMETRY=1): the sampler runs over the batch
    // and the renders; `finalize` below stops it before the post-suite
    // probes, so the final snapshot covers the same work as the ledger
    // totals.
    if let Some(live) = &cfg.telemetry {
        rf_obs::live::start(live, scale.commits, cfg.jobs as u64, plan.specs.len() as u64)?;
    }
    let answers = bench.answer(&plan, &SimPool::new(cfg.jobs), opts);
    let mut headlines: Vec<(String, f64)> = Vec::new();
    for (h, harness) in harnesses.iter().enumerate() {
        let name = harness.name;
        match bench.render(&plan, h, &answers, || (harness.render)(scale, &answers)) {
            Ok(report) => {
                bench.attach_probe(harness.probe, PROBE_COMMITS.min(scale.commits));
                headlines.extend(
                    fidelity::extract_headlines(name, &report)
                        .into_iter()
                        .map(|h| (h.id.to_owned(), h.value)),
                );
                let path = format!("results/{name}.txt");
                fs::write(&path, &report)?;
                let record = bench.harnesses().last().expect("just recorded");
                println!(
                    "== {name} ({:.1}s, {} sims) -> {path}\n{report}",
                    record.seconds, record.sims
                );
            }
            Err(message) => {
                // No report file and no probe for a failed harness; its
                // ledger record carries the error.
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
    let mut sanitizer = ledger::SanitizerRecord {
        probes: probe.probes,
        events: probe.events,
        violations: probe.violations,
    };
    println!("sanitizer: {} ({} probes, {} events)", probe.status(), probe.probes, probe.events);
    // One more probe: a reused answer must equal a fresh simulation.
    if let Some((spec, agrees)) = reuse_audit(&plan, &answers) {
        sanitizer.probes += 1;
        sanitizer.violations += u64::from(!agrees);
        println!(
            "reuse audit: {} ({} width={} regs={} {:?} {:?} re-simulated)",
            if agrees { "clean" } else { "MISMATCH" },
            spec.benchmark,
            spec.width,
            spec.regs,
            spec.exceptions,
            spec.cache,
        );
    }
    bench.set_sanitizer(sanitizer);
    if let Some(m) = model_error_probe(scale, &answers, cfg.jobs) {
        println!(
            "model error: mean |IPC err| {:.1}% over {} baselines, worst {:.1}% ({})",
            m.mean_abs_pct_err, m.configs, m.worst_pct_err, m.worst_config
        );
        bench.set_model_error(m);
    }
    // Seal the durable store once, after the batch: per-append fsyncs
    // would serialize the pool on disk latency, and an unsynced tail is
    // dropped cleanly by the next reader's checksum scan.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_option_parses_and_appears_in_usage() {
        let usage = usage();
        for opt in GRAMMAR.opts().chain(GRAMMAR.positional.iter()) {
            let argv: Vec<String> = match opt.name() {
                "COMMITS" => vec!["300".into()],
                "--only" => vec!["--only".into(), "fig3,fig6".into()],
                "--deadline-secs" => vec!["--deadline-secs".into(), "1.5".into()],
                name => vec![name.into()],
            };
            assert!(parse_args(&argv).is_ok(), "{argv:?}");
            assert!(usage.contains(&opt.shown()), "usage lacks {}", opt.word);
        }
        let args = parse_args(&["--only".into(), "fig6,fig3".into()]).unwrap().unwrap();
        let names: Vec<_> = args.harnesses.iter().map(|h| h.name).collect();
        assert_eq!(names, ["fig3", "fig6"], "suite order, whatever the order given");
    }
}
