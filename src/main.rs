//! The `rfstudy` command-line simulator.
//!
//! Run `rfstudy help` for usage. Commands: `list`, `run`, `record`,
//! `replay`, `check`, `model`, `profile`, `top`, `dump`, `dataflow`,
//! `report`, `timing`.
//!
//! Exit status: 0 on success, 1 on a runtime failure (simulation error,
//! sanitizer violation, failed gate, exceeded deadline), 2 on a usage
//! error (unknown command/option, malformed value, or a `top` attach to
//! a telemetry stream file that does not exist).

mod cli;

use cli::{Command, MachineOpts, StoreAction, TraceFormat};
use rf_check::{CheckParams, Sanitizer};
use rf_core::dataflow::analyze;
use rf_core::{CancelToken, Cancelled, LiveModel, Pipeline, SimStats};
use std::collections::HashMap;
use rf_obs::Recorder;
use rf_isa::RegClass;
use rf_prof::counters::Counter;
use rf_timing::{RegFileGeometry, TimingModel};
use rf_workload::{spec92, trace_io, TraceGenerator, WrongPathGenerator};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // `run` and `replay` consult RF_SANITIZE; a malformed value is a
    // usage error, not a silent choice of mode.
    if matches!(cmd, Command::Run { .. } | Command::Replay { .. }) {
        if let Err(e) = rf_check::env_mode() {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    // Attaching to a stream file that does not exist is a usage error
    // (exit 2), not something to hang on: without `--spawn` no producer
    // is coming, so waiting for the file would wait forever.
    if let Command::Top { file, spawn: false, .. } = &cmd {
        if !std::path::Path::new(file).exists() {
            eprintln!(
                "error: telemetry stream {file:?} does not exist \
                 (run the suite with RF_TELEMETRY=1, or use --spawn)"
            );
            return ExitCode::from(2);
        }
    }
    match dispatch(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Command::List => {
            println!("{:<10} {:>6} {:>6} {:>8}", "benchmark", "fp?", "loops", "body");
            for p in spec92::all() {
                println!(
                    "{:<10} {:>6} {:>6} {:>8}",
                    p.name,
                    if p.is_fp_intensive() { "fp" } else { "int" },
                    p.loops.n_loops,
                    p.loops.body_len
                );
            }
            Ok(())
        }
        Command::Run { bench, commits, deadline_secs, machine } => {
            let profile =
                spec92::by_name(&bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
            let mut trace = TraceGenerator::new(&profile, machine.seed);
            // The watchdog thread fires the token after the wall budget;
            // the pipeline polls it cooperatively and discards its partial
            // state. The thread is detached — it holds only a token clone,
            // and the process outlives any still-pending sleep by at most
            // the time it takes `main` to return.
            let cancel = deadline_secs.map(|secs| {
                let token = CancelToken::new();
                let armed = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
                    armed.cancel();
                });
                token
            });
            let deadline_err = |c: Cancelled| {
                format!(
                    "deadline of {}s exceeded at cycle {} (partial statistics discarded)",
                    deadline_secs.unwrap_or_default(),
                    c.at_cycle
                )
            };
            if rf_check::sanitize_enabled() {
                let sanitizer = Sanitizer::new(machine.regs, machine.exceptions);
                let mut pipeline = Pipeline::with_observer(machine.to_config(), sanitizer);
                if let Some(token) = cancel {
                    pipeline = pipeline.with_cancel(token);
                }
                let (stats, sanitizer) =
                    pipeline.try_run_observed(&mut trace, commits).map_err(deadline_err)?;
                print_stats(&bench, &stats);
                println!("{}", sanitizer.report());
                if !sanitizer.is_clean() {
                    return Err(format!(
                        "sanitizer detected {} invariant violation(s)",
                        sanitizer.total_violations()
                    ));
                }
            } else {
                let mut pipeline = Pipeline::new(machine.to_config());
                if let Some(token) = cancel {
                    pipeline = pipeline.with_cancel(token);
                }
                let stats = pipeline.try_run(&mut trace, commits).map_err(deadline_err)?;
                print_stats(&bench, &stats);
            }
            Ok(())
        }
        Command::Trace { bench, commits, format, window, out, machine } => {
            let profile =
                spec92::by_name(&bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
            let mut trace = TraceGenerator::new(&profile, machine.seed);
            let recorder = match window {
                Some(w) => Recorder::with_window(w),
                None => Recorder::unbounded(),
            };
            let (stats, mut recorder) = Pipeline::with_observer(machine.to_config(), recorder)
                .run_observed(&mut trace, commits);
            recorder.seal();
            let rendered = match format {
                TraceFormat::Chrome => rf_obs::chrome_trace(&recorder),
                TraceFormat::Text => rf_obs::text_timeline(&recorder),
                TraceFormat::Summary => rf_obs::summary(&recorder, &stats),
            };
            match out {
                Some(path) => {
                    std::fs::write(&path, &rendered)
                        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                    eprintln!(
                        "traced {} commits of {bench} over {} cycles -> {path} ({} bytes)",
                        stats.committed,
                        stats.cycles,
                        rendered.len()
                    );
                }
                None => print!("{rendered}"),
            }
            Ok(())
        }
        Command::Record { bench, out, count, seed } => {
            let profile =
                spec92::by_name(&bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
            let mut file = std::fs::File::create(&out)
                .map_err(|e| format!("cannot create {out:?}: {e}"))?;
            let gen = TraceGenerator::new(&profile, seed);
            let n = trace_io::write_trace(&mut file, gen.take(count as usize))
                .map_err(|e| format!("write failed: {e}"))?;
            println!("recorded {n} instructions of {bench} to {out}");
            Ok(())
        }
        Command::Replay { trace, commits, machine } => {
            let mut file =
                std::fs::File::open(&trace).map_err(|e| format!("cannot open {trace:?}: {e}"))?;
            let insts =
                trace_io::read_trace(&mut file).map_err(|e| format!("bad trace: {e}"))?;
            let n = insts.len() as u64;
            let target = if commits == 0 { n } else { commits.min(n) };
            run_replay(&trace, insts, target, &machine)
        }
        Command::Check { pins, deadline_secs } => run_check(&pins, deadline_secs),
        Command::Model { pins, check, format, deadline_secs } => {
            run_model(&pins, check, format, deadline_secs)
        }
        Command::Profile { pins, format, top, out, deadline_secs } => {
            run_profile(&pins, format, top, out, deadline_secs)
        }
        Command::Top { file, ledger, interval_ms, once, spawn } => {
            run_top(&file, &ledger, interval_ms, once, spawn)
        }
        Command::Report {
            ledger,
            baseline,
            window,
            format,
            out,
            prom,
            check,
            max_regress_pct,
            band_scale,
            fidelity,
            profile_drift,
        } => run_report(
            &ledger,
            baseline,
            window,
            format,
            out,
            prom,
            check,
            max_regress_pct,
            band_scale,
            fidelity,
            profile_drift,
        ),
        Command::Dataflow { bench, window, count } => {
            let profile =
                spec92::by_name(&bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
            let gen = TraceGenerator::new(&profile, 1);
            let limit = analyze(gen.take(count as usize), window);
            println!("benchmark      : {bench}");
            println!("instructions   : {}", limit.instructions);
            println!("critical path  : {} cycles", limit.critical_path);
            match window {
                Some(w) => println!("dataflow IPC   : {:.2} (window {w})", limit.ipc()),
                None => println!("dataflow IPC   : {:.2} (unbounded)", limit.ipc()),
            }
            Ok(())
        }
        Command::Dump { trace, count } => {
            let mut file =
                std::fs::File::open(&trace).map_err(|e| format!("cannot open {trace:?}: {e}"))?;
            let insts =
                trace_io::read_trace(&mut file).map_err(|e| format!("bad trace: {e}"))?;
            let limit = if count == 0 { insts.len() } else { count as usize };
            for inst in insts.iter().take(limit) {
                println!("{:#010x}: {inst}", inst.pc());
            }
            Ok(())
        }
        Command::Store { action, dir } => run_store(action, dir.as_deref()),
        Command::Timing { width } => {
            let model = TimingModel::cmos_05um();
            println!("{width}-way issue register-file timing (0.5um CMOS)");
            println!("{:>6} {:>14} {:>14}", "regs", "int cycle (ns)", "fp cycle (ns)");
            for regs in [32usize, 48, 64, 80, 96, 128, 160, 256] {
                println!(
                    "{regs:>6} {:>14.3} {:>14.3}",
                    model.cycle_time_ns(&RegFileGeometry::int_for_width(width, regs)),
                    model.cycle_time_ns(&RegFileGeometry::fp_for_width(width, regs)),
                );
            }
            Ok(())
        }
    }
}

fn run_replay(
    name: &str,
    insts: Vec<rf_isa::Instruction>,
    commits: u64,
    machine: &MachineOpts,
) -> Result<(), String> {
    // Wrong-path instructions come from a generic profile (the trace file
    // does not know which benchmark it came from).
    let mut wp = WrongPathGenerator::new(&spec92::compress(), machine.seed);
    let mut trace = insts.into_iter();
    if rf_check::sanitize_enabled() {
        let sanitizer = Sanitizer::new(machine.regs, machine.exceptions);
        let (stats, sanitizer) = Pipeline::with_observer(machine.to_config(), sanitizer)
            .run_with_observed(&mut trace, &mut wp, commits);
        print_stats(name, &stats);
        println!("{}", sanitizer.report());
        if !sanitizer.is_clean() {
            return Err(format!(
                "sanitizer detected {} invariant violation(s)",
                sanitizer.total_violations()
            ));
        }
    } else {
        let stats = Pipeline::new(machine.to_config()).run_with(&mut trace, &mut wp, commits);
        print_stats(name, &stats);
    }
    Ok(())
}

/// The `check` subcommand: cross-validates the simulator against the
/// static oracle over the requested configuration matrix (the full
/// default matrix when no dimension is pinned).
fn run_check(pins: &cli::MatrixPins, deadline_secs: Option<f64>) -> Result<(), String> {
    let matrix = pins.expand()?;
    // Same watchdog shape as `run`: a detached thread fires the token
    // after the wall budget; every cross-validation pipeline polls it
    // cooperatively, so the deadline covers the whole matrix, not each
    // configuration separately.
    let cancel = deadline_secs.map(|secs| {
        let token = CancelToken::new();
        let armed = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            armed.cancel();
        });
        token
    });

    let mut failures = 0u64;
    let mut runs = 0u64;
    for params in &matrix {
        let report = rf_check::cross_validate_cancellable(params, cancel.as_ref())?;
        runs += 1;
        if report.passed() {
            // One summary line per clean configuration.
            print!("{}", report.render().lines().next().unwrap_or(""));
            println!();
        } else {
            failures += 1;
            print!("{}", report.render());
        }
    }
    println!("check: {runs} configurations, {failures} failed");
    if failures > 0 {
        Err(format!("{failures} configuration(s) failed cross-validation"))
    } else {
        Ok(())
    }
}

/// The simulator run spec matching one check-matrix point.
fn spec_for(p: &CheckParams) -> rf_experiments::runner::RunSpec {
    let mut spec = rf_experiments::runner::RunSpec::baseline(&p.bench, p.width)
        .regs(p.regs)
        .exceptions(p.exceptions)
        .commits(p.commits);
    spec.seed = p.seed;
    spec
}

/// Per-configuration cap on the model's absolute IPC error in
/// `model --check`; individual configurations may sit in the curve's
/// hardest corners, so this is looser than the matrix-wide mean gate.
const MODEL_CONFIG_ERR_CAP_PCT: f64 = 40.0;
/// Matrix-wide mean absolute IPC error gate for `model --check`.
const MODEL_MEAN_ERR_CAP_PCT: f64 = 15.0;

/// The `model` subcommand: evaluates the static analytic estimator over
/// the requested slice of the check matrix without simulating. Workload
/// summaries depend only on (benchmark, width) — the machine knobs that
/// change inside a matrix slice (registers, exception model) enter only
/// at evaluation time — so they are memoized and each configuration is
/// a microsecond-scale closed-form evaluation on a cached summary.
fn run_model(
    pins: &cli::MatrixPins,
    check: bool,
    format: cli::ModelFormat,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    let matrix = pins.expand()?;
    let extract = std::time::Instant::now();
    let mut summaries: HashMap<(String, usize), rf_model::WorkloadSummary> = HashMap::new();
    for p in &matrix {
        let config = rf_check::config_for(p);
        summaries.entry((p.bench.clone(), p.width)).or_insert_with(|| {
            rf_model::summarize(
                &p.bench,
                p.commits,
                p.seed,
                config.effective_insert_bandwidth(),
                config.cache_geometry(),
                config.cache_org(),
                config.predictor_kind(),
            )
            .expect("benchmark validated by MatrixPins::expand")
        });
    }
    let extract_ns = extract.elapsed().as_nanos() as u64;
    let eval = std::time::Instant::now();
    let estimates: Vec<rf_model::ModelEstimate> = matrix
        .iter()
        .map(|p| {
            let config = rf_check::config_for(p);
            rf_model::evaluate(&summaries[&(p.bench.clone(), p.width)], &config)
        })
        .collect();
    let eval_ns = eval.elapsed().as_nanos() as u64;

    if check {
        return model_check(&matrix, &summaries, &estimates, extract_ns, eval_ns, deadline_secs);
    }
    match format {
        cli::ModelFormat::Json => {
            use rf_obs::json::Value;
            let arr: Vec<Value> = matrix
                .iter()
                .zip(&estimates)
                .map(|(p, e)| {
                    Value::Object(vec![
                        ("bench".into(), Value::String(p.bench.clone())),
                        ("width".into(), Value::Number(p.width as f64)),
                        ("exceptions".into(), Value::String(p.exceptions.to_string())),
                        ("regs".into(), Value::Number(p.regs as f64)),
                        ("commits".into(), Value::Number(p.commits as f64)),
                        ("seed".into(), Value::Number(p.seed as f64)),
                        ("ipc".into(), Value::Number(e.ipc)),
                        ("fu_occupancy".into(), Value::Number(e.fu_occupancy)),
                        ("dq_occupancy".into(), Value::Number(e.dq_occupancy)),
                        ("regs_live_committed".into(), Value::Number(e.regs_live_committed)),
                        ("regs_live_awaiting".into(), Value::Number(e.regs_live_awaiting)),
                        ("regs_live_exec".into(), Value::Number(e.regs_live_exec)),
                        ("regs_peak_int".into(), Value::Number(e.regs_peak[0] as f64)),
                        ("regs_peak_fp".into(), Value::Number(e.regs_peak[1] as f64)),
                    ])
                })
                .collect();
            println!("{}", Value::Array(arr));
        }
        cli::ModelFormat::Text => {
            for (p, e) in matrix.iter().zip(&estimates) {
                println!(
                    "model {} width={} {} regs={} commits={} seed={}: \
                     ipc {:.2} fu {:.2} dq {:.1} live c/a/e {:.1}/{:.1}/{:.1} peak int/fp {}/{}",
                    p.bench,
                    p.width,
                    p.exceptions,
                    p.regs,
                    p.commits,
                    p.seed,
                    e.ipc,
                    e.fu_occupancy,
                    e.dq_occupancy,
                    e.regs_live_committed,
                    e.regs_live_awaiting,
                    e.regs_live_exec,
                    e.regs_peak[0],
                    e.regs_peak[1],
                );
            }
        }
    }
    Ok(())
}

/// `model --check`: one simulation per configuration, reconciled
/// against the analytic estimate. Gates: per-configuration |IPC error|
/// within [`MODEL_CONFIG_ERR_CAP_PCT`], matrix-wide mean within
/// [`MODEL_MEAN_ERR_CAP_PCT`], and every register-pressure peak inside
/// the static oracle's [floor, ceiling] bracket (the same bracket
/// `rfstudy check` holds the simulator to). The optional deadline
/// bounds the whole validation batch, matching `rfstudy check`.
fn model_check(
    matrix: &[CheckParams],
    summaries: &HashMap<(String, usize), rf_model::WorkloadSummary>,
    estimates: &[rf_model::ModelEstimate],
    extract_ns: u64,
    eval_ns: u64,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    use rf_experiments::runner::{BatchOpts, RunCache, SimPool};
    let specs: Vec<_> = matrix.iter().map(spec_for).collect();
    let opts = deadline_secs.map_or_else(BatchOpts::unbounded, |secs| {
        BatchOpts::with_deadline(std::time::Duration::from_secs_f64(secs))
    });
    let sim_wall = std::time::Instant::now();
    let results = SimPool::from_env().try_run_many_opts(&specs, &RunCache::disabled(), opts);
    let sim_ns = sim_wall.elapsed().as_nanos() as u64;

    let mut failures = 0u64;
    let mut sum_abs = 0.0;
    let mut worst: (f64, String) = (0.0, String::from("-"));
    for ((p, e), result) in matrix.iter().zip(estimates).zip(results) {
        let stats = result.map_err(|err| format!("simulation failed: {err}"))?;
        let sim_ipc = stats.commit_ipc();
        let err_pct =
            if sim_ipc > 0.0 { 100.0 * (e.ipc - sim_ipc) / sim_ipc } else { 0.0 };
        sum_abs += err_pct.abs();
        let label =
            format!("{} width={} {} regs={}", p.bench, p.width, p.exceptions, p.regs);
        if err_pct.abs() > worst.0 {
            worst = (err_pct.abs(), label.clone());
        }
        let oracle = &summaries[&(p.bench.clone(), p.width)].stats.oracle;
        let slack = stats.inserted.saturating_sub(stats.committed);
        let mut brackets_ok = true;
        for class in [RegClass::Int, RegClass::Fp] {
            let ceiling = oracle.upper_bound(class, p.regs, slack);
            let floor = oracle.classes[class.index()].floor.min(ceiling);
            let peak = e.regs_peak[class.index()];
            if peak < floor || peak > ceiling {
                brackets_ok = false;
            }
        }
        let pass = err_pct.abs() <= MODEL_CONFIG_ERR_CAP_PCT && brackets_ok;
        if !pass {
            failures += 1;
        }
        println!(
            "model {label} commits={} seed={}: model {:.2} sim {:.2} err {:+.1}% brackets {}: {}",
            p.commits,
            p.seed,
            e.ipc,
            sim_ipc,
            err_pct,
            if brackets_ok { "ok" } else { "VIOLATED" },
            if pass { "PASS" } else { "FAIL" },
        );
    }
    let n = matrix.len().max(1);
    let mean = sum_abs / n as f64;
    let per_eval_ns = eval_ns / n as u64;
    let per_sim_ns = sim_ns / n as u64;
    println!(
        "model check: {} configurations, mean |IPC error| {mean:.1}% (gate {MODEL_MEAN_ERR_CAP_PCT:.0}%), worst {:.1}% ({}), {failures} failed",
        matrix.len(),
        worst.0,
        worst.1,
    );
    println!(
        "model cost: {:.1}ms extraction (once per bench/width), {per_eval_ns}ns/config evaluation vs {:.2}ms/config simulation ({:.0}x)",
        extract_ns as f64 / 1e6,
        per_sim_ns as f64 / 1e6,
        per_sim_ns as f64 / per_eval_ns.max(1) as f64,
    );
    if failures > 0 {
        return Err(format!("{failures} configuration(s) exceeded the model error gates"));
    }
    if mean > MODEL_MEAN_ERR_CAP_PCT {
        return Err(format!(
            "mean |IPC error| {mean:.1}% exceeds the {MODEL_MEAN_ERR_CAP_PCT:.0}% gate"
        ));
    }
    Ok(())
}

/// The `profile` subcommand: forces the rf-prof self-profiler on, runs
/// the requested slice of the check matrix through a single-worker pool
/// (serial execution keeps wall time and attributed span time on the
/// same clock, so the coverage line below is meaningful), and renders
/// where the time went.
fn run_profile(
    pins: &cli::MatrixPins,
    format: cli::ProfileFormat,
    top: usize,
    out: Option<String>,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    use rf_experiments::runner::{BatchOpts, RunCache, SimPool};
    let matrix = pins.expand()?;
    let commits = matrix.first().map_or(0, |p| p.commits);
    let specs: Vec<_> = matrix.iter().map(spec_for).collect();
    let opts = deadline_secs.map_or_else(BatchOpts::unbounded, |secs| {
        BatchOpts::with_deadline(std::time::Duration::from_secs_f64(secs))
    });

    rf_prof::set_enabled(true);
    let wall = std::time::Instant::now();
    // A fresh disabled cache so every configuration actually simulates:
    // cache hits would attribute near-zero time and skew the profile.
    let results = SimPool::new(1).try_run_many_opts(&specs, &RunCache::disabled(), opts);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let root = rf_prof::collect();
    rf_prof::set_enabled(false);
    if let Some(err) = results.into_iter().find_map(Result::err) {
        return Err(format!("profiled batch failed: {err}"));
    }
    let root = root.ok_or("profiler recorded no spans")?;

    let attributed = root.attributed_ns();
    let coverage_pct = 100.0 * attributed as f64 / wall_ns.max(1) as f64;
    let rendered = match format {
        cli::ProfileFormat::Flame => rf_obs::profile::collapsed(&root),
        cli::ProfileFormat::Json => format!("{}\n", rf_obs::profile::to_value(&root)),
        cli::ProfileFormat::Text => format!(
            "{}attributed {:.1}% of {:.3}s wall time ({} configurations, {} commits each)\n",
            rf_obs::profile::text_table(&root, top),
            coverage_pct,
            wall_ns as f64 / 1e9,
            specs.len(),
            commits,
        ),
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!(
                "profile -> {path} ({} bytes, {:.1}% of wall time attributed)",
                rendered.len(),
                coverage_pct
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Harness execution order from the most recent ledger record. The
/// median map is keyed by name and loses order, but the latest record's
/// harness array preserves the order the suite actually ran in.
fn latest_plan(records: &[rf_obs::json::Value]) -> Vec<String> {
    records
        .last()
        .and_then(|r| r.get("harnesses"))
        .and_then(rf_obs::json::Value::as_array)
        .map(|hs| hs.iter().filter_map(|h| h.get_str("name").map(str::to_owned)).collect())
        .unwrap_or_default()
}

/// Suite ETA in seconds: each remaining harness is charged its ledger
/// median (names without history are charged the median of the known
/// medians), and the in-flight harness is charged whatever of its
/// median is left. `None` without a plan or any history — an honest
/// "unknown" beats a fabricated zero.
fn top_eta(
    plan: &[String],
    medians: &[(String, f64)],
    suite: &rf_obs::live::SuiteView,
) -> Option<f64> {
    if plan.is_empty() || medians.is_empty() {
        return None;
    }
    let mut known: Vec<f64> = medians.iter().map(|(_, s)| *s).collect();
    known.sort_by(f64::total_cmp);
    let mid = known.len() / 2;
    let fallback =
        if known.len().is_multiple_of(2) { (known[mid - 1] + known[mid]) / 2.0 } else { known[mid] };
    let cost =
        |name: &str| medians.iter().find(|(n, _)| n == name).map_or(fallback, |(_, s)| *s);
    let mut eta = 0.0;
    for name in plan.iter().skip(suite.done as usize) {
        if Some(name.as_str()) == suite.current.as_deref() {
            eta += (cost(name) - suite.current_elapsed_s).max(0.0);
        } else {
            eta += cost(name);
        }
    }
    Some(eta)
}

/// `[#####-----]` with `frac` of `width` cells filled.
fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

/// `1234567.0` -> `"1.23M"`; keeps dashboard columns narrow.
fn human_count(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

/// One dashboard frame for `rfstudy top`, rendered from the parsed
/// telemetry stream. Rates and worker utilization come from the delta
/// between the last two snapshots (cumulative values when only one
/// exists yet); the ETA weighs the remaining plan by ledger medians.
fn render_top_frame(
    file: &str,
    header: Option<&rf_obs::live::StreamHeader>,
    snaps: &[rf_obs::live::Snap],
    plan: &[String],
    medians: &[(String, f64)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "rfstudy top — {file}");
    let Some(last) = snaps.last() else {
        let _ = writeln!(out, "waiting for first snapshot...");
        return out;
    };
    if let Some(h) = header {
        let _ = writeln!(
            out,
            "run: commits={} jobs={} interval={}ms   elapsed {:.1}s{}",
            h.commits,
            h.jobs,
            h.interval_ms,
            last.elapsed_s,
            if last.is_final { "   FINISHED" } else { "" },
        );
    }
    let s = &last.suite;
    let done_frac = if s.total > 0 { s.done as f64 / s.total as f64 } else { 0.0 };
    let current = s
        .current
        .as_ref()
        .map_or_else(String::new, |n| format!("   current {n} ({:.1}s)", s.current_elapsed_s));
    let eta = top_eta(plan, medians, s)
        .map_or_else(|| "--".to_owned(), |e| format!("{e:.1}s"));
    let _ = writeln!(
        out,
        "suite: {} {}/{} harnesses{current}   eta {eta}",
        bar(done_frac, 20),
        s.done,
        s.total,
    );
    let c = |counter| last.counters.get(counter);
    let committed = c(Counter::InstructionsCommitted);
    let prev = (snaps.len() >= 2).then(|| &snaps[snaps.len() - 2]);
    let (delta_committed, window_s) = match prev {
        Some(p) => (
            committed.saturating_sub(p.counters.get(Counter::InstructionsCommitted)) as f64,
            last.elapsed_s - p.elapsed_s,
        ),
        None => (committed as f64, last.elapsed_s),
    };
    let rate = if window_s > 0.0 { delta_committed / window_s } else { 0.0 };
    let (started, completed, failed) =
        (c(Counter::SimsStarted), c(Counter::SimsCompleted), c(Counter::SimsFailed));
    let (hits, misses) = (c(Counter::CacheHits), c(Counter::CacheMisses));
    let _ = writeln!(
        out,
        "sims: {completed} done / {failed} failed / {hits} cached ({started} started, {} in \
         flight)   commits/s {}",
        started.saturating_sub(completed + failed),
        human_count(rate),
    );
    let lookups = hits + misses;
    let hit_pct = if lookups > 0 { 100.0 * hits as f64 / lookups as f64 } else { 0.0 };
    let _ = writeln!(
        out,
        "cache: {hits} hits / {misses} misses ({hit_pct:.1}% hit rate)   committed {}",
        human_count(committed as f64),
    );
    if !last.workers.is_empty() {
        let _ = writeln!(out, "workers:");
        for w in &last.workers {
            let base = prev
                .and_then(|p| p.workers.iter().find(|pw| pw.id == w.id))
                .map_or(0, |pw| pw.busy_ns);
            let busy_s = w.busy_ns.saturating_sub(base) as f64 / 1e9;
            let util = if window_s > 0.0 { busy_s / window_s } else { 0.0 };
            let _ = writeln!(
                out,
                "  w{} {} {:>5.1}%  {} sims",
                w.id,
                bar(util, 20),
                100.0 * util,
                w.sims,
            );
        }
    }
    out
}

/// The `top` subcommand: attaches to the live telemetry stream the
/// suite runner writes under `RF_TELEMETRY=1` and renders an in-place
/// dashboard (suite progress, throughput, cache effectiveness, worker
/// utilization, ledger-weighted ETA), refreshed every `interval_ms`
/// until the stream's final snapshot arrives. `--once` renders a single
/// plain frame (no escape codes) and exits, failing immediately when
/// the stream is missing or malformed. `--spawn` resets the stream
/// file, launches the suite runner (`all`, expected next to this
/// executable) with telemetry enabled, attaches to it, and propagates
/// its exit status.
fn run_top(
    file: &str,
    ledger_path: &str,
    interval_ms: u64,
    once: bool,
    spawn: bool,
) -> Result<(), String> {
    let mut child = None;
    if spawn {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
        let suite = exe.with_file_name("all");
        // A stale stream ending in a final snapshot would end the attach
        // loop before the new run writes its header.
        match std::fs::remove_file(file) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot reset {file}: {e}")),
        }
        let spawned = std::process::Command::new(&suite)
            .env("RF_TELEMETRY", "1")
            .env("RF_TELEMETRY_INTERVAL_MS", interval_ms.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn suite runner {}: {e}", suite.display()))?;
        child = Some(spawned);
    }
    if once {
        // One-shot with a spawned run: wait it out, then render its
        // closing frame below instead of leaving an orphan behind.
        if let Some(c) = child.as_mut() {
            let status =
                c.wait().map_err(|e| format!("cannot reap spawned suite runner: {e}"))?;
            if !status.success() {
                return Err(format!("spawned suite runner failed ({status})"));
            }
        }
    }

    let records =
        rf_obs::ledger::read_ledger(std::path::Path::new(ledger_path)).unwrap_or_default();
    let plan = latest_plan(&records);
    let mut reported_wait = false;
    let mut child_already_exited = false;
    loop {
        let parsed = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {file}: {e}"))
            .and_then(|text| rf_obs::live::parse_stream(&text));
        match parsed {
            Ok((header, snaps)) => {
                let medians = rf_obs::ledger::harness_median_seconds(
                    &records,
                    header.as_ref().map(|h| h.commits),
                );
                let frame = render_top_frame(file, header.as_ref(), &snaps, &plan, &medians);
                if once {
                    print!("{frame}");
                    return Ok(());
                }
                // Clear + home: redraw in place instead of scrolling.
                print!("\x1b[2J\x1b[H{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                if snaps.last().is_some_and(|s| s.is_final) {
                    break;
                }
                if child_already_exited {
                    // One grace poll already happened; the run died
                    // without closing its stream.
                    return Err(format!(
                        "spawned suite runner exited without a final snapshot in {file}"
                    ));
                }
            }
            Err(e) => {
                // Attaching before the run starts and torn in-flight
                // appends are both transient while a producer may still
                // show up; `--once` treats them as hard errors instead.
                if once {
                    return Err(e);
                }
                if !reported_wait {
                    println!("waiting for telemetry stream: {e}");
                    reported_wait = true;
                }
            }
        }
        if let Some(c) = child.as_mut() {
            if !child_already_exited && matches!(c.try_wait(), Ok(Some(_))) {
                // Grant one more poll so a final snapshot racing the
                // process exit still gets rendered.
                child_already_exited = true;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    if let Some(mut c) = child {
        let status = c.wait().map_err(|e| format!("cannot reap spawned suite runner: {e}"))?;
        if !status.success() {
            return Err(format!("spawned suite runner failed ({status})"));
        }
    }
    Ok(())
}

/// The `store` subcommand: inspects or maintains the durable
/// content-addressed run store that suite runs populate under
/// `RF_STORE=1`. The directory resolves `--dir`, then `RF_STORE_DIR`,
/// then `results/store` — the same default the write path uses.
fn run_store(action: StoreAction, dir: Option<&str>) -> Result<(), String> {
    let dir: std::path::PathBuf = match dir {
        Some(d) => d.into(),
        None => std::env::var("RF_STORE_DIR")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map_or_else(|| "results/store".into(), Into::into),
    };
    // Opening would create an empty store; maintenance on a store that
    // was never written is a mistake worth reporting instead.
    if !dir.is_dir() {
        return Err(format!(
            "store directory {} does not exist (populate it with an RF_STORE=1 suite run)",
            dir.display()
        ));
    }
    let store =
        rf_store::Store::open(&dir).map_err(|e| format!("cannot open store: {e}"))?;
    let fmt_schemas = |schemas: &std::collections::BTreeMap<u32, u64>| -> String {
        if schemas.is_empty() {
            "none".to_owned()
        } else {
            schemas
                .iter()
                .map(|(schema, n)| format!("v{schema}: {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    match action {
        StoreAction::Stats => {
            let snap = store.snapshot().map_err(|e| format!("cannot read store: {e}"))?;
            println!("store            : {}", dir.display());
            println!("live entries     : {}", snap.len());
            println!("records scanned  : {}", snap.records);
            println!("segments         : {}", snap.segment_count());
            println!("bytes            : {}", snap.bytes);
            println!("torn tails       : {}", snap.torn);
            println!("corrupt records  : {}", snap.corrupt);
            println!("schema mix       : {}", fmt_schemas(&snap.schemas));
            Ok(())
        }
        StoreAction::Verify => {
            let snap = store.snapshot().map_err(|e| format!("cannot read store: {e}"))?;
            let report = snap.verify();
            println!(
                "verified {} live record(s) over {} bytes: {} bad checksum, \
                 {} corrupt, {} torn (schema mix {})",
                report.live,
                report.bytes,
                report.bad_checksum,
                report.corrupt,
                report.torn,
                fmt_schemas(&report.schemas),
            );
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "store verification failed: {} bad-checksum and {} corrupt record(s) \
                     (compact to drop them)",
                    report.bad_checksum, report.corrupt
                ))
            }
        }
        StoreAction::Compact | StoreAction::Gc => {
            // `gc` keeps only the current key-schema generation; plain
            // `compact` keeps every schema.
            let keep = match action {
                StoreAction::Gc => Some(rf_experiments::codec::DIGEST_SCHEMA),
                _ => None,
            };
            let report =
                store.compact(keep).map_err(|e| format!("compaction failed: {e}"))?;
            println!(
                "kept {} record(s); dropped {} superseded, {} stale-schema, {} corrupt; \
                 {} -> {} bytes",
                report.kept,
                report.dropped_superseded,
                report.dropped_stale_schema,
                report.dropped_corrupt,
                report.bytes_before,
                report.bytes_after,
            );
            Ok(())
        }
    }
}

/// The `report` subcommand: compares the latest run-history ledger
/// record against a baseline and scores paper fidelity. With `--check`,
/// returns `Err` (process exit code 1) when the analysis fails.
#[allow(clippy::too_many_arguments)]
fn run_report(
    ledger_path: &str,
    baseline: Option<String>,
    window: usize,
    format: cli::ReportFormat,
    out: Option<String>,
    prom: Option<String>,
    check: bool,
    max_regress_pct: f64,
    band_scale: f64,
    fidelity: rf_obs::trend::FidelityMode,
    profile_drift: rf_obs::trend::FidelityMode,
) -> Result<(), String> {
    let records = rf_obs::ledger::read_ledger(std::path::Path::new(ledger_path))
        .map_err(|e| format!("cannot read ledger: {e}"))?;
    let opts = rf_obs::trend::Options {
        baseline,
        window,
        max_regress_pct,
        band_scale,
        fidelity,
        profile_drift,
        ..rf_obs::trend::Options::default()
    };
    let analysis = rf_obs::trend::analyze(&records, &opts)?;
    let rendered = match format {
        cli::ReportFormat::Text => rf_obs::trend::render_text(&analysis),
        cli::ReportFormat::Markdown => rf_obs::trend::render_markdown(&analysis),
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!("report -> {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
    if let Some(path) = prom {
        let exposition = rf_obs::trend::render_prometheus(&analysis);
        std::fs::write(&path, &exposition)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("prometheus exposition -> {path} ({} bytes)", exposition.len());
    }
    if check && !analysis.passed() {
        return Err(format!(
            "report --check failed: {} finding(s); see report above",
            analysis.failures.len()
        ));
    }
    Ok(())
}

fn print_stats(name: &str, stats: &SimStats) {
    println!("benchmark/trace      : {name}");
    println!("committed            : {}", stats.committed);
    println!("cycles               : {}", stats.cycles);
    println!("issue IPC            : {:.2}", stats.issue_ipc());
    println!("commit IPC           : {:.2}", stats.commit_ipc());
    println!("load miss rate       : {:.1}%", 100.0 * stats.cache.load_miss_rate());
    println!("cbr mispredict rate  : {:.1}%", 100.0 * stats.mispredict_rate());
    println!("squashed             : {}", stats.squashed);
    println!("no-free-reg cycles   : {:.1}%", 100.0 * stats.no_free_reg_fraction());
    for (class, label) in [(RegClass::Int, "int"), (RegClass::Fp, "fp ")] {
        let p90 = stats.live_percentile(class, LiveModel::Precise, 90.0);
        let i90 = stats.live_percentile(class, LiveModel::Imprecise, 90.0);
        println!("{label} live regs (90th)  : precise {p90}, imprecise {i90}");
    }
}

#[cfg(test)]
mod top_tests {
    use super::*;
    use rf_obs::live::{Snap, SuiteView, WorkerSample};
    use rf_prof::counters::Counts;

    fn plan() -> Vec<String> {
        vec!["fig3".into(), "fig4".into(), "mystery".into()]
    }

    fn medians() -> Vec<(String, f64)> {
        vec![("fig3".into(), 1.0), ("fig4".into(), 3.0)]
    }

    fn suite(done: u64, current: Option<&str>, current_elapsed_s: f64) -> SuiteView {
        SuiteView { total: 3, done, current: current.map(str::to_owned), current_elapsed_s }
    }

    #[test]
    fn eta_charges_remaining_harnesses_and_the_partial_current_one() {
        // Nothing started: 1.0 + 3.0 + 2.0 (unknown name charged the
        // median of the known medians).
        assert_eq!(top_eta(&plan(), &medians(), &suite(0, None, 0.0)), Some(6.0));
        // fig4 one second in: (3 - 1) + 2.
        assert_eq!(top_eta(&plan(), &medians(), &suite(1, Some("fig4"), 1.0)), Some(4.0));
        // Overrun current harness clamps at zero, never negative.
        assert_eq!(top_eta(&plan(), &medians(), &suite(1, Some("fig4"), 99.0)), Some(2.0));
        assert_eq!(top_eta(&plan(), &medians(), &suite(3, None, 0.0)), Some(0.0));
        assert_eq!(top_eta(&[], &medians(), &suite(0, None, 0.0)), None);
        assert_eq!(top_eta(&plan(), &[], &suite(0, None, 0.0)), None);
    }

    #[test]
    fn bar_fills_proportionally_and_clamps() {
        assert_eq!(bar(0.5, 4), "[##--]");
        assert_eq!(bar(-1.0, 4), "[----]");
        assert_eq!(bar(7.0, 4), "[####]");
    }

    #[test]
    fn human_count_picks_sensible_units() {
        assert_eq!(human_count(12.0), "12");
        assert_eq!(human_count(1_500.0), "1.5k");
        assert_eq!(human_count(2_000_000.0), "2.00M");
        assert_eq!(human_count(3_500_000_000.0), "3.50G");
    }

    fn snap(seq: u64, elapsed_s: f64, committed: u64, busy_ns: u64, is_final: bool) -> Snap {
        Snap {
            seq,
            elapsed_s,
            is_final,
            counters: Counts::from_fn(|c| match c {
                Counter::SimsStarted => 10,
                Counter::SimsCompleted => 7,
                Counter::SimsFailed => 1,
                Counter::InstructionsCommitted => committed,
                Counter::Cycles => committed / 2,
                Counter::CacheHits => 2,
                Counter::CacheMisses => 6,
                _ => 0,
            }),
            workers: vec![WorkerSample { id: 0, busy_ns, sims: 7 }],
            suite: suite(1, Some("fig4"), 0.5),
            digest: is_final.then(|| "feedbeef".to_owned()),
        }
    }

    #[test]
    fn frame_rates_and_utilization_come_from_the_last_window() {
        let header = rf_obs::live::StreamHeader {
            schema: rf_obs::live::SNAPSHOT_SCHEMA_VERSION,
            interval_ms: 250,
            commits: 200_000,
            jobs: 2,
        };
        // Window: 1s wall, 2M commits, worker 0 busy 0.5s -> 50%.
        let snaps =
            vec![snap(1, 1.0, 1_000_000, 0, false), snap(2, 2.0, 3_000_000, 500_000_000, false)];
        let frame = render_top_frame("live.jsonl", Some(&header), &snaps, &plan(), &medians());
        assert!(frame.contains("commits/s 2.00M"), "{frame}");
        assert!(frame.contains("w0 [##########----------]  50.0%  7 sims"), "{frame}");
        assert!(frame.contains("1/3 harnesses   current fig4 (0.5s)"), "{frame}");
        // fig4 charged (3 - 0.5) + mystery charged 2.
        assert!(frame.contains("eta 4.5s"), "{frame}");
        assert!(frame.contains("7 done / 1 failed / 2 cached (10 started, 2 in flight)"), "{frame}");
        assert!(frame.contains("(25.0% hit rate)"), "{frame}");
        assert!(!frame.contains("FINISHED"));

        let fin = vec![snaps[1].clone(), snap(3, 3.0, 3_000_000, 500_000_000, true)];
        let final_frame =
            render_top_frame("live.jsonl", Some(&header), &fin, &plan(), &medians());
        assert!(final_frame.contains("FINISHED"), "{final_frame}");
    }

    #[test]
    fn frame_without_snapshots_says_it_is_waiting() {
        let frame = render_top_frame("live.jsonl", None, &[], &[], &[]);
        assert!(frame.contains("rfstudy top — live.jsonl"));
        assert!(frame.contains("waiting for first snapshot"), "{frame}");
    }

    #[test]
    fn latest_plan_reads_harness_order_from_the_newest_record() {
        let records = vec![
            rf_obs::json::parse(r#"{"harnesses":[{"name":"old"}]}"#).unwrap(),
            rf_obs::json::parse(r#"{"harnesses":[{"name":"fig3"},{"name":"fig4"}]}"#).unwrap(),
        ];
        assert_eq!(latest_plan(&records), vec!["fig3".to_owned(), "fig4".to_owned()]);
        assert!(latest_plan(&[]).is_empty());
    }
}
