//! The `rfstudy` command-line simulator. `rfstudy help` lists the
//! commands, their options and the exit statuses, all rendered from the
//! command grammars in `cli.rs`.

mod cli;

use cli::{Command, StoreAction, TraceFormat};
use rf_check::Sanitizer;
use rf_core::dataflow::analyze;
use rf_core::{CancelToken, Cancelled, LiveModel, Pipeline, RunSpec, SimStats};
use std::collections::HashMap;
use rf_obs::Recorder;
use rf_isa::RegClass;
use rf_experiments::runner::RunConfig;
use rf_prof::counters::Counter;
use rf_timing::{RegFileGeometry, TimingModel};
use rf_workload::{spec92, SharedTrace, TraceGenerator};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cli::usage(None));
            return ExitCode::from(2);
        }
    };
    // `help` prints even under a malformed environment, as `all --help`
    // does; every other command first parses the run configuration, so
    // a malformed `RF_*` knob is a usage error before any work.
    if let Command::Help(command) = cmd {
        println!("{}", cli::usage(command));
        return ExitCode::SUCCESS;
    }
    let cfg = match rf_experiments::runner::init_config() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Attaching to a stream file that does not exist is a usage error
    // (exit 2), not something to hang on: no suite run has started the
    // stream, so waiting for the file could wait forever.
    if let Command::Top { file, .. } = &cmd {
        if !std::path::Path::new(file).exists() {
            eprintln!(
                "error: telemetry stream {file:?} does not exist \
                 (run the suite with RF_TELEMETRY=1 first)"
            );
            return ExitCode::from(2);
        }
    }
    match dispatch(cmd, cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(cmd: Command, cfg: &RunConfig) -> Result<(), String> {
    // `check`, `model` and `profile` default to a smaller budget than
    // the suite's.
    let matrix_commits = cfg.commits.unwrap_or(cli::MATRIX_COMMITS);
    match cmd {
        Command::Help(_) => unreachable!("main prints help before parsing the run configuration"),
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
        Command::Run { spec, deadline_secs } => {
            let profile = profile(&spec.benchmark);
            let len = spec.commits.min(SharedTrace::MAX_BUFFERED) as usize;
            simulate(
                |cancelled| SharedTrace::build(&profile, spec.seed, len, cancelled),
                &spec,
                deadline_secs,
                cfg.sanitize,
            )
        }
        Command::Trace { spec, format, window, out } => {
            let profile = profile(&spec.benchmark);
            let len = spec.commits.min(SharedTrace::MAX_BUFFERED) as usize;
            let trace = SharedTrace::new(&profile, spec.seed, len);
            let recorder = match window {
                Some(w) => Recorder::with_window(w),
                None => Recorder::unbounded(),
            };
            let (stats, mut recorder) = Pipeline::with_observer(spec.machine_config(), recorder)
                .run(&mut trace.cursor(), &mut trace.wrong_path(), spec.commits)
                .expect("no cancel token");
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
                        "traced {} commits of {} over {} cycles -> {path} ({} bytes)",
                        stats.committed,
                        spec.benchmark,
                        stats.cycles,
                        rendered.len()
                    );
                }
                None => print!("{rendered}"),
            }
            Ok(())
        }
        Command::Record { bench, out, count, seed } => {
            let profile = profile(&bench);
            let len = usize::try_from(count)
                .ok()
                .filter(|&n| n < u32::MAX as usize)
                .ok_or_else(|| format!("--count {count} is too large for one trace file"))?;
            let trace = SharedTrace::new(&profile, seed, len);
            let mut file = std::fs::File::create(&out)
                .map_err(|e| format!("cannot create {out:?}: {e}"))?;
            trace.write_to(&mut file).map_err(|e| format!("write failed: {e}"))?;
            println!("recorded {len} instructions of {bench} to {out}");
            Ok(())
        }
        Command::Replay { trace, spec } => {
            let trace = read_trace_file(&trace)?;
            let n = trace.len() as u64;
            let spec = RunSpec {
                benchmark: trace.benchmark().to_owned(),
                seed: trace.seed(),
                commits: if spec.commits == 0 { n } else { spec.commits.min(n) },
                ..spec
            };
            simulate(|_| Some(trace), &spec, None, cfg.sanitize)
        }
        Command::Check { pins, deadline_secs } => {
            run_check(&pins.expand(matrix_commits), deadline_secs)
        }
        Command::Model { pins, check, format, deadline_secs } => {
            run_model(&pins.expand(matrix_commits), check, format, deadline_secs)
        }
        Command::Profile { pins, format, top, out, deadline_secs } => {
            run_profile(&pins.expand(matrix_commits), format, top, out, deadline_secs)
        }
        Command::Top { file, interval_ms, once } => run_top(&file, interval_ms, once),
        Command::Report { ledger, format, out, check, opts } => {
            run_report(&ledger, format, out, check, &opts)
        }
        Command::Dataflow { bench, window, count } => {
            let trace = TraceGenerator::new(&profile(&bench), cli::RUN_SEED).take(count as usize);
            let limit = analyze(trace, window);
            println!("benchmark      : {bench}");
            println!("instructions   : {}", limit.instructions);
            println!("critical path  : {} cycles", limit.critical_path);
            let scope = window.map_or("unbounded".to_owned(), |w| format!("window {w}"));
            println!("dataflow IPC   : {:.2} ({scope})", limit.ipc());
            Ok(())
        }
        Command::Dump { trace, count } => {
            let trace = read_trace_file(&trace)?;
            let limit = if count == 0 { trace.len() } else { count as usize };
            for inst in trace.cursor().take(limit) {
                println!("{:#010x}: {inst}", inst.pc());
            }
            Ok(())
        }
        Command::Store { action, dir } => {
            run_store(action, &dir.map_or_else(|| cfg.store_dir.clone(), Into::into))
        }
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

/// The profile of a benchmark the command line named (`cli::parse`
/// rejects an unknown name).
fn profile(name: &str) -> rf_workload::BenchmarkProfile {
    spec92::by_name(name).expect("the command line checked the benchmark name")
}

/// Reads a recorded trace file.
fn read_trace_file(path: &str) -> Result<SharedTrace, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    SharedTrace::read_from(&mut file).map_err(|e| format!("bad trace {path:?}: {e}"))
}

/// A cancel token that a detached thread fires after `secs` of wall
/// time. The thread holds only a token clone, and the process outlives
/// any still-pending sleep by at most the time it takes `main` to return.
fn watchdog(secs: f64) -> CancelToken {
    let token = CancelToken::new();
    let armed = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        armed.cancel();
    });
    token
}

/// Simulates the trace `load` returns on the machine of `spec` for its
/// commit budget and prints the statistics under its benchmark name;
/// `run` and `replay` share it. With `sanitize` (`RF_SANITIZE`) the
/// invariant sanitizer rides along, its report follows, and a violation
/// is an error. `deadline_secs` bounds the load and the simulation: `load`
/// polls the callback it is given and returns `None` once it answers
/// `true`, and the pipeline is cancelled with its partial state
/// discarded.
fn simulate(
    load: impl FnOnce(&dyn Fn() -> bool) -> Option<SharedTrace>,
    spec: &RunSpec,
    deadline_secs: Option<f64>,
    sanitize: bool,
) -> Result<(), String> {
    let cancel = deadline_secs.map(watchdog);
    let deadline_err = |at_cycle: u64| {
        format!(
            "deadline of {}s exceeded at cycle {at_cycle} (partial statistics discarded)",
            deadline_secs.unwrap_or_default(),
        )
    };
    let trace = load(&|| cancel.as_ref().is_some_and(CancelToken::is_cancelled))
        .ok_or_else(|| deadline_err(0))?;
    let deadline_err = |c: Cancelled| deadline_err(c.at_cycle);
    let (mut cursor, mut wrong_path) = (trace.cursor(), trace.wrong_path());
    if sanitize {
        let sanitizer = Sanitizer::new(spec.regs, spec.exceptions);
        let mut pipeline = Pipeline::with_observer(spec.machine_config(), sanitizer);
        if let Some(token) = cancel {
            pipeline = pipeline.with_cancel(token);
        }
        let (stats, sanitizer) =
            pipeline.run(&mut cursor, &mut wrong_path, spec.commits).map_err(deadline_err)?;
        print_stats(&spec.benchmark, &stats);
        println!("{}", sanitizer.report());
        if !sanitizer.is_clean() {
            return Err(format!(
                "sanitizer detected {} invariant violation(s)",
                sanitizer.total_violations()
            ));
        }
    } else {
        let mut pipeline = Pipeline::new(spec.machine_config());
        if let Some(token) = cancel {
            pipeline = pipeline.with_cancel(token);
        }
        let (stats, _) =
            pipeline.run(&mut cursor, &mut wrong_path, spec.commits).map_err(deadline_err)?;
        print_stats(&spec.benchmark, &stats);
    }
    Ok(())
}

/// The `check` subcommand: cross-validates the simulator against the
/// static oracle over the requested configuration matrix (the full
/// default matrix when no dimension is pinned).
fn run_check(matrix: &[RunSpec], deadline_secs: Option<f64>) -> Result<(), String> {
    // One watchdog for the whole matrix: every cross-validation pipeline
    // polls the same token, so the deadline covers the matrix, not each
    // configuration separately.
    let cancel = deadline_secs.map(watchdog);

    let mut failures = 0u64;
    let mut runs = 0u64;
    for spec in matrix {
        let report = rf_check::cross_validate_cancellable(spec, cancel.as_ref())?;
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
    matrix: &[RunSpec],
    check: bool,
    format: cli::ModelFormat,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    let extract = std::time::Instant::now();
    let mut summaries: HashMap<(String, usize), rf_model::WorkloadSummary> = HashMap::new();
    for p in matrix {
        summaries.entry((p.benchmark.clone(), p.width)).or_insert_with(|| {
            rf_model::summarize(p).expect("benchmark validated by MatrixPins::expand")
        });
    }
    let extract_ns = extract.elapsed().as_nanos() as u64;
    let eval = std::time::Instant::now();
    let estimates: Vec<rf_model::ModelEstimate> = matrix
        .iter()
        .map(|p| {
            rf_model::evaluate(&summaries[&(p.benchmark.clone(), p.width)], &p.machine_config())
        })
        .collect();
    let eval_ns = eval.elapsed().as_nanos() as u64;

    if check {
        return model_check(matrix, &summaries, &estimates, extract_ns, eval_ns, deadline_secs);
    }
    match format {
        cli::ModelFormat::Json => {
            use rf_obs::json::Value;
            let arr: Vec<Value> = matrix
                .iter()
                .zip(&estimates)
                .map(|(p, e)| {
                    Value::Object(vec![
                        ("bench".into(), Value::String(p.benchmark.clone())),
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
                    p.benchmark,
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
    matrix: &[RunSpec],
    summaries: &HashMap<(String, usize), rf_model::WorkloadSummary>,
    estimates: &[rf_model::ModelEstimate],
    extract_ns: u64,
    eval_ns: u64,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    use rf_experiments::runner::{BatchOpts, RunCache, SimPool};
    let opts = BatchOpts { deadline: deadline_secs.map(std::time::Duration::from_secs_f64) };
    let sim_wall = std::time::Instant::now();
    let results = SimPool::from_env().try_run_many_opts(matrix, &RunCache::disabled(), opts);
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
            format!("{} width={} {} regs={}", p.benchmark, p.width, p.exceptions, p.regs);
        if err_pct.abs() > worst.0 {
            worst = (err_pct.abs(), label.clone());
        }
        let oracle = &summaries[&(p.benchmark.clone(), p.width)].stats.oracle;
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
    specs: &[RunSpec],
    format: cli::ProfileFormat,
    top: usize,
    out: Option<String>,
    deadline_secs: Option<f64>,
) -> Result<(), String> {
    use rf_experiments::runner::{BatchOpts, RunCache, SimPool};
    let commits = specs.first().map_or(0, |p| p.commits);
    let opts = BatchOpts { deadline: deadline_secs.map(std::time::Duration::from_secs_f64) };

    rf_prof::set_enabled(true);
    let wall = std::time::Instant::now();
    // A fresh disabled cache so every configuration actually simulates:
    // cache hits would attribute near-zero time and skew the profile.
    let results = SimPool::new(1).try_run_many_opts(specs, &RunCache::disabled(), opts);
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

/// Suite ETA in seconds at the stream's own answer rate: the specs left,
/// at the rate specs have been answered since the run started. `None`
/// before the first answer — an honest "unknown" beats a fabricated
/// figure.
fn eta_seconds(snap: &rf_obs::live::Snap) -> Option<f64> {
    let s = &snap.suite;
    (s.answered > 0 && snap.elapsed_s > 0.0)
        .then(|| s.planned.saturating_sub(s.answered) as f64 * snap.elapsed_s / s.answered as f64)
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
/// between the last two snapshots while the run is live, and from the
/// cumulative values once the final snapshot is in (or while only one
/// exists yet): the final window covers just the post-batch renders,
/// when no worker runs. The ETA comes from [`eta_seconds`].
fn render_top_frame(
    file: &str,
    header: Option<&rf_obs::live::StreamHeader>,
    snaps: &[rf_obs::live::Snap],
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
    let done_frac = if s.planned > 0 { s.answered as f64 / s.planned as f64 } else { 0.0 };
    let eta = eta_seconds(last).map_or_else(|| "--".to_owned(), |e| format!("{e:.1}s"));
    let _ = writeln!(
        out,
        "suite: {} {}/{} specs answered   eta {eta}",
        bar(done_frac, 20),
        s.answered,
        s.planned,
    );
    let c = |counter| last.counters.get(counter);
    let committed = c(Counter::InstructionsCommitted);
    let prev = (snaps.len() >= 2 && !last.is_final).then(|| &snaps[snaps.len() - 2]);
    let (delta_committed, window_s) = match prev {
        Some(p) => (
            committed.saturating_sub(p.counters.get(Counter::InstructionsCommitted)) as f64,
            last.elapsed_s - p.elapsed_s,
        ),
        None => (committed as f64, last.elapsed_s),
    };
    let rate = if window_s > 0.0 { delta_committed / window_s } else { 0.0 };
    let (started, completed, failed, reused) = (
        c(Counter::SimsStarted),
        c(Counter::SimsCompleted),
        c(Counter::SimsFailed),
        c(Counter::SimsReused),
    );
    let (hits, misses) = (c(Counter::CacheHits), c(Counter::CacheMisses));
    let _ = writeln!(
        out,
        "sims: {completed} done / {failed} failed / {reused} reused / {hits} cached ({started} \
         started, {} in flight)   commits/s {}",
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
/// utilization, ETA), refreshed every `interval_ms` until the stream's
/// final snapshot arrives. `--once` renders a single plain frame (no
/// escape codes) and exits, failing immediately when the stream is
/// missing or malformed.
fn run_top(file: &str, interval_ms: u64, once: bool) -> Result<(), String> {
    let mut reported_wait = false;
    loop {
        let parsed = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {file}: {e}"))
            .and_then(|text| rf_obs::live::parse_stream(&text));
        match parsed {
            Ok((header, snaps)) => {
                let frame = render_top_frame(file, header.as_ref(), &snaps);
                if once {
                    print!("{frame}");
                    return Ok(());
                }
                // Clear + home: redraw in place instead of scrolling.
                print!("\x1b[2J\x1b[H{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                if snaps.last().is_some_and(|s| s.is_final) {
                    return Ok(());
                }
            }
            Err(e) => {
                // A torn in-flight append is transient while the suite
                // is still writing; `--once` treats it as a hard error.
                if once {
                    return Err(e);
                }
                if !reported_wait {
                    println!("waiting for telemetry stream: {e}");
                    reported_wait = true;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// The `store` subcommand: inspects or maintains the durable
/// content-addressed run store that suite runs populate under
/// `RF_STORE=1`, in `dir`: `--dir`, else the run configuration's
/// `RF_STORE_DIR` — the directory the write path uses.
fn run_store(action: StoreAction, dir: &std::path::Path) -> Result<(), String> {
    // Opening would create an empty store; maintenance on a store that
    // was never written is a mistake worth reporting instead.
    if !dir.is_dir() {
        return Err(format!(
            "store directory {} does not exist (populate it with an RF_STORE=1 suite run)",
            dir.display()
        ));
    }
    let store = rf_store::Store::open(dir).map_err(|e| format!("cannot open store: {e}"))?;
    fn fmt_mix<K>(mix: &std::collections::BTreeMap<K, u64>, name: impl Fn(&K) -> String) -> String {
        if mix.is_empty() {
            "none".to_owned()
        } else {
            mix.iter().map(|(k, n)| format!("{}: {n}", name(k))).collect::<Vec<_>>().join(", ")
        }
    }
    let fmt_schemas = |schemas| fmt_mix(schemas, |schema| format!("v{schema}"));
    let fmt_formats = |formats| fmt_mix(formats, rf_store::RecordFormat::to_string);
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
            println!("record formats   : {}", fmt_formats(&snap.formats));
            Ok(())
        }
        StoreAction::Verify => {
            let snap = store.snapshot().map_err(|e| format!("cannot read store: {e}"))?;
            let report = snap.verify();
            println!(
                "verified {} live record(s) over {} bytes: {} bad checksum, \
                 {} corrupt, {} torn (schema mix {}; record formats {})",
                report.live,
                report.bytes,
                report.bad_checksum,
                report.corrupt,
                report.torn,
                fmt_schemas(&report.schemas),
                fmt_formats(&report.formats),
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
fn run_report(
    ledger_path: &str,
    format: rf_obs::trend::Format,
    out: Option<String>,
    check: bool,
    opts: &rf_obs::trend::Options,
) -> Result<(), String> {
    let records = rf_obs::ledger::read_ledger(std::path::Path::new(ledger_path))
        .map_err(|e| format!("cannot read ledger: {e}"))?;
    let analysis = rf_obs::trend::analyze(&records, opts)?;
    let rendered = rf_obs::trend::render(&analysis, format);
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!("report -> {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
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

    fn snap(seq: u64, elapsed_s: f64, committed: u64, busy_ns: u64, is_final: bool) -> Snap {
        Snap {
            seq,
            elapsed_s,
            is_final,
            counters: Counts::from_fn(|c| match c {
                Counter::SimsStarted => 10,
                Counter::SimsCompleted => 7,
                Counter::SimsFailed => 1,
                Counter::SimsReused => 3,
                Counter::InstructionsCommitted => committed,
                Counter::Cycles => committed / 2,
                Counter::CacheHits => 2,
                Counter::CacheMisses => 6,
                _ => 0,
            }),
            workers: vec![WorkerSample { id: 0, busy_ns, sims: 7 }],
            suite: SuiteView { planned: 40, answered: 10 },
            digest: is_final.then(|| "feedbeef".to_owned()),
        }
    }

    #[test]
    fn eta_is_the_remaining_specs_at_the_streams_answer_rate() {
        // 10 of 40 answered in 2s: 30 left at 5 per second.
        assert_eq!(eta_seconds(&snap(1, 2.0, 0, 0, false)), Some(6.0));
        let mut fresh = snap(1, 0.5, 0, 0, false);
        fresh.suite.answered = 0;
        assert_eq!(eta_seconds(&fresh), None, "no answer yet, no rate");
        fresh.suite = SuiteView { planned: 40, answered: 40 };
        assert_eq!(eta_seconds(&fresh), Some(0.0));
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
        let frame = render_top_frame("live.jsonl", Some(&header), &snaps);
        assert!(frame.contains("commits/s 2.00M"), "{frame}");
        assert!(frame.contains("w0 [##########----------]  50.0%  7 sims"), "{frame}");
        assert!(frame.contains("[#####---------------] 10/40 specs answered"), "{frame}");
        // 30 specs left at 10 per 2s.
        assert!(frame.contains("eta 6.0s"), "{frame}");
        assert!(
            frame.contains("7 done / 1 failed / 3 reused / 2 cached (10 started, 2 in flight)"),
            "{frame}"
        );
        assert!(frame.contains("(25.0% hit rate)"), "{frame}");
        assert!(!frame.contains("FINISHED"));

    }

    #[test]
    fn the_finished_frame_rates_the_whole_run() {
        let header = rf_obs::live::StreamHeader {
            schema: rf_obs::live::SNAPSHOT_SCHEMA_VERSION,
            interval_ms: 250,
            commits: 200_000,
            jobs: 2,
        };
        // The final snapshot adds only the post-batch renders: no new
        // commits and no busy time since the one before it.
        let snaps = vec![
            snap(1, 2.0, 3_000_000, 1_500_000_000, false),
            snap(2, 3.0, 3_000_000, 1_500_000_000, true),
        ];
        let frame = render_top_frame("live.jsonl", Some(&header), &snaps);
        assert!(frame.contains("FINISHED"), "{frame}");
        // 3M commits over the 3s run; worker 0 busy 1.5s of 3s.
        assert!(frame.contains("commits/s 1.00M"), "{frame}");
        assert!(frame.contains("w0 [##########----------]  50.0%  7 sims"), "{frame}");
    }

    #[test]
    fn frame_without_snapshots_says_it_is_waiting() {
        let frame = render_top_frame("live.jsonl", None, &[]);
        assert!(frame.contains("rfstudy top — live.jsonl"));
        assert!(frame.contains("waiting for first snapshot"), "{frame}");
    }
}
