//! Argument parsing for the `rfstudy` command-line simulator.
//!
//! Hand-rolled (no dependency) subcommand parser. See `main.rs` for the
//! command implementations and `rfstudy help` for usage.

use rf_bpred::PredictorKind;
use rf_core::{ExceptionModel, MachineConfig, RunSpec, SchedPolicy, DEFAULT_COMMITS, DEFAULT_SEED};
use rf_mem::CacheOrg;

/// The workload seed `run`, `trace` and `record` default to, and the
/// one `dataflow` always analyses.
pub const RUN_SEED: u64 = 1;

/// Output format of the `trace` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Plain-text per-instruction cycle timeline.
    Text,
    /// Reconciled stall/latency summary.
    Summary,
}

impl TraceFormat {
    /// Parses a `--format` value.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "chrome" => Ok(TraceFormat::Chrome),
            "text" => Ok(TraceFormat::Text),
            "summary" => Ok(TraceFormat::Summary),
            other => Err(format!(
                "unknown trace format {other:?} (expected chrome, text, or summary)"
            )),
        }
    }
}

/// Output format of the `profile` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Collapsed-stack text (flamegraph.pl / inferno / speedscope input).
    Flame,
    /// The ledger's JSON profile-tree encoding.
    Json,
    /// Aligned text table of the hottest spans.
    Text,
}

impl ProfileFormat {
    /// Parses a `--format` value.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "flame" => Ok(ProfileFormat::Flame),
            "json" => Ok(ProfileFormat::Json),
            "text" => Ok(ProfileFormat::Text),
            other => Err(format!(
                "unknown profile format {other:?} (expected flame, json, or text)"
            )),
        }
    }
}

/// Output format of the `model` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// Aligned text table, one configuration per line.
    Text,
    /// JSON array of per-configuration estimate objects.
    Json,
}

impl ModelFormat {
    /// Parses a `--format` value.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "text" => Ok(ModelFormat::Text),
            "json" => Ok(ModelFormat::Json),
            other => Err(format!("unknown model format {other:?} (expected text or json)")),
        }
    }
}

/// The check-style configuration matrix pinning shared by `check`,
/// `profile`, and `model`: without options the full default matrix
/// (all nine benchmarks × widths 4 and 8 × precise and imprecise
/// exceptions × 2048 and 64 registers); each option pins one
/// dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPins {
    /// Restrict to one benchmark (`None` = all nine).
    pub bench: Option<String>,
    /// Restrict to one issue width (`None` = 4 and 8).
    pub width: Option<usize>,
    /// Restrict to one exception model (`None` = precise and
    /// imprecise).
    pub exceptions: Option<ExceptionModel>,
    /// Restrict to one register-file size (`None` = 2048 and 64).
    pub regs: Option<usize>,
    /// Commit budget per configuration (`None` = the caller's default).
    pub commits: Option<u64>,
    /// Workload seed.
    pub seed: u64,
}

/// The commit budget `check`, `model` and `profile` default to when
/// neither `--commits` nor `RF_COMMITS` sets one.
pub const MATRIX_COMMITS: u64 = 10_000;

impl MatrixPins {
    /// The check matrix ([`rf_check::default_matrix`]) with each pinned
    /// dimension substituted, duplicates dropped, in matrix order;
    /// `default_commits` applies when `--commits` is absent.
    pub fn expand(&self, default_commits: u64) -> Vec<rf_check::CheckParams> {
        let mut params = Vec::new();
        for p in rf_check::default_matrix(self.commits.unwrap_or(default_commits), self.seed) {
            let p = rf_check::CheckParams {
                bench: self.bench.clone().unwrap_or(p.bench),
                width: self.width.unwrap_or(p.width),
                exceptions: self.exceptions.unwrap_or(p.exceptions),
                regs: self.regs.unwrap_or(p.regs),
                ..p
            };
            if !params.contains(&p) {
                params.push(p);
            }
        }
        params
    }
}

/// Maintenance action of the `store` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Print snapshot statistics (records, segments, schema and
    /// record-format mix).
    Stats,
    /// Re-read and checksum-verify every live record; exit nonzero on
    /// corruption.
    Verify,
    /// Rewrite the store down to its latest record per digest.
    Compact,
    /// Compact and additionally drop records written under a stale
    /// key-schema version.
    Gc,
}

impl StoreAction {
    /// Parses the positional ACTION argument.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "stats" => Ok(StoreAction::Stats),
            "verify" => Ok(StoreAction::Verify),
            "compact" => Ok(StoreAction::Compact),
            "gc" => Ok(StoreAction::Gc),
            other => Err(format!(
                "unknown store action {other:?} (expected stats, verify, compact, or gc)"
            )),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available benchmark profiles.
    List,
    /// Simulate a benchmark with the pipeline observer attached and
    /// export the recorded trace.
    Trace {
        /// The run: benchmark, commit budget (default 10000) and machine.
        spec: RunSpec,
        /// Export format.
        format: TraceFormat,
        /// Retained-detail window in cycles (`None` = whole run).
        window: Option<u64>,
        /// Output path (`None` = stdout).
        out: Option<String>,
    },
    /// Simulate a benchmark.
    Run {
        /// The run: benchmark, commit budget and machine.
        spec: RunSpec,
        /// Wall-clock budget in seconds (`None` = unbounded). An
        /// overrunning simulation is cancelled cooperatively and the
        /// process exits 1.
        deadline_secs: Option<f64>,
    },
    /// Record a trace file.
    Record {
        /// Benchmark name.
        bench: String,
        /// Output path.
        out: String,
        /// Instructions to record.
        count: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Replay a trace file through the pipeline.
    Replay {
        /// Trace path.
        trace: String,
        /// The machine and commit budget (0 = drain the whole trace);
        /// the trace file supplies the benchmark and seed.
        spec: RunSpec,
    },
    /// Cross-validate the simulator against the static dataflow oracle
    /// with the invariant sanitizer attached.
    Check {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Wall-clock budget in seconds for the whole matrix (`None` =
        /// unbounded); an overrunning run is cancelled cooperatively
        /// and the process exits 1.
        deadline_secs: Option<f64>,
    },
    /// Evaluate the static analytic model over the configuration
    /// matrix, or cross-validate it against the simulator (`--check`).
    Model {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Run model-vs-simulator cross-validation and gate on the
        /// error bands.
        check: bool,
        /// Output format (estimates only; `--check` always renders
        /// check-style text).
        format: ModelFormat,
        /// Wall-clock budget in seconds for the `--check` simulation
        /// batch (`None` = unbounded); overrunning configurations fail
        /// and the process exits 1. Ignored without `--check` (the
        /// model alone takes microseconds).
        deadline_secs: Option<f64>,
    },
    /// Dataflow ILP-limit analysis.
    Dataflow {
        /// Benchmark name.
        bench: String,
        /// Optional sliding window.
        window: Option<usize>,
        /// Instructions to analyse.
        count: u64,
    },
    /// Compare the latest run-history ledger record against a baseline
    /// and score paper fidelity.
    Report {
        /// Ledger path (default `results/history/suite.jsonl`).
        ledger: String,
        /// Report format.
        format: rf_obs::trend::Format,
        /// Write the rendered report here instead of stdout.
        out: Option<String>,
        /// Exit nonzero on perf regression or fidelity drift (CI gate).
        check: bool,
        /// Baseline, window, perf floor and fidelity mode.
        opts: rf_obs::trend::Options,
    },
    /// Run an instrumented batch with the rf-prof self-profiler forced
    /// on and render where the wall time went.
    Profile {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Render format.
        format: ProfileFormat,
        /// Rows in the text table.
        top: usize,
        /// Output path (`None` = stdout).
        out: Option<String>,
        /// Wall-clock budget in seconds for the instrumented batch
        /// (`None` = unbounded); an overrunning run is cancelled
        /// cooperatively and the process exits 1.
        deadline_secs: Option<f64>,
    },
    /// Attach to a running (or finished) telemetry stream and render a
    /// live terminal view of the suite.
    Top {
        /// Telemetry stream path (default
        /// `results/telemetry/live.jsonl`).
        file: String,
        /// Refresh period in milliseconds.
        interval_ms: u64,
        /// Render one frame and exit instead of following the stream.
        once: bool,
    },
    /// Inspect or maintain the durable content-addressed run store.
    Store {
        /// What to do.
        action: StoreAction,
        /// Store directory (`None` = the run configuration's
        /// `RF_STORE_DIR`).
        dir: Option<String>,
    },
    /// Register-file timing table.
    Timing {
        /// Issue width.
        width: usize,
    },
    /// Dump a binary trace as text.
    Dump {
        /// Trace path.
        trace: String,
        /// Maximum instructions to print (0 = all).
        count: u64,
    },
    /// Print usage.
    Help,
}

/// Parses the options of `run`, `trace` and `replay` into a spec of
/// `bench`: [`RunSpec::baseline`] at seed [`RUN_SEED`] and `commits`,
/// each option overriding one field, `--dq` defaulting to the baseline
/// queue of the final `--width`. `own` lists the command's other
/// options, which are skipped.
fn parse_spec(
    bench: &str,
    commits: u64,
    opts: &[(String, Option<String>)],
    own: &[&str],
) -> Result<RunSpec, String> {
    let mut spec = RunSpec { seed: RUN_SEED, ..RunSpec::baseline(bench, 4).commits(commits) };
    let mut dq = None;
    for (opt, value) in opts.iter().filter(|(o, _)| !own.contains(&o.as_str())) {
        let v = || value.as_deref().ok_or_else(|| format!("{opt} requires a value"));
        match opt.as_str() {
            "--width" => spec.width = size_num(opt, v()?)?,
            "--dq" => dq = Some(size_num(opt, v()?)?),
            "--regs" => spec.regs = size_num(opt, v()?)?,
            "--commits" => spec.commits = parse_num(opt, v()?)?,
            "--seed" => spec.seed = parse_num(opt, v()?)?,
            "--exceptions" => spec.exceptions = parse_exceptions(v()?)?,
            "--cache" => {
                spec.cache = match v()? {
                    "perfect" => CacheOrg::Perfect,
                    "lockup" => CacheOrg::Lockup,
                    "lockup-free" => CacheOrg::LockupFree,
                    other => return Err(format!("unknown cache organisation {other:?}")),
                }
            }
            "--sched" => {
                spec.policy = match v()? {
                    "oldest-first" => SchedPolicy::OldestFirst,
                    "youngest-first" => SchedPolicy::YoungestFirst,
                    other => return Err(format!("unknown scheduler policy {other:?}")),
                }
            }
            "--predictor" => {
                spec.predictor = match v()? {
                    "bimodal" => PredictorKind::Bimodal,
                    "gshare" => PredictorKind::Gshare,
                    "combining" => PredictorKind::Combining,
                    other => return Err(format!("unknown predictor {other:?}")),
                }
            }
            "--split-queues" => spec.split_dq = true,
            _ => return Err(format!("unknown option {opt:?}")),
        }
    }
    spec.dq = dq.unwrap_or_else(|| RunSpec::baseline(bench, spec.width).dq);
    Ok(spec)
}

/// Parses a `--width`, `--dq` or `--regs` value, `dataflow`'s
/// `--window`, or the matrix commands' `--commits`: the one check every
/// size passes, rejecting a size no machine, window or check can have (a
/// zero width, queue, window or commit budget, fewer registers than
/// [`MachineConfig::MIN_PHYS_REGS`]) as a usage error.
fn size_num(opt: &str, v: &str) -> Result<usize, String> {
    let n = parse_num(opt, v)?;
    size_min(opt, n as u64)?;
    Ok(n)
}

fn size_min(opt: &str, n: u64) -> Result<u64, String> {
    let min = if opt == "--regs" { MachineConfig::MIN_PHYS_REGS as u64 } else { 1 };
    match n {
        n if n < min => Err(format!("{opt} {n} is below the minimum of {min}")),
        n => Ok(n),
    }
}

/// Checks a `check`, `model` or `profile` commit budget, from
/// `--commits` or `RF_COMMITS`, against [`size_num`]'s minimum of 1: a
/// matrix run of no commits has nothing to check or model.
pub fn commit_budget(n: u64) -> Result<u64, String> {
    size_min("--commits", n)
}

fn parse_exceptions(v: &str) -> Result<ExceptionModel, String> {
    match v {
        "precise" => Ok(ExceptionModel::Precise),
        "imprecise" => Ok(ExceptionModel::Imprecise),
        "alpha-hybrid" => Ok(ExceptionModel::AlphaHybrid),
        other => Err(format!("unknown exception model {other:?}")),
    }
}

fn parse_num<T: std::str::FromStr>(opt: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid value {v:?} for {opt}"))
}

/// The `--bench` value, if given. The one check of a benchmark name: an
/// unknown one is a usage error on every command that takes `--bench`.
fn take_bench(opts: &[(String, Option<String>)]) -> Result<Option<String>, String> {
    let bench = opts.iter().find(|(o, _)| o == "--bench").and_then(|(_, v)| v.clone());
    if let Some(b) = &bench {
        rf_workload::spec92::by_name(b).ok_or_else(|| format!("unknown benchmark {b:?}"))?;
    }
    Ok(bench)
}

/// Parses the pinnable matrix dimensions of `check` / `profile` /
/// `model` out of the collected option pairs.
fn parse_pins(opts: &[(String, Option<String>)]) -> Result<MatrixPins, String> {
    let take = |name: &str| -> Option<String> {
        opts.iter().find(|(o, _)| o == name).and_then(|(_, v)| v.clone())
    };
    Ok(MatrixPins {
        bench: take_bench(opts)?,
        width: take("--width").map(|v| size_num("--width", &v)).transpose()?,
        exceptions: take("--exceptions").map(|v| parse_exceptions(&v)).transpose()?,
        regs: take("--regs").map(|v| size_num("--regs", &v)).transpose()?,
        commits: take("--commits")
            .map(|v| parse_num("--commits", &v).and_then(commit_budget))
            .transpose()?,
        seed: take("--seed").map_or(Ok(DEFAULT_SEED), |v| parse_num("--seed", &v))?,
    })
}

fn parse_report_format(v: &str) -> Result<rf_obs::trend::Format, String> {
    match v {
        "text" => Ok(rf_obs::trend::Format::Text),
        "markdown" => Ok(rf_obs::trend::Format::Markdown),
        other => Err(format!("unknown report format {other:?} (expected text or markdown)")),
    }
}

fn parse_fidelity(v: &str) -> Result<rf_obs::trend::Mode, String> {
    match v {
        "gate" => Ok(rf_obs::trend::Mode::Gate),
        "warn" => Ok(rf_obs::trend::Mode::Warn),
        "off" => Ok(rf_obs::trend::Mode::Off),
        other => Err(format!("unknown --fidelity mode {other:?} (expected gate, warn, or off)")),
    }
}

/// The `--deadline-secs` value of `run`, `check`, `model` or `profile`.
fn parse_deadline(opts: &[(String, Option<String>)]) -> Result<Option<f64>, String> {
    opts.iter()
        .find(|(o, _)| o == "--deadline-secs")
        .and_then(|(_, v)| v.as_deref())
        .map(rf_experiments::runner::parse_deadline_secs)
        .transpose()
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, options, or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str).peekable();
    let cmd = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    // `store` is the one subcommand with a positional ACTION argument;
    // grab it before the option loop (which rejects bare words).
    let mut store_action: Option<String> = None;
    if cmd == "store" {
        if let Some(a) = it.peek() {
            if !a.starts_with("--") {
                store_action = it.next().map(str::to_owned);
            }
        }
    }
    // Collect option/value pairs.
    let mut opts: Vec<(String, Option<String>)> = Vec::new();
    while let Some(opt) = it.next() {
        if !opt.starts_with("--") {
            return Err(format!("unexpected argument {opt:?}"));
        }
        let value = if matches!(opt, "--split-queues" | "--check" | "--once") {
            None
        } else {
            it.next().map(str::to_owned)
        };
        opts.push((opt.to_owned(), value));
    }
    let take = |name: &str, opts: &[(String, Option<String>)]| -> Option<String> {
        opts.iter().find(|(o, _)| o == name).and_then(|(_, v)| v.clone())
    };

    match cmd {
        "list" => Ok(Command::List),
        "run" => {
            let bench = take_bench(&opts)?.ok_or("run requires --bench")?;
            Ok(Command::Run {
                deadline_secs: parse_deadline(&opts)?,
                spec: parse_spec(&bench, DEFAULT_COMMITS, &opts, &["--bench", "--deadline-secs"])?,
            })
        }
        "trace" => {
            let bench = take_bench(&opts)?.ok_or("trace requires --bench")?;
            Ok(Command::Trace {
                format: take("--format", &opts)
                    .map_or(Ok(TraceFormat::Summary), |v| TraceFormat::parse(&v))?,
                window: take("--window", &opts).map(|v| parse_num("--window", &v)).transpose()?,
                out: take("--out", &opts),
                spec: parse_spec(
                    &bench,
                    10_000,
                    &opts,
                    &["--bench", "--format", "--window", "--out"],
                )?,
            })
        }
        "record" => Ok(Command::Record {
            bench: take_bench(&opts)?.ok_or("record requires --bench")?,
            out: take("--out", &opts).ok_or("record requires --out")?,
            count: take("--count", &opts).map_or(Ok(1_000_000), |v| parse_num("--count", &v))?,
            seed: take("--seed", &opts).map_or(Ok(RUN_SEED), |v| parse_num("--seed", &v))?,
        }),
        "replay" => {
            let trace = take("--trace", &opts).ok_or("replay requires --trace")?;
            if opts.iter().any(|(o, _)| o == "--seed") {
                return Err("replay takes its seed from the trace file; --seed applies to record"
                    .into());
            }
            Ok(Command::Replay { spec: parse_spec("", 0, &opts, &["--trace"])?, trace })
        }
        "check" => Ok(Command::Check {
            pins: parse_pins(&opts)?,
            deadline_secs: parse_deadline(&opts)?,
        }),
        "model" => Ok(Command::Model {
            pins: parse_pins(&opts)?,
            check: opts.iter().any(|(o, _)| o == "--check"),
            format: take("--format", &opts)
                .map_or(Ok(ModelFormat::Text), |v| ModelFormat::parse(&v))?,
            deadline_secs: parse_deadline(&opts)?,
        }),
        "dataflow" => Ok(Command::Dataflow {
            bench: take_bench(&opts)?.ok_or("dataflow requires --bench")?,
            window: take("--window", &opts).map(|v| size_num("--window", &v)).transpose()?,
            count: take("--count", &opts).map_or(Ok(200_000), |v| parse_num("--count", &v))?,
        }),
        "report" => {
            const KNOWN: [&str; 8] = [
                "--ledger", "--baseline", "--window", "--format", "--out", "--check",
                "--max-regress-pct", "--fidelity",
            ];
            if let Some((o, _)) = opts.iter().find(|(o, _)| !KNOWN.contains(&o.as_str())) {
                return Err(format!("unknown option {o:?} for report"));
            }
            let defaults = rf_obs::trend::Options::default();
            let max_regress_pct = take("--max-regress-pct", &opts)
                .map(|v| {
                    parse_num("--max-regress-pct", &v)
                        .ok()
                        .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                        .ok_or_else(|| {
                            format!("--max-regress-pct {v:?} is not a finite percentage >= 0")
                        })
                })
                .transpose()?;
            Ok(Command::Report {
                ledger: take("--ledger", &opts)
                    .unwrap_or_else(|| rf_obs::ledger::LEDGER_PATH.to_owned()),
                format: take("--format", &opts)
                    .map_or(Ok(rf_obs::trend::Format::Text), |v| parse_report_format(&v))?,
                out: take("--out", &opts),
                check: opts.iter().any(|(o, _)| o == "--check"),
                opts: rf_obs::trend::Options {
                    baseline: take("--baseline", &opts),
                    window: take("--window", &opts)
                        .map_or(Ok(defaults.window), |v| size_num("--window", &v))?,
                    max_regress_pct: max_regress_pct.unwrap_or(defaults.max_regress_pct),
                    fidelity: take("--fidelity", &opts)
                        .map_or(Ok(defaults.fidelity), |v| parse_fidelity(&v))?,
                },
            })
        }
        "profile" => Ok(Command::Profile {
            pins: parse_pins(&opts)?,
            format: take("--format", &opts)
                .map_or(Ok(ProfileFormat::Text), |v| ProfileFormat::parse(&v))?,
            top: take("--top", &opts).map_or(Ok(20), |v| parse_num("--top", &v))?,
            out: take("--out", &opts),
            deadline_secs: parse_deadline(&opts)?,
        }),
        "top" => {
            if let Some((o, _)) = opts.iter().find(|(o, _)| {
                !matches!(o.as_str(), "--file" | "--interval-ms" | "--once")
            }) {
                return Err(format!("unknown option {o:?} for top"));
            }
            let interval_ms: u64 = take("--interval-ms", &opts)
                .map_or(Ok(500), |v| parse_num("--interval-ms", &v))?;
            if interval_ms == 0 {
                return Err("--interval-ms must be a positive number of milliseconds".into());
            }
            Ok(Command::Top {
                file: take("--file", &opts)
                    .unwrap_or_else(|| rf_obs::live::LIVE_PATH.to_owned()),
                interval_ms,
                once: opts.iter().any(|(o, _)| o == "--once"),
            })
        }
        "store" => {
            let action = store_action
                .ok_or("store requires an action: stats, verify, compact, or gc")?;
            Ok(Command::Store {
                action: StoreAction::parse(&action)?,
                dir: take("--dir", &opts),
            })
        }
        "timing" => Ok(Command::Timing {
            width: take("--width", &opts).map_or(Ok(4), |v| parse_num("--width", &v))?,
        }),
        "dump" => Ok(Command::Dump {
            trace: take("--trace", &opts).ok_or("dump requires --trace")?,
            count: take("--count", &opts).map_or(Ok(0), |v| parse_num("--count", &v))?,
        }),
        other => Err(format!("unknown command {other:?}; try `rfstudy help`")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
rfstudy — register-file design study simulator (HPCA'96 reproduction)

USAGE:
  rfstudy list
  rfstudy run      --bench NAME [--commits N] [--deadline-secs S]
                   [machine options]
  rfstudy trace    --bench NAME [--commits N] [--format chrome|text|summary]
                   [--window CYCLES] [--out FILE] [machine options]
  rfstudy record   --bench NAME --out FILE [--count N] [--seed N (default 1)]
  rfstudy replay   --trace FILE [--commits N] [machine options]
  rfstudy check    [--bench NAME] [--width N] [--exceptions MODEL]
                   [--regs N] [--commits N] [--seed N] [--deadline-secs S]
  rfstudy model    [--bench NAME] [--width N] [--exceptions MODEL]
                   [--regs N] [--commits N] [--seed N] [--check]
                   [--format text|json] [--deadline-secs S]
  rfstudy dataflow --bench NAME [--window N] [--count N]
  rfstudy report   [--ledger FILE] [--baseline REV | --window N]
                   [--format text|markdown] [--out FILE] [--check]
                   [--max-regress-pct P] [--fidelity gate|warn|off]
  rfstudy profile  [--bench NAME] [--width N] [--exceptions MODEL]
                   [--regs N] [--commits N] [--seed N]
                   [--format flame|json|text] [--top N] [--out FILE]
                   [--deadline-secs S]
  rfstudy top      [--file FILE] [--interval-ms N] [--once]
  rfstudy store    stats|verify|compact|gc [--dir DIR]
  rfstudy timing   [--width N]
  rfstudy dump     --trace FILE [--count N]
  rfstudy help

MACHINE OPTIONS:
  --width N             issue width (default 4, at least 1)
  --dq N                dispatch-queue entries (default 8 x width, at least 1)
  --regs N              physical registers per class (default 2048, at
                        least 32)
  --exceptions MODEL    precise | imprecise | alpha-hybrid
  --cache ORG           perfect | lockup | lockup-free
  --sched POLICY        oldest-first | youngest-first
  --predictor KIND      bimodal | gshare | combining
  --split-queues        split the dispatch queue (extension)
  --seed N              workload seed (default 1; run and trace only:
                        replay takes the benchmark and seed from the
                        trace file)

RUN OPTIONS:
  --deadline-secs S     wall-clock budget in seconds for the trace fill
                        and the simulation; an overrunning simulation is
                        cancelled cooperatively (its partial statistics
                        are discarded) and rfstudy exits 1

TRACE OPTIONS:
  --format FMT          chrome (Perfetto-loadable trace-event JSON),
                        text (per-instruction cycle timeline), or
                        summary (stall attribution + latency percentiles,
                        reconciled against the simulator statistics)
  --window CYCLES       keep only the last CYCLES cycles of per-instruction
                        detail (aggregates always cover the whole run)
  --out FILE            write the export to FILE instead of stdout

CHECK OPTIONS:
  without options, checks all nine benchmarks at widths 4 and 8, precise
  and imprecise exceptions, 2048 and 64 registers; each option pins one
  dimension (--width and --regs take the machine options' minimums).
  --commits defaults to the RF_COMMITS environment variable, or 10000;
  --seed defaults to 12. --deadline-secs bounds the wall time of the whole matrix
  (an overrunning run is cancelled and rfstudy exits 1). Exits non-zero
  if any invariant or static bound is violated.

MODEL OPTIONS:
  evaluates the static analytic model (rf-model) over the same pinnable
  matrix as `rfstudy check` (--commits and --seed default as there) —
  no simulation, microseconds per configuration. --format text (default) prints one line per
  configuration; json prints an array of estimate objects. With
  --check, every configuration is additionally simulated and the model
  prediction is compared against the measurement: exits non-zero when
  the mean absolute IPC error, any single configuration's error, or a
  register-pressure bracket leaves the accepted bands. --deadline-secs
  bounds the wall time of the --check simulation batch (overrunning
  configurations fail and rfstudy exits 1).

DATAFLOW OPTIONS:
  prints the dataflow ILP limit (perfect prediction and memory,
  unlimited units and registers) of the first --count instructions
  (default 200000) of the benchmark's trace at the fixed seed 1, not
  the suite's seed 12 that results/dataflow.txt analyses. --window N
  (at least 1) makes instruction i wait for instruction i - N to
  finish; without it the limit is unbounded.

REPORT OPTIONS:
  reads the run-history ledger written by the `all` suite binary
  (default results/history/suite.jsonl) and compares the latest record
  against a baseline: --baseline REV pins a git-revision prefix, else
  the rolling median of the last --window comparable runs (default 5,
  at least 1). Also scores the latest headline numbers against the
  paper-fidelity targets. --format text (default) renders aligned
  tables, markdown renders the same tables as pipes; --out FILE writes
  the report instead of stdout. --check exits non-zero on a perf
  regression beyond --max-regress-pct (a finite percentage >= 0,
  default 10, widened per harness by run-to-run noise) or a fidelity
  drift outside the accepted band (--fidelity warn reports drift
  without gating, off skips it). When ledger records carry rf-prof
  self-profiles, a profile-drift section tracks each span's share of
  suite self time vs the baseline window; like the analytic-model
  row, its out-of-band shifts only ever warn.

PROFILE OPTIONS:
  forces the rf-prof self-profiler on, runs the check matrix (same
  pinnable dimensions as `rfstudy check`; --commits defaults to
  RF_COMMITS or 10000, --seed to 12), and renders where the wall time went:
  --format text (default) is a table of the --top N hottest spans
  plus a coverage line, flame is collapsed-stack text every standard
  flamegraph renderer loads, json is the ledger's profile-tree
  encoding. --out FILE writes the rendering instead of stdout.
  --deadline-secs bounds the wall time of the instrumented batch
  (an overrunning run is cancelled and rfstudy exits 1).

TOP OPTIONS:
  attaches to the live telemetry stream a suite run started with
  RF_TELEMETRY=1 writes (default results/telemetry/live.jsonl; --file
  overrides) and renders an in-place terminal view: per-worker
  utilization bars, sims in flight / done / failed, commits per second,
  cache hit rate, and the suite's specs answered of specs planned with
  an ETA at the stream's own answer rate. --interval-ms sets the
  refresh period (default 500). --once renders a single frame and
  exits — useful in scripts and CI.

STORE OPTIONS:
  operates on the durable content-addressed run store that suite runs
  populate under RF_STORE=1 (--dir overrides the directory; default
  RF_STORE_DIR or results/store). stats prints snapshot statistics:
  live entries, records scanned, segments, bytes, torn/corrupt tails
  skipped, the per-schema mix and the record-format mix (RFR1 records
  predate the current RFR2 format). verify re-reads and checksums every
  live record and exits 1 if any record fails. compact rewrites the
  store down to its latest record per digest (dropping superseded
  writes and torn tails), every record in the RFR2 format. gc
  additionally drops records written under a stale key-schema version.

EXIT STATUS:
  0  success
  1  runtime failure (simulation error, sanitizer violation, failed
     check/report gate, store verification failure, exceeded
     --deadline-secs)
  2  usage error (unknown command or option, malformed value or RF_*
     variable, a `top` attach to a stream file that does not exist)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_run_with_machine_options() {
        let cmd = parse(&argv(
            "run --bench tomcatv --commits 5000 --width 8 --regs 128 \
             --exceptions imprecise --cache perfect --split-queues",
        ))
        .unwrap();
        match cmd {
            Command::Run { spec, deadline_secs } => {
                assert_eq!(spec.benchmark, "tomcatv");
                assert_eq!(spec.commits, 5000);
                assert_eq!(spec.seed, RUN_SEED);
                assert_eq!(deadline_secs, None);
                assert_eq!(spec.width, 8);
                assert_eq!(spec.regs, 128);
                assert_eq!(spec.exceptions, ExceptionModel::Imprecise);
                assert_eq!(spec.cache, CacheOrg::Perfect);
                assert!(spec.split_dq);
                assert_eq!(spec.dq, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_defaults_to_the_baseline_at_run_seed() {
        match parse(&argv("run --bench ora")).unwrap() {
            Command::Run { spec, .. } => {
                assert_eq!(spec, RunSpec { seed: RUN_SEED, ..RunSpec::baseline("ora", 4) });
                assert_eq!(spec.commits, DEFAULT_COMMITS);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dq_defaults_to_the_final_width_in_any_option_order() {
        let dq = |args: &str| match parse(&argv(&format!("run --bench ora {args}"))).unwrap() {
            Command::Run { spec, .. } => spec.dq,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(dq("--dq 16 --width 8"), 16);
        assert_eq!(dq("--width 8 --dq 16"), 16);
        assert_eq!(dq("--width 8"), 64);
    }

    #[test]
    fn run_requires_bench() {
        assert!(parse(&argv("run --commits 100")).is_err());
    }

    #[test]
    fn run_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("run --bench ora --deadline-secs 1.5")).unwrap() {
            Command::Run { deadline_secs, .. } => assert_eq!(deadline_secs, Some(1.5)),
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err =
                parse(&argv(&format!("run --bench ora --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_record_and_replay() {
        let cmd = parse(&argv("record --bench gcc1 --out /tmp/t.rft --count 42")).unwrap();
        assert_eq!(
            cmd,
            Command::Record {
                bench: "gcc1".into(),
                out: "/tmp/t.rft".into(),
                count: 42,
                seed: 1
            }
        );
        let cmd = parse(&argv("replay --trace /tmp/t.rft --regs 64")).unwrap();
        match cmd {
            Command::Replay { trace, spec } => {
                assert_eq!(trace, "/tmp/t.rft");
                assert_eq!(spec.commits, 0);
                assert_eq!(spec.regs, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("replay --trace /tmp/t.rft --seed 3")).unwrap_err();
        assert!(err.contains("seed from the trace file"), "{err}");
    }

    #[test]
    fn parses_dataflow_and_timing() {
        let cmd = parse(&argv("dataflow --bench ora --window 64")).unwrap();
        assert_eq!(
            cmd,
            Command::Dataflow { bench: "ora".into(), window: Some(64), count: 200_000 }
        );
        assert_eq!(parse(&argv("timing --width 8")).unwrap(), Command::Timing { width: 8 });
    }

    #[test]
    fn parses_check_with_and_without_options() {
        match parse(&argv("check")).unwrap() {
            Command::Check { pins, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.width, None);
                assert_eq!(pins.exceptions, None);
                assert_eq!(pins.regs, None);
                assert_eq!(pins.commits, None);
                assert_eq!(pins.seed, DEFAULT_SEED);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "check --bench compress --width 8 --exceptions imprecise --regs 64 \
             --commits 2000 --seed 7",
        ))
        .unwrap()
        {
            Command::Check { pins, .. } => {
                assert_eq!(pins.bench.as_deref(), Some("compress"));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(2000));
                assert_eq!(pins.seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("check --exceptions bogus")).is_err());
    }

    #[test]
    fn check_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("check --bench ora --deadline-secs 2.5")).unwrap() {
            Command::Check { deadline_secs, .. } => assert_eq!(deadline_secs, Some(2.5)),
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err = parse(&argv(&format!("check --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_model_with_pins_check_and_format() {
        match parse(&argv("model")).unwrap() {
            Command::Model { pins, check, format, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.seed, DEFAULT_SEED);
                assert!(!check);
                assert_eq!(format, ModelFormat::Text);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "model --bench tomcatv --width 8 --exceptions imprecise --regs 64 \
             --commits 3000 --seed 5 --check --format json",
        ))
        .unwrap()
        {
            Command::Model { pins, check, format, .. } => {
                assert_eq!(pins.bench.as_deref(), Some("tomcatv"));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(3000));
                assert_eq!(pins.seed, 5);
                assert!(check);
                assert_eq!(format, ModelFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("model --format xml")).unwrap_err();
        assert!(err.contains("text or json"), "{err}");
    }

    #[test]
    fn model_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("model --check --deadline-secs 4.5")).unwrap() {
            Command::Model { check, deadline_secs, .. } => {
                assert!(check);
                assert_eq!(deadline_secs, Some(4.5));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err =
                parse(&argv(&format!("model --check --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn matrix_pins_expand_the_shared_check_matrix() {
        // Unpinned: the full 9 x 2 x 2 x 2 matrix, in bench-major order.
        let pins = MatrixPins {
            bench: None,
            width: None,
            exceptions: None,
            regs: None,
            commits: Some(500),
            seed: 12,
        };
        let params = pins.expand(MATRIX_COMMITS);
        assert_eq!(params.len(), 72);
        assert!(params.iter().all(|p| p.commits == 500 && p.seed == 12));
        assert_eq!(params[0].width, 4);
        assert_eq!(params[0].regs, 2048);
        // Pinning every dimension yields exactly one configuration.
        let pinned = MatrixPins {
            bench: Some("compress".into()),
            width: Some(8),
            exceptions: Some(ExceptionModel::Imprecise),
            regs: Some(64),
            commits: Some(100),
            seed: 3,
        };
        let params = pinned.expand(MATRIX_COMMITS);
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].bench, "compress");
        assert_eq!(params[0].width, 8);
        assert_eq!(params[0].exceptions, ExceptionModel::Imprecise);
        assert_eq!(params[0].regs, 64);
        // Without --commits the caller's default applies.
        let unbudgeted = MatrixPins { commits: None, ..pins };
        assert!(unbudgeted.expand(700).iter().all(|p| p.commits == 700));
    }

    #[test]
    fn expand_substitutes_pins_into_the_check_matrix() {
        let unpinned = MatrixPins {
            bench: None,
            width: None,
            exceptions: None,
            regs: None,
            commits: None,
            seed: 5,
        };
        assert_eq!(unpinned.expand(900), rf_check::default_matrix(900, 5));
        // A pinned size outside the matrix replaces both of its sizes.
        let params = MatrixPins { regs: Some(96), ..unpinned }.expand(900);
        let expected: Vec<_> = rf_check::default_matrix(900, 5)
            .into_iter()
            .filter(|p| p.regs == 2048)
            .map(|p| rf_check::CheckParams { regs: 96, ..p })
            .collect();
        assert_eq!(params.len(), 36);
        assert_eq!(params, expected);
    }

    #[test]
    fn an_unknown_benchmark_is_rejected_where_bench_is_parsed() {
        for cmd in [
            "run --bench nope",
            "trace --bench nope",
            "record --bench nope --out t.rft",
            "dataflow --bench nope",
            "check --bench nope",
            "model --bench nope",
            "profile --bench nope",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert_eq!(err, "unknown benchmark \"nope\"", "{cmd}");
        }
    }

    #[test]
    fn parses_report_with_defaults() {
        match parse(&argv("report")).unwrap() {
            Command::Report { ledger, format, out, check, opts } => {
                assert_eq!(ledger, rf_obs::ledger::LEDGER_PATH);
                assert_eq!(format, rf_obs::trend::Format::Text);
                assert_eq!(out, None);
                assert!(!check);
                assert_eq!(opts, rf_obs::trend::Options::default());
                assert_eq!(opts.window, 5);
                assert_eq!(opts.max_regress_pct, 10.0);
                assert_eq!(opts.fidelity, rf_obs::trend::Mode::Gate);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_report_with_all_options() {
        match parse(&argv(
            "report --ledger /tmp/l.jsonl --baseline abc123 --window 9 \
             --format markdown --out /tmp/r.md --check \
             --max-regress-pct 25 --fidelity warn",
        ))
        .unwrap()
        {
            Command::Report { ledger, format, out, check, opts } => {
                assert_eq!(ledger, "/tmp/l.jsonl");
                assert_eq!(opts.baseline.as_deref(), Some("abc123"));
                assert_eq!(opts.window, 9);
                assert_eq!(format, rf_obs::trend::Format::Markdown);
                assert_eq!(out.as_deref(), Some("/tmp/r.md"));
                assert!(check);
                assert_eq!(opts.max_regress_pct, 25.0);
                assert_eq!(opts.fidelity, rf_obs::trend::Mode::Warn);
            }
            other => panic!("unexpected {other:?}"),
        }
        for (cmd, err) in [
            ("report --format xml", "unknown report format \"xml\" (expected text or markdown)"),
            ("report --fidelity maybe", "unknown --fidelity mode \"maybe\" (expected gate, warn, or off)"),
            ("report --window abc", "invalid value \"abc\" for --window"),
            ("report --window 0", "--window 0 is below the minimum of 1"),
            ("report --prom /tmp/r.prom", "unknown option \"--prom\" for report"),
            ("report --band-scale 3", "unknown option \"--band-scale\" for report"),
            ("report --profile-drift gate", "unknown option \"--profile-drift\" for report"),
        ] {
            assert_eq!(parse(&argv(cmd)).unwrap_err(), err, "{cmd}");
        }
        // A threshold must be a finite percentage: `inf` would never fire.
        for v in ["inf", "NaN", "-5", "x"] {
            let err = parse(&argv(&format!("report --max-regress-pct {v}"))).unwrap_err();
            assert_eq!(err, format!("--max-regress-pct {v:?} is not a finite percentage >= 0"));
        }
        match parse(&argv("report --max-regress-pct 0 --window 1")).unwrap() {
            Command::Report { opts, .. } => {
                assert_eq!((opts.max_regress_pct, opts.window), (0.0, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_profile_with_defaults_and_pins() {
        match parse(&argv("profile")).unwrap() {
            Command::Profile { pins, format, top, out, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.width, None);
                assert_eq!(pins.exceptions, None);
                assert_eq!(pins.regs, None);
                assert_eq!(pins.commits, None);
                assert_eq!(pins.seed, DEFAULT_SEED);
                assert_eq!(format, ProfileFormat::Text);
                assert_eq!(top, 20);
                assert_eq!(out, None);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "profile --bench tomcatv --width 8 --exceptions imprecise --regs 64 \
             --commits 3000 --seed 5 --format flame --top 7 --out /tmp/p.folded",
        ))
        .unwrap()
        {
            Command::Profile { pins, format, top, out, .. } => {
                assert_eq!(pins.bench.as_deref(), Some("tomcatv"));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(3000));
                assert_eq!(pins.seed, 5);
                assert_eq!(format, ProfileFormat::Flame);
                assert_eq!(top, 7);
                assert_eq!(out.as_deref(), Some("/tmp/p.folded"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("profile --format xml")).unwrap_err();
        assert!(err.contains("flame, json, or text"), "{err}");
    }

    #[test]
    fn profile_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("profile --bench ora --deadline-secs 3.5")).unwrap() {
            Command::Profile { deadline_secs, .. } => assert_eq!(deadline_secs, Some(3.5)),
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err = parse(&argv(&format!("profile --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_top_with_defaults_and_options() {
        match parse(&argv("top")).unwrap() {
            Command::Top { file, interval_ms, once } => {
                assert_eq!(file, rf_obs::live::LIVE_PATH);
                assert_eq!(interval_ms, 500);
                assert!(!once);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "top --file /tmp/live.jsonl --interval-ms 100 --once",
        ))
        .unwrap()
        {
            Command::Top { file, interval_ms, once } => {
                assert_eq!(file, "/tmp/live.jsonl");
                assert_eq!(interval_ms, 100);
                assert!(once);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("top --interval-ms 0")).is_err());
        assert!(parse(&argv("top --interval-ms fast")).is_err());
        let err = parse(&argv("top --once --bogus")).unwrap_err();
        assert!(err.contains("unknown option \"--bogus\""), "{err}");
    }

    #[test]
    fn parses_store_actions_and_rejects_junk() {
        assert_eq!(
            parse(&argv("store stats")).unwrap(),
            Command::Store { action: StoreAction::Stats, dir: None }
        );
        assert_eq!(
            parse(&argv("store verify --dir /tmp/store")).unwrap(),
            Command::Store { action: StoreAction::Verify, dir: Some("/tmp/store".into()) }
        );
        assert_eq!(
            parse(&argv("store compact")).unwrap(),
            Command::Store { action: StoreAction::Compact, dir: None }
        );
        assert_eq!(
            parse(&argv("store gc")).unwrap(),
            Command::Store { action: StoreAction::Gc, dir: None }
        );
        let err = parse(&argv("store")).unwrap_err();
        assert!(err.contains("requires an action"), "{err}");
        let err = parse(&argv("store defrag")).unwrap_err();
        assert!(err.contains("unknown store action"), "{err}");
        assert!(parse(&argv("store stats extra")).is_err());
    }

    #[test]
    fn parses_dump() {
        let cmd = parse(&argv("dump --trace x.rft --count 10")).unwrap();
        assert_eq!(cmd, Command::Dump { trace: "x.rft".into(), count: 10 });
    }

    #[test]
    fn parses_trace_with_all_options() {
        let cmd = parse(&argv(
            "trace --bench tomcatv --commits 2000 --format chrome --window 500 \
             --out /tmp/trace.json --regs 64 --exceptions imprecise",
        ))
        .unwrap();
        match cmd {
            Command::Trace { spec, format, window, out } => {
                assert_eq!(spec.benchmark, "tomcatv");
                assert_eq!(spec.commits, 2000);
                assert_eq!(format, TraceFormat::Chrome);
                assert_eq!(window, Some(500));
                assert_eq!(out.as_deref(), Some("/tmp/trace.json"));
                assert_eq!(spec.regs, 64);
                assert_eq!(spec.exceptions, ExceptionModel::Imprecise);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_defaults_to_summary_on_stdout() {
        match parse(&argv("trace --bench ora")).unwrap() {
            Command::Trace { spec, format, window, out } => {
                assert_eq!(spec.commits, 10_000);
                assert_eq!(format, TraceFormat::Summary);
                assert_eq!(window, None);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_rejects_unknown_format_with_an_error() {
        let err = parse(&argv("trace --bench ora --format xml")).unwrap_err();
        assert!(err.contains("unknown trace format"), "{err}");
        assert!(err.contains("chrome, text, or summary"), "{err}");
        assert!(parse(&argv("trace --format chrome")).is_err(), "bench is required");
        assert!(parse(&argv("trace --bench ora --window abc")).is_err());
    }

    #[test]
    fn usage_lists_every_subcommand() {
        for sub in [
            "list", "run", "trace", "record", "replay", "check", "model", "dataflow",
            "report", "profile", "top", "store", "timing", "dump",
        ] {
            assert!(USAGE.contains(&format!("rfstudy {sub}")), "usage missing {sub}");
        }
        assert!(USAGE.contains(&format!("--seed N (default {RUN_SEED})")));
        assert!(USAGE.contains(&format!("workload seed (default {RUN_SEED};")));
        assert!(USAGE.contains(&format!("--seed defaults to {DEFAULT_SEED}.")));
        let dataflow_seeds = format!("fixed seed {RUN_SEED}, not\n  the suite's seed {DEFAULT_SEED}");
        assert!(USAGE.contains(&dataflow_seeds));
    }

    #[test]
    fn rejects_junk() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --bench ora --exceptions nonsense")).is_err());
        assert!(parse(&argv("run --bench ora --width abc")).is_err());
        assert!(parse(&argv("run bench")).is_err());
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }
}
