//! Argument parsing for the `rfstudy` command-line simulator.
//!
//! Every subcommand declares its options once, as an
//! [`rf_experiments::args::Grammar`]: each option with its default and
//! the values it accepts. One parser checks a command line against that
//! table and reads the defaults from it, and [`usage`] renders the help
//! from it. See `main.rs` for the command implementations and `rfstudy
//! help` for usage.

use rf_bpred::PredictorKind;
use rf_core::{ExceptionModel, MachineConfig, RunSpec, SchedPolicy, DEFAULT_COMMITS, DEFAULT_SEED};
use rf_experiments::args::{at_least, choice, commit_budget, Args, Grammar, Group, Opt, DEADLINE};
use rf_experiments::runner::parse_deadline_secs;
use rf_mem::CacheOrg;
use rf_obs::trend::{Format, Mode};
use std::fmt;

/// The workload seed `run`, `trace` and `record` default to, and the
/// one `dataflow` always analyses.
pub const RUN_SEED: u64 = 1;

/// The issue width `run`, `trace`, `replay` and `timing` default to.
const WIDTH: usize = 4;

/// `ALL` and the `Display` of a CLI-only choice: the one place its
/// names are spelt.
macro_rules! named {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Every value, in usage order.
            pub const ALL: [Self; [$($name),+].len()] = [$(Self::$variant),+];
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self { $(Self::$variant => $name),+ })
            }
        }
    };
}

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

/// Output format of the `model` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// Aligned text table, one configuration per line.
    Text,
    /// JSON array of per-configuration estimate objects.
    Json,
}

named!(TraceFormat { Chrome => "chrome", Text => "text", Summary => "summary" });
named!(ProfileFormat { Flame => "flame", Json => "json", Text => "text" });
named!(ModelFormat { Text => "text", Json => "json" });

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
    /// The runs of the check matrix ([`rf_check::default_matrix`]) with
    /// each pinned dimension substituted, duplicates dropped, in matrix
    /// order; `default_commits` applies when `--commits` is absent.
    pub fn expand(&self, default_commits: u64) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for p in rf_check::default_matrix(self.commits.unwrap_or(default_commits), self.seed) {
            let spec = rf_check::CheckParams {
                bench: self.bench.clone().unwrap_or(p.bench),
                width: self.width.unwrap_or(p.width),
                exceptions: self.exceptions.unwrap_or(p.exceptions),
                regs: self.regs.unwrap_or(p.regs),
                ..p
            }
            .spec();
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
        specs
    }
}

/// Maintenance action of the `store` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Print snapshot statistics (records, segments, the current answer
    /// generation and the schema mix).
    Stats,
    /// Re-read and checksum-verify every live record; exit nonzero on
    /// corruption.
    Verify,
    /// Rewrite the store down to its latest record per digest of the
    /// current answer generation.
    Compact,
}

named!(StoreAction { Stats => "stats", Verify => "verify", Compact => "compact" });

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available benchmark profiles.
    List,
    /// Simulate a benchmark with the pipeline observer attached and
    /// export the recorded trace.
    Trace {
        /// The run: benchmark, commit budget and machine.
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
        /// Ledger path.
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
        /// Telemetry stream path.
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
    /// Print the usage of one command (`None` = of every command).
    Help(Option<&'static str>),
}

const BENCH: Opt = Opt::new("--bench NAME", "benchmark (`rfstudy list` names them)");
const SEED: Opt =
    Opt::new("[--seed N]", "workload seed (default {default}; replay reads the file's)")
        .default(&RUN_SEED);
const OUT: Opt = Opt::new("[--out FILE]", "write to FILE instead of stdout");

/// The machine options of `run`, `trace` and `replay`.
const MACHINE: Group = Group {
    title: Some("machine options"),
    opts: &[
        Opt::new("[--width N]", "issue width (default {default}, at least 1)").default(&WIDTH),
        Opt::new("[--dq N]", "dispatch-queue entries (default {default} x width, at least 1)")
            .default(&MachineConfig::DQ_PER_WIDTH),
        Opt::new("[--regs N]", "registers per class (default {default}, at least 32)")
            .default(&MachineConfig::BASELINE_PHYS_REGS),
        Opt::new("[--exceptions MODEL]", "{a | b}").choices(&ExceptionModel::ALL),
        Opt::new("[--cache ORG]", "{a | b}").choices(&CacheOrg::ALL),
        Opt::new("[--sched POLICY]", "{a | b}").choices(&SchedPolicy::ALL),
        Opt::new("[--predictor KIND]", "{a | b}").choices(&PredictorKind::ALL),
        Opt::new("[--split-queues]", "split the dispatch queue (extension)"),
    ],
};

/// The matrix pins of `check`, `model` and `profile`.
const MATRIX: Group = Group {
    title: Some("matrix options"),
    opts: &[
        Opt::new("[--bench NAME]", "one benchmark (default all nine)"),
        Opt::new("[--width N]", "one issue width (default 4 and 8, at least 1)"),
        Opt::new("[--exceptions MODEL]", "one exception model (default precise and imprecise)"),
        Opt::new("[--regs N]", "one register count (default 2048 and 64, at least 32)"),
        // `RF_COMMITS` overrides this default, so `main` applies it.
        Opt::new("[--commits N]", "commits per configuration (default RF_COMMITS or {default})")
            .default(&MATRIX_COMMITS),
        Opt::new("[--seed N]", "workload seed (default {default})").default(&DEFAULT_SEED),
    ],
};

/// Every subcommand, in usage order.
#[rustfmt::skip]
static COMMANDS: [Grammar; 15] = [
    Grammar::new("list", &[]),
    Grammar::new("run", &[
        Group::of(&[
            BENCH,
            Opt::new("[--commits N]", "instructions to commit (default {default})")
                .default(&DEFAULT_COMMITS),
            SEED,
        ]),
        DEADLINE,
        MACHINE,
    ])
    .about(
        "  the deadline also bounds the trace fill; a cancelled run's partial
  statistics are discarded.
",
    ),
    Grammar::new("trace", &[
        Group::of(&[
            BENCH,
            Opt::new("[--commits N]", "instructions to commit (default {default})")
                .default(&10_000u64),
            SEED,
            Opt::new("[--format {a|b}]", "export format (default {default})")
                .choices(&TraceFormat::ALL).default(&TraceFormat::Summary),
            Opt::new("[--window CYCLES]", "keep the last CYCLES cycles of detail (at least 1)"),
            OUT,
        ]),
        MACHINE,
    ])
    .about(
        "  chrome is Perfetto-loadable trace-event JSON, text a per-instruction
  cycle timeline, summary the stall attribution and latency percentiles
  reconciled against the simulator statistics. Aggregates always cover
  the whole run.
",
    ),
    Grammar::new("record", &[Group::of(&[
        BENCH,
        Opt::new("--out FILE", "trace file to write"),
        Opt::new("[--count N]", "instructions to record (default {default})")
            .default(&1_000_000u64),
        Opt::new("[--seed N]", "workload seed").default(&RUN_SEED),
    ])])
    .about("  records the benchmark's workload at --seed N (default 1).\n"),
    Grammar::new("replay", &[
        Group::of(&[
            Opt::new("--trace FILE", "trace file (it names the benchmark and seed)"),
            Opt::new("[--commits N]", "instructions to commit (default {default}: the whole trace)")
                .default(&0u64),
        ]),
        MACHINE,
    ]),
    Grammar::new("check", &[MATRIX, DEADLINE]).about(
        "  without options, checks all nine benchmarks at widths 4 and 8, precise
  and imprecise exceptions, 2048 and 64 registers; each matrix option pins
  one dimension. --seed defaults to 12. --deadline-secs bounds the whole
  matrix. Exits non-zero if any invariant or static bound is violated.
",
    ),
    Grammar::new("model", &[
        MATRIX,
        Group::of(&[
            Opt::new("[--check]", "simulate every configuration and gate on the model's error"),
            Opt::new("[--format {a|b}]", "one line per configuration, or a JSON array")
                .choices(&ModelFormat::ALL).default(&ModelFormat::Text),
        ]),
        DEADLINE,
    ])
    .about(
        "  evaluates the static analytic model (rf-model) over the matrix of
  `rfstudy check`, microseconds per configuration. With --check, every
  configuration is also simulated: exits non-zero when the mean absolute
  IPC error, any single configuration's error, or a register-pressure
  bracket leaves the accepted bands. --deadline-secs bounds that batch.
",
    ),
    Grammar::new("dataflow", &[Group::of(&[
        BENCH,
        Opt::new("[--window N]", "instruction i waits for i - N to finish (at least 1)"),
        Opt::new("[--count N]", "instructions to analyse (default {default})").default(&200_000u64),
    ])])
    .about(
        "  prints the dataflow ILP limit (perfect prediction and memory,
  unlimited units and registers; unbounded without --window) of the
  benchmark's trace at the fixed seed 1, not
  the suite's seed 12 that results/dataflow.txt analyses.
",
    ),
    Grammar::new("report", &[Group::of(&[
        Opt::new("[--ledger FILE]", "ledger to read (default {default})")
            .default(&rf_obs::ledger::LEDGER_PATH),
        Opt::new("[--baseline REV]", "compare with the records of this git-revision prefix"),
        Opt::new("[--window N]", "else the last N comparable runs' median (default {default}, at least 1)")
            .default(&rf_obs::trend::Options::DEFAULT.window),
        Opt::new("[--format {a|b}]", "aligned tables (default), or the same as pipes")
            .choices(&Format::ALL).default(&Format::Text),
        OUT,
        Opt::new("[--check]", "exit non-zero on a perf regression or a fidelity drift"),
        Opt::new("[--max-regress-pct P]", "regression threshold (finite, >= 0, default {default})")
            .default(&rf_obs::trend::Options::DEFAULT.max_regress_pct),
        Opt::new("[--fidelity {a|b}]", "gate on fidelity drift (default), warn, or skip")
            .choices(&Mode::ALL),
    ])])
    .about(
        "  compares the latest record of the ledger the `all` suite binary
  writes with a baseline, and scores its headlines against the paper.
  The threshold is widened per harness by run-to-run noise. When records
  carry rf-prof self-profiles, a profile-drift section tracks each span's
  share of suite self time; like the analytic-model row, it only warns.
",
    ),
    Grammar::new("profile", &[
        MATRIX,
        Group::of(&[
            Opt::new("[--format {a|b}]", "render format (default {default})")
                .choices(&ProfileFormat::ALL).default(&ProfileFormat::Text),
            Opt::new("[--top N]", "rows in the text table (default {default})").default(&20usize),
            OUT,
        ]),
        DEADLINE,
    ])
    .about(
        "  forces the rf-prof self-profiler on, runs the check matrix, and renders
  where the wall time went: text is a table of the --top N hottest spans
  plus a coverage line, flame is collapsed-stack text every standard
  flamegraph renderer loads, json is the ledger's profile-tree encoding.
  --deadline-secs bounds the wall time of the instrumented batch.
",
    ),
    Grammar::new("top", &[Group::of(&[
        Opt::new("[--file FILE]", "stream to follow (default {default})")
            .default(&rf_obs::live::LIVE_PATH),
        Opt::new("[--interval-ms N]", "refresh period (default {default}, at least 1)")
            .default(&500usize),
        Opt::new("[--once]", "render a single frame and exit"),
    ])])
    .about(
        "  attaches to the live telemetry stream a suite run started with
  RF_TELEMETRY=1 writes and renders an in-place terminal view: per-worker
  utilization bars, sims in flight / done / failed, commits per second,
  cache hit rate, and the suite's specs answered of specs planned with an
  ETA at the stream's own answer rate.
",
    ),
    Grammar::new("store", &[Group::of(&[Opt::new(
        "[--dir DIR]",
        "store directory (default RF_STORE_DIR or {default})",
    )
    .default(&rf_experiments::runner::DEFAULT_STORE_DIR)])])
    .positional(Opt::new("ACTION", "an action: {a, b, or c}").choices(&StoreAction::ALL))
    .about(
        "  operates on the durable content-addressed run store that suite runs
  populate under RF_STORE=1. Every record carries the answer generation
  it was written under; only the current one is ever served. stats prints
  snapshot statistics: live entries, records scanned, segments, bytes,
  torn/corrupt tails skipped, the current generation and the per-schema
  mix. verify re-reads and checksums every live record and exits 1 if
  any record fails. compact rewrites the store down to the latest record
  per digest of the current generation, dropping superseded writes,
  older generations and damaged records.
",
    ),
    Grammar::new("timing", &[Group::of(&[
        Opt::new("[--width N]", "issue width (default {default})").default(&WIDTH),
    ])]),
    Grammar::new("dump", &[Group::of(&[
        Opt::new("--trace FILE", "trace file to print"),
        Opt::new("[--count N]", "instructions to print (default {default}: all)").default(&0u64),
    ])]),
    Grammar::new("help", &[]),
];

/// Parses a `--width`, `--dq`, `--regs`, `--window` or `--interval-ms`
/// value: the one check every size passes, rejecting a
/// size no machine, window or period can have (zero, or fewer registers
/// than [`MachineConfig::MIN_PHYS_REGS`]) as a usage error.
fn size_num(opt: &str, v: &str) -> Result<usize, String> {
    let min = if opt == "--regs" { MachineConfig::MIN_PHYS_REGS } else { 1 };
    Ok(at_least(opt, parse_num(opt, v)?, min as u64)? as usize)
}

fn parse_num<T: std::str::FromStr>(opt: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid value {v:?} for {opt}"))
}

/// The one check of a benchmark name: an unknown one is a usage error on
/// every command that takes `--bench`.
fn bench(_: &str, v: &str) -> Result<String, String> {
    rf_workload::spec92::by_name(v).ok_or_else(|| format!("unknown benchmark {v:?}"))?;
    Ok(v.to_owned())
}

fn text(_: &str, v: &str) -> Result<String, String> {
    Ok(v.to_owned())
}

/// The run of `run`, `trace` or `replay`: `bench`'s baseline at
/// `--width` and `--commits`, each machine option overriding one field,
/// `--dq` defaulting to the baseline queue of `--width`.
fn machine_spec(a: &Args, bench: &str) -> Result<RunSpec, String> {
    let base = RunSpec::baseline(bench, a.req("--width", size_num)?);
    Ok(RunSpec {
        dq: a.get("--dq", size_num)?.unwrap_or(base.dq),
        regs: a.req("--regs", size_num)?,
        commits: a.req("--commits", parse_num)?,
        exceptions: a
            .get("--exceptions", choice("exception model", &ExceptionModel::ALL))?
            .unwrap_or(base.exceptions),
        cache: a
            .get("--cache", choice("cache organisation", &CacheOrg::ALL))?
            .unwrap_or(base.cache),
        policy: a
            .get("--sched", choice("scheduler policy", &SchedPolicy::ALL))?
            .unwrap_or(base.policy),
        predictor: a
            .get("--predictor", choice("predictor", &PredictorKind::ALL))?
            .unwrap_or(base.predictor),
        split_dq: a.has("--split-queues"),
        seed: RUN_SEED,
        ..base
    })
}

/// [`machine_spec`] of `--bench` at `--seed`.
fn run_spec(a: &Args) -> Result<RunSpec, String> {
    let spec = machine_spec(a, &a.req("--bench", bench)?)?;
    Ok(RunSpec { seed: a.req("--seed", parse_num)?, ..spec })
}

/// The pinnable matrix dimensions of `check`, `profile` and `model`.
fn pins(a: &Args) -> Result<MatrixPins, String> {
    Ok(MatrixPins {
        bench: a.get("--bench", bench)?,
        width: a.get("--width", size_num)?,
        exceptions: a.get("--exceptions", choice("exception model", &ExceptionModel::ALL))?,
        regs: a.get("--regs", size_num)?,
        commits: a.get("--commits", |o, v| parse_num(o, v).and_then(commit_budget))?,
        seed: a.req("--seed", parse_num)?,
    })
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, options, or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) if !matches!(cmd.as_str(), "--help" | "-h") => (cmd.as_str(), rest),
        _ if args.len() > 1 => return Err(format!("unexpected argument {:?} for help", args[1])),
        _ => return Ok(Command::Help(None)),
    };
    let grammar = COMMANDS
        .iter()
        .find(|g| g.name == cmd)
        .ok_or_else(|| format!("unknown command {cmd:?}; try `rfstudy help`"))?;
    if cmd == "replay" && rest.iter().any(|w| w == "--seed") {
        return Err("replay takes its seed from the trace file; --seed applies to record".into());
    }
    let Some(a) = grammar.parse(rest)? else { return Ok(Command::Help(Some(grammar.name))) };
    let out = || a.value("--out").map(str::to_owned);
    let deadline_secs = || a.get("--deadline-secs", |_, v| parse_deadline_secs(v));
    Ok(match cmd {
        "list" => Command::List,
        "help" => Command::Help(None),
        "run" => Command::Run { spec: run_spec(&a)?, deadline_secs: deadline_secs()? },
        "trace" => Command::Trace {
            spec: run_spec(&a)?,
            format: a.req("--format", choice("trace format", &TraceFormat::ALL))?,
            window: a.get("--window", size_num)?.map(|w| w as u64),
            out: out(),
        },
        "record" => Command::Record {
            bench: a.req("--bench", bench)?,
            out: a.req("--out", text)?,
            count: a.req("--count", parse_num)?,
            seed: a.req("--seed", parse_num)?,
        },
        "replay" => Command::Replay { trace: a.req("--trace", text)?, spec: machine_spec(&a, "")? },
        "check" => Command::Check { pins: pins(&a)?, deadline_secs: deadline_secs()? },
        "model" => Command::Model {
            pins: pins(&a)?,
            check: a.has("--check"),
            format: a.req("--format", choice("model format", &ModelFormat::ALL))?,
            deadline_secs: deadline_secs()?,
        },
        "dataflow" => Command::Dataflow {
            bench: a.req("--bench", bench)?,
            window: a.get("--window", size_num)?,
            count: a.req("--count", parse_num)?,
        },
        // `trend` ignores the window once a baseline revision is pinned.
        "report" if a.has("--baseline") && a.has("--window") => {
            return Err("report takes --baseline REV or --window N, not both".into())
        }
        "report" => {
            let percent = |opt: &str, v: &str| {
                parse_num(opt, v)
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| format!("{opt} {v:?} is not a finite percentage >= 0"))
            };
            let fidelity = a.get("--fidelity", choice("--fidelity mode", &Mode::ALL))?;
            Command::Report {
                ledger: a.req("--ledger", text)?,
                format: a.req("--format", choice("report format", &Format::ALL))?,
                out: out(),
                check: a.has("--check"),
                opts: rf_obs::trend::Options {
                    baseline: a.value("--baseline").map(str::to_owned),
                    window: a.req("--window", size_num)?,
                    max_regress_pct: a.req("--max-regress-pct", percent)?,
                    fidelity: fidelity.unwrap_or(rf_obs::trend::Options::DEFAULT.fidelity),
                },
            }
        }
        "profile" => Command::Profile {
            pins: pins(&a)?,
            format: a.req("--format", choice("profile format", &ProfileFormat::ALL))?,
            top: a.req("--top", parse_num)?,
            out: out(),
            deadline_secs: deadline_secs()?,
        },
        "top" => Command::Top {
            file: a.req("--file", text)?,
            interval_ms: a.req("--interval-ms", size_num)? as u64,
            once: a.has("--once"),
        },
        "store" => Command::Store {
            action: a.req("ACTION", choice("store action", &StoreAction::ALL))?,
            dir: a.value("--dir").map(str::to_owned),
        },
        "timing" => Command::Timing { width: a.req("--width", size_num)? },
        "dump" => Command::Dump { trace: a.req("--trace", text)?, count: a.req("--count", parse_num)? },
        _ => unreachable!("every command in COMMANDS has a builder"),
    })
}

/// One command's options and prose, under its `NAME OPTIONS:` title.
fn section(g: &Grammar) -> String {
    let gap = if g.about.is_empty() { "" } else { "\n" };
    format!("\n{} OPTIONS:\n{}{gap}{}", g.name.to_uppercase(), g.help(), g.about)
}

/// A titled group's options, under its title.
fn group_section(group: &Group) -> String {
    format!("\n{}:\n{}", group.title.unwrap_or_default().to_uppercase(), group.help())
}

/// Usage text: the synopsis and option lines rendered from the command
/// grammars, each command's prose after its options. With a command,
/// only its synopsis and the sections of its options.
pub fn usage(command: Option<&str>) -> String {
    if let Some(g) = COMMANDS.iter().find(|g| Some(g.name) == command) {
        let titled = g.groups.iter().filter(|group| group.title.is_some());
        let own = if g.groups.is_empty() { String::new() } else { section(g) };
        let text = g.synopsis(&format!("usage: rfstudy {} ", g.name)) + &own;
        return titled.fold(text, |text, group| text + &group_section(group));
    }
    let mut text = String::from(
        "rfstudy — register-file design study simulator (HPCA'96 reproduction)\n\nUSAGE:\n",
    );
    for g in &COMMANDS {
        text += &g.synopsis(&format!("  rfstudy {:<8} ", g.name));
    }
    text += "  rfstudy COMMAND --help\n";
    for group in [MACHINE, MATRIX] {
        text += &group_section(&group);
    }
    for g in COMMANDS.iter().filter(|g| !g.groups.is_empty()) {
        text += &section(g);
    }
    text + "
EXIT STATUS:
  0  success
  1  runtime failure (simulation error, sanitizer violation, failed
     check/report gate, store verification failure, exceeded
     --deadline-secs)
  2  usage error (an unknown command; an unknown, repeated or value-less
     option; a malformed value or RF_* variable; a `top` attach to a
     stream file that does not exist)
"
}

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
        let specs = pins.expand(MATRIX_COMMITS);
        assert_eq!(specs.len(), 72);
        assert!(specs.iter().all(|s| s.commits == 500 && s.seed == 12));
        assert_eq!(specs[0].width, 4);
        assert_eq!(specs[0].regs, 2048);
        // Pinning every dimension yields exactly one configuration.
        let pinned = MatrixPins {
            bench: Some("compress".into()),
            width: Some(8),
            exceptions: Some(ExceptionModel::Imprecise),
            regs: Some(64),
            commits: Some(100),
            seed: 3,
        };
        let specs = pinned.expand(MATRIX_COMMITS);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].benchmark, "compress");
        assert_eq!(specs[0].width, 8);
        assert_eq!(specs[0].exceptions, ExceptionModel::Imprecise);
        assert_eq!(specs[0].regs, 64);
        assert_eq!((specs[0].commits, specs[0].seed), (100, 3));
        // Without --commits the caller's default applies.
        let unbudgeted = MatrixPins { commits: None, ..pins };
        assert!(unbudgeted.expand(700).iter().all(|s| s.commits == 700));
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
        let matrix: Vec<RunSpec> =
            rf_check::default_matrix(900, 5).iter().map(rf_check::CheckParams::spec).collect();
        assert_eq!(unpinned.expand(900), matrix);
        // A pinned size outside the matrix replaces both of its sizes.
        let specs = MatrixPins { regs: Some(96), ..unpinned }.expand(900);
        let expected: Vec<_> =
            matrix.into_iter().filter(|s| s.regs == 2048).map(|s| s.regs(96)).collect();
        assert_eq!(specs.len(), 36);
        assert_eq!(specs, expected);
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
                assert_eq!(opts, rf_obs::trend::Options::DEFAULT);
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
            "report --ledger /tmp/l.jsonl --baseline abc123 \
             --format markdown --out /tmp/r.md --check \
             --max-regress-pct 25 --fidelity warn",
        ))
        .unwrap()
        {
            Command::Report { ledger, format, out, check, opts } => {
                assert_eq!(ledger, "/tmp/l.jsonl");
                assert_eq!(opts.baseline.as_deref(), Some("abc123"));
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
            (
                "report --baseline abc --window 3",
                "report takes --baseline REV or --window N, not both",
            ),
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
        let usage = usage(None);
        for sub in [
            "list", "run", "trace", "record", "replay", "check", "model", "dataflow",
            "report", "profile", "top", "store", "timing", "dump",
        ] {
            assert!(usage.contains(&format!("rfstudy {sub}")), "usage missing {sub}");
        }
        assert!(usage.contains(&format!("--seed N (default {RUN_SEED})")));
        assert!(usage.contains(&format!("workload seed (default {RUN_SEED};")));
        assert!(usage.contains(&format!("--seed defaults to {DEFAULT_SEED}.")));
        let dataflow_seeds = format!("fixed seed {RUN_SEED}, not\n  the suite's seed {DEFAULT_SEED}");
        assert!(usage.contains(&dataflow_seeds));
    }

    /// `opt` as a command line gives it: a value `--name META` accepts is
    /// the first alternative of a choice metavar, else a sample of its kind.
    fn words(opt: &Opt) -> Vec<String> {
        let shown = opt.shown();
        let (name, meta) = shown.split_once(' ').unwrap_or((&shown, ""));
        let value = match meta {
            m if m.contains('|') => m.split('|').next().unwrap(),
            "" => return vec![name.to_owned()],
            "NAME" => "compress",
            "MODEL" => "imprecise",
            "ORG" => "perfect",
            "POLICY" => "youngest-first",
            "KIND" => "gshare",
            _ => "64",
        };
        vec![name.to_owned(), value.to_owned()]
    }

    /// The shortest valid command line of `g` (its name, its required
    /// positional argument and its required options), less `skip`.
    fn minimal(g: &'static Grammar, skip: Option<&str>) -> Vec<String> {
        let positional = g.positional.iter().map(|_| "stats".to_owned());
        let required = g.opts().filter(|o| o.required() && Some(o.name()) != skip);
        let words = positional.chain(required.flat_map(words));
        std::iter::once(g.name.to_owned()).chain(words).collect()
    }

    #[test]
    fn every_declared_option_parses_and_appears_in_usage() {
        let usage = usage(None);
        for g in &COMMANDS {
            assert!(parse(&minimal(g, None)).is_ok(), "{:?}", minimal(g, None));
            for opt in g.opts() {
                let line = [minimal(g, Some(opt.name())), words(opt)].concat();
                assert!(parse(&line).is_ok(), "{line:?}: {:?}", parse(&line));
                assert!(usage.contains(&opt.shown()), "usage lacks {} of {}", opt.word, g.name);
                if opt.required() {
                    let err = parse(&minimal(g, Some(opt.name()))).unwrap_err();
                    assert_eq!(err, format!("{} requires {}", g.name, opt.name()));
                }
            }
        }
    }

    #[test]
    fn unknown_repeated_and_value_less_options_are_rejected_on_every_command() {
        for g in &COMMANDS {
            let line = [minimal(g, None), argv("--bogus 1")].concat();
            let unknown = format!("unknown option \"--bogus\" for {}", g.name);
            assert_eq!(parse(&line).unwrap_err(), unknown);
            for opt in g.opts() {
                let line = [minimal(g, Some(opt.name())), words(opt), words(opt)].concat();
                let repeated = format!("repeated option {:?} for {}", opt.name(), g.name);
                assert_eq!(parse(&line).unwrap_err(), repeated);
                if opt.takes_value() {
                    let line = [minimal(g, Some(opt.name())), vec![opt.name().to_owned()]].concat();
                    let value_less = format!("{} requires a value", opt.name());
                    assert_eq!(parse(&line).unwrap_err(), value_less);
                }
            }
        }
    }

    #[test]
    fn every_choice_appears_in_usage() {
        let usage = usage(None);
        let names = [
            TraceFormat::ALL.map(|v| v.to_string()).to_vec(),
            ProfileFormat::ALL.map(|v| v.to_string()).to_vec(),
            ModelFormat::ALL.map(|v| v.to_string()).to_vec(),
            Format::ALL.map(|v| v.to_string()).to_vec(),
            Mode::ALL.map(|v| v.to_string()).to_vec(),
            StoreAction::ALL.map(|v| v.to_string()).to_vec(),
            ExceptionModel::ALL.map(|v| v.to_string()).to_vec(),
            CacheOrg::ALL.map(|v| v.to_string()).to_vec(),
            SchedPolicy::ALL.map(|v| v.to_string()).to_vec(),
            PredictorKind::ALL.map(|v| v.to_string()).to_vec(),
        ];
        for name in names.iter().flatten() {
            assert!(usage.contains(name.as_str()), "usage lacks {name}");
        }
        for (cmd, what, expected) in [
            ("--exceptions", "exception model", "precise, imprecise, or alpha-hybrid"),
            ("--cache", "cache organisation", "perfect, lockup, or lockup-free"),
            ("--sched", "scheduler policy", "oldest-first or youngest-first"),
            ("--predictor", "predictor", "bimodal, gshare, or combining"),
        ] {
            let err = parse(&argv(&format!("run --bench ora {cmd} x"))).unwrap_err();
            assert_eq!(err, format!("unknown {what} \"x\" (expected {expected})"));
        }
    }

    #[test]
    fn sizes_no_machine_or_window_can_have_are_rejected() {
        for (cmd, err) in [
            ("timing --width 0", "--width 0 is below the minimum of 1"),
            ("trace --bench ora --window 0", "--window 0 is below the minimum of 1"),
            ("top --interval-ms 0", "--interval-ms 0 is below the minimum of 1"),
        ] {
            assert_eq!(parse(&argv(cmd)).unwrap_err(), err, "{cmd}");
        }
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
        assert_eq!(parse(&[]).unwrap(), Command::Help(None));
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help(None));
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help(None));
        for (line, err) in [
            ("help run", "unexpected argument \"run\" for help"),
            ("help --bogus", "unknown option \"--bogus\" for help"),
            ("--help run", "unexpected argument \"run\" for help"),
        ] {
            assert_eq!(parse(&argv(line)).unwrap_err(), err, "{line}");
        }
    }

    #[test]
    fn help_on_a_command_yields_its_usage() {
        for g in &COMMANDS {
            let line = [minimal(g, None), argv("--help")].concat();
            assert_eq!(parse(&line).unwrap(), Command::Help(Some(g.name)), "{line:?}");
            let text = usage(Some(g.name));
            assert!(text.starts_with(&format!("usage: rfstudy {}", g.name)), "{text}");
            for opt in g.opts().chain(&g.positional) {
                assert!(text.contains(&opt.shown()), "{} --help lacks {}", g.name, opt.word);
            }
        }
        // Help wins over a fault elsewhere on the line.
        assert_eq!(parse(&argv("run --bogus --help")).unwrap(), Command::Help(Some("run")));
    }
}
