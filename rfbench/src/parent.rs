//! The parent process: one fresh child process per round, every round's answers
//! checked, the rounds aggregated into the benchmark's metrics.
//!
//! The load is a closed loop with one client: a round submits its
//! batches one after another and waits for every answer before the next
//! batch, as the report harnesses do.

use crate::OUT_DIR;
use rf_obs::json::{self, Value};
use rfbench::{HostProbe, Scale, Workload, KERNEL_SENSITIVITY, REFERENCE_SPAWN_NS};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Opts {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
}

/// A run stops starting rounds after this long even below its minimum
/// round count, so one invocation stays well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(150);

/// Times `store-replay` fills its store in set-up.
const FILLS: usize = 3;

/// Beyond this share of the measured CPU time left unexplained by the
/// layer costs, the reconciliation row is flagged.
const RECON_FLAG_PCT: f64 = 20.0;

/// One round as its child reported it.
struct RoundRec {
    requests: u64,
    failed: u64,
    failures: Vec<String>,
    digest: String,
    /// Times as `(measured, on the reference host)`, the second scaled
    /// segment by segment by the child (see `HostClock`).
    setup_s: (f64, f64),
    /// Time to answer the round's requests; for a store replay, the whole
    /// process from spawn to its last answer.
    sweep_s: (f64, f64),
    cpu_ns: (f64, f64),
    commits: f64,
    rss_kb: f64,
    /// The parent's own host-speed factor for the round, on top of the
    /// child's: 1, except for a replay, whose process is too short to
    /// probe inside and is scaled as a whole ([`spawn_factor`]).
    host: f64,
    /// `(ms, requests, the child's host-speed factor)` per answer.
    latency: Vec<(f64, u64, f64)>,
    counts: HashMap<String, f64>,
    layers: Vec<(String, f64)>,
    recon: Vec<(String, f64, String)>,
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    v.get_f64(key)
        .ok_or_else(|| format!("child report lacks {key:?}"))
}

fn timed(v: &Value, key: &str) -> Result<(f64, f64), String> {
    let pair = v.get(key).and_then(Value::as_array).unwrap_or_default();
    match (
        pair.first().and_then(Value::as_f64),
        pair.get(1).and_then(Value::as_f64),
    ) {
        (Some(raw), Some(host)) => Ok((raw, host)),
        _ => Err(format!("child report lacks {key:?}")),
    }
}

fn parse_round(v: &Value) -> Result<RoundRec, String> {
    let pairs = |key: &str| -> Vec<(String, f64)> {
        v.get(key)
            .and_then(Value::as_object)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
            .collect()
    };
    let latency = v
        .get("latency")
        .and_then(Value::as_array)
        .ok_or("child report lacks \"latency\"")?
        .iter()
        .filter_map(|l| {
            let l = l.as_array()?;
            Some((
                l.first()?.as_f64()?,
                l.get(1)?.as_f64()? as u64,
                l.get(2)?.as_f64()?,
            ))
        })
        .collect();
    let recon = v
        .get("recon")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            let r = r.as_array()?;
            Some((
                r.first()?.as_str()?.to_owned(),
                r.get(1)?.as_f64()?,
                r.get(2)?.as_str()?.to_owned(),
            ))
        })
        .collect();
    let secs = |(raw, host): (f64, f64)| (raw / 1e9, host / 1e9);
    Ok(RoundRec {
        requests: field(v, "requests")? as u64,
        failed: field(v, "failed")? as u64,
        failures: v
            .get("failures")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_owned))
            .collect(),
        digest: v
            .get_str("digest")
            .ok_or("child report lacks \"digest\"")?
            .to_owned(),
        setup_s: secs(timed(v, "setup_ns")?),
        sweep_s: secs(timed(v, "sweep_ns")?),
        cpu_ns: timed(v, "cpu_ns")?,
        commits: field(v, "commits")?,
        rss_kb: field(v, "rss_kb")?,
        host: 1.0,
        latency,
        counts: pairs("counts").into_iter().collect(),
        layers: pairs("layers"),
        recon,
    })
}

/// Spawns `rfbench __child ...` with a scrubbed environment plus `env`,
/// waits for it, and returns its JSON report and its wall time.
fn spawn(args: &[String], env: &[(String, String)]) -> Result<(Value, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating rfbench: {e}"))?;
    let spawned_at = crate::sys::epoch_ns();
    let t0 = Instant::now();
    let out = Command::new(exe)
        .arg("__child")
        .args(args)
        .arg("--spawned-at")
        .arg(spawned_at.to_string())
        .envs(env.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a round: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("round process failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    json::parse(last)
        .map(|v| (v, wall))
        .map_err(|e| format!("round report: {e}"))
}

/// Correctness bookkeeping across a workload's rounds.
struct Book {
    /// The digest every round must reproduce: the pinned reference, or
    /// else the first round's (for a replay, the first filling run's).
    expected: Option<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Book {
    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Books a completed round. On a replay, every store miss is a
    /// failure: it means a simulation ran where the store should answer.
    fn round(&mut self, rec: &RoundRec, replay: bool) {
        let expected = self
            .expected
            .get_or_insert_with(|| rec.digest.clone())
            .clone();
        let mismatch = rfbench::digest_failures(&expected, &rec.digest, rec.requests);
        let misses = if replay {
            rec.counts.get("store.misses").copied().unwrap_or(0.0) as u64
        } else {
            0
        };
        self.attempted += rec.requests;
        self.failed += (rec.failed + misses).min(rec.requests).max(mismatch);
        for f in &rec.failures {
            self.note(f.clone());
        }
        if mismatch > 0 {
            self.note(format!("digest {} differs from {expected}", rec.digest));
        }
        if misses > 0 {
            self.note(format!("{misses} store misses on replay"));
        }
    }

    /// Books a round whose process failed: all its requests failed.
    fn crash(&mut self, requests: u64, why: String) {
        self.attempted += requests;
        self.failed += requests;
        self.note(why);
    }
}

/// What one workload reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(String, f64)>,
}

fn round_args(w: Workload, o: &Opts, traced: bool) -> Vec<String> {
    let mut args = vec![
        "round".into(),
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        o.seed.to_string(),
    ];
    if o.scale.smoke {
        args.push("--smoke".into());
    }
    if traced {
        args.push("--traced".into());
    }
    args
}

fn run_round(
    w: Workload,
    o: &Opts,
    traced: bool,
    env: &[(String, String)],
) -> Result<(RoundRec, f64), String> {
    let (report, wall) = spawn(&round_args(w, o, traced), env)?;
    Ok((parse_round(&report)?, wall))
}

/// Runs a measured round. Cold rounds are scaled to the reference host
/// inside the child; a store replay is too short to probe inside, so it
/// is scaled as a whole by [`spawn_factor`], probed just before it.
fn measured_round(
    w: Workload,
    o: &Opts,
    traced: bool,
    env: &[(String, String)],
) -> Result<RoundRec, String> {
    let host = if w == Workload::StoreReplay {
        spawn_factor()?
    } else {
        1.0
    };
    let (mut rec, _) = run_round(w, o, traced, env)?;
    rec.host = host;
    Ok(rec)
}

fn stats_line(v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("n={} min={min:.4} max={max:.4}", v.len())
}

/// The factor that scales a store replay process, started right after
/// this call, to the reference host: the time to start and reap a process
/// that does nothing, against [`REFERENCE_SPAWN_NS`].
///
/// A replay is a process of about 40 ms that mostly starts up, maps
/// memory and reads the store through the page cache, so it slows with
/// process creation and page faults rather than with the CPU kernel of
/// [`HostProbe`]. Over ten runs of ten seeds on a loaded 2-core Intel
/// Xeon VM, the median `answer_ms_p50` scaled by [`HostProbe`] spread by
/// 6.1% (Q3 − Q1 over the median), unscaled by 7.5%, and scaled by this
/// probe by 2.5%. Averaging the probes before and after each process did
/// worse (3.3%) than the one just before it.
fn spawn_factor() -> Result<f64, String> {
    let t = Instant::now();
    let status = Command::new("true")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawning the host probe `true`: {e}"))?;
    let ns = t.elapsed().as_nanos() as f64;
    if !status.success() {
        return Err(format!("the host probe `true` failed ({status})"));
    }
    Ok(REFERENCE_SPAWN_NS / ns)
}

fn run_workload(w: Workload, o: &Opts, jobs: usize) -> Outcome {
    let name = w.name();
    let requests = rfbench::requests_per_round(w, o.scale);
    let pinned = (o.seed == 1 && !o.scale.smoke).then(|| rfbench::reference_digest(w).to_owned());
    let mut book = Book {
        expected: pinned.clone(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let mut env = vec![("RF_JOBS".to_owned(), jobs.to_string())];
    let store_dir = Path::new(OUT_DIR).join(format!("{name}-{}.store", o.seed));
    let replay = w == Workload::StoreReplay;
    // `(raw wall s, host factor)` of each filling run.
    let mut fills = Vec::new();
    if replay {
        // Set-up fills a fresh store: the same request stream answered
        // cold, every executed result written behind to disk. It is done
        // FILLS times, each time on an empty store, so that `setup_s` is a
        // median too; the rounds read the last one. A fill runs the
        // simulator's kernel for seconds, so it is scaled like a cold
        // round: by the mean of the [`HostProbe`] timings around it.
        env.push(("RF_STORE".into(), "1".into()));
        env.push(("RF_STORE_DIR".into(), store_dir.display().to_string()));
        let probe = HostProbe::default();
        let mut before = probe.measure(1);
        for _ in 0..FILLS {
            let _ = std::fs::remove_dir_all(&store_dir);
            let filled = run_round(w, o, false, &env);
            let after = probe.measure(1);
            let factor = rfbench::host_factor((before + after) / 2.0, KERNEL_SENSITIVITY);
            before = after;
            match filled {
                Ok((rec, wall)) => {
                    book.round(&rec, false);
                    fills.push((wall, factor));
                    println!(
                        "[{name}] set-up: {} records written in {wall:.3} s",
                        rec.counts.get("store.writes").copied().unwrap_or(0.0)
                    );
                }
                Err(e) => book.crash(requests, format!("filling the store: {e}")),
            }
        }
    }

    let mut probe_args = vec!["probe".to_owned()];
    if o.scale.smoke {
        probe_args.push("--smoke".into());
    }
    let probe_requests = rfbench::table1_specs(o.scale).len() as u64;
    let ipc_err = match spawn(&probe_args, &env[..1]) {
        Ok((v, _)) => {
            book.attempted += probe_requests;
            v.get_f64("ipc_err_pct")
        }
        Err(e) => {
            book.crash(probe_requests, format!("Table 1 probe: {e}"));
            None
        }
    };

    // Rounds run while the next one, as long as a typical round so far,
    // still ends inside the `--seconds` window.
    let min_rounds = o.scale.min_rounds(w);
    let window = Duration::from_secs(o.seconds);
    let mut rounds = Vec::new();
    let mut round_s = Vec::new();
    let (start, mut tries) = (Instant::now(), 0);
    loop {
        let next = Duration::from_secs_f64(rfbench::median(&round_s).unwrap_or(0.0));
        let wanted = tries < min_rounds || start.elapsed() + next <= window;
        if !wanted || (tries > 0 && start.elapsed() > HARD_STOP) {
            break;
        }
        tries += 1;
        let began = Instant::now();
        match measured_round(w, o, false, &env) {
            Ok(rec) => {
                book.round(&rec, replay);
                rounds.push(rec);
            }
            Err(e) => book.crash(requests, e),
        }
        round_s.push(began.elapsed().as_secs_f64());
    }
    let traced = if o.trace {
        match measured_round(w, o, true, &env) {
            Ok(rec) => {
                book.round(&rec, replay);
                Some(rec)
            }
            Err(e) => {
                book.crash(requests, format!("traced round: {e}"));
                None
            }
        }
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&store_dir);

    let digest = book.expected.clone().unwrap_or_default();
    let against = if pinned.is_some() {
        "the pinned reference"
    } else {
        "the first round"
    };
    println!(
        "[{name}] rounds={} attempted={} failed={} error_rate={} digest={digest} \
         (every round checked against {against})",
        rounds.len(),
        book.attempted,
        book.failed,
        book.failed as f64 / book.attempted.max(1) as f64
    );
    for n in &book.notes {
        println!("[{name}] FAILED: {n}");
    }

    let end_to_end = end_to_end(name, &rounds, &fills, ipc_err);
    let per_layer = traced.map_or_else(Vec::new, |t| per_layer(name, &rounds, &t));
    Outcome {
        attempted: book.attempted,
        failed: book.failed,
        end_to_end,
        per_layer,
    }
}

/// The end-to-end metrics. Times are scaled round by round to the
/// reference host (in the child, or by [`spawn_factor`] for a replay);
/// the raw median is printed beside them.
fn end_to_end(
    name: &str,
    rounds: &[RoundRec],
    fills: &[(f64, f64)],
    ipc_err: Option<f64>,
) -> Vec<(&'static str, f64)> {
    if rounds.is_empty() {
        return Vec::new();
    }
    let med = |v: &[f64]| rfbench::median(v).unwrap_or(0.0);
    // Per round on the reference host, and the median as measured.
    let scaled = |f: fn(&RoundRec) -> (f64, f64)| -> (Vec<f64>, f64) {
        let raw: Vec<f64> = rounds.iter().map(|r| f(r).0).collect();
        let host = rounds.iter().map(|r| f(r).1 * r.host).collect();
        (host, med(&raw))
    };
    let (sweep, sweep_raw) = scaled(|r| r.sweep_s);
    // A replay's set-up is the runs that fill the store.
    let (setup, setup_raw) = if fills.is_empty() {
        scaled(|r| r.setup_s)
    } else {
        let raw: Vec<f64> = fills.iter().map(|f| f.0).collect();
        (
            fills.iter().map(|(raw, host)| raw * host).collect(),
            med(&raw),
        )
    };
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_kb / 1024.0).collect();
    // Answer latencies, per round. Percentiles are taken per round — the
    // p90 per group of consecutive rounds that holds at least 100 answers,
    // so that ten lie beyond it — and the median over rounds or groups is
    // reported, like `sweep_s`: a round that a burst of host load slowed
    // does not fill the tail.
    let answers: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            r.latency
                .iter()
                .flat_map(|&(ms, n, f)| std::iter::repeat_n(ms * f * r.host, n as usize))
                .collect()
        })
        .collect();
    let n_answers: usize = answers.iter().map(Vec::len).sum();
    let p50: Vec<f64> = answers.iter().filter_map(|a| rfbench::median(a)).collect();
    let per_group = 100usize.div_ceil(answers[0].len().max(1));
    let mut groups: Vec<Vec<f64>> = answers
        .chunks(per_group)
        .map(<[Vec<f64>]>::concat)
        .collect();
    if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < 100) {
        let short = groups.pop().expect("more than one group");
        groups
            .last_mut()
            .expect("more than one group")
            .extend(short);
    }
    let p90: Vec<f64> = groups
        .iter()
        .filter_map(|g| rfbench::percentile(g, 90.0))
        .collect();
    let (cpu, cpu_raw) = scaled(|r| {
        let per = |ns: f64| ns / r.commits.max(1.0);
        (per(r.cpu_ns.0), per(r.cpu_ns.1))
    });
    let hosts: Vec<f64> = rounds
        .iter()
        .map(|r| r.sweep_s.1 * r.host / r.sweep_s.0)
        .collect();
    println!("[{name}] host speed factor {}", stats_line(&hosts));
    let mut out = vec![
        (
            "sweep_s",
            med(&sweep),
            format!("{} raw_median={sweep_raw:.4}", stats_line(&sweep)),
        ),
        (
            "cpu_ns_per_commit",
            med(&cpu),
            format!("{} raw_median={cpu_raw:.4}", stats_line(&cpu)),
        ),
        (
            "answer_ms_p50",
            med(&p50),
            format!("median of per-round medians, n={n_answers}"),
        ),
        (
            "answer_ms_p90",
            med(&p90),
            format!(
                "median of {} groups of {per_group} rounds, n={n_answers}",
                p90.len()
            ),
        ),
        (
            "setup_s",
            med(&setup),
            format!("{} raw_median={setup_raw:.4}", stats_line(&setup)),
        ),
        ("peak_rss_mb", med(&rss), stats_line(&rss)),
    ];
    if let Some(e) = ipc_err {
        out.push((
            "ipc_err_pct",
            e,
            "Table 1 mean commit IPC, 4- and 8-way, vs the paper".into(),
        ));
    }
    let units: HashMap<&str, &str> = rfbench::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .collect();
    for (metric, v, detail) in &out {
        println!("[{name}] {metric} {v} {} ({detail})", units[metric]);
    }
    out.into_iter().map(|(k, v, _)| (k, v)).collect()
}

fn per_layer(name: &str, rounds: &[RoundRec], traced: &RoundRec) -> Vec<(String, f64)> {
    let mut out = traced.layers.clone();
    let sweep: Vec<f64> = rounds.iter().map(|r| r.sweep_s.1 * r.host).collect();
    let base = rfbench::median(&sweep).unwrap_or(0.0);
    out.push((
        "trace.overhead_pct".into(),
        if base > 0.0 {
            (traced.sweep_s.1 * traced.host / base - 1.0) * 100.0
        } else {
            0.0
        },
    ));
    // Reconciliation: each layer's unit cost from the traced round times
    // its count in an untraced round, summed, against untraced CPU time.
    let counts = rounds.first().map(|r| &r.counts);
    let explained: f64 = traced
        .recon
        .iter()
        .filter_map(|(_, ns, count)| {
            let per_unit = ns / traced.counts.get(count).copied().filter(|&c| c > 0.0)?;
            Some(per_unit * counts?.get(count).copied()?)
        })
        .sum();
    let cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_ns.0).collect();
    let cpu = rfbench::median(&cpu).unwrap_or(0.0);
    let unexplained = if cpu > 0.0 {
        (cpu - explained) / cpu * 100.0
    } else {
        0.0
    };
    out.push(("recon.unexplained_pct".into(), unexplained));
    let units: HashMap<&str, &str> = rfbench::PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit))
        .collect();
    for (metric, v) in &out {
        println!(
            "[{name}] {metric} {v} {}",
            units.get(metric.as_str()).unwrap_or(&"")
        );
    }
    for (layer, ns, count) in &traced.recon {
        println!(
            "[{name}] recon {layer}: {:.1} ms per round over {count}",
            ns / 1e6
        );
    }
    let flag = if unexplained.abs() > RECON_FLAG_PCT {
        "  FLAG: over 20% unexplained"
    } else {
        ""
    };
    println!(
        "[{name}] recon: cpu {:.1} ms, explained {:.1} ms, unexplained {unexplained:.1}%{flag}",
        cpu / 1e6,
        explained / 1e6
    );
    out
}

/// The revision of the repository rooted at the working directory. Git
/// does not look further up, so a run reads nothing outside it.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every requested workload and prints the summary line.
pub fn run(o: &Opts) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = nproc.min(4);
    println!(
        "rfbench rev={} nproc={nproc} jobs={jobs} seed={} scale={} seconds={} trace={}",
        git_rev(),
        o.seed,
        if o.scale.smoke { "smoke" } else { "full" },
        o.seconds,
        u8::from(o.trace)
    );
    let single = o.workloads.len() == 1;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for &w in &o.workloads {
        let out = run_workload(w, o, jobs);
        attempted += out.attempted;
        failed += out.failed;
        let key = |m: &str| {
            if single {
                m.to_owned()
            } else {
                format!("{}.{m}", w.name())
            }
        };
        if o.trace {
            for (m, v) in out.per_layer {
                let unit = rfbench::PER_LAYER
                    .iter()
                    .find(|x| x.name == m)
                    .map_or("", |x| x.unit);
                metrics.push((key(&m), v, unit));
            }
        } else {
            for (m, v) in out.end_to_end {
                let unit = rfbench::END_TO_END
                    .iter()
                    .find(|x| x.name == m)
                    .map_or("", |x| x.unit);
                metrics.push((key(m), v, unit));
            }
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|(k, v, unit)| {
            let v = if v.is_finite() { v } else { 0.0 };
            (
                k,
                Value::Object(vec![
                    ("value".into(), Value::Number(v)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            )
        })
        .collect();
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Value::Number(attempted as f64)),
        ("failed".into(), Value::Number(failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{summary}");
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
