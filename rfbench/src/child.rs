//! One measured round in a fresh process, so process-wide state (the
//! global run cache, the store tier, the kernel's arenas) starts cold
//! every round. The round is reported to the parent as one JSON line.

use crate::sys;
use rf_check::CheckParams;
use rf_core::SimStats;
use rf_experiments::runner::{self, RunError};
use rf_experiments::{codec, RunCache, RunSpec, SimPool};
use rf_obs::json::Value;
use rf_prof::ProfileNode;
use rfbench::trace::{self, Tracer};
use rfbench::{
    host_factor, HostProbe, Scale, StatsDigest, Workload, KERNEL_SENSITIVITY, REFERENCE_PROBE_NS,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the parent asked this child to do.
pub struct RoundArgs {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    /// Wall-clock time the parent spawned this process, in ns since the
    /// Unix epoch.
    pub spawned_at_ns: u128,
}

/// A time in nanoseconds as measured, and as it would have been on the
/// reference host.
#[derive(Default, Clone, Copy)]
struct Timed {
    raw: f64,
    host: f64,
}

/// Everything a round measures.
#[derive(Default)]
struct Round {
    requests: u64,
    failed: u64,
    failures: Vec<String>,
    digest: StatsDigest,
    setup: Timed,
    /// Time to answer the round's requests; for a store replay, the whole
    /// process from spawn to its last answer.
    sweep: Timed,
    /// Process CPU time over the same span.
    cpu: Timed,
    commits: u64,
    /// Answer latency of each batch (or check configuration) in ms, with
    /// the number of requests it answered and its host-speed factor.
    latency: Vec<(f64, u64, f64)>,
    counts: Counts,
}

/// A round's segments last at least this long; the host is probed
/// between them.
const SEGMENT: Duration = Duration::from_millis(500);

/// Times a cold round in segments, cut at request boundaries, with a
/// [`HostProbe`] measurement between every two segments. The probes are
/// not part of any segment. Each segment's times are scaled by
/// [`host_factor`] of the mean of the probes just before and just after
/// it, to the time they would have taken on the reference host. Set-up,
/// which runs none of the kernel, is scaled by the first probe with the
/// exponent 1.
///
/// On a shared 2-core Intel Xeon VM, round times swing by ±20% within
/// seconds as neighbours load the machine. Over 93 rounds each of
/// `regsweep` and `windowsweep`, scaling each round by probes taken only
/// before and after it left 8–10% of that spread (standard deviation of
/// log round time). Scaling each segment left about 6%.
struct HostClock {
    /// The probe and the threads it runs on; without one, nothing is
    /// scaled (a replay is scaled as a whole process by the parent).
    probe: Option<(HostProbe, usize)>,
    first_ns: f64,
    last_ns: f64,
    seg_start: Instant,
    seg_cpu_ns: u64,
    seg_latency: Vec<(f64, u64)>,
    wall: Timed,
    cpu: Timed,
    latency: Vec<(f64, u64, f64)>,
}

impl HostClock {
    /// Probes the host (on `threads` threads, if given) and opens the
    /// first segment.
    fn start(threads: Option<usize>, tracer: &mut Tracer) -> Self {
        let mut clock = Self {
            probe: threads.map(|t| (HostProbe::default(), t)),
            first_ns: REFERENCE_PROBE_NS,
            last_ns: REFERENCE_PROBE_NS,
            seg_start: Instant::now(),
            seg_cpu_ns: 0,
            seg_latency: Vec::new(),
            wall: Timed::default(),
            cpu: Timed::default(),
            latency: Vec::new(),
        };
        clock.first_ns = clock.measure(tracer);
        clock.last_ns = clock.first_ns;
        clock.open();
        clock
    }

    fn measure(&self, tracer: &mut Tracer) -> f64 {
        match &self.probe {
            Some((probe, threads)) => tracer.time("host.probe", None, || probe.measure(*threads)),
            None => REFERENCE_PROBE_NS,
        }
    }

    fn open(&mut self) {
        self.seg_start = Instant::now();
        self.seg_cpu_ns = sys::cpu_ns();
    }

    /// Records that `n` requests were answered `ms` after they were
    /// submitted, and ends the segment once it is long enough.
    fn answered(&mut self, ms: f64, n: u64, tracer: &mut Tracer) {
        self.seg_latency.push((ms, n));
        if self.seg_start.elapsed() >= SEGMENT {
            self.cut(tracer);
        }
    }

    /// Ends the open segment, probes the host and opens the next one.
    fn cut(&mut self, tracer: &mut Tracer) {
        if self.seg_latency.is_empty() {
            return;
        }
        let wall = self.seg_start.elapsed().as_nanos() as f64;
        let cpu = sys::cpu_ns().saturating_sub(self.seg_cpu_ns) as f64;
        let now_ns = self.measure(tracer);
        let factor = host_factor((self.last_ns + now_ns) / 2.0, KERNEL_SENSITIVITY);
        self.last_ns = now_ns;
        for (total, v) in [(&mut self.wall, wall), (&mut self.cpu, cpu)] {
            total.raw += v;
            total.host += v * factor;
        }
        self.latency
            .extend(self.seg_latency.drain(..).map(|(ms, n)| (ms, n, factor)));
        self.open();
    }

    /// Scales the set-up, taken before the first probe, by that probe.
    fn before_start(&self, ns: f64) -> Timed {
        Timed {
            raw: ns,
            host: ns * host_factor(self.first_ns, 1.0),
        }
    }
}

/// Deterministic work counts of one round, from the answered statistics
/// and the process-wide counters of the layers.
#[derive(Default)]
struct Counts {
    sims: u64,
    cycles: u64,
    skipped: u64,
    wakeups: u64,
    committed: u64,
    inserted: u64,
    squashed: u64,
    stall_no_reg: u64,
    stall_dq_full: u64,
    loads: u64,
    load_misses: u64,
    accesses: u64,
    peak_fills: u64,
    branches: u64,
    mispredicted: u64,
    batches: u64,
    cache_hits: u64,
    store_hits: u64,
    store_misses: u64,
    store_writes: u64,
    configs: u64,
    sanitizer_events: u64,
}

impl Counts {
    fn add_sim(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.inserted += s.inserted;
        self.squashed += s.squashed;
        self.stall_no_reg += s.insert_stall_no_reg;
        self.stall_dq_full += s.insert_stall_dq_full;
        self.loads += s.cache.loads;
        self.load_misses += s.cache.load_misses();
        self.accesses += s.cache.loads + s.cache.stores;
        self.peak_fills = self.peak_fills.max(s.peak_outstanding_fills as u64);
        self.branches += s.bpred.predicted();
        self.mispredicted += s.bpred.mispredicted();
    }

    fn steps(&self) -> u64 {
        self.cycles - self.skipped
    }

    /// The counts the parent multiplies unit costs by, by name.
    fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("round", 1),
            ("core.steps", self.steps()),
            ("core.inserted", self.inserted),
            ("mem.accesses", self.accesses),
            ("runner.sims_executed", self.sims),
            ("store.hits", self.store_hits),
            ("store.misses", self.store_misses),
            ("store.writes", self.store_writes),
            (
                "check.committed",
                if self.configs > 0 { self.committed } else { 0 },
            ),
        ]
    }
}

/// Runs one round and returns its report.
///
/// # Errors
///
/// A setup failure (malformed environment, a failed warm-up simulation,
/// an unwritable trace file); failures of measured requests are counted
/// in the report instead.
pub fn round(args: &RoundArgs) -> Result<Value, String> {
    runner::validate_env()?;
    let pool = SimPool::try_from_env()?;
    let batches = rfbench::sweep_batches(args.workload, args.seed, args.scale);
    let params = if args.workload == Workload::Checked {
        rfbench::check_params(args.seed, args.scale)
    } else {
        Vec::new()
    };
    // Set-up ends once the requests are ready; the untimed warm-up that
    // follows is not part of it.
    let setup_ns = sys::epoch_ns().saturating_sub(args.spawned_at_ns) as f64;
    if args.workload != Workload::StoreReplay {
        let warm = pool.try_run_many_cached(
            &rfbench::warmup_specs(args.seed, args.scale),
            &RunCache::disabled(),
        );
        if let Some(Err(e)) = warm.into_iter().find(Result::is_err) {
            return Err(format!("warm-up simulation failed: {e}"));
        }
    }
    rf_prof::set_enabled(args.traced);
    let mut tracer = Tracer::new(args.traced);
    let r = match args.workload {
        Workload::Checked => check_round(&params, setup_ns, &mut tracer),
        _ => sweep_round(args, &batches, setup_ns, &pool, &mut tracer),
    };
    let mut out = report(&r);
    if args.traced {
        let profile = rf_prof::collect();
        rf_prof::set_enabled(false);
        let probes = match args.workload {
            Workload::StoreReplay => store_probe(args, &mut tracer)?,
            Workload::Checked => oracle_probe(args, &mut tracer),
            _ => Probes::default(),
        };
        let prof = Profile::new(profile.as_ref(), &r, &probes, &tracer);
        let whole_process = args.workload == Workload::StoreReplay;
        let (layers, recon) = layers(&r, &prof, &probes, pool.jobs(), &tracer, whole_process);
        write_trace(args, pool.jobs(), &tracer, &prof.calibrated())?;
        push(&mut out, "layers", obj(layers));
        let recon = recon
            .into_iter()
            .map(|(layer, ns, count)| {
                Value::Array(vec![
                    Value::String(layer.into()),
                    num(ns),
                    Value::String(count.into()),
                ])
            })
            .collect();
        push(&mut out, "recon", Value::Array(recon));
    }
    Ok(out)
}

fn sweep_round(
    args: &RoundArgs,
    batches: &[Vec<RunSpec>],
    setup_ns: f64,
    pool: &SimPool,
    tracer: &mut Tracer,
) -> Round {
    let replay = args.workload == Workload::StoreReplay;
    let mut r = Round::default();
    let sims0 = runner::simulations_run();
    let (skip0, wake0) = rf_core::skip_telemetry();
    let cache = RunCache::new();
    tracer.begin("round", None);
    let mut clock = HostClock::start((!replay).then(|| pool.jobs()), tracer);
    let mut answers = Vec::with_capacity(batches.len());
    for (b, batch) in batches.iter().enumerate() {
        let tb = Instant::now();
        let out = tracer.time("runner.try_run_many_cached", Some(b as u64), || {
            pool.try_run_many_cached(batch, &cache)
        });
        let ms = tb.elapsed().as_secs_f64() * 1e3;
        clock.answered(ms, batch.len() as u64, tracer);
        answers.push(out);
    }
    // Write-behind store records are made durable before a run reports
    // (a no-op with the store off).
    tracer.time("runner.store_sync", None, runner::store_sync);
    clock.cut(tracer);
    tracer.end();
    (r.setup, r.latency) = (clock.before_start(setup_ns), clock.latency);
    (r.sweep, r.cpu) = if replay {
        // A replay process is measured whole, start-up included.
        let whole = |ns: f64| Timed { raw: ns, host: ns };
        (
            whole(sys::epoch_ns().saturating_sub(args.spawned_at_ns) as f64),
            whole(sys::cpu_ns() as f64),
        )
    } else {
        (clock.wall, clock.cpu)
    };

    let c = &mut r.counts;
    c.sims = runner::simulations_run() - sims0;
    let (skip1, wake1) = rf_core::skip_telemetry();
    (c.skipped, c.wakeups) = (skip1 - skip0, wake1 - wake0);
    c.batches = batches.len() as u64;
    c.cache_hits = cache.hits();
    if let Some((hits, misses, writes)) = runner::store_counters() {
        (c.store_hits, c.store_misses, c.store_writes) = (hits, misses, writes);
    }
    // Statistics of executed simulations: the round's distinct points,
    // unless the store answered them all.
    let mut executed: HashSet<&RunSpec> = HashSet::new();
    let mut answered_commits = 0;
    for (batch, out) in batches.iter().zip(&answers) {
        for (spec, answer) in batch.iter().zip(out) {
            r.requests += 1;
            match answer {
                Ok(stats) => {
                    r.digest.push_spec(spec, stats);
                    answered_commits += stats.committed;
                    if c.sims > 0 && executed.insert(spec) {
                        c.add_sim(stats);
                    }
                }
                Err(e) => fail(&mut r.failed, &mut r.failures, run_error(spec, e)),
            }
        }
    }
    // CPU is charged to the instructions the kernel executed; a replay
    // executes none, so there it is charged to those it answered.
    r.commits = if replay {
        answered_commits
    } else {
        c.committed
    };
    r
}

fn run_error(spec: &RunSpec, e: &RunError) -> String {
    format!(
        "{} w{} dq{} regs{} {:?}: {e}",
        spec.benchmark, spec.width, spec.dq, spec.regs, spec.cache
    )
}

fn fail(failed: &mut u64, failures: &mut Vec<String>, why: String) {
    *failed += 1;
    if failures.len() < 5 {
        failures.push(why);
    }
}

fn check_round(params: &[CheckParams], setup_ns: f64, tracer: &mut Tracer) -> Round {
    let mut r = Round::default();
    let (skip0, wake0) = rf_core::skip_telemetry();
    tracer.begin("round", None);
    // The matrix runs serially, on one thread.
    let mut clock = HostClock::start(Some(1), tracer);
    let mut reports = Vec::with_capacity(params.len());
    for (i, p) in params.iter().enumerate() {
        let tc = Instant::now();
        let report = tracer.time("check.cross_validate", Some(i as u64), || {
            rf_check::cross_validate(p)
        });
        clock.answered(tc.elapsed().as_secs_f64() * 1e3, 1, tracer);
        reports.push(report);
    }
    clock.cut(tracer);
    tracer.end();
    (r.setup, r.latency) = (clock.before_start(setup_ns), clock.latency);
    (r.sweep, r.cpu) = (clock.wall, clock.cpu);

    let (skip1, wake1) = rf_core::skip_telemetry();
    (r.counts.skipped, r.counts.wakeups) = (skip1 - skip0, wake1 - wake0);
    for (p, report) in params.iter().zip(&reports) {
        r.requests += 1;
        match report {
            Ok(rep) => {
                r.digest.push(&rfbench::check_key(p), &rep.stats);
                r.commits += rep.stats.committed;
                r.counts.sims += 1;
                r.counts.add_sim(&rep.stats);
                r.counts.sanitizer_events += rep.sanitizer_events;
                if !rep.passed() {
                    fail(&mut r.failed, &mut r.failures, rep.render());
                }
            }
            Err(e) => fail(&mut r.failed, &mut r.failures, e.clone()),
        }
    }
    r.counts.configs = r.requests;
    r
}

fn num(v: impl Into<f64>) -> Value {
    Value::Number(v.into())
}

fn obj(members: Vec<(&'static str, f64)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), num(v)))
            .collect(),
    )
}

fn push(v: &mut Value, key: &str, value: Value) {
    if let Value::Object(members) = v {
        members.push((key.to_owned(), value));
    }
}

fn report(r: &Round) -> Value {
    let latency = r
        .latency
        .iter()
        .map(|&(ms, n, factor)| Value::Array(vec![num(ms), num(n as f64), num(factor)]))
        .collect();
    let timed = |t: Timed| Value::Array(vec![num(t.raw), num(t.host)]);
    let counts = r
        .counts
        .named()
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    Value::Object(vec![
        ("requests".into(), num(r.requests as f64)),
        ("failed".into(), num(r.failed as f64)),
        (
            "failures".into(),
            Value::Array(
                r.failures
                    .iter()
                    .map(|f| Value::String(f.clone()))
                    .collect(),
            ),
        ),
        ("digest".into(), Value::String(r.digest.hex())),
        ("setup_ns".into(), timed(r.setup)),
        ("sweep_ns".into(), timed(r.sweep)),
        ("cpu_ns".into(), timed(r.cpu)),
        ("rss_kb".into(), num(sys::peak_rss_kb() as f64)),
        ("commits".into(), num(r.commits as f64)),
        ("latency".into(), Value::Array(latency)),
        ("counts".into(), obj(counts)),
    ])
}

/// Layer timings measured by probes after the traced round, outside the
/// window the tracing overhead is measured over.
#[derive(Default)]
struct Probes {
    store_bytes: u64,
    oracle_ns_per_inst: f64,
    generate_ns_per_inst: f64,
}

/// Re-reads every record of the replayed store through the store and
/// codec APIs, then re-appends them into a scratch store, timing each
/// call (the spans carry the timings).
fn store_probe(args: &RoundArgs, tracer: &mut Tracer) -> Result<Probes, String> {
    let dir = runner::store_env_mode()?.ok_or("store-replay runs with RF_STORE=1")?;
    let scratch = dir.with_extension("scratch");
    let io = |e: std::io::Error| format!("store probe: {e}");
    let _ = std::fs::remove_dir_all(&scratch);
    let mut seen = HashSet::new();
    let unique: Vec<RunSpec> = rfbench::sweep_batches(args.workload, args.seed, args.scale)
        .into_iter()
        .flatten()
        .filter(|s| seen.insert(s.clone()))
        .collect();
    tracer.begin("probe.store", None);
    let (_, snapshot) = tracer
        .time("store.open", None, || -> std::io::Result<_> {
            let store = rf_store::Store::open(&dir)?;
            let snapshot = store.snapshot()?;
            Ok((store, snapshot))
        })
        .map_err(io)?;
    let sink = rf_store::Store::open(&scratch).map_err(io)?;
    for (i, spec) in unique.iter().enumerate() {
        let req = Some(i as u64);
        let key = codec::spec_key_bytes(spec);
        let digest = rf_store::Digest::of(&key);
        let payload = tracer
            .time("store.get", req, || {
                snapshot.get(codec::DIGEST_SCHEMA, &digest, &key)
            })
            .ok_or_else(|| format!("store probe: no record for {}", digest.to_hex()))?;
        let stats = tracer.time("codec.decode_stats", req, || codec::decode_stats(&payload))?;
        let bytes = tracer.time("codec.encode_stats", req, || codec::encode_stats(&stats));
        tracer
            .time("store.append", req, || {
                sink.append(codec::DIGEST_SCHEMA, digest, &key, &bytes)
            })
            .map_err(io)?;
    }
    tracer
        .time("store.sync", None, || sink.sync())
        .map_err(io)?;
    tracer.end();
    let _ = std::fs::remove_dir_all(&scratch);
    let store_bytes = std::fs::read_dir(&dir)
        .map_err(io)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok(Probes {
        store_bytes,
        ..Probes::default()
    })
}

/// Times what `cross_validate` does outside the simulation — regenerate
/// the committed prefix, run the static oracle over it — on one
/// configuration per benchmark.
fn oracle_probe(args: &RoundArgs, tracer: &mut Tracer) -> Probes {
    tracer.begin("probe.oracle", None);
    let mut insts = 0;
    for (i, p) in rfbench::check_params(args.seed, args.scale)
        .iter()
        .enumerate()
        .step_by(8)
    {
        let req = Some(i as u64);
        let profile = rf_workload::spec92::by_name(&p.bench).expect("matrix benchmarks exist");
        let prefix: Vec<_> = tracer.time("workload.generate", req, || {
            rf_workload::TraceGenerator::new(&profile, p.seed)
                .take(p.commits as usize)
                .collect()
        });
        let insert_bw = rf_check::config_for(p).effective_insert_bandwidth();
        let oracle = tracer.time("check.analyze", req, || {
            rf_check::analyze(&prefix, insert_bw)
        });
        insts += std::hint::black_box(oracle).instructions;
    }
    tracer.end();
    let per_inst = |name| ratio(tracer.durations(name).iter().sum(), insts as f64);
    Probes {
        oracle_ns_per_inst: per_inst("check.analyze"),
        generate_ns_per_inst: per_inst("workload.generate"),
        ..Probes::default()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Kernel spans whose inclusive times add up to the stepped cycles.
const CYCLE_PHASES: [&str; 7] = [
    "cycle.cache_drain",
    "cycle.complete",
    "cycle.commit",
    "cycle.issue",
    "cycle.insert",
    "cycle.account",
    "cycle.idle_skip",
];
/// Kernel spans that belong to the rf-mem cache model.
const MEM_SPANS: [&str; 5] = [
    "cycle.cache_drain",
    "cache.load",
    "cache.store",
    "cache.drain_fills",
    "cache.mshr_drain",
];
/// The kernel span that belongs to rf-workload trace generation.
const TRACE_GEN: &str = "cycle.insert.trace_gen";

/// rf-prof's view of a traced round, per span name (summed over every
/// place the name occurs in the merged tree).
///
/// The cycle loop's spans are sampled — one step in 64, scaled up — and
/// each sampled step also pays for its own timestamps, so their times
/// are each phase's *share* of the kernel, not absolute times.
/// [`Profile::self_ns`] scales them to the kernel's exactly timed total.
struct Profile {
    /// `(self, inclusive)` ns as rf-prof recorded them.
    raw: HashMap<String, (u64, u64)>,
    /// Exactly timed kernel time of the round.
    kernel_ns: f64,
    /// Factor from sampled to absolute times.
    scale: f64,
}

impl Profile {
    fn new(tree: Option<&ProfileNode>, r: &Round, probes: &Probes, tracer: &Tracer) -> Self {
        let mut raw: HashMap<String, (u64, u64)> = HashMap::new();
        if let Some(tree) = tree {
            tree.walk(&mut |_, node| {
                let e = raw.entry(node.name.clone()).or_default();
                e.0 += node.self_ns();
                e.1 += node.total_ns;
            });
        }
        raw.remove("all");
        // Waiting for workers to finish, not work.
        raw.remove("pool.merge");
        let mut p = Self {
            raw,
            kernel_ns: 0.0,
            scale: 0.0,
        };
        // Whole simulations; for the check matrix, the check calls less
        // the prefix regeneration and oracle pass the probe timed.
        p.kernel_ns = if r.counts.configs > 0 {
            let outside = (probes.oracle_ns_per_inst + probes.generate_ns_per_inst)
                * r.counts.committed as f64;
            (tracer.durations("check.cross_validate").iter().sum::<f64>() - outside).max(0.0)
        } else {
            p.total_ns(&["run.simulate"])
        };
        p.scale = ratio(p.kernel_ns, p.total_ns(&CYCLE_PHASES));
        p
    }

    fn sampled(name: &str) -> bool {
        name.starts_with("cycle.") || name.starts_with("cache.") || name == "kill_engine"
    }

    /// Calibrated self time of the named spans.
    fn self_ns(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    fn get(&self, name: &str) -> f64 {
        let own = self.raw.get(name).map_or(0.0, |v| v.0 as f64);
        match name {
            // The kernel total is this span's inclusive time, all of it
            // handed to the sampled spans inside it.
            "run.simulate" => 0.0,
            n if Self::sampled(n) => own * self.scale,
            _ => own,
        }
    }

    /// Inclusive time of the named spans, as recorded.
    fn total_ns(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.raw.get(*n).map_or(0, |v| v.1))
            .sum::<u64>() as f64
    }

    /// Every span name with its calibrated self time.
    fn calibrated(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .raw
            .keys()
            .map(|n| (n.clone(), self.get(n) as u64))
            .collect();
        out.sort();
        out
    }
}

type Recon = Vec<(&'static str, f64, &'static str)>;

/// The per-layer metrics of a traced round, and the reconciliation
/// layers: `(layer, self ns in this round, count it scales with)`.
fn layers(
    r: &Round,
    prof: &Profile,
    probes: &Probes,
    jobs: usize,
    tracer: &Tracer,
    whole_process: bool,
) -> (Vec<(&'static str, f64)>, Recon) {
    let spans_ns = |name: &str| tracer.durations(name).iter().sum::<f64>();
    let ms = |ns: f64| ns / 1e6;
    let us_p50 = |name: &str| rfbench::median(&tracer.durations(name)).unwrap_or(0.0) / 1e3;
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let hot = |names: &[&str]| prof.self_ns(names);
    let c = &r.counts;
    let (steps, cycles) = (c.steps() as f64, c.cycles as f64);
    let check_committed = if c.configs > 0 {
        c.committed as f64
    } else {
        0.0
    };
    let kernel_ns = prof.kernel_ns;
    let core_ns: f64 = prof
        .raw
        .keys()
        .filter(|n| {
            (n.starts_with("cycle.") && *n != TRACE_GEN && !MEM_SPANS.contains(&n.as_str()))
                || *n == "kill_engine"
        })
        .map(|n| prof.get(n))
        .sum();
    let workload_ns = hot(&[TRACE_GEN, "run.generate"]);
    let mem_ns = hot(&MEM_SPANS);
    let task_ns = prof.total_ns(&["pool.task"]);
    let runner_ns = hot(&["pool.task", "pool.worker"]);

    let per_batch = |wanted: bool| -> Vec<f64> {
        if wanted {
            r.latency.iter().map(|l| l.0).collect()
        } else {
            Vec::new()
        }
    };
    let batch_ms = per_batch(c.batches > 0);
    let check_ms = per_batch(c.configs > 0);
    let batch_wall_ns = batch_ms.iter().sum::<f64>() * 1e6;
    let executed_commits = if c.sims > 0 { c.committed as f64 } else { 0.0 };
    let metrics = vec![
        ("core.insert.self_ms", ms(hot(&["cycle.insert"]))),
        ("core.issue.self_ms", ms(hot(&["cycle.issue"]))),
        (
            "core.issue.hazard.self_ms",
            ms(hot(&["cycle.issue.hazard"])),
        ),
        ("core.complete.self_ms", ms(hot(&["cycle.complete"]))),
        (
            "core.complete.entry.self_ms",
            ms(hot(&["cycle.complete.entry"])),
        ),
        ("core.commit.self_ms", ms(hot(&["cycle.commit"]))),
        ("core.account.self_ms", ms(hot(&["cycle.account"]))),
        ("core.idle_skip.self_ms", ms(hot(&["cycle.idle_skip"]))),
        ("core.kill_engine.self_ms", ms(hot(&["kill_engine"]))),
        ("core.ns_per_step", ratio(kernel_ns, steps)),
        (
            "core.commits_per_s",
            ratio(executed_commits, kernel_ns / 1e9),
        ),
        ("core.cycles", cycles),
        ("core.steps", steps),
        ("core.wakeups", c.wakeups as f64),
        ("core.skip_ratio", ratio(c.skipped as f64, cycles)),
        (
            "core.squash_ratio",
            ratio(c.squashed as f64, c.inserted as f64),
        ),
        (
            "core.stall_no_reg_frac",
            ratio(c.stall_no_reg as f64, cycles),
        ),
        (
            "core.stall_dq_full_frac",
            ratio(c.stall_dq_full as f64, cycles),
        ),
        ("workload.insts", c.inserted as f64),
        ("workload.self_ms", ms(workload_ns)),
        (
            "workload.ns_per_inst",
            ratio(workload_ns, c.inserted as f64),
        ),
        ("mem.accesses", c.accesses as f64),
        (
            "mem.load_miss_ratio",
            ratio(c.load_misses as f64, c.loads as f64),
        ),
        ("mem.peak_fills", c.peak_fills as f64),
        ("mem.self_ms", ms(mem_ns)),
        ("mem.ns_per_access", ratio(mem_ns, c.accesses as f64)),
        ("bpred.branches", c.branches as f64),
        (
            "bpred.mispredict_ratio",
            ratio(c.mispredicted as f64, c.branches as f64),
        ),
        ("runner.batches", c.batches as f64),
        (
            "runner.batch_ms_p50",
            rfbench::median(&batch_ms).unwrap_or(0.0),
        ),
        ("runner.batch_ms_max", max(&batch_ms)),
        (
            "runner.sims_executed",
            if c.batches > 0 { c.sims as f64 } else { 0.0 },
        ),
        ("runner.cache_hits", c.cache_hits as f64),
        (
            "runner.cache_hit_ratio",
            ratio(
                c.cache_hits as f64,
                if c.batches > 0 {
                    r.requests as f64
                } else {
                    0.0
                },
            ),
        ),
        (
            "runner.pool_busy_frac",
            ratio(task_ns, jobs as f64 * batch_wall_ns),
        ),
        (
            "runner.pool_idle_ms",
            ms((jobs as f64 * batch_wall_ns - task_ns).max(0.0)),
        ),
        ("store.open_ms", ms(spans_ns("store.open"))),
        ("store.get_us_p50", us_p50("store.get")),
        (
            "store.get_us_p99",
            rfbench::percentile(&tracer.durations("store.get"), 99.0).unwrap_or(0.0) / 1e3,
        ),
        ("store.append_us_p50", us_p50("store.append")),
        ("store.sync_ms", ms(spans_ns("store.sync"))),
        ("store.hits", c.store_hits as f64),
        ("store.misses", c.store_misses as f64),
        ("store.bytes", probes.store_bytes as f64),
        ("codec.decode_us_p50", us_p50("codec.decode_stats")),
        ("codec.encode_us_p50", us_p50("codec.encode_stats")),
        (
            "check.config_ms_p50",
            rfbench::median(&check_ms).unwrap_or(0.0),
        ),
        ("check.config_ms_max", max(&check_ms)),
        ("check.sanitizer_events", c.sanitizer_events as f64),
        ("check.oracle_ns_per_inst", probes.oracle_ns_per_inst),
    ];
    let recon = vec![
        ("core", core_ns, "core.steps"),
        ("workload", workload_ns, "core.inserted"),
        ("mem", mem_ns, "mem.accesses"),
        ("runner", runner_ns, "runner.sims_executed"),
        ("store.open", spans_ns("store.open"), "round"),
        // A replay process is measured whole, so its start-up and request
        // generation, up to the first request, count too.
        (
            "process.start",
            if whole_process { r.setup.raw } else { 0.0 },
            "round",
        ),
        (
            "store.read",
            spans_ns("store.get") + spans_ns("codec.decode_stats"),
            "store.hits",
        ),
        (
            "check.oracle",
            probes.oracle_ns_per_inst * check_committed,
            "check.committed",
        ),
        (
            "check.regenerate",
            probes.generate_ns_per_inst * check_committed,
            "check.committed",
        ),
    ];
    (metrics, recon)
}

fn write_trace(
    args: &RoundArgs,
    jobs: usize,
    tracer: &Tracer,
    layers: &[(String, u64)],
) -> Result<(), String> {
    // The whole round, host probes included.
    let wall_ns = tracer.durations("round").first().copied().unwrap_or(0.0) as u64;
    let text = trace::render(
        args.workload.name(),
        args.seed,
        jobs,
        wall_ns,
        tracer.spans(),
        layers,
    );
    let path = Path::new(crate::OUT_DIR).join(format!(
        "{}-{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The Table 1 probe: the baseline machines through a disabled cache,
/// scored against the paper's mean commit IPC.
pub fn probe(scale: Scale) -> Result<Value, String> {
    runner::validate_env()?;
    let pool = SimPool::try_from_env()?;
    let specs = rfbench::table1_specs(scale);
    let answers = pool.try_run_many_cached(&specs, &RunCache::disabled());
    let stats: Vec<Arc<SimStats>> = answers
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let refs: Vec<&SimStats> = stats.iter().map(Arc::as_ref).collect();
    Ok(Value::Object(vec![
        ("requests".into(), num(specs.len() as f64)),
        ("ipc_err_pct".into(), num(rfbench::ipc_err_pct(&refs))),
    ]))
}
