//! # rfbench — the rfstudy benchmark
//!
//! The paper's method is a design-space sweep, so the benchmark measures
//! sweeps: seeded request streams of simulation points submitted through
//! the same public entry points the report harnesses use
//! ([`SimPool::try_run_many_cached`](rf_experiments::SimPool), the
//! `RF_STORE` tier, [`rf_check::cross_validate`]). This library holds
//! everything that defines *what* is measured — the workloads and their
//! request streams, the seed derivation, the result digest, the
//! percentile rule and the metric catalogue — so tests can check it
//! without running the benchmark. The `rfbench` binary drives it.

pub mod trace;

use rf_check::CheckParams;
use rf_core::{ExceptionModel, SimStats};
use rf_experiments::aggregate::all_names;
use rf_experiments::{codec, fig3, fig6, fig7, RunSpec};
use rf_mem::CacheOrg;

/// One benchmark workload. See `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 6 + Figure 7 register sweep: register-starved machines.
    RegSweep,
    /// Figure 3 / Table 1 dispatch-queue sweep: roomy windows.
    WindowSweep,
    /// Both sweeps answered from a warm `RF_STORE` run store.
    StoreReplay,
    /// The `rfstudy check` matrix: sanitizer + static oracle.
    Checked,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::RegSweep,
        Workload::WindowSweep,
        Workload::StoreReplay,
        Workload::Checked,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RegSweep => "regsweep",
            Workload::WindowSweep => "windowsweep",
            Workload::StoreReplay => "store-replay",
            Workload::Checked => "checked",
        }
    }

    /// Parses a command-line workload name (exact match).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run sizes: the full benchmark or the `--smoke` check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `--smoke`: 2k commits per point and the fewest rounds that still
    /// report every metric.
    pub smoke: bool,
}

impl Scale {
    fn pick(self, full: u64) -> u64 {
        if self.smoke {
            2_000
        } else {
            full
        }
    }

    /// Commits per point of the register sweep.
    pub fn reg_commits(self) -> u64 {
        self.pick(20_000)
    }

    /// Commits per point of the dispatch-queue sweep.
    pub fn window_commits(self) -> u64 {
        self.pick(50_000)
    }

    /// Commits per point of the Table 1 probe: the report suite's scale.
    pub fn table1_commits(self) -> u64 {
        self.pick(200_000)
    }

    /// Commits per configuration of the check matrix.
    pub fn check_commits(self) -> u64 {
        self.pick(40_000)
    }

    /// Commits per host warm-up simulation.
    pub fn warmup_commits(self) -> u64 {
        self.pick(5_000)
    }

    /// Measured rounds a run makes at least, whatever `--seconds` says.
    /// Store replay needs 100 so its round latency has a median worth the
    /// name; the cold sweeps need enough request samples for a p90 with
    /// ten samples beyond it (checked answers 72 per round).
    pub fn min_rounds(self, workload: Workload) -> usize {
        match (workload, self.smoke) {
            (Workload::StoreReplay, false) => 100,
            (Workload::StoreReplay, true) => 5,
            (_, false) => 3,
            (_, true) => 2,
        }
    }
}

/// Derives a workload seed from the benchmark `--seed` and a name. The
/// sweeps name the benchmark, so every point of one benchmark shares a
/// seed: a machine point two batches both request is one spec and the
/// run cache answers the second, as in the report suite.
pub fn spec_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's baseline machine for `bench` at `width` (dispatch queue
/// 8 x width, 2048 registers, precise, lockup-free) with the benchmark's
/// commit budget and derived seed.
fn point(bench: &str, width: usize, commits: u64, seed: u64) -> RunSpec {
    RunSpec {
        seed: spec_seed(seed, bench),
        ..RunSpec::baseline(bench, width).commits(commits)
    }
}

/// The Figure 6 and Figure 7 register sweeps, batched and ordered as
/// `fig6::sweep` and `fig7::sweep` submit them in the report suite.
/// Figure 6 sends one (register count × benchmark) batch of 72 per
/// (width, exception model). Figure 7 sends one (organisation × register
/// count × benchmark) batch of 216 per (exception model, width). That is
/// 8 batches and 1152 requests. 864 points are distinct: Figure 7's
/// lockup-free points repeat Figure 6's.
fn regsweep(seed: u64, commits: u64) -> Vec<Vec<RunSpec>> {
    let names = all_names();
    let grid = |width: usize, model: ExceptionModel, orgs: &[CacheOrg]| -> Vec<RunSpec> {
        let mut batch = Vec::new();
        for &org in orgs {
            for &regs in fig6::REG_SIZES {
                for n in &names {
                    batch.push(
                        point(n, width, commits, seed)
                            .regs(regs)
                            .exceptions(model)
                            .cache(org),
                    );
                }
            }
        }
        batch
    };
    let mut batches = Vec::new();
    for width in [4usize, 8] {
        for model in [ExceptionModel::Precise, ExceptionModel::Imprecise] {
            batches.push(grid(width, model, &[CacheOrg::LockupFree]));
        }
    }
    for model in [ExceptionModel::Imprecise, ExceptionModel::Precise] {
        for width in [4usize, 8] {
            batches.push(grid(width, model, fig7::ORGS));
        }
    }
    batches
}

/// The Figure 3 dispatch-queue sweep, batched as `fig3::sweep` submits
/// it: one (queue size × benchmark) batch of 54 per width, over the
/// lockup-free cache. A perfect-cache batch of the same shape follows
/// each. That is 4 batches and 216 distinct points.
fn windowsweep(seed: u64, commits: u64) -> Vec<Vec<RunSpec>> {
    let names = all_names();
    let mut batches = Vec::new();
    for width in [4usize, 8] {
        for org in [CacheOrg::LockupFree, CacheOrg::Perfect] {
            let mut batch = Vec::new();
            for &dq in fig3::DQ_SIZES {
                for n in &names {
                    batch.push(point(n, width, commits, seed).dq(dq).cache(org));
                }
            }
            batches.push(batch);
        }
    }
    batches
}

/// The request stream one round of a sweep workload submits, batch by
/// batch. `checked` submits [`check_params`] instead and has no batches.
pub fn sweep_batches(workload: Workload, seed: u64, scale: Scale) -> Vec<Vec<RunSpec>> {
    match workload {
        Workload::RegSweep => regsweep(seed, scale.reg_commits()),
        Workload::WindowSweep => windowsweep(seed, scale.window_commits()),
        Workload::StoreReplay => {
            let mut all = regsweep(seed, scale.reg_commits());
            all.extend(windowsweep(seed, scale.window_commits()));
            all
        }
        Workload::Checked => Vec::new(),
    }
}

/// The `rfstudy check` matrix (72 configurations). Nothing repeats in
/// it, so each configuration gets its own derived seed: a run then
/// averages 72 independent traces instead of nine, which keeps its cost
/// from depending on `--seed`.
pub fn check_params(seed: u64, scale: Scale) -> Vec<CheckParams> {
    let mut matrix = rf_check::default_matrix(scale.check_commits(), 0);
    for p in &mut matrix {
        let config = format!("{}/{}/{}/{}", p.bench, p.width, p.exceptions, p.regs);
        p.seed = spec_seed(seed, &config);
    }
    matrix
}

/// Requests one round of `workload` submits.
pub fn requests_per_round(workload: Workload, scale: Scale) -> u64 {
    match workload {
        Workload::Checked => check_params(1, scale).len() as u64,
        w => sweep_batches(w, 1, scale)
            .iter()
            .map(Vec::len)
            .sum::<usize>() as u64,
    }
}

/// Nine untimed simulations, one per benchmark, that warm the host
/// (page cache, CPU frequency, allocator) before a cold round.
pub fn warmup_specs(seed: u64, scale: Scale) -> Vec<RunSpec> {
    all_names()
        .iter()
        .map(|n| point(n, 4, scale.warmup_commits(), seed))
        .collect()
}

/// The Table 1 baseline machines at both widths, exactly as the report
/// suite simulates them (its reference seed, 200k commits at full
/// scale): the points the paper's mean commit IPC is reported for. They
/// do not depend on `--seed`, so the error against the paper is the one
/// the published `results/table1.txt` shows.
pub fn table1_specs(scale: Scale) -> Vec<RunSpec> {
    let names = all_names();
    [4usize, 8]
        .into_iter()
        .flat_map(|w| {
            names
                .iter()
                .map(move |n| RunSpec::baseline(n, w).commits(scale.table1_commits()))
        })
        .collect()
}

/// Mean |simulated − paper| / paper, in percent, of Table 1's mean
/// commit IPC at 4-way and 8-way, from the [`table1_specs`] results in
/// the same order.
pub fn ipc_err_pct(stats: &[&SimStats]) -> f64 {
    let per_width = stats.len() / 2;
    let mut err = 0.0;
    for (i, width) in ["4way", "8way"].into_iter().enumerate() {
        let runs = &stats[i * per_width..(i + 1) * per_width];
        let mean = runs.iter().map(|s| s.commit_ipc()).sum::<f64>() / runs.len() as f64;
        let paper = rf_obs::fidelity::target(&format!("table1.commit_ipc_mean.{width}"))
            .and_then(|t| t.paper)
            .expect("Table 1 mean commit IPC is a pinned paper target");
        err += (mean - paper).abs() / paper * 100.0;
    }
    err / 2.0
}

/// Time of one [`HostProbe`] measurement on the reference host (a 2-core
/// Intel Xeon VM, quiet), in nanoseconds. End-to-end times are reported
/// as the time they would have taken on that host.
pub const REFERENCE_PROBE_NS: f64 = 15.0e6;

/// How much more the simulator's kernel slows than [`HostProbe`] when the
/// host slows, as an exponent: kernel time goes as probe time to this
/// power. Contention from neighbours hurts the simulator's branchy,
/// memory-bound kernel more than the probe.
///
/// Measured on a 2-core Intel Xeon VM over 15 minutes in which rounds ran
/// 25–45% slower than on a quiet host, probing between 0.5 s segments.
/// Regressing log round time on log probe time gave 1.3–1.45. Scaling
/// with 1.35 brought the median `regsweep` and `windowsweep` round back
/// to within 2% of the quiet host's, where an exponent of 1 left them
/// 12–13% high. It also cut the spread (standard deviation of log round
/// time) from 5.7–6.4% to 4.6–4.9%.
///
/// Process start-up runs none of the kernel. With this exponent it came
/// out 13–19% low on the slow host; with 1 it stayed within 2% of the
/// quiet host's, so it is scaled with 1.
pub const KERNEL_SENSITIVITY: f64 = 1.35;

/// Time to start and reap a process that does nothing (`true`) on the
/// reference host, in nanoseconds: a round figure near the 1.0–1.3 ms
/// measured on a 2-core Intel Xeon VM. A store replay process is scaled
/// by this over the same time measured just before it.
pub const REFERENCE_SPAWN_NS: f64 = 1.0e6;

/// The factor that scales a time measured while [`HostProbe`] took
/// `probe_ns` to the time it would have taken on the reference host, for
/// work whose time goes as probe time to the power `sensitivity`.
pub fn host_factor(probe_ns: f64, sensitivity: f64) -> f64 {
    (REFERENCE_PROBE_NS / probe_ns).powf(sensitivity)
}

/// A fixed CPU kernel owned by the benchmark, timed between the measured
/// parts of a run to track how fast the shared host is running at the
/// moment.
///
/// A shared host's speed drifts: on a 2-core Intel Xeon VM, by 25% over
/// minutes and by up to ~2x when neighbours load the machine. Neither the
/// wall time nor the CPU time of a round can tell that drift from a
/// change in the program, but this kernel's time moves with the drift
/// and with nothing in the program.
/// It mixes integer hashing with branches and a pointer chase through an
/// L2-sized permutation, run on as many threads as a round uses; of the
/// kernels tried, it tracked round times best.
#[derive(Debug)]
pub struct HostProbe {
    chain: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        let n = 1usize << 15;
        let mut chain: Vec<u32> = (0..n as u32).collect();
        let mut s = 12_345u64;
        // Sattolo's shuffle: one cycle through every slot.
        for k in (1..n).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            chain.swap(k, (s >> 33) as usize % k);
        }
        Self { chain }
    }
}

impl HostProbe {
    /// One measurement, in nanoseconds: the kernel timed on `threads`
    /// threads at once — as many as a round keeps busy, since neighbours
    /// on sibling hardware threads slow a full machine differently from
    /// one thread — averaged over the threads.
    ///
    /// One thread is the calling thread, so that the probe most likely
    /// runs on the CPU the measured work just ran on.
    pub fn measure(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.measure_one();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| self.measure_one()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the probe kernel cannot panic"))
                .sum::<f64>()
                / threads as f64
        })
    }

    /// The fastest of five timings of each half of the kernel, summed.
    fn measure_one(&self) -> f64 {
        let fastest = |f: &dyn Fn() -> u64| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        fastest(&|| Self::hash_mix(std::hint::black_box(3_000_000)))
            + fastest(&|| self.chase(std::hint::black_box(2_000_000)))
    }

    fn hash_mix(steps: u64) -> u64 {
        let (mut z, mut acc) = (1u64, 0u64);
        for k in 0..steps {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            if x & 7 < 3 {
                acc = acc.wrapping_add(x ^ k);
            } else {
                acc ^= x >> 3;
            }
        }
        acc
    }

    fn chase(&self, steps: u64) -> u64 {
        let (mut i, mut acc) = (0u32, 0u64);
        for _ in 0..steps {
            i = self.chain[i as usize];
            acc = acc.rotate_left(5) ^ u64::from(i);
        }
        acc
    }
}

/// A running digest of a round's answers, in request order: each request
/// folds its identity bytes and its encoded [`SimStats`] into a 128-bit
/// chain. Two rounds agree on the digest exactly when they gave the same
/// answers to the same requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsDigest([u8; 16]);

impl StatsDigest {
    /// Folds one answer in.
    pub fn push(&mut self, key: &[u8], stats: &SimStats) {
        let payload = codec::encode_stats(stats);
        let mut buf = Vec::with_capacity(16 + 8 + key.len() + payload.len());
        buf.extend_from_slice(&self.0);
        buf.extend_from_slice(&(key.len() as u64).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&payload);
        self.0 = rf_store::hash::digest128(&buf);
    }

    /// Folds in the answer to a simulation point.
    pub fn push_spec(&mut self, spec: &RunSpec, stats: &SimStats) {
        self.push(&codec::spec_key_bytes(spec), stats);
    }

    /// The digest as 32 hex digits.
    pub fn hex(&self) -> String {
        rf_store::Digest(self.0).to_hex()
    }
}

/// The identity bytes of a check configuration for [`StatsDigest`].
pub fn check_key(p: &CheckParams) -> Vec<u8> {
    format!(
        "{}/{}/{}/{}/{}/{}",
        p.bench, p.width, p.exceptions, p.regs, p.commits, p.seed
    )
    .into_bytes()
}

/// The digest of `workload`'s answers pinned at the reference seed (1)
/// and full scale. A run at that seed and scale whose answers hash
/// differently fails every request of the round: the simulator's results
/// changed.
pub fn reference_digest(workload: Workload) -> &'static str {
    match workload {
        Workload::RegSweep => "d0fcfff8a915cf9fc8becf871f70aeaa",
        Workload::WindowSweep => "a2f9bc380933f93e1e0f3e7f37de412d",
        Workload::StoreReplay => "f72b81e77330441f216363677bc56f80",
        Workload::Checked => "d77945b1b79843c0f66a44fada801234",
    }
}

/// Requests of a round that fail its digest check: all of them when the
/// round's digest differs from the one it must equal, none otherwise.
pub fn digest_failures(expected: &str, got: &str, requests: u64) -> u64 {
    if expected == got {
        0
    } else {
        requests
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`,
/// reported only when at least ten samples lie above it; `None` when
/// there are too few samples for that percentile to mean anything.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// The median of `samples` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// One reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("sweep_s", "s"),
    m("cpu_ns_per_commit", "ns"),
    m("answer_ms_p50", "ms"),
    m("answer_ms_p90", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ipc_err_pct", "%"),
];

/// Per-layer metrics, printed by every traced run of every workload
/// (0 where the workload does not use the layer).
pub const PER_LAYER: &[Metric] = &[
    m("core.insert.self_ms", "ms"),
    m("core.issue.self_ms", "ms"),
    m("core.issue.hazard.self_ms", "ms"),
    m("core.complete.self_ms", "ms"),
    m("core.complete.entry.self_ms", "ms"),
    m("core.commit.self_ms", "ms"),
    m("core.account.self_ms", "ms"),
    m("core.idle_skip.self_ms", "ms"),
    m("core.kill_engine.self_ms", "ms"),
    m("core.ns_per_step", "ns"),
    m("core.commits_per_s", "1/s"),
    m("core.cycles", "count"),
    m("core.steps", "count"),
    m("core.wakeups", "count"),
    m("core.skip_ratio", "ratio"),
    m("core.squash_ratio", "ratio"),
    m("core.stall_no_reg_frac", "ratio"),
    m("core.stall_dq_full_frac", "ratio"),
    m("workload.insts", "count"),
    m("workload.self_ms", "ms"),
    m("workload.ns_per_inst", "ns"),
    m("mem.accesses", "count"),
    m("mem.load_miss_ratio", "ratio"),
    m("mem.peak_fills", "count"),
    m("mem.self_ms", "ms"),
    m("mem.ns_per_access", "ns"),
    m("bpred.branches", "count"),
    m("bpred.mispredict_ratio", "ratio"),
    m("runner.batches", "count"),
    m("runner.batch_ms_p50", "ms"),
    m("runner.batch_ms_max", "ms"),
    m("runner.sims_executed", "count"),
    m("runner.cache_hits", "count"),
    m("runner.cache_hit_ratio", "ratio"),
    m("runner.pool_busy_frac", "ratio"),
    m("runner.pool_idle_ms", "ms"),
    m("store.open_ms", "ms"),
    m("store.get_us_p50", "us"),
    m("store.get_us_p99", "us"),
    m("store.append_us_p50", "us"),
    m("store.sync_ms", "ms"),
    m("store.hits", "count"),
    m("store.misses", "count"),
    m("store.bytes", "B"),
    m("codec.decode_us_p50", "us"),
    m("codec.encode_us_p50", "us"),
    m("check.config_ms_p50", "ms"),
    m("check.config_ms_max", "ms"),
    m("check.sanitizer_events", "count"),
    m("check.oracle_ns_per_inst", "ns"),
    m("trace.overhead_pct", "%"),
    m("recon.unexplained_pct", "%"),
];
