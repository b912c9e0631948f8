//! Workload summarisation: everything the analytic model needs to know
//! about a benchmark, computed once per (benchmark, commits, seed,
//! insert-bandwidth) and reusable across every machine shape sharing
//! those parameters.
//!
//! Three schedule-independent replays over the same committed prefix
//! the simulator would commit:
//!
//! * the static oracle + dataflow sweeps of
//!   [`rf_check::wstats::workload_stats`];
//! * an in-order branch-predictor replay (predict, speculate, recover
//!   on mispredict, train — the committed-path protocol of the real
//!   pipeline) yielding the misprediction rate;
//! * an in-order data-cache replay at a fixed canonical pace yielding
//!   the load miss rate, mean load-to-use delay, and the mean number of
//!   overlapping fills (the memory-level-parallelism divisor).
//!
//! The cache replay is paced at a *fixed* [`CACHE_PACE`] rather than
//! the machine's insert bandwidth so its outputs do not depend on issue
//! width — which keeps every [`evaluate`](crate::evaluate) input either
//! width-independent or provably monotone in width.

use rf_bpred::{AnyPredictor, PredictorKind, PredictorStats};
use rf_check::wstats::{workload_stats, WorkloadStats};
use rf_core::RunSpec;
use rf_isa::{Instruction, OpKind};
use rf_mem::{CacheConfig, CacheOrg, DataCache};
use rf_workload::{spec92, BenchmarkProfile, TraceGenerator};

/// Canonical pace (instructions per cycle) of the cache replay.
pub const CACHE_PACE: u64 = 4;

/// A schedule-independent summary of one workload prefix: the inputs of
/// [`evaluate`](crate::evaluate).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Benchmark name the prefix was generated from.
    pub bench: String,
    /// Committed instructions summarised.
    pub commits: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// Insert bandwidth pacing the oracle's ideal schedule.
    pub insert_bw: usize,
    /// Static oracle, kind mix, and windowed dataflow limits.
    pub stats: WorkloadStats,
    /// Conditional-branch misprediction rate of the replayed predictor.
    pub mispredict_rate: f64,
    /// Load miss rate of the replayed data cache (0 for a perfect
    /// cache).
    pub load_miss_rate: f64,
    /// Mean cycles from load issue to register write in the replay.
    pub mean_load_delay: f64,
    /// Mean overlapping fills observed when a miss issues (>= 1 when
    /// any miss occurred; the MLP divisor of the miss-stall term).
    pub mean_mlp: f64,
}

/// Summarises the committed prefix `spec` names: its first `commits`
/// instructions of `benchmark` at `seed`, replaying its data cache
/// (geometry and organisation; [`CacheOrg::Perfect`] models an
/// always-hit memory) and branch predictor, with the oracle
/// paced at its machine's insert bandwidth. The other machine knobs do
/// not enter the summary. Returns `None` for an unknown benchmark name.
pub fn summarize(spec: &RunSpec) -> Option<WorkloadSummary> {
    let profile = spec92::by_name(&spec.benchmark)?;
    Some(summarize_profile(&profile, spec))
}

/// [`summarize`] for an explicit profile (used by property tests with
/// perturbed profiles).
pub fn summarize_profile(profile: &BenchmarkProfile, spec: &RunSpec) -> WorkloadSummary {
    let insert_bw = spec.machine_config().effective_insert_bandwidth();
    let insts: Vec<Instruction> =
        TraceGenerator::new(profile, spec.seed).take(spec.commits as usize).collect();
    let stats = workload_stats(&insts, insert_bw);
    let mispredict_rate = replay_predictor(&insts, spec.predictor);
    let (load_miss_rate, mean_load_delay, mean_mlp) =
        replay_cache(&insts, spec.cache_geometry, spec.cache);
    WorkloadSummary {
        bench: spec.benchmark.clone(),
        commits: spec.commits,
        seed: spec.seed,
        insert_bw,
        stats,
        mispredict_rate,
        load_miss_rate,
        mean_load_delay,
        mean_mlp,
    }
}

/// In-order committed-path replay of the branch predictor: the same
/// predict / speculate / recover / train protocol the pipeline applies,
/// minus wrong-path pollution (which the real machine's recovery also
/// undoes).
fn replay_predictor(insts: &[Instruction], kind: PredictorKind) -> f64 {
    let mut predictor = AnyPredictor::new(kind);
    let mut stats = PredictorStats::new();
    for inst in insts {
        if inst.kind() != OpKind::CondBranch {
            continue;
        }
        let prediction = predictor.predict(inst.pc());
        let checkpoint = predictor.speculate(prediction.taken());
        if prediction.taken() != inst.taken() {
            predictor.recover(checkpoint, inst.taken());
        }
        predictor.train(inst.pc(), prediction, inst.taken());
        stats.record(prediction.taken(), inst.taken());
    }
    stats.misprediction_rate()
}

/// In-order data-cache replay at the canonical pace. Returns
/// `(load_miss_rate, mean_load_delay, mean_mlp)`.
fn replay_cache(insts: &[Instruction], config: CacheConfig, org: CacheOrg) -> (f64, f64, f64) {
    let mut cache = DataCache::new(config, org);
    let mut delay_sum = 0u64;
    let mut loads = 0u64;
    let mut mlp_sum = 0u64;
    let mut misses = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        let now = i as u64 / CACHE_PACE;
        cache.drain_fills(now);
        let Some(mem) = inst.mem() else { continue };
        // A locked-up cache delays the access to its unlock cycle; the
        // extra wait counts toward the observed load delay.
        let start = if cache.can_accept(now) { now } else { cache.next_accept_cycle().max(now) };
        match inst.kind() {
            OpKind::Load => {
                let result = cache.load(mem.addr(), start, i as u64);
                delay_sum += result.complete_at() - now;
                loads += 1;
                if !result.hit() {
                    misses += 1;
                    mlp_sum += cache.outstanding_fills().max(1) as u64;
                }
            }
            OpKind::Store => cache.store(mem.addr(), start),
            _ => {}
        }
    }
    let miss_rate = cache.stats().load_miss_rate();
    let mean_delay = if loads > 0 { delay_sum as f64 / loads as f64 } else { 0.0 };
    let mean_mlp = if misses > 0 { (mlp_sum as f64 / misses as f64).max(1.0) } else { 1.0 };
    (miss_rate, mean_delay, mean_mlp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(bench: &str, org: CacheOrg) -> WorkloadSummary {
        summarize(&RunSpec::baseline(bench, 4).commits(5_000).cache(org)).expect("known bench")
    }

    #[test]
    fn unknown_bench_is_none() {
        assert!(summarize(&RunSpec::baseline("nope", 4).commits(100)).is_none());
    }

    #[test]
    fn perfect_cache_never_misses() {
        let s = quick("compress", CacheOrg::Perfect);
        assert_eq!(s.load_miss_rate, 0.0);
        assert_eq!(s.mean_mlp, 1.0);
        // Hit latency (1) + the load-delay slot.
        assert!((s.mean_load_delay - 2.0).abs() < 1e-9, "{}", s.mean_load_delay);
    }

    #[test]
    fn realistic_cache_misses_and_overlaps() {
        let s = quick("compress", CacheOrg::LockupFree);
        assert!(s.load_miss_rate > 0.0, "compress misses in a 64KB cache");
        assert!(s.load_miss_rate < 0.5);
        assert!(s.mean_load_delay >= 2.0);
        assert!(s.mean_mlp >= 1.0);
    }

    #[test]
    fn mispredict_rate_is_sane() {
        let s = quick("espresso", CacheOrg::Perfect);
        assert!(s.mispredict_rate > 0.0 && s.mispredict_rate < 0.5, "{}", s.mispredict_rate);
        assert_eq!(s.commits, 5_000);
        assert_eq!(s.stats.oracle.instructions, 5_000);
    }
}
