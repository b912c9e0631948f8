//! Sensitivity studies beyond the paper's fixed memory parameters: the
//! memory fetch latency (the paper holds it at 16 cycles), the data-cache
//! capacity (held at 64 KB), and the effect of a finite instruction cache
//! (the paper's is effectively perfect).

use crate::aggregate::{all_names, mean_over};
use crate::runner::{RunSpec, Scale};
use crate::suite::Answers;
use crate::table::Table;
use rf_core::SimStats;
use rf_mem::CacheConfig;

/// Memory fetch latencies swept, in cycles.
const LATENCIES: [u64; 4] = [8, 16, 32, 64];
/// Data-cache capacities swept, in KB.
const CAPACITIES_KB: [usize; 5] = [16, 32, 64, 128, 256];

/// The 64 KB 2-way data cache at a fetch latency.
fn at_latency(latency: u64) -> CacheConfig {
    CacheConfig::new(64 * 1024, 2, 32, 1, latency)
}

/// A 2-way data cache of `kb` KB at the paper's 16-cycle latency.
fn of_capacity(kb: usize) -> CacheConfig {
    CacheConfig::new(kb * 1024, 2, 32, 1, 16)
}

/// The finite instruction cache compared with the perfect one.
fn finite_icache(c: RunSpec) -> RunSpec {
    c.icache(CacheConfig::new(64 * 1024, 2, 32, 1, 16), 16)
}

/// The nine benchmarks on the 4-way, 96-register machine, each spec
/// adjusted by `configure`.
fn suite(configure: impl Fn(RunSpec) -> RunSpec, scale: &Scale) -> Vec<RunSpec> {
    all_names()
        .iter()
        .map(|n| configure(RunSpec::baseline(n, 4).regs(96).commits(scale.commits)))
        .collect()
}

/// Every sweep's suite, in report order.
pub fn plan(scale: &Scale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for latency in LATENCIES {
        specs.extend(suite(|c| c.cache_geometry(at_latency(latency)), scale));
    }
    for kb in CAPACITIES_KB {
        specs.extend(suite(|c| c.cache_geometry(of_capacity(kb)), scale));
    }
    specs.extend(suite(|c| c, scale));
    specs.extend(suite(finite_icache, scale));
    specs
}

/// Renders the sensitivity sweeps.
pub fn render(scale: &Scale, answers: &Answers) -> String {
    let names = all_names();
    let runs = |configure: &dyn Fn(RunSpec) -> RunSpec| answers.runs(&suite(configure, scale));
    let mut out = String::from(
        "Sensitivity studies (4-way issue, dq 32, 96 registers, lockup-free)\n\n",
    );

    out.push_str("Memory fetch latency (paper: 16 cycles)\n");
    let mut t = Table::new(vec!["latency", "avg commit IPC", "avg miss%"]);
    for latency in LATENCIES {
        let runs = runs(&|c| c.cache_geometry(at_latency(latency)));
        t.row(vec![
            latency.to_string(),
            format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc)),
            format!("{:.1}", 100.0 * mean_over(&runs, &names, |s| s.cache.load_miss_rate())),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nData-cache capacity (paper: 64 KB, 2-way)\n");
    let mut t = Table::new(vec!["capacity", "avg commit IPC", "avg miss%"]);
    for kb in CAPACITIES_KB {
        let runs = runs(&|c| c.cache_geometry(of_capacity(kb)));
        t.row(vec![
            format!("{kb}KB"),
            format!("{:.2}", mean_over(&runs, &names, SimStats::commit_ipc)),
            format!("{:.1}", 100.0 * mean_over(&runs, &names, |s| s.cache.load_miss_rate())),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nInstruction cache (paper: perfect / fixed penalty, <1% misses)\n");
    let mut t = Table::new(vec!["icache", "avg commit IPC", "avg icache miss%"]);
    let perfect = runs(&|c| c);
    t.row(vec![
        "perfect".to_owned(),
        format!("{:.2}", mean_over(&perfect, &names, SimStats::commit_ipc)),
        "0.0".to_owned(),
    ]);
    let finite = runs(&finite_icache);
    t.row(vec![
        "64KB/16cy".to_owned(),
        format!("{:.2}", mean_over(&finite, &names, SimStats::commit_ipc)),
        format!("{:.2}", 100.0 * mean_over(&finite, &names, |s| s.icache_miss_rate)),
    ]);
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn run_suite(
        configure: impl Fn(RunSpec) -> RunSpec,
        commits: u64,
    ) -> Vec<(String, Arc<SimStats>)> {
        let specs = suite(configure, &Scale { commits });
        crate::suite::answer(&specs).runs(&specs)
    }

    #[test]
    fn shorter_fetch_latency_never_hurts() {
        let commits = 4_000;
        let names = all_names();
        let fast = run_suite(
            |c| c.cache_geometry(CacheConfig::new(64 * 1024, 2, 32, 1, 8)),
            commits,
        );
        let slow = run_suite(
            |c| c.cache_geometry(CacheConfig::new(64 * 1024, 2, 32, 1, 32)),
            commits,
        );
        let f = mean_over(&fast, &names, SimStats::commit_ipc);
        let s = mean_over(&slow, &names, SimStats::commit_ipc);
        assert!(f > s, "8-cycle latency {f} should beat 32-cycle {s}");
    }

    #[test]
    fn bigger_caches_do_not_miss_more() {
        let commits = 4_000;
        let names = all_names();
        let small = run_suite(
            |c| c.cache_geometry(CacheConfig::new(16 * 1024, 2, 32, 1, 16)),
            commits,
        );
        let big = run_suite(
            |c| c.cache_geometry(CacheConfig::new(256 * 1024, 2, 32, 1, 16)),
            commits,
        );
        let sm = mean_over(&small, &names, |s| s.cache.load_miss_rate());
        let bg = mean_over(&big, &names, |s| s.cache.load_miss_rate());
        assert!(bg <= sm + 0.01, "256KB miss {bg} vs 16KB miss {sm}");
    }
}
