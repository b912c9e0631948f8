//! Non-blocking loads under memory pressure: compare the perfect,
//! lockup-free, and lockup cache organisations on the miss-heavy
//! `tomcatv` (a single-benchmark slice of the paper's Figures 7 and 8).
//!
//! ```sh
//! cargo run --release --example memory_pressure [commits]
//! ```

use rfstudy::core::{LiveModel, MachineConfig, Pipeline};
use rfstudy::isa::RegClass;
use rfstudy::mem::CacheOrg;
use rfstudy::workload::{spec92, SharedTrace};

fn main() {
    let commits: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let len = commits.min(SharedTrace::MAX_BUFFERED) as usize;
    let trace = SharedTrace::new(&spec92::tomcatv(), 1, len);

    println!("tomcatv, 4-way issue, dq 32, 96 registers, precise exceptions\n");
    println!(
        "{:>12} {:>10} {:>8} {:>10} {:>14} {:>12}",
        "cache", "commitIPC", "miss%", "fills", "peak-in-flight", "int live90"
    );
    for org in [CacheOrg::Perfect, CacheOrg::LockupFree, CacheOrg::Lockup] {
        let config = MachineConfig::new(4)
            .dispatch_queue(32)
            .physical_regs(96)
            .cache(org);
        let (stats, _) = Pipeline::new(config)
            .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
            .expect("no cancel token");
        println!(
            "{:>12} {:>10.2} {:>8.1} {:>10} {:>14} {:>12}",
            org.to_string(),
            stats.commit_ipc(),
            100.0 * stats.cache.load_miss_rate(),
            stats.cache.fills_installed,
            stats.peak_outstanding_fills,
            stats.live_percentile(RegClass::Int, LiveModel::Precise, 90.0),
        );
    }
    println!(
        "\nReading: the lockup (blocking) cache serialises around every miss\n\
         and loses most of the machine's throughput; the inverted-MSHR\n\
         lockup-free cache overlaps misses and approaches the perfect cache,\n\
         at the cost of keeping more registers live (the paper's second\n\
         conclusion)."
    );
}
