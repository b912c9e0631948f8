//! Quickstart: simulate one benchmark on the paper's baseline 4-way
//! machine and print the headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart [benchmark] [commits]
//! ```

use rfstudy::core::{ExceptionModel, MachineConfig, Pipeline};
use rfstudy::isa::RegClass;
use rfstudy::mem::CacheOrg;
use rfstudy::workload::{spec92, SharedTrace};

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "compress".to_owned());
    let commits: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(200_000);

    let profile = spec92::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench:?}; try one of:");
        for p in spec92::all() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    });

    // The paper's baseline 4-way machine: 32-entry dispatch queue,
    // effectively unlimited (2048) registers, precise exceptions,
    // lockup-free 64 KB 2-way data cache.
    let config = MachineConfig::new(4)
        .dispatch_queue(32)
        .physical_regs(2048)
        .exceptions(ExceptionModel::Precise)
        .cache(CacheOrg::LockupFree);

    // The committed path of (benchmark, seed 1), buffered up to a cap and
    // generated on past it, plus its wrong-path stream.
    let trace = SharedTrace::new(&profile, 1, commits.min(SharedTrace::MAX_BUFFERED) as usize);
    let (stats, _) = Pipeline::new(config)
        .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
        .expect("no cancel token");

    println!("benchmark            : {bench}");
    println!("committed            : {}", stats.committed);
    println!("cycles               : {}", stats.cycles);
    println!("issue IPC            : {:.2}", stats.issue_ipc());
    println!("commit IPC           : {:.2}", stats.commit_ipc());
    println!("load miss rate       : {:.1}%", 100.0 * stats.cache.load_miss_rate());
    println!("cbr mispredict rate  : {:.1}%", 100.0 * stats.mispredict_rate());
    println!("squashed (wrong path): {}", stats.squashed);
    for (class, label) in [(RegClass::Int, "int"), (RegClass::Fp, "fp ")] {
        use rfstudy::core::LiveModel;
        let p90 = stats.live_percentile(class, LiveModel::Precise, 90.0);
        let i90 = stats.live_percentile(class, LiveModel::Imprecise, 90.0);
        println!("{label} live regs (90th)  : precise {p90}, imprecise {i90}");
    }
}
