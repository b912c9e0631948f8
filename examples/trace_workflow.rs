//! Record/replay workflow: capture a trace once, then sweep machine
//! configurations over the *identical* instruction stream — the
//! experimental methodology of the original study (ATOM-captured traces
//! replayed through many machine models).
//!
//! The file is read once into one `SharedTrace`, and every grid point
//! replays it through its own cursor, as the experiment suite does.
//!
//! ```sh
//! cargo run --release --example trace_workflow [benchmark] [instructions]
//! ```

use rfstudy::core::{ExceptionModel, MachineConfig, Pipeline};
use rfstudy::workload::{spec92, SharedTrace};

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "su2cor".to_owned());
    let count: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(400_000);
    let profile = spec92::by_name(&bench).expect("known benchmark name");

    // 1. Record the trace to a temporary file.
    let path = std::env::temp_dir().join(format!("rfstudy_{bench}.rft"));
    SharedTrace::new(&profile, 42, count).write_to(&mut std::fs::File::create(&path)?)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "recorded {count} instructions to {} ({:.2} bytes/inst)\n",
        path.display(),
        bytes as f64 / count as f64
    );

    // 2. Read it back once; its header names the benchmark and seed, which
    //    fix the wrong-path stream too.
    let trace = SharedTrace::read_from(&mut std::fs::File::open(&path)?)?;
    std::fs::remove_file(&path).ok();
    let commits = (trace.len() as u64) * 2 / 3;

    // 3. Replay it through a grid of machines.
    println!(
        "{:>6} {:>6} {:>12} {:>10} {:>8}",
        "width", "regs", "exceptions", "commitIPC", "cycles"
    );
    for width in [4usize, 8] {
        for regs in [64usize, 128] {
            for model in [ExceptionModel::Precise, ExceptionModel::Imprecise] {
                let config =
                    MachineConfig::new(width).physical_regs(regs).exceptions(model);
                let (stats, _) = Pipeline::new(config)
                    .run(&mut trace.cursor(), &mut trace.wrong_path(), commits)
                    .expect("no cancel token");
                println!(
                    "{width:>6} {regs:>6} {:>12} {:>10.2} {:>8}",
                    model.to_string(),
                    stats.commit_ipc(),
                    stats.cycles
                );
            }
        }
    }
    println!(
        "\nEvery row consumed byte-identical instructions: differences are purely machine effects."
    );
    Ok(())
}
