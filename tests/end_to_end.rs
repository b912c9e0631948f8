//! Cross-crate integration tests: whole-machine invariants that must hold
//! for every benchmark and machine shape.

use rfstudy::core::{ExceptionModel, LiveModel, MachineConfig, Pipeline, SimStats};
use rfstudy::isa::RegClass;
use rfstudy::mem::CacheOrg;
use rfstudy::workload::{spec92, SharedTrace, TraceGenerator, WrongPathGenerator};

const COMMITS: u64 = 8_000;

fn run(bench: &str, config: MachineConfig) -> SimStats {
    let profile = spec92::by_name(bench).expect("known benchmark");
    let mut trace = TraceGenerator::new(&profile, 21);
    let mut wrong_path = WrongPathGenerator::new(&profile, 1);
    Pipeline::new(config)
        .run(&mut trace, &mut wrong_path, COMMITS)
        .expect("no cancel token")
        .0
}

fn check_invariants(name: &str, width: usize, stats: &SimStats) {
    assert_eq!(stats.committed, COMMITS, "{name}");
    assert!(stats.cycles > 0, "{name}");
    // Issue rate can never exceed the machine width; commit can never
    // exceed issue (every committed instruction was issued).
    assert!(stats.issue_ipc() <= width as f64 + 1e-9, "{name}");
    assert!(stats.commit_ipc() <= stats.issue_ipc() + 1e-9, "{name}");
    // Every inserted instruction either committed, was squashed, or is
    // still in flight at the end of the run.
    assert!(stats.inserted >= stats.committed + stats.squashed, "{name}");
    // With 31 architectural mappings per class, fewer than 31 registers
    // can never be live.
    for class in [RegClass::Int, RegClass::Fp] {
        let hist = stats.live_histogram(class, LiveModel::Precise);
        assert!(
            hist.iter().take(31).all(|&c| c == 0),
            "{name}: fewer than 31 {class:?} registers live at some cycle"
        );
        // Imprecise liveness is pointwise at most precise liveness in
        // percentile terms.
        for pct in [50.0, 90.0, 99.0] {
            let p = stats.live_percentile(class, LiveModel::Precise, pct);
            let i = stats.live_percentile(class, LiveModel::Imprecise, pct);
            assert!(i <= p, "{name}: imprecise {i} > precise {p} at {pct}th pct");
        }
    }
    // Histogram mass equals the cycle count.
    let mass: u64 = stats.live_histogram(RegClass::Int, LiveModel::Precise).iter().sum();
    assert_eq!(mass, stats.cycles, "{name}");
}

#[test]
fn invariants_hold_across_the_suite() {
    for p in spec92::all() {
        for width in [4usize, 8] {
            let config = MachineConfig::new(width)
                .dispatch_queue(width * 8)
                .physical_regs(2048);
            let stats = run(&p.name, config);
            check_invariants(&p.name, width, &stats);
        }
    }
}

#[test]
fn invariants_hold_under_register_pressure() {
    for regs in [32usize, 40, 64] {
        for model in [ExceptionModel::Precise, ExceptionModel::Imprecise] {
            let config = MachineConfig::new(4)
                .dispatch_queue(32)
                .physical_regs(regs)
                .exceptions(model);
            let stats = run("compress", config);
            check_invariants(&format!("compress/{regs}/{model}"), 4, &stats);
        }
    }
}

#[test]
fn invariants_hold_for_every_cache_org() {
    for org in [CacheOrg::Perfect, CacheOrg::LockupFree, CacheOrg::Lockup] {
        let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(96).cache(org);
        let stats = run("su2cor", config);
        check_invariants(&format!("su2cor/{org}"), 4, &stats);
    }
}

#[test]
fn simulation_is_deterministic() {
    let mk = || {
        let config = MachineConfig::new(4).dispatch_queue(32).physical_regs(64);
        let trace = SharedTrace::new(&spec92::gcc1(), 9, COMMITS as usize);
        Pipeline::new(config)
            .run(&mut trace.cursor(), &mut trace.wrong_path(), COMMITS)
            .expect("no cancel token")
            .0
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.squashed, b.squashed);
    assert_eq!(
        a.live_histogram(RegClass::Int, LiveModel::Precise),
        b.live_histogram(RegClass::Int, LiveModel::Precise)
    );
}

#[test]
fn exception_models_agree_when_registers_are_plentiful() {
    // With 2048 registers nothing ever stalls on the free list, so the
    // freeing policy cannot change the schedule: both models must produce
    // cycle-identical runs.
    let mk = |model| {
        let config = MachineConfig::new(4)
            .dispatch_queue(32)
            .physical_regs(2048)
            .exceptions(model);
        let profile = spec92::doduc();
        let mut trace = TraceGenerator::new(&profile, 3);
        let mut wrong_path = WrongPathGenerator::new(&profile, 1);
        Pipeline::new(config)
            .run(&mut trace, &mut wrong_path, COMMITS)
            .expect("no cancel token")
            .0
    };
    let p = mk(ExceptionModel::Precise);
    let i = mk(ExceptionModel::Imprecise);
    assert_eq!(p.cycles, i.cycles);
    assert_eq!(p.issued, i.issued);
    assert_eq!(p.squashed, i.squashed);
}

#[test]
fn wrong_path_work_tracks_misprediction_rate() {
    // A benchmark with near-perfect prediction wastes almost nothing; a
    // badly-predicted one wastes a lot.
    let config = || MachineConfig::new(4).dispatch_queue(32).physical_regs(2048);
    let tom = run("tomcatv", config());
    let gcc = run("gcc1", config());
    let waste = |s: &SimStats| s.squashed as f64 / s.committed as f64;
    assert!(waste(&tom) < 0.1, "tomcatv waste {}", waste(&tom));
    assert!(waste(&gcc) > waste(&tom) * 3.0, "gcc1 waste {}", waste(&gcc));
}
