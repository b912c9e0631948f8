//! Cross-validation of the dynamic simulator against the static oracle.
//!
//! One check runs the pipeline with the [`Sanitizer`] observer riding the
//! zero-cost hooks, statically analyses the exact committed prefix of the
//! same trace, and reconciles the two:
//!
//! * every microarchitectural invariant the sanitizer watches must hold
//!   (freelist conservation, rename-map bijectivity, no double
//!   alloc/free, in-order commit, squash completeness);
//! * the simulator's max-live register count must fall inside the
//!   static `[floor, upper_bound]` bracket for both classes;
//! * the committed instruction stream must match the static def/use and
//!   kind counts exactly (the pipeline commits in order, so the committed
//!   set *is* the first `n` trace entries).
//!
//! The two halves are independent, so they run at once: the oracle on a
//! scoped thread over its own [`TraceGenerator`], the simulation on the
//! calling thread over the packed [`SharedTrace`]. Neither reads the
//! other's instructions, which is what makes the reconciliation a check
//! of the replay as well as of the pipeline.

use crate::oracle::{self, TraceOracle};
use crate::sanitizer::Sanitizer;
use rf_core::{
    CancelToken, Cancelled, ExceptionModel, LiveModel, MachineConfig, Pipeline, RunSpec,
    SimStats,
};
use rf_isa::{OpKind, RegClass};
use rf_workload::{spec92, SharedTrace, TraceGenerator};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Instructions the oracle's generator yields between two polls of the
/// cancel token, as often as [`SharedTrace::build`] polls.
const POLL_EVERY: usize = 4096;

/// One point of the check matrix: the six dimensions the matrix varies
/// or pins. [`CheckParams::spec`] is the [`RunSpec`] it names; every
/// other dimension is the paper's baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckParams {
    /// Benchmark profile name (must resolve via [`spec92::by_name`]).
    pub bench: String,
    /// Machine issue width.
    pub width: usize,
    /// Exception / register-freeing model.
    pub exceptions: ExceptionModel,
    /// Physical registers per class.
    pub regs: usize,
    /// Committed instructions to simulate.
    pub commits: u64,
    /// Workload seed.
    pub seed: u64,
}

impl CheckParams {
    /// The run this matrix point names: [`RunSpec::baseline`] with the
    /// point's registers, exception model, commit budget and seed.
    pub fn spec(&self) -> RunSpec {
        RunSpec {
            seed: self.seed,
            ..RunSpec::baseline(&self.bench, self.width)
                .regs(self.regs)
                .exceptions(self.exceptions)
                .commits(self.commits)
        }
    }
}

/// Per-class reconciliation of simulator liveness against the oracle.
#[derive(Debug, Clone)]
pub struct ClassCheck {
    /// The register class.
    pub class: RegClass,
    /// Static lower bound on max-live.
    pub floor: usize,
    /// Simulator's observed max-live (precise model view).
    pub sim_max_live: usize,
    /// Static upper bound (given the simulator's wrong-path slack).
    pub ceiling: usize,
    /// Ideal-schedule peak demand (informational).
    pub ideal_demand: usize,
    /// Ideal-schedule mean in-queue / in-flight / waiting registers
    /// (informational; compare the simulator's category means).
    pub ideal_cat_means: [f64; 3],
    /// Simulator's mean in-queue / in-flight / wait-imprecise /
    /// wait-precise registers.
    pub sim_cat_means: [f64; 4],
}

impl ClassCheck {
    /// Whether the simulator's max-live falls inside the static bracket.
    pub fn bracket_holds(&self) -> bool {
        self.floor <= self.sim_max_live && self.sim_max_live <= self.ceiling
    }
}

/// The full reconciliation report for one run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The run checked.
    pub spec: RunSpec,
    /// Sanitizer observer events consumed.
    pub sanitizer_events: u64,
    /// Sanitizer violations (0 on a clean run).
    pub sanitizer_violations: u64,
    /// Rendered sanitizer report (violation details; empty summary when
    /// clean).
    pub sanitizer_report: String,
    /// Per-class liveness reconciliation.
    pub classes: Vec<ClassCheck>,
    /// Dataflow mismatches between the committed stream and the static
    /// prefix (committed/load/branch counts); empty when consistent.
    pub dataflow_errors: Vec<String>,
    /// Static oracle summary for the committed prefix.
    pub oracle: TraceOracle,
    /// Simulator statistics for the run.
    pub stats: SimStats,
}

impl CheckReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.sanitizer_violations == 0
            && self.dataflow_errors.is_empty()
            && self.classes.iter().all(ClassCheck::bracket_holds)
    }

    /// Renders the human-readable reconciliation report.
    pub fn render(&self) -> String {
        let p = &self.spec;
        let mut out = String::new();
        out.push_str(&format!(
            "check {b} width={w} {e} regs={r} commits={c} seed={s}: {verdict}\n",
            b = p.benchmark,
            w = p.width,
            e = p.exceptions,
            r = p.regs,
            c = p.commits,
            s = p.seed,
            verdict = if self.passed() { "PASS" } else { "FAIL" },
        ));
        out.push_str(&format!(
            "  sanitizer: {} events, {} violations\n",
            self.sanitizer_events, self.sanitizer_violations
        ));
        if self.sanitizer_violations > 0 {
            for line in self.sanitizer_report.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        for c in &self.classes {
            let ok = if c.bracket_holds() { "ok" } else { "VIOLATED" };
            out.push_str(&format!(
                "  {cl}: floor {f} <= sim max-live {m} <= ceiling {u} [{ok}] \
                 (ideal demand {d})\n",
                cl = c.class,
                f = c.floor,
                m = c.sim_max_live,
                u = c.ceiling,
                d = c.ideal_demand,
            ));
            out.push_str(&format!(
                "    ideal mean in-queue/in-flight/wait: {:.1}/{:.1}/{:.1}  \
                 sim: {:.1}/{:.1}/{:.1}+{:.1}\n",
                c.ideal_cat_means[0],
                c.ideal_cat_means[1],
                c.ideal_cat_means[2],
                c.sim_cat_means[0],
                c.sim_cat_means[1],
                c.sim_cat_means[2],
                c.sim_cat_means[3],
            ));
        }
        out.push_str(&format!(
            "  dataflow: {committed} committed, {loads} loads, {cbr} branches, \
             int defs {di} (dead {ddi}), fp defs {df} (dead {ddf})\n",
            committed = self.stats.committed,
            loads = self.stats.committed_loads,
            cbr = self.stats.committed_cbr,
            di = self.oracle.classes[0].defs,
            ddi = self.oracle.classes[0].dead_defs,
            df = self.oracle.classes[1].defs,
            ddf = self.oracle.classes[1].dead_defs,
        ));
        for e in &self.dataflow_errors {
            out.push_str(&format!("    MISMATCH: {e}\n"));
        }
        out
    }
}

/// The machine a check matrix point runs: its [`CheckParams::spec`]'s.
pub fn config_for(p: &CheckParams) -> MachineConfig {
    p.spec().machine_config()
}

/// Cross-validates a matrix point: [`cross_validate_cancellable`] of its
/// [`CheckParams::spec`] without a cancel token. `Err` only for unusable
/// parameters (unknown benchmark); check failures are reported via
/// [`CheckReport::passed`].
pub fn cross_validate(params: &CheckParams) -> Result<CheckReport, String> {
    cross_validate_cancellable(&params.spec(), None)
}

/// Runs one sanitized simulation of `spec` plus the static analysis of
/// the same trace prefix and reconciles them. The optional cancel token
/// is the `rfstudy check --deadline-secs` budget: when it fires mid-check,
/// both halves' partial state is discarded and an `Err` says so.
///
/// The two halves run at once. A scoped thread regenerates the
/// committed prefix from a fresh [`TraceGenerator`] and runs the oracle
/// over it, while the calling thread fills the packed [`SharedTrace`]
/// and runs the sanitized simulation. They share only the read-only
/// profile and parameters, so the oracle's input stays independent of
/// the packed buffer the simulation replays, and the check still covers
/// the replay. The oracle polls the token every few thousand
/// instructions, and stops too once the simulation has failed. A panic
/// in either half panics the check.
pub fn cross_validate_cancellable(
    spec: &RunSpec,
    cancel: Option<&CancelToken>,
) -> Result<CheckReport, String> {
    let profile = spec92::by_name(&spec.benchmark)
        .ok_or_else(|| format!("unknown benchmark '{}'", spec.benchmark))?;
    let config = spec.machine_config();
    let insert_bw = config.effective_insert_bandwidth();
    let is_cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let cancelled = |at: String| {
        format!(
            "check {} width={} {} regs={} cancelled {at} (partial statistics discarded)",
            spec.benchmark, spec.width, spec.exceptions, spec.regs
        )
    };

    let sim_failed = AtomicBool::new(false);
    let (oracle, sim) = thread::scope(|s| {
        // Static analysis of the committed prefix: commit is in-order,
        // the generator is deterministic and infinite, so a completed run
        // commits exactly the first `spec.commits` entries of a fresh
        // trace (the dataflow count check below holds this). The prefix
        // streams; it is never held.
        let oracle = s.spawn(|| {
            let mut cut = false;
            let prefix = TraceGenerator::new(&profile, spec.seed)
                .take(spec.commits as usize)
                .enumerate()
                .take_while(|&(i, _)| {
                    cut = i % POLL_EVERY == 0
                        && (is_cancelled() || sim_failed.load(Ordering::Relaxed));
                    !cut
                })
                .map(|(_, inst)| inst);
            let oracle = oracle::analyze(prefix, insert_bw);
            (!cut).then_some(oracle)
        });

        // Dynamic run, sanitizer riding the observer hooks. The simulation
        // replays a shared trace, as every pooled run does: a group of
        // one, buffered up to the cap and read from the tail generator
        // past it.
        let sim = panic::catch_unwind(AssertUnwindSafe(|| {
            let len = spec.commits.min(SharedTrace::MAX_BUFFERED) as usize;
            let shared = SharedTrace::build(&profile, spec.seed, len, is_cancelled)
                .ok_or(Cancelled { at_cycle: 0 })?;
            let mut pipeline =
                Pipeline::with_observer(config, Sanitizer::new(spec.regs, spec.exceptions));
            if let Some(token) = cancel {
                pipeline = pipeline.with_cancel(token.clone());
            }
            pipeline.run(&mut shared.cursor(), &mut shared.wrong_path(), spec.commits)
        }));
        if !matches!(sim, Ok(Ok(_))) {
            sim_failed.store(true, Ordering::Relaxed);
        }
        (oracle.join(), sim)
    });
    let (stats, sanitizer) = sim
        .unwrap_or_else(|p| panic::resume_unwind(p))
        .map_err(|c| cancelled(format!("at cycle {}", c.at_cycle)))?;
    let oracle = oracle
        .unwrap_or_else(|p| panic::resume_unwind(p))
        .ok_or_else(|| cancelled("in the static oracle".to_owned()))?;

    let slack = stats.inserted.saturating_sub(stats.committed);
    let classes = RegClass::ALL
        .iter()
        .map(|&class| {
            let co = &oracle.classes[class.index()];
            ClassCheck {
                class,
                floor: co.floor,
                sim_max_live: stats.live_percentile(class, LiveModel::Precise, 100.0),
                ceiling: oracle.upper_bound(class, spec.regs, slack),
                ideal_demand: co.ideal_demand,
                ideal_cat_means: co.ideal_cat_means,
                sim_cat_means: stats.category_means(class),
            }
        })
        .collect();

    let dataflow_errors = [
        ("count", stats.committed, "prefix length", oracle.instructions),
        ("loads", stats.committed_loads, "loads", oracle.count(OpKind::Load)),
        ("branches", stats.committed_cbr, "branches", oracle.count(OpKind::CondBranch)),
    ]
    .into_iter()
    .filter(|&(_, sim, _, stat)| sim != stat)
    .map(|(what, sim, static_what, stat)| {
        format!("committed {what} {sim} != static {static_what} {stat}")
    })
    .collect();

    Ok(CheckReport {
        spec: spec.clone(),
        sanitizer_events: sanitizer.events(),
        sanitizer_violations: sanitizer.total_violations(),
        sanitizer_report: sanitizer.report(),
        classes,
        dataflow_errors,
        oracle,
        stats,
    })
}

/// The default `rfstudy check` matrix: every benchmark at both widths,
/// both exception models, an ample and a scarce register file.
pub fn default_matrix(commits: u64, seed: u64) -> Vec<CheckParams> {
    let mut out = Vec::new();
    for profile in spec92::all() {
        for &width in &[4usize, 8] {
            for &exceptions in &[ExceptionModel::Precise, ExceptionModel::Imprecise] {
                for &regs in &[2048usize, 64] {
                    out.push(CheckParams {
                        bench: profile.name.clone(),
                        width,
                        exceptions,
                        regs,
                        commits,
                        seed,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(bench: &str, exceptions: ExceptionModel, regs: usize) -> CheckParams {
        CheckParams {
            bench: bench.to_string(),
            width: 4,
            exceptions,
            regs,
            commits: 2_000,
            seed: 12,
        }
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(cross_validate(&params("nonesuch", ExceptionModel::Precise, 64)).is_err());
    }

    #[test]
    fn compress_precise_passes() {
        let r = cross_validate(&params("compress", ExceptionModel::Precise, 64)).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert!(r.sanitizer_events > 0, "sanitizer hooks must have fired");
    }

    #[test]
    fn tomcatv_imprecise_passes() {
        let r = cross_validate(&params("tomcatv", ExceptionModel::Imprecise, 64)).unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn ample_registers_pass_and_report_renders() {
        let r = cross_validate(&params("doduc", ExceptionModel::Precise, 2048)).unwrap();
        assert!(r.passed(), "{}", r.render());
        let text = r.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("floor"));
    }

    #[test]
    fn a_fired_token_cancels_cross_validation() {
        let token = CancelToken::new();
        token.cancel();
        let err = cross_validate_cancellable(
            &params("compress", ExceptionModel::Precise, 64).spec(),
            Some(&token),
        )
        .unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        // An unfired token changes nothing.
        let fresh = CancelToken::new();
        let r = cross_validate_cancellable(
            &params("compress", ExceptionModel::Precise, 64).spec(),
            Some(&fresh),
        )
        .unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn the_overlapped_halves_answer_as_the_serial_ones_do() {
        for exceptions in [ExceptionModel::Precise, ExceptionModel::Imprecise] {
            for regs in [64, 2048] {
                let p = CheckParams { commits: 5_000, ..params("gcc1", exceptions, regs) };
                let r = cross_validate(&p).unwrap();
                assert!(r.passed(), "{}", r.render());
                let prefix = TraceGenerator::new(&spec92::by_name("gcc1").unwrap(), p.seed)
                    .take(r.stats.committed as usize);
                let insert_bw = config_for(&p).effective_insert_bandwidth();
                assert_eq!(r.oracle, oracle::analyze(prefix, insert_bw), "{exceptions} regs={regs}");
                let shared = SharedTrace::new(&spec92::by_name("gcc1").unwrap(), p.seed, 5_000);
                let (stats, _) = Pipeline::new(config_for(&p))
                    .run(&mut shared.cursor(), &mut shared.wrong_path(), p.commits)
                    .unwrap();
                assert_eq!(r.stats, stats, "{exceptions} regs={regs}");
            }
        }
    }

    #[test]
    fn a_token_fired_mid_check_cancels_promptly_at_any_budget() {
        // The budget is far past the trace buffer's cap: the fill, the
        // simulation and the oracle must each poll the token.
        let p = CheckParams { commits: 1 << 33, ..params("compress", ExceptionModel::Precise, 64) };
        let token = CancelToken::new();
        let fire = token.clone();
        let start = std::time::Instant::now();
        let helper = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(50));
            fire.cancel();
        });
        let err = cross_validate_cancellable(&p.spec(), Some(&token)).unwrap_err();
        helper.join().unwrap();
        assert!(err.contains("cancelled"), "{err}");
        assert!(start.elapsed().as_secs() < 5, "took {:?}", start.elapsed());
    }

    #[test]
    fn a_matrix_point_runs_the_baseline_machine_at_its_dimensions() {
        for p in default_matrix(1_000, 7) {
            let (config, spec) = (config_for(&p), p.spec());
            assert_eq!(spec.benchmark, p.bench);
            assert_eq!((spec.commits, spec.seed), (1_000, 7));
            assert_eq!((config.width(), config.dq_size()), (p.width, 8 * p.width));
            assert_eq!((config.phys_regs(), config.exception_model()), (p.regs, p.exceptions));
        }
    }

    #[test]
    fn default_matrix_covers_the_space() {
        let m = default_matrix(1_000, 12);
        // 9 benches x 2 widths x 2 models x 2 reg sizes.
        assert_eq!(m.len(), 72);
        assert!(m.iter().any(|p| p.width == 8 && p.regs == 64));
    }
}
