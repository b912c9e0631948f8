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

use crate::oracle::{self, TraceOracle};
use crate::sanitizer::Sanitizer;
use rf_core::{
    CancelToken, ExceptionModel, LiveModel, MachineConfig, Pipeline, RunSpec, SimStats,
    DEFAULT_SEED,
};
use rf_isa::RegClass;
use rf_workload::{spec92, SharedTrace, TraceGenerator};

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
    /// The parameters checked.
    pub params: CheckParams,
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
        let p = &self.params;
        let mut out = String::new();
        out.push_str(&format!(
            "check {b} width={w} {e} regs={r} commits={c} seed={s}: {verdict}\n",
            b = p.bench,
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

/// Runs one sanitized simulation plus the static analysis of the same
/// trace prefix, and reconciles the two. `Err` only for unusable
/// parameters (unknown benchmark); check failures are reported via
/// [`CheckReport::passed`].
pub fn cross_validate(params: &CheckParams) -> Result<CheckReport, String> {
    cross_validate_cancellable(params, None)
}

/// [`cross_validate`] with an optional cooperative cancel token (the
/// `rfstudy check --deadline-secs` wall-clock budget): when the token
/// fires mid-simulation, the run's partial state is discarded and an
/// `Err` describing the cancellation is returned.
pub fn cross_validate_cancellable(
    params: &CheckParams,
    cancel: Option<&CancelToken>,
) -> Result<CheckReport, String> {
    let profile = spec92::by_name(&params.bench)
        .ok_or_else(|| format!("unknown benchmark '{}'", params.bench))?;
    let config = config_for(params);
    let insert_bw = config.effective_insert_bandwidth();

    // Dynamic run, sanitizer riding the observer hooks. The simulation
    // replays a shared trace, as every pooled run does: a group of one.
    let cancelled = |at_cycle: u64| {
        format!(
            "check {} width={} {} regs={} cancelled at cycle {at_cycle} \
             (partial statistics discarded)",
            params.bench, params.width, params.exceptions, params.regs
        )
    };
    let shared = SharedTrace::build(&profile, params.seed, params.commits as usize, || {
        cancel.is_some_and(CancelToken::is_cancelled)
    })
    .ok_or_else(|| cancelled(0))?;
    let sanitizer = Sanitizer::new(params.regs, params.exceptions);
    let mut pipeline = Pipeline::with_observer(config, sanitizer);
    if let Some(token) = cancel {
        pipeline = pipeline.with_cancel(token.clone());
    }
    let (stats, sanitizer) = pipeline
        .run(&mut shared.cursor(), &mut shared.wrong_path(), params.commits)
        .map_err(|c| cancelled(c.at_cycle))?;
    drop(shared);

    // Static analysis of the committed prefix: commit is in-order and the
    // generator is deterministic, so the committed instructions are
    // exactly the first `stats.committed` entries of a fresh trace. The
    // oracle regenerates them independently of the packed buffer the
    // simulation replayed, so the check covers the replay too.
    let prefix: Vec<_> =
        TraceGenerator::new(&profile, params.seed).take(stats.committed as usize).collect();
    let oracle = oracle::analyze(&prefix, insert_bw);

    let slack = stats.inserted.saturating_sub(stats.committed);
    let classes = RegClass::ALL
        .iter()
        .map(|&class| {
            let co = &oracle.classes[class.index()];
            ClassCheck {
                class,
                floor: co.floor,
                sim_max_live: stats.live_percentile(class, LiveModel::Precise, 100.0),
                ceiling: oracle.upper_bound(class, params.regs, slack),
                ideal_demand: co.ideal_demand,
                ideal_cat_means: co.ideal_cat_means,
                sim_cat_means: stats.category_means(class),
            }
        })
        .collect();

    let mut dataflow_errors = Vec::new();
    if stats.committed != oracle.instructions {
        dataflow_errors.push(format!(
            "committed count {} != static prefix length {}",
            stats.committed, oracle.instructions
        ));
    }
    if stats.committed_loads != oracle.loads {
        dataflow_errors.push(format!(
            "committed loads {} != static loads {}",
            stats.committed_loads, oracle.loads
        ));
    }
    if stats.committed_cbr != oracle.branches {
        dataflow_errors.push(format!(
            "committed branches {} != static branches {}",
            stats.committed_cbr, oracle.branches
        ));
    }

    Ok(CheckReport {
        params: params.clone(),
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

/// Aggregate sanitizer status over the experiment suite's probe runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteSanitizer {
    /// Sanitized probe runs executed.
    pub probes: u64,
    /// Total observer events consumed across probes.
    pub events: u64,
    /// Total invariant violations (0 when clean).
    pub violations: u64,
}

impl SuiteSanitizer {
    /// `"clean"` when no probe tripped, `"VIOLATED"` otherwise — the
    /// verdict the suite runner prints.
    pub fn status(&self) -> &'static str {
        if self.violations == 0 {
            "clean"
        } else {
            "VIOLATED"
        }
    }
}

/// Runs the suite's sanitized probe set: a small representative corner of
/// the full matrix (one integer-heavy and one FP-heavy benchmark, both
/// widths, both models, scarce registers) so every suite run re-proves
/// the invariants on the exact binary being measured.
pub fn suite_probe(commits: u64) -> SuiteSanitizer {
    let mut agg = SuiteSanitizer::default();
    let probes = default_matrix(commits, DEFAULT_SEED)
        .into_iter()
        .filter(|p| matches!(p.bench.as_str(), "compress" | "tomcatv") && p.regs == 64);
    for params in probes {
        let report = cross_validate(&params).expect("suite probe benchmarks exist");
        agg.probes += 1;
        agg.events += report.sanitizer_events;
        agg.violations += report.sanitizer_violations;
        if !report.dataflow_errors.is_empty()
            || !report.classes.iter().all(ClassCheck::bracket_holds)
        {
            agg.violations += 1;
        }
    }
    agg
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
            &params("compress", ExceptionModel::Precise, 64),
            Some(&token),
        )
        .unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        // An unfired token changes nothing.
        let fresh = CancelToken::new();
        let r = cross_validate_cancellable(
            &params("compress", ExceptionModel::Precise, 64),
            Some(&fresh),
        )
        .unwrap();
        assert!(r.passed(), "{}", r.render());
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
