//! Benchmark profiles: the calibrated parameter bundles that stand in for
//! the SPEC92 traces.

use crate::memstream::MemoryModel;
use crate::mix::InstructionMix;

/// Branch-structure parameters of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    /// Fraction of inner (non-loop-closing) branch sites that are strongly
    /// biased and hence trivially predictable.
    pub biased_frac: f64,
    /// Fraction of inner sites following a short deterministic pattern
    /// (learnable by the global-history predictor, not by bimodal).
    pub pattern_frac: f64,
    /// Taken-probability of biased sites (applied as `p` or `1-p` per
    /// site).
    pub bias: f64,
    /// Taken-probability of the remaining data-dependent "noise" sites;
    /// their asymptotic misprediction rate is about `min(p, 1-p)`.
    pub noise_taken_prob: f64,
    /// Mean loop trip count (geometric, minimum 1). Long trips make
    /// loop-closing branches nearly perfectly predictable; short variable
    /// trips contribute exit mispredictions.
    pub mean_trip: f64,
}

/// Register-dependence (ILP) parameters of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DependencyModel {
    /// Mean register reuse distance, in register-writing instructions,
    /// for operand selection (geometric). Small values produce serial
    /// dependence chains (low ILP); large values produce wide parallelism.
    pub mean_dist: f64,
    /// Probability an arithmetic operation has two register sources.
    pub two_src_frac: f64,
    /// Probability a load/store address register is drawn from far back
    /// (stable base pointers); modelled as a long reuse distance.
    pub addr_mean_dist: f64,
    /// Mean reuse distance for branch condition registers (how soon before
    /// the branch its condition is computed; smaller = later resolution).
    pub cond_mean_dist: f64,
    /// Fraction of FP divides that are 64-bit (16-cycle) rather than
    /// 32-bit (8-cycle).
    pub fp_div_wide_frac: f64,
    /// Fraction of loads (and stored values) that target FP registers.
    pub fp_mem_frac: f64,
    /// Probability that a source's reuse distance is clamped to stay
    /// within the current loop iteration. Vectorisable code (tomcatv,
    /// su2cor) has largely independent iterations: without this clamp,
    /// ring lookups create incidental loop-carried chains that serialise
    /// iterations through long-latency misses and cap the benefit of a
    /// wider machine.
    pub iteration_local_frac: f64,
}

/// Loop-structure parameters of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopModel {
    /// Number of distinct synthesized loops (static code footprint).
    pub n_loops: usize,
    /// Mean loop-body length in instructions (including the close branch).
    pub body_len: usize,
}

/// A complete synthetic-benchmark profile: everything needed to synthesize
/// a static program and walk it dynamically.
///
/// Profiles for the paper's nine SPEC92 benchmarks live in [`crate::spec92`];
/// custom profiles can be built directly.
///
/// # Examples
///
/// ```
/// use rf_workload::{spec92, TraceGenerator};
///
/// let p = spec92::tomcatv();
/// assert!(p.is_fp_intensive());
/// let fp_writes = TraceGenerator::new(&p, 7)
///     .take(1_000)
///     .filter(|i| i.dest().is_some_and(|d| d.class() == rf_isa::RegClass::Fp))
///     .count();
/// assert!(fp_writes > 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (matches the paper's Table 1).
    pub name: String,
    /// Target dynamic instruction mix.
    pub mix: InstructionMix,
    /// Branch structure.
    pub branch: BranchModel,
    /// Memory locality.
    pub memory: MemoryModel,
    /// Dependence structure.
    pub deps: DependencyModel,
    /// Loop structure.
    pub loops: LoopModel,
}

impl BenchmarkProfile {
    /// Whether this profile is floating-point intensive. The paper's
    /// FP-register averages include only the FP-intensive benchmarks.
    pub fn is_fp_intensive(&self) -> bool {
        self.mix.fp_fraction() > 0.05
    }
}

#[cfg(test)]
mod tests {
    use crate::spec92;

    #[test]
    fn fp_classification() {
        assert!(!spec92::compress().is_fp_intensive());
        assert!(!spec92::espresso().is_fp_intensive());
        assert!(!spec92::gcc1().is_fp_intensive());
        assert!(spec92::tomcatv().is_fp_intensive());
        assert!(spec92::doduc().is_fp_intensive());
        assert!(spec92::ora().is_fp_intensive());
    }
}
