//! Cross-benchmark aggregation: the paper's normalise-then-average
//! distribution method (footnote 2) and coverage curves.

use rf_core::{LiveModel, SimStats};
use rf_isa::RegClass;
use std::borrow::Borrow;

/// Averages per-benchmark normalised live-register distributions, then
/// returns the combined distribution. This is the paper's method: "the
/// distribution of cycle counts for each register value is normalised by
/// the (simulated) run time of the benchmark ... the normalised
/// distribution for all benchmarks of a given system model are averaged
/// together", preventing one long-running benchmark from dominating.
pub fn averaged_distribution<S: Borrow<SimStats>>(
    runs: &[(String, S)],
    include: &[String],
    class: RegClass,
    model: LiveModel,
) -> Vec<f64> {
    let selected: Vec<&SimStats> = runs
        .iter()
        .filter(|(name, _)| include.contains(name))
        .map(|(_, s)| s.borrow())
        .collect();
    assert!(!selected.is_empty(), "no benchmarks selected for aggregation");
    let len = selected.iter().map(|s| s.phys_regs + 1).max().unwrap();
    let mut avg = vec![0.0; len];
    for s in &selected {
        for (i, v) in s.live_distribution(class, model).iter().enumerate() {
            avg[i] += v / selected.len() as f64;
        }
    }
    avg
}

/// The `pct` percentile (0–100) of a normalised distribution: the
/// smallest register count covering at least `pct` percent of run time.
pub fn distribution_percentile(dist: &[f64], pct: f64) -> usize {
    let total: f64 = dist.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let threshold = pct / 100.0 * total;
    let mut acc = 0.0;
    for (i, &v) in dist.iter().enumerate() {
        acc += v;
        if acc >= threshold - 1e-12 {
            return i;
        }
    }
    dist.len() - 1
}

/// Converts a distribution to a cumulative run-time coverage curve in
/// percent: `out[n]` = percentage of run time with at most `n` registers
/// live (the y-axis of Figures 4, 5, and 8).
pub fn coverage_curve(dist: &[f64]) -> Vec<f64> {
    let total: f64 = dist.iter().sum();
    let mut acc = 0.0;
    dist.iter()
        .map(|&v| {
            acc += v;
            if total > 0.0 {
                100.0 * acc / total
            } else {
                0.0
            }
        })
        .collect()
}

/// Samples a coverage curve at the given register counts (clamping past
/// the end, where coverage is 100%).
pub fn sample_coverage(curve: &[f64], points: &[usize]) -> Vec<(usize, f64)> {
    points
        .iter()
        .map(|&p| (p, curve.get(p).copied().unwrap_or_else(|| curve.last().copied().unwrap_or(0.0))))
        .collect()
}

/// Arithmetic mean over selected benchmarks of a per-run metric.
pub fn mean_over<S: Borrow<SimStats>>(
    runs: &[(String, S)],
    include: &[String],
    metric: impl Fn(&SimStats) -> f64,
) -> f64 {
    let vals: Vec<f64> = runs
        .iter()
        .filter(|(name, _)| include.contains(name))
        .map(|(_, s)| metric(s.borrow()))
        .collect();
    assert!(!vals.is_empty(), "no benchmarks selected for mean");
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// All nine benchmark names.
pub fn all_names() -> Vec<String> {
    rf_workload::spec92::all().into_iter().map(|p| p.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats of a 4-register file whose four histograms are `hist`
    /// (compact).
    fn fake_stats(hist: Vec<u64>) -> SimStats {
        let mut s = SimStats::new(4);
        s.cycles = hist.iter().sum();
        s.live_hist[0] = hist.clone();
        s.live_hist[1] = hist.clone();
        s.live_hist_imprecise[0] = hist.clone();
        s.live_hist_imprecise[1] = hist;
        s
    }

    #[test]
    fn averaging_is_runtime_normalised() {
        // Benchmark A: long run all at 2 live; benchmark B: short run all
        // at 4 live. Normalised averaging weights them equally.
        let a = fake_stats(vec![0, 0, 1000]);
        let b = fake_stats(vec![0, 0, 0, 0, 10]);
        let runs = vec![("a".to_owned(), a), ("b".to_owned(), b)];
        let names = vec!["a".to_owned(), "b".to_owned()];
        let d = averaged_distribution(&runs, &names, RegClass::Int, LiveModel::Precise);
        assert_eq!(d.len(), 5, "the logical length, not the stored one");
        assert!((d[2] - 0.5).abs() < 1e-9);
        assert!((d[4] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_combined() {
        let d = vec![0.0, 0.0, 0.5, 0.0, 0.5];
        assert_eq!(distribution_percentile(&d, 50.0), 2);
        assert_eq!(distribution_percentile(&d, 90.0), 4);
    }

    #[test]
    fn coverage_reaches_100() {
        let d = vec![0.25, 0.25, 0.5];
        let c = coverage_curve(&d);
        assert!((c[0] - 25.0).abs() < 1e-9);
        assert!((c[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_clamps_past_end() {
        let c = coverage_curve(&[0.5, 0.5]);
        let s = sample_coverage(&c, &[0, 5]);
        assert_eq!(s[1].0, 5);
        assert!((s[1].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_filters() {
        let runs = vec![
            ("a".to_owned(), fake_stats(vec![1, 0])),
            ("b".to_owned(), fake_stats(vec![1, 0])),
        ];
        let m = mean_over(&runs, &["a".to_owned()], |s| s.cycles as f64);
        assert_eq!(m, 1.0);
    }
}
