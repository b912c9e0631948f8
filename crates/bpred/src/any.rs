//! A predictor-kind wrapper for ablation studies.

use crate::combining::{CombiningPredictor, Prediction};
use crate::history::HistoryCheckpoint;

/// Which branch predictor the machine uses.
///
/// The paper fixes McFarling's combining predictor; the component-only
/// variants exist for ablation (how much of the machine's behaviour is
/// owed to the combiner?). All variants share the combining predictor's
/// storage so their table sizes are identical — the ablation isolates the
/// *selection* policy, not the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Bimodal component only.
    Bimodal,
    /// Global-history (gshare) component only.
    Gshare,
    /// The full combining predictor (the paper's configuration).
    #[default]
    Combining,
}

impl PredictorKind {
    /// Every kind, in the order the CLI lists them.
    pub const ALL: [Self; 3] = [Self::Bimodal, Self::Gshare, Self::Combining];
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorKind::Bimodal => f.write_str("bimodal"),
            PredictorKind::Gshare => f.write_str("gshare"),
            PredictorKind::Combining => f.write_str("combining"),
        }
    }
}

/// A branch predictor of a configurable [`PredictorKind`], presenting the
/// same speculative-history protocol as [`CombiningPredictor`].
///
/// # Examples
///
/// ```
/// use rf_bpred::{AnyPredictor, PredictorKind};
///
/// let mut bp = AnyPredictor::new(PredictorKind::Gshare);
/// let pred = bp.predict(0x40);
/// let cp = bp.speculate(pred.taken());
/// bp.recover(cp, true);
/// bp.train(0x40, pred, true);
/// ```
#[derive(Debug, Clone)]
pub struct AnyPredictor {
    inner: CombiningPredictor,
    kind: PredictorKind,
}

impl AnyPredictor {
    /// Creates a predictor of the given kind at the paper's 12 Kbit
    /// storage point.
    pub fn new(kind: PredictorKind) -> Self {
        Self { inner: CombiningPredictor::default_mcfarling(), kind }
    }

    /// The configured kind.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Predicts a conditional branch at `pc`. For the component-only
    /// kinds, the returned [`Prediction`] is the combining predictor's
    /// (so training stays identical) with the overall direction replaced
    /// by the selected component's.
    pub fn predict(&self, pc: u64) -> Prediction {
        let p = self.inner.predict(pc);
        match self.kind {
            PredictorKind::Combining => p,
            PredictorKind::Bimodal => p.with_taken(p.bimodal_taken()),
            PredictorKind::Gshare => p.with_taken(p.gshare_taken()),
        }
    }

    /// Records the predicted direction into the speculative history (see
    /// [`CombiningPredictor::speculate`]).
    pub fn speculate(&mut self, predicted_taken: bool) -> HistoryCheckpoint {
        self.inner.speculate(predicted_taken)
    }

    /// Restores the history after a misprediction (see
    /// [`CombiningPredictor::recover`]).
    pub fn recover(&mut self, checkpoint: HistoryCheckpoint, actual_taken: bool) {
        self.inner.recover(checkpoint, actual_taken)
    }

    /// Trains the underlying tables (see [`CombiningPredictor::train`]).
    pub fn train(&mut self, pc: u64, prediction: Prediction, actual_taken: bool) {
        self.inner.train(pc, prediction, actual_taken)
    }
}

impl Default for AnyPredictor {
    fn default() -> Self {
        Self::new(PredictorKind::Combining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(kind: PredictorKind, outcomes: impl Iterator<Item = (u64, bool)>) -> f64 {
        let mut bp = AnyPredictor::new(kind);
        let mut total = 0usize;
        let mut correct = 0usize;
        for (pc, actual) in outcomes {
            let pred = bp.predict(pc);
            let cp = bp.speculate(pred.taken());
            if pred.taken() == actual {
                correct += 1;
            } else {
                bp.recover(cp, actual);
            }
            bp.train(pc, pred, actual);
            total += 1;
        }
        correct as f64 / total as f64
    }

    #[test]
    fn gshare_beats_bimodal_on_patterns() {
        // Period-4 pattern: trivial for gshare, hopeless for bimodal.
        let pattern = |_: ()| (0..8000u64).map(|i| (0x80u64, i % 4 != 3));
        let g = accuracy(PredictorKind::Gshare, pattern(()));
        let b = accuracy(PredictorKind::Bimodal, pattern(()));
        assert!(g > 0.9, "gshare {g}");
        assert!(b < 0.85, "bimodal {b}");
    }

    #[test]
    fn combining_tracks_the_better_component() {
        let mixed = |_: ()| {
            (0..8000u64).flat_map(|i| {
                [(0x40u64, true), (0x80u64, i % 2 == 0)] // biased + alternating
            })
        };
        let c = accuracy(PredictorKind::Combining, mixed(()));
        let b = accuracy(PredictorKind::Bimodal, mixed(()));
        assert!(c > b, "combining {c} vs bimodal {b}");
        assert!(c > 0.9);
    }

    #[test]
    fn kinds_report_and_default() {
        assert_eq!(AnyPredictor::default().kind(), PredictorKind::Combining);
        assert_eq!(PredictorKind::Gshare.to_string(), "gshare");
        assert_eq!(PredictorKind::Bimodal.to_string(), "bimodal");
        assert_eq!(PredictorKind::Combining.to_string(), "combining");
    }
}
