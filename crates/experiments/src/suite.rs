//! The suite plan: each harness declares the specs it reads and renders
//! its report from their answers.
//!
//! A [`Harness`] is a `plan` (the [`RunSpec`]s its report needs) and a
//! `render` (the report, built from the [`Answers`] to those specs). The
//! suite gathers every harness's plan into one [`Plan`], answers its
//! distinct specs in **one** [`SimPool`] batch, and renders each harness
//! from the shared answers. The paper's figures share one grid — Figure
//! 7's lockup-free column is Figure 6's data, Figure 10 re-reads Figure
//! 6's points, Table 1's baselines reappear in Figures 4, 5 and the
//! dataflow limits — and the plan states that sharing outright: a spec
//! several harnesses read is simulated once and charged to its first
//! owner in suite order.
//!
//! A failed spec fails exactly the harnesses whose plans contain it:
//! [`Plan::failure`] names the error before rendering, and
//! [`Answers::get`] panics with it should a render read a failed spec.

use crate::runner::{Answer, BatchOpts, RunCache, RunError, RunSpec, Scale, SimPool};
use rf_core::SimStats;
use std::collections::HashMap;
use std::sync::Arc;

/// The answers to a batch of specs, looked up by spec.
#[derive(Debug, Default)]
pub struct Answers {
    map: HashMap<RunSpec, Answer>,
}

impl Answers {
    /// Answers `specs` in one batch on `pool` through a batch-local
    /// [`RunCache`], so equal specs are simulated once and the durable
    /// store tier (`RF_STORE=1`) still serves and persists results.
    pub fn batch(pool: &SimPool, specs: &[RunSpec], opts: BatchOpts) -> Self {
        let answers = pool.answer_many(specs, &RunCache::new(), opts);
        specs.iter().cloned().zip(answers).collect()
    }

    /// The answer to `spec`, if it was asked.
    pub fn answer(&self, spec: &RunSpec) -> Option<&Answer> {
        self.map.get(spec)
    }

    /// The statistics of `spec`.
    ///
    /// # Panics
    ///
    /// Panics with the spec's [`RunError`] when its simulation failed,
    /// and when the spec was never asked (a render reading a spec its
    /// plan lacks).
    pub fn get(&self, spec: &RunSpec) -> Arc<SimStats> {
        match self.answer(spec).map(|a| &a.outcome) {
            Some(Ok(stats)) => Arc::clone(stats),
            Some(Err(e)) => panic!("{e}"),
            None => panic!("spec {spec:?} was not planned"),
        }
    }

    /// `(benchmark, stats)` per spec, in order: the form the
    /// [`crate::aggregate`] helpers take.
    pub fn runs(&self, specs: &[RunSpec]) -> Vec<(String, Arc<SimStats>)> {
        specs
            .iter()
            .map(|s| (s.benchmark.clone(), self.get(s)))
            .collect()
    }
}

impl FromIterator<(RunSpec, Answer)> for Answers {
    /// Keeps the first answer of equal specs: later duplicates carry no
    /// task time of their own.
    fn from_iter<I: IntoIterator<Item = (RunSpec, Answer)>>(iter: I) -> Self {
        let mut map = HashMap::new();
        for (spec, answer) in iter {
            map.entry(spec).or_insert(answer);
        }
        Self { map }
    }
}

/// One table or figure of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Report name (`results/<name>.txt`).
    pub name: &'static str,
    /// The specs the report reads at a scale.
    pub plan: fn(&Scale) -> Vec<RunSpec>,
    /// The report, rendered from answers that cover the plan.
    pub render: fn(&Scale, &Answers) -> String,
    /// Benchmark of the traced probe that annotates the harness's ledger
    /// record: FP-heavy figures probe an FP benchmark, integer-focused
    /// ones an integer benchmark.
    pub probe: &'static str,
}

/// Every harness, in suite order.
pub const HARNESSES: [Harness; 12] = [
    Harness {
        name: "table1",
        plan: crate::table1::plan,
        render: crate::table1::render,
        probe: "compress",
    },
    Harness {
        name: "fig3",
        plan: crate::fig3::plan,
        render: crate::fig3::render,
        probe: "espresso",
    },
    Harness {
        name: "fig4",
        plan: crate::fig4::plan,
        render: crate::fig4::render,
        probe: "tomcatv",
    },
    Harness {
        name: "fig5",
        plan: crate::fig5::plan,
        render: crate::fig5::render,
        probe: "su2cor",
    },
    Harness {
        name: "fig6",
        plan: crate::fig6::plan,
        render: crate::fig6::render,
        probe: "tomcatv",
    },
    Harness {
        name: "fig7",
        plan: crate::fig7::plan,
        render: crate::fig7::render,
        probe: "doduc",
    },
    Harness {
        name: "fig8",
        plan: crate::fig8::plan,
        render: crate::fig8::render,
        probe: "su2cor",
    },
    Harness {
        name: "fig10",
        plan: crate::fig10::plan,
        render: crate::fig10::render,
        probe: "gcc1",
    },
    Harness {
        name: "ablation",
        plan: crate::ablation::plan,
        render: crate::ablation::render,
        probe: "mdljdp2",
    },
    Harness {
        name: "extensions",
        plan: crate::extensions::plan,
        render: crate::extensions::render,
        probe: "espresso",
    },
    Harness {
        name: "sensitivity",
        plan: crate::sensitivity::plan,
        render: crate::sensitivity::render,
        probe: "ora",
    },
    Harness {
        name: "dataflow",
        plan: crate::dataflow::plan,
        render: crate::dataflow::render,
        probe: "mdljsp2",
    },
];

/// Answers `specs` in one batch on an `RF_JOBS` pool: the harnesses'
/// unit tests' way to answer their plans.
#[cfg(test)]
pub(crate) fn answer(specs: &[RunSpec]) -> Answers {
    Answers::batch(&SimPool::from_env(), specs, BatchOpts::default())
}

/// The harness named `name`.
pub fn harness(name: &str) -> Option<&'static Harness> {
    HARNESSES.iter().find(|h| h.name == name)
}

/// The suite's plans and their union.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Each harness's name and plan, in suite order.
    pub harnesses: Vec<(&'static str, Vec<RunSpec>)>,
    /// The distinct specs of every plan, in first-appearance order.
    pub specs: Vec<RunSpec>,
    /// `owner[k]` indexes the first harness whose plan holds `specs[k]`:
    /// the one harness each spec is charged to.
    pub owner: Vec<usize>,
}

impl Plan {
    /// Gathers the harness plans, in suite order, into their union.
    pub fn new(harnesses: Vec<(&'static str, Vec<RunSpec>)>) -> Self {
        let mut specs = Vec::new();
        let mut owner = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (h, (_, plan)) in harnesses.iter().enumerate() {
            for spec in plan {
                if seen.insert(spec) {
                    specs.push(spec.clone());
                    owner.push(h);
                }
            }
        }
        Self {
            harnesses,
            specs,
            owner,
        }
    }

    /// The specs charged to harness `h`.
    pub fn owned(&self, h: usize) -> impl Iterator<Item = &RunSpec> {
        self.specs
            .iter()
            .zip(&self.owner)
            .filter(move |(_, &o)| o == h)
            .map(|(s, _)| s)
    }

    /// The first failed spec of harness `h`'s plan, in plan order: the
    /// error that fails the harness. An unanswered spec is not a
    /// failure here; reading it panics in [`Answers::get`].
    pub fn failure<'a>(&self, h: usize, answers: &'a Answers) -> Option<&'a RunError> {
        self.harnesses[h]
            .1
            .iter()
            .find_map(|spec| answers.answer(spec)?.outcome.as_ref().err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_names_are_unique_and_findable() {
        for h in &HARNESSES {
            assert_eq!(harness(h.name).map(|found| found.name), Some(h.name));
        }
        assert!(harness("fig9").is_none());
    }

    #[test]
    fn the_plan_charges_each_shared_spec_to_its_first_owner() {
        let spec = |bench: &str| RunSpec::baseline(bench, 4).commits(100);
        let plan = Plan::new(vec![
            ("a", vec![spec("gcc1"), spec("ora")]),
            ("b", vec![spec("ora"), spec("ora"), spec("tomcatv")]),
            ("c", vec![spec("gcc1")]),
        ]);
        assert_eq!(plan.specs, vec![spec("gcc1"), spec("ora"), spec("tomcatv")]);
        assert_eq!(plan.owner, vec![0, 0, 1]);
        assert_eq!(plan.owned(1).collect::<Vec<_>>(), vec![&spec("tomcatv")]);
        assert_eq!(plan.owned(2).count(), 0);
    }
}
