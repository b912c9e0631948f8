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
//!
//! [`audit`] then re-derives a deterministic sample of the answers the
//! reports read ([`audit_sample`]) under the sanitizer and the oracle.

use crate::codec;
use crate::runner::{Answer, BatchOpts, RunCache, RunError, RunSpec, Scale, SimPool};
use rf_core::SimStats;
use rf_obs::ledger::{AuditRecord, AUDIT_TIERS};
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

/// A harness is named by its report, as `all --only` names it.
impl std::fmt::Display for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
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

/// The specs [`audit`] re-derives, each with its tier's index in
/// [`AUDIT_TIERS`]: of the answered specs ranked by key digest, the
/// lowest ⌈1%⌉, plus the lowest-ranked spec of each tier those miss.
pub fn audit_sample<'p>(plan: &'p Plan, answers: &Answers) -> Vec<(&'p RunSpec, usize)> {
    let mut ranked: Vec<_> = plan
        .specs
        .iter()
        .filter_map(|spec| {
            let a = answers.answer(spec).filter(|a| a.outcome.is_ok())?;
            // Served without a task: the suite's cache is batch-local and
            // its plan holds no duplicates, so the durable store served it.
            let tier = match (a.reused, a.task_ns) {
                (true, _) => 1,
                (false, Some(_)) => 0,
                (false, None) => 2,
            };
            Some((codec::spec_digest(spec), spec, tier))
        })
        .collect();
    ranked.sort_unstable_by_key(|&(digest, ..)| digest);
    let mut sample = ranked[..ranked.len().div_ceil(100)].to_vec();
    for t in 0..AUDIT_TIERS.len() {
        if !sample.iter().any(|&(.., s)| s == t) {
            sample.extend(ranked.iter().find(|&&(.., s)| s == t));
        }
    }
    sample.into_iter().map(|(_, spec, t)| (spec, t)).collect()
}

/// The outcome of [`audit`].
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// Samples per tier, sanitizer events and violations, as the ledger
    /// records them.
    pub record: AuditRecord,
    /// One line per failed sample, naming its spec and what failed.
    pub failures: Vec<String>,
}

/// The verdict, its counts and a line per failed sample, as the suite
/// prints them after `audit: `.
impl std::fmt::Display for Audit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.record;
        let [fresh, reused, store] = r.samples;
        let verdict = if r.violations == 0 { "clean" } else { "VIOLATED" };
        let samples = format!("{fresh} fresh, {reused} reused, {store} store samples");
        let failed = r.violations;
        write!(f, "{verdict} ({samples}, {failed} failed; {} sanitizer events)", r.events)?;
        self.failures.iter().try_for_each(|line| write!(f, "\n  {line}"))
    }
}

/// Audits the answers the reports read: each spec of [`audit_sample`]
/// runs once, in turn, through [`rf_check::cross_validate_cancellable`],
/// whose statistics equal a plain run's, so the sanitized, oracle-checked
/// run also re-derives the answer; it must match the served one's bytes.
pub fn audit(plan: &Plan, answers: &Answers) -> Audit {
    let mut audit = Audit::default();
    for (spec, tier) in audit_sample(plan, answers) {
        audit.record.samples[tier] += 1;
        let why = match rf_check::cross_validate_cancellable(spec, None) {
            Ok(report) => {
                audit.record.events += report.sanitizer_events;
                let served = codec::encode_stats(&answers.get(spec));
                let same = codec::encode_stats(&report.stats) == served;
                match (report.passed(), same) {
                    (true, true) => continue,
                    (true, false) => "the re-derived statistics differ".to_owned(),
                    (false, _) => report.render().trim_end().to_owned(),
                }
            }
            Err(e) => e,
        };
        audit.record.violations += 1;
        let (tier, digest) = (AUDIT_TIERS[tier], codec::spec_digest(spec));
        audit.failures.push(format!("{tier} answer {digest} {spec:?}: {why}"));
    }
    audit
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

    /// An answer of `tier` (or a failed one), without simulating.
    fn synthetic(tier: Option<usize>) -> Answer {
        let error = RunError::WorkerPanic {
            benchmark: "x".into(),
            payload: "boom".into(),
        };
        Answer {
            outcome: tier.map(|_| Arc::new(SimStats::new(64))).ok_or(error),
            task_ns: (tier == Some(FRESH)).then_some(1),
            reused: tier == Some(REUSED),
        }
    }

    /// The tiers' indices in [`AUDIT_TIERS`]: fresh, reused, store.
    const FRESH: usize = 0;
    const REUSED: usize = 1;
    const STORE: usize = 2;

    #[test]
    fn the_audit_sample_is_a_pure_function_of_the_plan_and_covers_every_tier() {
        let specs = (crate::fig7::plan)(&Scale { commits: 300 });
        let plan = || Plan::new(vec![("fig7", specs.clone())]);
        let (a, b) = (plan(), plan());
        let mut by_rank = a.specs.clone();
        by_rank.sort_by_key(codec::spec_digest);
        let n = by_rank.len();
        assert!(n > 200, "a plan of {n} specs samples more than one");
        // The two highest-ranked answers are the only reused and store
        // ones, so no rank cut reaches them; the lowest-ranked one
        // failed and has nothing to audit.
        let tier = |spec: &RunSpec| match by_rank.iter().position(|s| s == spec) {
            Some(0) => None,
            Some(k) if k == n - 1 => Some(STORE),
            Some(k) if k == n - 2 => Some(REUSED),
            _ => Some(FRESH),
        };
        let answers: Answers = a
            .specs
            .iter()
            .map(|s| (s.clone(), synthetic(tier(s))))
            .collect();

        let sample = audit_sample(&a, &answers);
        assert_eq!(
            sample,
            audit_sample(&b, &answers),
            "equal plans sample equally"
        );
        let cut = (n - 1).div_ceil(100);
        let want: Vec<(&RunSpec, usize)> = by_rank[1..=cut]
            .iter()
            .map(|s| (s, FRESH))
            .chain([(&by_rank[n - 2], REUSED), (&by_rank[n - 1], STORE)])
            .collect();
        assert_eq!(
            sample, want,
            "the lowest ranks, then each missing tier's lowest"
        );
    }

    #[test]
    fn a_reused_answer_with_one_field_changed_fails_the_audit() {
        let scale = Scale { commits: 300 };
        let plan = Plan::new(vec![("fig6", (crate::fig6::plan)(&scale))]);
        let answers = answer(&plan.specs);
        let clean = audit(&plan, &answers);
        assert_eq!(clean.record.violations, 0, "{clean}");
        let [fresh, reused, store] = clean.record.samples;
        assert!(fresh > 0 && reused > 0 && store == 0, "{clean}");
        assert!(clean.record.events > 0);

        let (reused, _) = audit_sample(&plan, &answers)
            .into_iter()
            .find(|&(_, tier)| tier == REUSED)
            .expect("a reused answer is sampled");
        let tampered: Answers = plan
            .specs
            .iter()
            .map(|spec| {
                let mut answer = answers.answer(spec).expect("answered").clone();
                if spec == reused {
                    let mut stats = (*answers.get(spec)).clone();
                    stats.committed_loads += 1;
                    answer.outcome = Ok(Arc::new(stats));
                }
                (spec.clone(), answer)
            })
            .collect();
        let failed = audit(&plan, &tampered);
        assert_eq!(
            failed.record,
            AuditRecord {
                violations: 1,
                ..clean.record
            }
        );
        assert_eq!(failed.failures.len(), 1);
        let digest = codec::spec_digest(reused);
        let named = format!("reused answer {digest} {reused:?}: the re-derived statistics differ");
        assert_eq!(failed.failures, [named]);
        assert!(failed.to_string().starts_with("VIOLATED ("), "{failed}");
    }
}
