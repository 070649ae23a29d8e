//! The oracle's verdict record: which checks ran, and every violation with
//! enough context (master seed, engine, expected/actual) to replay it.

use ripples_diffusion::DiffusionModel;
use ripples_graph::Vertex;
use std::fmt;

/// The families of invariants [`crate::check_all`] exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckKind {
    /// All [`ripples_core::SelectEngine`]s agree on one collection.
    SelectEngineAgreement,
    /// seq (IMMOPT + baseline) / mt / dist / dist-sharded pipelines
    /// return identical seed sets, θ, and coverage.
    EngineGridAgreement,
    /// Forward Monte-Carlo influence ≈ RRR coverage influence (CLT bound).
    InfluenceAgreement,
    /// The fused multi-cascade sampler and the reference sampler draw from
    /// the same distribution: equal influence estimates (CLT bound), equal
    /// mean set sizes (CLT bound), matching root distributions
    /// (chi-square), and fused sets containing their recomputed roots.
    SamplerEquivalence,
    /// Selection commutes with vertex relabeling (exact, tie-conjugated)
    /// and spread is invariant under relabeling (CLT bound).
    RelabelingEquivariance,
    /// Raising IC edge probabilities never lowers estimated influence.
    ProbabilityMonotonicity,
    /// The k-seed selection is a prefix of the (k+1)-seed selection.
    KPrefixMonotonicity,
    /// Greedy marginal gains are non-increasing.
    Submodularity,
    /// Every store kind (spill under its default and a tiny budget,
    /// and flat itself once dense sets make it hold bitmaps) returns the
    /// identical seeds, θ, and coverage as a list-only reference, across
    /// the sequential/dist pipelines and every eager select engine.
    StorageEquivalence,
    /// A resident serve-mode sketch (built once, sized for `k_max`)
    /// answers every `topk(k ≤ k_max)` bitwise-identically to fresh
    /// seq/mt/dist batch runs at the same master seed, and its
    /// `spread_estimate` reproduces the batch coverage identity.
    QueryEquivalence,
}

impl CheckKind {
    /// Stable human-readable name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CheckKind::SelectEngineAgreement => "select-engine-agreement",
            CheckKind::EngineGridAgreement => "engine-grid-agreement",
            CheckKind::InfluenceAgreement => "influence-agreement",
            CheckKind::SamplerEquivalence => "sampler-equivalence",
            CheckKind::RelabelingEquivariance => "relabeling-equivariance",
            CheckKind::ProbabilityMonotonicity => "probability-monotonicity",
            CheckKind::KPrefixMonotonicity => "k-prefix-monotonicity",
            CheckKind::Submodularity => "submodularity",
            CheckKind::StorageEquivalence => "storage-equivalence",
            CheckKind::QueryEquivalence => "query-equivalence",
        }
    }
}

/// One failed invariant.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant family failed.
    pub kind: CheckKind,
    /// The engine / configuration under test (e.g. `dist(world=4,rank=1)`).
    pub subject: String,
    /// Expected-vs-actual detail, including the failing master seed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.kind.name(),
            self.subject,
            self.detail
        )
    }
}

/// Outcome of one [`crate::check_all`] run.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Master seed of the run under test (replay key for every violation).
    pub master_seed: u64,
    /// Diffusion model of the run under test.
    pub model: DiffusionModel,
    /// Final θ of the reference (IMMOPT sequential) run.
    pub theta: usize,
    /// Seed set of the reference run.
    pub seeds: Vec<Vertex>,
    /// Number of individual assertions that held.
    pub checks_passed: u64,
    /// Per-kind pass counters, ordered by [`CheckKind`].
    pub passed_by_kind: Vec<(CheckKind, u64)>,
    /// Every assertion that failed.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    pub(crate) fn new(master_seed: u64, model: DiffusionModel) -> Self {
        OracleReport {
            master_seed,
            model,
            theta: 0,
            seeds: Vec::new(),
            checks_passed: 0,
            passed_by_kind: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// `true` when every check held.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list when any check failed.
    pub fn assert_ok(&self) {
        assert!(self.is_ok(), "correctness oracle failed:\n{self}");
    }

    /// Records one assertion. `detail` is only evaluated on failure.
    pub(crate) fn check(
        &mut self,
        kind: CheckKind,
        subject: &str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        if ok {
            self.checks_passed += 1;
            match self.passed_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += 1,
                None => self.passed_by_kind.push((kind, 1)),
            }
        } else {
            self.violations.push(Violation {
                kind,
                subject: subject.to_owned(),
                detail: format!("{} (master seed {})", detail(), self.master_seed),
            });
        }
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle[seed={} model={:?}]: {} checks passed, {} violated (θ={}, seeds={:?})",
            self.master_seed,
            self.model,
            self.checks_passed,
            self.violations.len(),
            self.theta,
            self.seeds,
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_records_pass_and_fail() {
        let mut r = OracleReport::new(7, DiffusionModel::IndependentCascade);
        r.check(CheckKind::Submodularity, "seq", true, || unreachable!());
        r.check(CheckKind::Submodularity, "seq", true, || unreachable!());
        r.check(CheckKind::KPrefixMonotonicity, "fused", false, || {
            "gains [3, 5]".to_owned()
        });
        assert!(!r.is_ok());
        assert_eq!(r.checks_passed, 2);
        assert_eq!(r.passed_by_kind, vec![(CheckKind::Submodularity, 2)],);
        assert_eq!(r.violations.len(), 1);
        let shown = r.to_string();
        assert!(shown.contains("k-prefix-monotonicity"), "{shown}");
        assert!(shown.contains("master seed 7"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "correctness oracle failed")]
    fn assert_ok_panics_on_violation() {
        let mut r = OracleReport::new(1, DiffusionModel::LinearThreshold);
        r.check(CheckKind::EngineGridAgreement, "mt(2)", false, || {
            "seeds differ".to_owned()
        });
        r.assert_ok();
    }
}
