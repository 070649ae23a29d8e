//! Differential + metamorphic correctness oracle for the IMM engines.
//!
//! The reproduction's strongest asset is redundancy: five independent
//! greedy max-cover loops, four pipeline implementations, and two influence
//! estimators that must all agree. This crate turns that redundancy into a
//! single callable oracle — [`check_all`] — that takes a graph and a
//! parameter set, runs every implementation, and reports each broken
//! invariant as a [`Violation`] carrying the failing seed and engine pair.
//!
//! Two families of checks:
//!
//! * **Differential** ([`differential`]): independent implementations of
//!   the same function must agree — all [`ripples_core::SelectEngine`]s on one
//!   collection, all pipelines (IMMOPT / baseline / IMMmt across thread
//!   counts / IMMdist and the sharded-graph engine across world sizes)
//!   at one master seed, and forward Monte-Carlo vs RRR coverage influence
//!   estimates within a CLT-derived tolerance.
//! * **Metamorphic** ([`metamorphic`]): known input transformations with
//!   predictable effects — vertex-relabeling equivariance (exact at the
//!   selection layer via a tie-break-conjugated reference greedy, see
//!   [`mod@reference`]), IC edge-probability monotonicity, k-prefix
//!   monotonicity, and submodular (non-increasing) marginal gains.
//!
//! Intended use: after any refactor of the sampling, selection, or
//! communication layers, run the oracle grid (`cargo test -p
//! ripples-oracle --release`) — it fails loudly with a replayable master
//! seed if any two implementations stopped agreeing. See
//! EXPERIMENTS.md § "Verifying a refactor".
//!
//! ```
//! use ripples_core::ImmParams;
//! use ripples_diffusion::DiffusionModel;
//! use ripples_graph::{generators::erdos_renyi, WeightModel};
//! use ripples_oracle::{check_all_with, OracleConfig};
//!
//! let g = erdos_renyi(60, 240, WeightModel::Constant(0.2), false, 5);
//! let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 11);
//! let report = check_all_with(&g, &p, &OracleConfig::quick());
//! report.assert_ok();
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod differential;
pub mod metamorphic;
pub mod reference;
pub mod report;

pub use config::OracleConfig;
pub use reference::greedy_with_tie_order;
pub use report::{CheckKind, OracleReport, Violation};

use ripples_core::ImmParams;
use ripples_diffusion::{sample_batch_sequential, DiffusionModel, RrrCollection};
use ripples_graph::Graph;
use ripples_rng::StreamFactory;

/// Runs the full oracle with [`OracleConfig::default`].
#[must_use]
pub fn check_all(graph: &Graph, params: &ImmParams) -> OracleReport {
    check_all_with(graph, params, &OracleConfig::default())
}

/// Runs every differential and metamorphic check on `(graph, params)`.
///
/// Never panics on a violation — inspect [`OracleReport::is_ok`] or call
/// [`OracleReport::assert_ok`].
///
/// Linear-threshold runs require an LT-normalized graph (in-weights summing
/// to ≤ 1, `GraphBuilder`'s `lt_normalize`): the reverse sampler draws at
/// most one in-neighbor per vertex (the triggering-set form of LT), which
/// matches the forward threshold simulation **only** under that
/// normalization — on un-normalized weights the influence-agreement check
/// correctly reports the two estimators as measuring different processes.
#[must_use]
pub fn check_all_with(graph: &Graph, params: &ImmParams, cfg: &OracleConfig) -> OracleReport {
    let mut report = OracleReport::new(params.seed, params.model);
    let n = graph.num_vertices();
    if n == 0 {
        return report;
    }

    // Differential layer 2 first: it produces the reference pipeline run
    // whose θ and seeds anchor everything else.
    let reference = differential::check_engine_grid(&mut report, graph, params, cfg);
    report.theta = reference.theta;
    report.seeds = reference.seeds.clone();

    // Rebuild the reference run's final collection deterministically (the
    // same index-keyed streams every engine consumed).
    let factory = StreamFactory::new(params.seed);
    let mut collection = RrrCollection::new();
    sample_batch_sequential(
        graph,
        params.model,
        &factory,
        0..reference.theta as u64,
        &mut collection,
    );
    let k = params.effective_k(n);

    differential::check_select_engines(&mut report, &collection, n, k, cfg);
    differential::check_storage_equivalence(
        &mut report,
        graph,
        params,
        &reference,
        &collection,
        n,
        k,
        cfg,
    );
    differential::check_influence_agreement(
        &mut report,
        graph,
        params,
        &reference.seeds,
        reference.theta,
        cfg,
    );
    differential::check_sampler_equivalence(
        &mut report,
        graph,
        params,
        &reference.seeds,
        reference.theta,
        cfg,
    );

    differential::check_query_equivalence(&mut report, graph, params, cfg);

    metamorphic::check_relabeling_selection(&mut report, &collection, n, k, cfg);
    metamorphic::check_relabeling_spread(&mut report, graph, params, &reference.seeds, cfg);
    if params.model == DiffusionModel::IndependentCascade {
        metamorphic::check_probability_monotonicity(
            &mut report,
            graph,
            params,
            &reference.seeds,
            cfg,
        );
    }
    metamorphic::check_k_prefix(&mut report, &collection, n, k, cfg);
    metamorphic::check_submodularity(&mut report, &collection, n, k, cfg);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn graph() -> Graph {
        erdos_renyi(80, 400, WeightModel::UniformRandom { seed: 3 }, false, 44)
    }

    #[test]
    fn clean_run_has_no_violations() {
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 9);
        let report = check_all_with(&graph(), &p, &OracleConfig::quick());
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_passed > 20, "{report}");
        assert_eq!(report.seeds.len(), 4);
        assert!(report.theta > 0);
    }

    #[test]
    fn empty_graph_is_vacuously_ok() {
        let g = ripples_graph::GraphBuilder::new(0).build().unwrap();
        let p = ImmParams::new(2, 0.5, DiffusionModel::IndependentCascade, 1);
        let report = check_all(&g, &p);
        assert!(report.is_ok());
        assert_eq!(report.checks_passed, 0);
    }

    #[test]
    fn report_counts_every_kind() {
        // LT graphs must be weight-normalized (see `check_all_with` docs);
        // the oracle itself flagged the un-normalized variant of this test
        // through the influence-agreement check.
        let g = erdos_renyi(80, 400, WeightModel::UniformRandom { seed: 3 }, true, 44);
        let p = ImmParams::new(3, 0.5, DiffusionModel::LinearThreshold, 21);
        let report = check_all_with(&g, &p, &OracleConfig::quick());
        assert!(report.is_ok(), "{report}");
        let kinds: Vec<_> = report.passed_by_kind.iter().map(|(k, _)| *k).collect();
        for kind in [
            CheckKind::EngineGridAgreement,
            CheckKind::SelectEngineAgreement,
            CheckKind::InfluenceAgreement,
            CheckKind::SamplerEquivalence,
            CheckKind::RelabelingEquivariance,
            CheckKind::KPrefixMonotonicity,
            CheckKind::Submodularity,
            CheckKind::StorageEquivalence,
            CheckKind::QueryEquivalence,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
        }
        // LT runs skip the IC-only probability boost.
        assert!(!kinds.contains(&CheckKind::ProbabilityMonotonicity));
    }
}
