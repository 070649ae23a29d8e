//! Resident-sketch support for the serve mode (`ripples-serve`).
//!
//! A batch run samples an RRR collection, selects seeds, and drops the
//! collection. The serve mode instead builds the sketch **once** — sized
//! via [`ImmParams::with_k_max`] so θ covers the largest query it will ever
//! answer — and keeps the sealed store resident to answer any number of
//! top-k queries by re-running selection only. This module provides the
//! build entry point that hands the filled store back instead of dropping
//! it.
//!
//! Bitwise equivalence contract: a sketch built here with `k_max = K` holds
//! exactly the samples a fresh batch run with the same master seed and the
//! same `k_max = K` would draw (the θ schedule and estimation-round
//! selections are both driven by [`ImmParams::sizing_k`]), so re-running
//! selection at any `k ≤ K` reproduces that batch run's seed set bit for
//! bit. `tests/serve.rs` asserts this across engine × store combinations.

use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::sample::SampleEngine;
use crate::select::SelectEngine;
use ripples_diffusion::{DynRrrStore, StorageConfig};
use ripples_graph::Graph;

/// A freshly built resident sketch: the sealed store plus the build run's
/// full [`ImmResult`] (θ, seeds at the build `k`, report, memory).
pub struct ResidentSketchBuild {
    /// The sealed RRR store, holding exactly θ samples.
    pub store: DynRrrStore,
    /// The build run's result; `result.theta` is the sample count the
    /// store holds, `result.seeds` the selection at the build `k`.
    pub result: ImmResult,
}

/// Runs IMM's estimation + sampling phases and returns the sealed store
/// alongside the run result, instead of dropping the collection the way the
/// batch entry points do. Semantically
/// [`immopt_sequential_with_storage`](crate::seq::immopt_sequential_with_storage)
/// with the store kept alive: same samples, same θ, same final selection,
/// for every `--select`/`--sample` engine, with or without `--rrr-budget`.
#[must_use]
pub fn build_resident_sketch(
    graph: &Graph,
    params: &ImmParams,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
) -> ResidentSketchBuild {
    let keep = crate::seq::Keep::Store;
    let (result, store) = crate::seq::run_compact(
        "sketch", graph, params, select, sample, storage, false, keep,
    );
    ResidentSketchBuild { store, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::immopt_sequential_with_storage;
    use ripples_diffusion::{DiffusionModel, RrrStore, RrrStoreKind};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 2 }, false, 11)
    }

    #[test]
    fn build_matches_batch_run_and_keeps_theta_samples() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 5).with_k_max(16);
        let storage = StorageConfig::of(RrrStoreKind::Flat);
        let built = build_resident_sketch(
            &g,
            &p,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            storage,
        );
        assert_eq!(built.store.len(), built.result.theta);
        let batch = immopt_sequential_with_storage(
            &g,
            &p,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            storage,
        );
        assert_eq!(built.result.seeds, batch.seeds);
        assert_eq!(built.result.theta, batch.theta);
    }
}
