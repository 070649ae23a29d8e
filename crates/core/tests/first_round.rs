//! An index-only run decides on its first batch's 64-sample prefix and
//! streams the rest of its first round into the bounded stage. These tests
//! hold that run to the runs that keep every sample — the sequential scan
//! and the serve sketch's build — across stores, samplers and models, force
//! the prefix's two mispredictions, and bound a budgeted run's first round.
//! A prefix that says keep keeps the store for the whole run.

use ripples_core::mt::imm_multithreaded_with_storage;
use ripples_core::sample::AUTO_PROBE_SAMPLES;
use ripples_core::seq::{immopt_sequential_with_storage, index_only_run_with_prefix};
use ripples_core::{build_resident_sketch, ImmParams, ImmResult, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
use ripples_graph::generators::barabasi_albert;
use ripples_graph::{Graph, WeightModel};

const MODELS: [DiffusionModel; 2] = [
    DiffusionModel::IndependentCascade,
    DiffusionModel::LinearThreshold,
];

/// Small weighted-cascade cascades: the shape whose runs go index-only.
fn sparse_graph() -> Graph {
    barabasi_albert(1500, 4, WeightModel::WeightedCascade, false, 9)
}

/// The flat store, and a spill store whose budget sends index segments to
/// disk.
fn stores() -> [StorageConfig; 2] {
    let spill = StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: Some(16 << 10),
    };
    [StorageConfig::default(), spill]
}

/// Seeds, θ and sampling work: what every way of holding the samples
/// shares.
fn answer(r: &ImmResult) -> (Vec<u32>, usize, u64) {
    (r.seeds.clone(), r.theta, r.report.counters.edges_examined)
}

#[test]
fn a_streamed_first_round_selects_what_a_kept_store_selects() {
    let g = sparse_graph();
    for model in MODELS {
        let p = ImmParams::new(8, 0.3, model, 5);
        for storage in stores() {
            for sample in [
                SampleEngine::Reference,
                SampleEngine::Fused,
                SampleEngine::Auto,
            ] {
                let case = format!("{model} {:?} {sample:?}", storage.kind);
                let sequential = immopt_sequential_with_storage(
                    &g,
                    &p,
                    SelectEngine::Sequential,
                    sample,
                    storage,
                );
                let sketch =
                    build_resident_sketch(&g, &p, SelectEngine::Auto, sample, storage).result;
                let streamed = [
                    imm_multithreaded_with_storage(&g, &p, 2, SelectEngine::Auto, sample, storage),
                    immopt_sequential_with_storage(&g, &p, SelectEngine::Auto, sample, storage),
                ];
                for run in &streamed {
                    let case = format!("{case} {}", run.report.engine);
                    assert_eq!(answer(run), answer(&sequential), "{case}");
                    assert_eq!(answer(run), answer(&sketch), "{case}");
                    let c = &run.report.counters;
                    assert_eq!(
                        c.index_only_at_samples, AUTO_PROBE_SAMPLES as u64,
                        "{case}: the prefix decided"
                    );
                    assert!(c.index_bytes_peak > 0, "{case}");
                }
                for kept in [&sequential, &sketch] {
                    assert_eq!(kept.report.counters.index_only_at_samples, 0, "{case}");
                }
                if storage.kind == RrrStoreKind::Spill {
                    let c = &streamed[0].report.counters;
                    assert!(c.spill_bytes_written > 0, "{case}: the index spilled");
                }
            }
        }
    }
}

/// A prefix that says keep where the first pass indexes: the run keeps its
/// store, selects the seeds of the runs that keep theirs, and never goes
/// index-only.
#[test]
fn a_prefix_that_keeps_keeps_the_store_for_the_run() {
    let g = sparse_graph();
    for model in MODELS {
        let p = ImmParams::new(6, 0.4, model, 3);
        for storage in stores() {
            for parallel in [false, true] {
                let case = format!("{model} {:?} parallel {parallel}", storage.kind);
                let sample = SampleEngine::Reference;
                let sequential = immopt_sequential_with_storage(
                    &g,
                    &p,
                    SelectEngine::Sequential,
                    sample,
                    storage,
                );
                let run = index_only_run_with_prefix(
                    &g,
                    &p,
                    SelectEngine::Fused,
                    sample,
                    storage,
                    parallel,
                    false,
                );
                assert_eq!(answer(&run), answer(&sequential), "{case}");
                let c = &run.report.counters;
                assert_eq!(c.index_only_at_samples, 0, "{case}: the store was kept");
                assert_eq!(
                    (c.index_hot_tau, c.index_hot_rows),
                    (0, 0),
                    "{case}: no pass cooled the index"
                );
                assert!(c.index_bytes_peak > 0, "{case}: the passes were indexed");
            }
        }
    }
}

/// A prefix that streams where the first pass would run index-free — a
/// selector that never indexes, and `Auto` over cascades that span the
/// graph: the run stays on the index and selects the same seeds.
#[test]
fn a_prefix_that_streams_stays_on_the_index() {
    let sparse = sparse_graph();
    // Uniform IC probabilities: most cascades span the graph, and `Auto`
    // selects without the index.
    let dense = barabasi_albert(300, 4, WeightModel::UniformRandom { seed: 2 }, false, 4);
    for model in MODELS {
        let p = ImmParams::new(5, 0.5, model, 7);
        let mut cases = vec![
            (&sparse, SelectEngine::Sequential),
            (&sparse, SelectEngine::Partitioned),
        ];
        if model == DiffusionModel::IndependentCascade {
            cases.push((&dense, SelectEngine::Auto));
        }
        for (g, select) in cases {
            for storage in stores() {
                let case = format!(
                    "{model} {select:?} {:?} n {}",
                    storage.kind,
                    g.num_vertices()
                );
                let sample = SampleEngine::Reference;
                let sequential = immopt_sequential_with_storage(
                    g,
                    &p,
                    SelectEngine::Sequential,
                    sample,
                    storage,
                );
                let rule = immopt_sequential_with_storage(g, &p, select, sample, storage);
                assert_eq!(rule.report.counters.index_only_at_samples, 0, "{case}");
                assert_eq!(rule.report.counters.index_bytes_peak, 0, "{case}");
                let run = index_only_run_with_prefix(g, &p, select, sample, storage, true, true);
                assert_eq!(answer(&run), answer(&sequential), "{case}");
                let c = &run.report.counters;
                assert_eq!(c.index_only_at_samples, AUTO_PROBE_SAMPLES as u64, "{case}");
                assert!(c.index_bytes_peak > 0, "{case}: selected from the index");
            }
        }
    }
}

/// An LT run whose first round alone is past a spill store's budget: the
/// store that held that round is gone, and what holds samples is the stage,
/// at most half the budget's bytes and one set's growth.
#[test]
fn a_budgeted_first_round_stays_within_the_stage() {
    let g = barabasi_albert(20_000, 8, WeightModel::WeightedCascade, false, 3);
    let p = ImmParams::new(10, 0.3, DiffusionModel::LinearThreshold, 3);
    let budget = 64usize << 10;
    let storage = StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: Some(budget),
    };
    let run = imm_multithreaded_with_storage(
        &g,
        &p,
        2,
        SelectEngine::Auto,
        SampleEngine::Reference,
        storage,
    );
    let c = &run.report.counters;
    let first_round_entries = c.rrr_entries * c.round_budgets[0] / run.theta as u64;
    assert!(
        4 * first_round_entries > budget as u64,
        "as lists, the first round's {first_round_entries} entries are past the budget"
    );
    assert_eq!(c.index_only_at_samples, AUTO_PROBE_SAMPLES as u64);
    assert!(c.spill_bytes_written > 0);
    assert!(
        4 * c.rrr_bytes_peak <= 3 * budget as u64,
        "rrr_bytes_peak {} is past 3/4 of the {budget}-byte budget",
        c.rrr_bytes_peak
    );
    let flat = imm_multithreaded_with_storage(
        &g,
        &p,
        2,
        SelectEngine::Auto,
        SampleEngine::Reference,
        StorageConfig::default(),
    );
    assert_eq!(answer(&run), answer(&flat));
}
