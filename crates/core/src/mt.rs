//! The multithreaded (shared-memory) IMM implementation — "IMMmt" in
//! Table 3, the subject of Figures 5 and 6.
//!
//! Parallelism enters in the two places §3.1 identifies:
//!
//! * **Sampling**: each RRR set is generated independently
//!   (`ripples_diffusion::sample_batch`: workers claim blocks of sample
//!   indices from an atomic cursor and reuse their scratch and arenas; the
//!   calling thread appends finished blocks to the store in index order
//!   while the others keep sampling).
//! * **Seed selection**: the vertex space is partitioned into per-thread
//!   intervals so counter updates need no synchronization, and sorted
//!   samples are navigated by binary search (the one engine body of
//!   `crate::select`).
//!
//! The thread count is explicit so the strong-scaling sweep (Figures 5–6)
//! can pin it; pass 0 to use all available parallelism.

use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::sample::SampleEngine;
use crate::select::SelectEngine;
use crate::seq::{run_compact, Keep};
use ripples_diffusion::StorageConfig;
use ripples_graph::Graph;

/// Runs IMM with `threads` worker threads (0 = rayon default), selecting
/// seeds with the cost-model dispatch ([`SelectEngine::Auto`]): the fused
/// index-driven engine when its O(E) build amortizes over the greedy
/// passes, the interval-partitioned engine otherwise — partitioned one
/// interval per worker either way.
///
/// Given identical `params`, returns the *same seed set* as
/// [`crate::seq::immopt_sequential`] at any thread count: sample content is
/// keyed by global sample index and the greedy engines share a
/// deterministic tie-break.
#[must_use]
pub fn imm_multithreaded(graph: &Graph, params: &ImmParams, threads: usize) -> ImmResult {
    imm_multithreaded_with_storage(
        graph,
        params,
        threads,
        SelectEngine::Auto,
        SampleEngine::Reference,
        StorageConfig::default(),
    )
}

/// [`imm_multithreaded`] with explicit selection and sampling engines and
/// RRR storage backend (CLI `--select` / `--sample` / `--rrr-budget`). Every backend fills through the same streamed
/// samplers and every selection engine shares the greedy tie-break, so the
/// seed set is identical at every thread count; the fused sampler draws a
/// different RNG schedule, so its output is statistically (not bitwise)
/// equivalent — see the `sampler-equivalence` oracle check. Every sampling
/// kernel's layout stays deterministic across thread counts.
#[must_use]
pub fn imm_multithreaded_with_storage(
    graph: &Graph,
    params: &ImmParams,
    threads: usize,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
) -> ImmResult {
    let keep = Keep::HOT_ROWS;
    let run = || run_compact("mt", graph, params, select, sample, storage, true, keep).0;
    if threads == 0 {
        run()
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool");
        pool.install(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::immopt_sequential;
    use ripples_diffusion::DiffusionModel;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 8 }, false, 21)
    }

    /// Per-model variant of [`test_graph`]: LT runs require the normalized
    /// in-weight contract the engines now enforce.
    fn graph_for(model: DiffusionModel) -> Graph {
        let lt = model == DiffusionModel::LinearThreshold;
        erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 8 }, lt, 21)
    }

    /// Two workers, the reference sampler, flat storage, `select` explicit.
    fn with_select(g: &Graph, p: &ImmParams, select: SelectEngine) -> ImmResult {
        imm_multithreaded_with_storage(
            g,
            p,
            2,
            select,
            SampleEngine::Reference,
            StorageConfig::default(),
        )
    }

    #[test]
    fn matches_sequential_at_any_thread_count() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let g = graph_for(model);
            let p = ImmParams::new(6, 0.5, model, 5);
            let seq = immopt_sequential(&g, &p);
            for threads in [1, 2, 4] {
                let mt = imm_multithreaded(&g, &p, threads);
                assert_eq!(mt.seeds, seq.seeds, "{model} at {threads} threads");
                assert_eq!(mt.theta, seq.theta);
                assert!((mt.coverage_fraction - seq.coverage_fraction).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn default_thread_count_works() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 2);
        let r = imm_multithreaded(&g, &p, 0);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    fn memory_accounting_populated() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 2);
        let r = imm_multithreaded(&g, &p, 2);
        assert!(r.memory.peak_rrr_bytes > 0);
        assert!(r.memory.graph_bytes > 0);
        assert!(r.report.phase_timers().total().as_nanos() > 0);
    }

    #[test]
    fn explicit_engines_all_match_default() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
        let default = imm_multithreaded(&g, &p, 2);
        for engine in [
            SelectEngine::Auto,
            SelectEngine::Sequential,
            SelectEngine::Partitioned,
            SelectEngine::Fused,
        ] {
            let r = with_select(&g, &p, engine);
            assert_eq!(r.seeds, default.seeds, "{engine:?}");
            assert_eq!(r.theta, default.theta, "{engine:?}");
        }
    }

    #[test]
    fn storage_backends_match_flat_seeds() {
        use ripples_diffusion::RrrStoreKind;
        // Uniform probabilities: cascades span the graph and the store
        // holds them as bitmaps or complements. Weighted cascade: mostly
        // small sets, held as lists.
        let dense = test_graph();
        let sparse = erdos_renyi(300, 2400, WeightModel::WeightedCascade, false, 21);
        for (g, is_dense) in [(&dense, true), (&sparse, false)] {
            let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
            let flat = imm_multithreaded(g, &p, 2);
            let f = &flat.report.counters;
            assert!(!is_dense || f.rrr_sets_bitmap + f.rrr_sets_complement > 0);
            // The spill kind under its default budget and a tiny one holds
            // the same sets in the same forms.
            for budget in [None, Some(4096)] {
                let r = imm_multithreaded_with_storage(
                    g,
                    &p,
                    2,
                    SelectEngine::Auto,
                    SampleEngine::Reference,
                    StorageConfig {
                        kind: RrrStoreKind::Spill,
                        budget,
                    },
                );
                assert_eq!(r.seeds, flat.seeds, "{budget:?}");
                assert_eq!(r.theta, flat.theta, "{budget:?}");
                assert!(
                    (r.coverage_fraction - flat.coverage_fraction).abs() < 1e-12,
                    "{budget:?}"
                );
                let c = &r.report.counters;
                assert_eq!(
                    (c.rrr_sets_bitmap, c.rrr_sets_complement),
                    (f.rrr_sets_bitmap, f.rrr_sets_complement),
                    "{budget:?}"
                );
                // A tiny budget spills what it bounds, the index's sealed
                // segments; the samples stay in RAM.
                assert_eq!(
                    c.spill_bytes_written > 0,
                    budget.is_some() && c.index_bytes_peak > 0,
                    "{budget:?}"
                );
            }
        }
    }

    #[test]
    fn fused_engine_populates_index_stats() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
        let r = with_select(&g, &p, SelectEngine::Fused);
        let c = &r.report.counters;
        assert!(c.select_entries_touched > 0, "no touched entries recorded");
        assert!(c.index_bytes_peak > 0, "no index bytes recorded");
        assert!(c.index_build_nanos > 0, "no index build time recorded");
        assert!(c.arena_bytes_peak > 0, "no arena bytes recorded");
        assert_eq!(r.memory.peak_index_bytes as u64, c.index_bytes_peak);
        assert!(r.memory.total() > r.memory.peak_rrr_bytes);
    }

    #[test]
    fn run_report_populated_and_thread_invariant() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 2);
        let seq = immopt_sequential(&g, &p);
        for threads in [1usize, 2, 4] {
            let r = imm_multithreaded(&g, &p, threads);
            assert_eq!(r.report.engine, "mt");
            assert_eq!(
                r.report.counters.samples_generated, seq.report.counters.samples_generated,
                "{threads} threads"
            );
            assert_eq!(
                r.report.counters.edges_examined,
                seq.report.counters.edges_examined
            );
            assert_eq!(
                r.report.counters.rrr_entries,
                seq.report.counters.rrr_entries
            );
            assert_eq!(
                r.report.counters.theta_rounds,
                seq.report.counters.theta_rounds
            );
            assert_eq!(r.report.counters.theta_final, r.theta as u64);
            assert_eq!(r.report.rrr_sizes.count(), r.theta as u64);
            assert!(!r.report.spans().is_empty());
        }
    }
}
