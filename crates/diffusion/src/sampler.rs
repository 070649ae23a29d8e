//! Batch RRR-set generation (Algorithm 3's parallel loop).
//!
//! Samples are indexed *globally*: sample `i` draws its root and its edge
//! coin-flips from `factory.sample_stream(i)`. Consequently the content of
//! the collection is a pure function of `(graph, model, factory, range)` —
//! identical across thread counts, rank counts, and partitions, which is
//! what lets the test suite assert sequential ≡ multithreaded ≡ distributed.

use crate::mixed::SampleArena;
use crate::model::DiffusionModel;
use crate::rrr::{generate_rrr, generate_rrr_into, RrrScratch};
use crate::store::RrrStore;
use rayon::prelude::*;
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;

/// Statistics of one sampling batch.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Per-sample in-edges examined, aligned with the batch's samples; the
    /// work units consumed by the strong-scaling replay model.
    pub work_per_sample: Vec<u64>,
    /// Sample counts per worker under the contiguous block partition used
    /// for generation (one entry per worker that received at least one
    /// sample). Sequential paths report the whole batch as one worker.
    pub per_worker_samples: Vec<u64>,
    /// Reserved bytes summed over the worker-local sample arenas of this
    /// batch — transient sampling memory beyond the merged collection.
    /// Sequential paths, which push straight into the collection, report 0.
    pub arena_bytes: usize,
    /// Frontier passes executed by the fused multi-cascade kernel (0 for
    /// the reference sampler; see [`crate::fused::sample_batch_fused`]).
    pub fused_passes: u64,
    /// Bytes of per-vertex activation-mask scratch summed over workers
    /// (0 for the reference sampler).
    pub mask_bytes: usize,
    /// Histogram of active lanes per expanded frontier vertex: slot `w`
    /// counts expansions whose mask had `w` set bits (length
    /// `FUSED_LANES + 1`; empty for the reference sampler).
    pub lane_width_counts: Vec<u64>,
}

impl BatchOutcome {
    /// Total edges examined in the batch.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.work_per_sample.iter().sum()
    }

    /// Folds a follow-up sub-batch into `self` (used when one logical batch
    /// is generated in two pieces, e.g. the probe + remainder split of the
    /// auto sampling dispatch). Per-sample vectors concatenate; transient
    /// memory figures take the max since the pieces' scratch never coexists.
    pub fn absorb(&mut self, other: BatchOutcome) {
        self.work_per_sample
            .extend_from_slice(&other.work_per_sample);
        self.per_worker_samples
            .extend_from_slice(&other.per_worker_samples);
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.fused_passes += other.fused_passes;
        self.mask_bytes = self.mask_bytes.max(other.mask_bytes);
        if self.lane_width_counts.len() < other.lane_width_counts.len() {
            self.lane_width_counts
                .resize(other.lane_width_counts.len(), 0);
        }
        for (slot, c) in self
            .lane_width_counts
            .iter_mut()
            .zip(&other.lane_width_counts)
        {
            *slot += c;
        }
    }
}

/// Verifies the Linear Threshold precondition before any LT sampling runs:
/// every vertex's in-weights must sum to ≤ 1 (Kempe et al.'s model
/// definition — the remainder is the "no incoming live edge" mass).
/// Sampling from un-normalized weights is *silently biased* — `generate_rrr`
/// would treat any `Σw > 1` tail as extra activation mass — so this check
/// runs in every build profile and fails fast instead.
///
/// The tolerance absorbs f32 rounding of weights that were normalized in
/// f64 by [`ripples_graph::Graph::normalize_for_lt`].
///
/// # Panics
///
/// Panics naming the first offending vertex when some in-weight sum
/// exceeds 1.
pub fn ensure_lt_normalized(graph: &Graph) {
    for v in 0..graph.num_vertices() {
        let sum = graph.in_weight_sum(v);
        assert!(
            sum <= 1.0 + 1e-4,
            "Linear Threshold sampling requires in-weights summing to <= 1, \
             but vertex {v} has in-weight sum {sum:.6}; call \
             Graph::normalize_for_lt() on a loaded graph, or build it with \
             WeightedBuilder::normalize_for_lt() (the CLI does so for --model lt)"
        );
    }
}

/// Runs [`ensure_lt_normalized`] when `model` is Linear Threshold.
#[inline]
pub(crate) fn validate_model_weights(graph: &Graph, model: DiffusionModel) {
    if model == DiffusionModel::LinearThreshold {
        ensure_lt_normalized(graph);
    }
}

/// Draws the root vertex for global sample `index`.
///
/// The root draw is the first draw of the sample's stream ("Select v ∈ V
/// uniformly at random", Algorithm 3).
#[inline]
fn sample_root(
    graph: &Graph,
    factory: &StreamFactory,
    index: u64,
) -> (Vertex, ripples_rng::SplitMix64) {
    let mut rng = factory.sample_stream(index);
    let root = rng.bounded_u64(u64::from(graph.num_vertices())) as Vertex;
    (root, rng)
}

/// The root vertex global sample `index` draws, without the rest of the
/// stream — shared by every sampler (the fused kernel reproduces exactly
/// these roots), and used by the oracle's root-distribution checks.
#[inline]
#[must_use]
pub fn sample_root_of(graph: &Graph, factory: &StreamFactory, index: u64) -> Vertex {
    sample_root(graph, factory, index).0
}

/// Generates samples `first_index .. first_index + count` in parallel and
/// appends them to `out` in index order.
///
/// # Panics
///
/// Panics if the graph has no vertices and `count > 0`.
pub fn sample_batch<S: RrrStore>(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    first_index: u64,
    count: usize,
    out: &mut S,
) -> BatchOutcome {
    assert!(
        count == 0 || graph.num_vertices() > 0,
        "cannot sample from an empty graph"
    );
    validate_model_weights(graph, model);
    // Parallel generation over a contiguous block partition, one block per
    // worker. Each worker appends its samples into a local flat arena (no
    // per-sample Vec), and the arenas are merged into `out` by parallel
    // bulk copy in index order, so the collection layout is deterministic;
    // each sample's content depends only on its global index, so the
    // result is identical for any worker count. Each non-empty block emits
    // one `sample-chunk` trace span, giving the timeline a per-worker view
    // of batch load imbalance.
    let workers = rayon::current_num_threads().max(1);
    let nchunks = workers.min(count.max(1));
    let chunks: Vec<(SampleArena, Vec<u64>)> = (0..nchunks as u64)
        .into_par_iter()
        .map_init(
            || RrrScratch::new(graph.num_vertices()),
            |scratch, chunk| {
                let chunk = chunk as usize;
                let lo = count * chunk / nchunks;
                let hi = count * (chunk + 1) / nchunks;
                let t0 = (hi > lo && ripples_trace::enabled()).then(std::time::Instant::now);
                let mut arena = SampleArena::with_capacity(graph.num_vertices(), hi - lo);
                let mut works = Vec::with_capacity(hi - lo);
                for offset in lo..hi {
                    let index = first_index + offset as u64;
                    let (root, mut rng) = sample_root(graph, factory, index);
                    let work = arena.append_with(|buf| {
                        generate_rrr_into(graph, model, root, &mut rng, scratch, buf)
                    });
                    works.push(work);
                }
                if let Some(t0) = t0 {
                    ripples_trace::complete(
                        ripples_trace::TraceName::SampleChunk,
                        t0,
                        first_index + lo as u64,
                        (hi - lo) as u64,
                    );
                }
                (arena, works)
            },
        )
        .collect();
    let arena_bytes: usize = chunks.iter().map(|(a, _)| a.resident_bytes()).sum();
    if ripples_metrics::enabled() {
        ripples_metrics::set_max(ripples_metrics::Metric::ArenaBytesPeak, arena_bytes as u64);
    }
    // The per-worker load partition is derived from the chunks actually
    // generated, not re-computed from a formula: the generation loop
    // partitions over `nchunks` (≤ workers), and an independent formula
    // over `workers` can disagree with the real chunk bounds — the
    // strong-scaling replay model must see the true partition.
    let mut outcome = BatchOutcome {
        work_per_sample: Vec::with_capacity(count),
        per_worker_samples: chunks
            .iter()
            .map(|(a, _)| a.len() as u64)
            .filter(|&c| c > 0)
            .collect(),
        arena_bytes,
        ..BatchOutcome::default()
    };
    let arenas: Vec<SampleArena> = chunks
        .into_iter()
        .map(|(arena, works)| {
            outcome.work_per_sample.extend_from_slice(&works);
            arena
        })
        .collect();
    out.append_arenas(&arenas);
    outcome
}

/// Sequential reference version of [`sample_batch`]; produces bitwise
/// identical output (used by the serial baselines and by tests).
pub fn sample_batch_sequential<S: RrrStore>(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    first_index: u64,
    count: usize,
    out: &mut S,
) -> BatchOutcome {
    assert!(
        count == 0 || graph.num_vertices() > 0,
        "cannot sample from an empty graph"
    );
    validate_model_weights(graph, model);
    let mut scratch = RrrScratch::new(graph.num_vertices());
    let mut outcome = BatchOutcome {
        work_per_sample: Vec::with_capacity(count),
        per_worker_samples: if count > 0 {
            vec![count as u64]
        } else {
            Vec::new()
        },
        ..BatchOutcome::default()
    };
    for offset in 0..count as u64 {
        let index = first_index + offset;
        let (root, mut rng) = sample_root(graph, factory, index);
        let s = generate_rrr(graph, model, root, &mut rng, &mut scratch);
        out.push(&s.vertices);
        outcome.work_per_sample.push(s.edges_examined);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrr::RrrCollection;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn graph() -> Graph {
        erdos_renyi(300, 2000, WeightModel::UniformRandom { seed: 3 }, false, 99)
    }

    /// LT sampling requires normalized in-weights ([`ensure_lt_normalized`]).
    fn lt_graph() -> Graph {
        erdos_renyi(300, 2000, WeightModel::UniformRandom { seed: 3 }, true, 99)
    }

    fn graph_for(model: DiffusionModel) -> Graph {
        match model {
            DiffusionModel::IndependentCascade => graph(),
            DiffusionModel::LinearThreshold => lt_graph(),
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let f = StreamFactory::new(1234);
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let g = graph_for(model);
            let mut par = RrrCollection::new();
            let mut seq = RrrCollection::new();
            let po = sample_batch(&g, model, &f, 0, 500, &mut par);
            let so = sample_batch_sequential(&g, model, &f, 0, 500, &mut seq);
            assert_eq!(par, seq, "collections differ under {model}");
            assert_eq!(po.work_per_sample, so.work_per_sample);
        }
    }

    #[test]
    fn per_worker_samples_match_real_chunk_partition() {
        // Regression: with fewer samples than pool threads, generation
        // partitions over `nchunks = min(workers, count)` chunks; the
        // reported per-worker counts must come from those real chunks, not
        // from a formula over all `workers` threads.
        let g = graph();
        let f = StreamFactory::new(9);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .expect("pool");
        for count in [1usize, 3, 7] {
            let o = pool.install(|| {
                let mut c = RrrCollection::new();
                sample_batch(&g, DiffusionModel::IndependentCascade, &f, 0, count, &mut c)
            });
            assert_eq!(
                o.per_worker_samples,
                vec![1u64; count],
                "count {count} under 8 workers must map one sample per chunk"
            );
            assert_eq!(o.per_worker_samples.iter().sum::<u64>(), count as u64);
        }
        // And at count ≥ workers the partition still accounts for every
        // sample across exactly `workers` chunks.
        let o = pool.install(|| {
            let mut c = RrrCollection::new();
            sample_batch(&g, DiffusionModel::IndependentCascade, &f, 0, 100, &mut c)
        });
        assert_eq!(o.per_worker_samples.len(), 8);
        assert_eq!(o.per_worker_samples.iter().sum::<u64>(), 100);
    }

    #[test]
    #[should_panic(expected = "in-weight sum")]
    fn lt_unnormalized_rejected_parallel() {
        let g = graph(); // un-normalized uniform weights: in-sums ≫ 1
        let f = StreamFactory::new(1);
        let mut c = RrrCollection::new();
        sample_batch(&g, DiffusionModel::LinearThreshold, &f, 0, 4, &mut c);
    }

    #[test]
    #[should_panic(expected = "in-weight sum")]
    fn lt_unnormalized_rejected_sequential() {
        let g = graph();
        let f = StreamFactory::new(1);
        let mut c = RrrCollection::new();
        sample_batch_sequential(&g, DiffusionModel::LinearThreshold, &f, 0, 4, &mut c);
    }

    #[test]
    fn lt_normalized_graphs_accepted() {
        ensure_lt_normalized(&lt_graph());
    }

    #[test]
    fn arena_merge_bitwise_equal_across_thread_counts() {
        // The arena path must reproduce sample_batch_sequential's layout
        // bit for bit at every worker count (acceptance criterion of the
        // arena rewrite).
        let g = graph();
        let f = StreamFactory::new(2024);
        let model = DiffusionModel::IndependentCascade;
        let mut seq = RrrCollection::new();
        let so = sample_batch_sequential(&g, model, &f, 0, 700, &mut seq);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (par, po) = pool.install(|| {
                let mut par = RrrCollection::new();
                let po = sample_batch(&g, model, &f, 0, 700, &mut par);
                (par, po)
            });
            assert_eq!(par, seq, "collections differ at {threads} threads");
            assert_eq!(po.work_per_sample, so.work_per_sample);
            assert!(po.arena_bytes > 0, "worker arenas unreported");
        }
    }

    #[test]
    fn batches_compose() {
        // Sampling [0,100) then [100,200) equals sampling [0,200).
        let g = graph();
        let f = StreamFactory::new(77);
        let model = DiffusionModel::IndependentCascade;
        let mut split = RrrCollection::new();
        sample_batch(&g, model, &f, 0, 100, &mut split);
        sample_batch(&g, model, &f, 100, 100, &mut split);
        let mut whole = RrrCollection::new();
        sample_batch(&g, model, &f, 0, 200, &mut whole);
        assert_eq!(split, whole);
    }

    #[test]
    fn work_counts_match_samples() {
        let g = graph();
        let f = StreamFactory::new(5);
        let mut c = RrrCollection::new();
        let o = sample_batch(&g, DiffusionModel::IndependentCascade, &f, 0, 64, &mut c);
        assert_eq!(o.work_per_sample.len(), 64);
        assert_eq!(c.len(), 64);
        assert!(o.total_work() > 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let g = graph();
        let f = StreamFactory::new(5);
        let mut c = RrrCollection::new();
        let o = sample_batch(&g, DiffusionModel::IndependentCascade, &f, 0, 0, &mut c);
        assert!(c.is_empty());
        assert_eq!(o.total_work(), 0);
    }

    #[test]
    fn roots_cover_vertex_space() {
        let g = lt_graph();
        let f = StreamFactory::new(31);
        let mut c = RrrCollection::new();
        sample_batch(&g, DiffusionModel::LinearThreshold, &f, 0, 2000, &mut c);
        // Every sample contains its root; LT sets are small, so the union of
        // singleton-ish sets should span a large share of the vertex space.
        let mut seen = vec![false; g.num_vertices() as usize];
        for s in c.iter() {
            for &v in s {
                seen[v as usize] = true;
            }
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered > 200, "only {covered} vertices ever sampled");
    }
}
