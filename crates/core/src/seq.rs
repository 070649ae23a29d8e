//! Sequential IMM implementations: the Tang-style hypergraph baseline
//! ("IMM" in Table 2) and the paper's optimized serial version ("IMMOPT").
//!
//! Both run Algorithm 1 through the crate's one `driver::run_imm`; they
//! differ only in how `R` is stored and how `SelectSeeds` walks it — which
//! is exactly the delta Table 2 measures. `CompactEngine` (compact
//! one-direction storage, batch samplers, the [`SelectEngine`] dispatch) is
//! also what the multithreaded engine and the resident-sketch build run.

use crate::driver::{record_store_counters, run_imm, Engine};
use crate::memory::MemoryStats;
use crate::obs::RunReport;
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::sample::{SampleEngine, SamplerDispatch};
use crate::select::{select_with_engine_store, SelectEngine, SelectStats, Selection};
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{BatchOutcome, DiffusionModel, DynRrrStore, RrrStore, StorageConfig};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;

/// Records one sampling batch's outcome into `report`: sample/edge counters,
/// per-worker load-balance observations (how many samples each worker
/// generated — the schedule decides, so they vary between runs), the peak
/// of the block arenas in flight, and the sizes of the samples appended to
/// `collection` since `old_len`.
pub(crate) fn record_batch<S: RrrStore>(
    report: &mut RunReport,
    collection: &S,
    old_len: usize,
    outcome: &BatchOutcome,
) {
    report.counters.samples_generated += (collection.len() - old_len) as u64;
    report.counters.edges_examined += outcome.total_work();
    for &w in &outcome.per_worker_samples {
        report.thread_samples.record(w);
    }
    for j in old_len..collection.len() {
        report.rrr_sizes.record(collection.sample_len(j) as u64);
    }
    report.counters.arena_bytes_peak = report
        .counters
        .arena_bytes_peak
        .max(outcome.arena_bytes as u64);
    report.counters.fused_passes += outcome.fused_passes;
    report.counters.mask_bytes_peak = report
        .counters
        .mask_bytes_peak
        .max(outcome.mask_bytes as u64);
    for (lanes, &times) in outcome.lane_width_counts.iter().enumerate() {
        report.lanes_active.record_n(lanes as u64, times);
    }
    // The trace stream mirrors the *running peak*, not the last batch's
    // reservation, so a trace reader sees the same high-water mark the
    // counters report.
    if crate::obs::trace::enabled() {
        crate::obs::trace::counter(
            crate::obs::trace::TraceName::ArenaBytes,
            report.counters.arena_bytes_peak,
        );
        if report.counters.mask_bytes_peak > 0 {
            crate::obs::trace::counter(
                crate::obs::trace::TraceName::MaskBytes,
                report.counters.mask_bytes_peak,
            );
        }
    }
}

/// The shared-memory engine: samples land in a [`DynRrrStore`] through the
/// [`SamplerDispatch`] batch kernels, and selection runs the requested
/// [`SelectEngine`] over it with `partitions` interval owners.
struct CompactEngine<'a> {
    store: DynRrrStore,
    dispatch: SamplerDispatch<'a>,
    select: SelectEngine,
    partitions: usize,
    n: u32,
}

impl Engine for CompactEngine<'_> {
    fn grow_to(&mut self, total: usize, report: &mut RunReport, sample_work: &mut Vec<u64>) {
        let old_len = self.store.len();
        let outcome = self
            .dispatch
            .sample_batch(old_len as u64, total - old_len, &mut self.store);
        sample_work.extend_from_slice(&outcome.work_per_sample);
        record_batch(report, &self.store, old_len, &outcome);
    }

    fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    fn select(&self, k: u32) -> (Selection, SelectStats) {
        select_with_engine_store(self.select, &self.store, self.n, k, self.partitions)
    }

    fn finish(&mut self, report: &mut RunReport) {
        record_store_counters(report, &self.store);
        if crate::obs::trace::enabled() {
            report.trace = Some(crate::obs::trace::collect_all());
        }
    }
}

/// Runs IMM over compact storage and hands the *filled, sealed* store back
/// alongside the result — the serve mode keeps it resident, the batch entry
/// points drop it. `parallel` runs the streamed reference sampler and one
/// selection interval owner per worker of the caller's pool; otherwise both
/// are strictly sequential.
pub(crate) fn run_compact(
    label: &str,
    graph: &Graph,
    params: &ImmParams,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
    parallel: bool,
) -> (ImmResult, DynRrrStore) {
    let n = graph.num_vertices();
    let factory = StreamFactory::new(params.seed);
    let mut engine = CompactEngine {
        store: DynRrrStore::new(storage, n),
        dispatch: SamplerDispatch::new(graph, params.model, &factory, sample, parallel),
        select,
        partitions: if parallel {
            rayon::current_num_threads()
        } else {
            1
        },
        n,
    };
    let footprint = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        graph_bytes: graph.resident_bytes(),
        ..MemoryStats::default()
    };
    let result = run_imm(label, graph, params, footprint, &mut engine);
    (result, engine.store)
}

/// Seed-set sizes from which [`immopt_sequential`] hands selection to the
/// cost-model dispatch ([`SelectEngine::Auto`]): with `k` this large, an
/// index-driven engine can repay its build cost, because each greedy round
/// after the first touches far fewer than θ samples. Below it, the single
/// sequential scan is already near-optimal and allocates nothing.
const SEQ_FUSED_K_THRESHOLD: u32 = 16;

/// The paper's optimized serial implementation (IMMOPT): compact sorted
/// one-direction storage + sequential Algorithm 4, auto-switching to the
/// cost-model selection dispatch from `k` = 16. The seed set is identical
/// either way.
#[must_use]
pub fn immopt_sequential(graph: &Graph, params: &ImmParams) -> ImmResult {
    let select = if params.effective_k(graph.num_vertices()) >= SEQ_FUSED_K_THRESHOLD {
        SelectEngine::Auto
    } else {
        SelectEngine::Sequential
    };
    immopt_sequential_with_storage(
        graph,
        params,
        select,
        SampleEngine::Reference,
        StorageConfig::default(),
    )
}

/// [`immopt_sequential`] with explicit selection and sampling engines and
/// RRR storage backend (CLI `--select` / `--sample` / `--rrr-store` /
/// `--rrr-budget`). Every selection engine and every backend returns the
/// same seeds for the same parameters; the fused sampler draws a different
/// RNG schedule, so its seed sets are statistically (not bitwise)
/// equivalent — see the `sampler-equivalence` oracle check.
#[must_use]
pub fn immopt_sequential_with_storage(
    graph: &Graph,
    params: &ImmParams,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
) -> ImmResult {
    run_compact("immopt", graph, params, select, sample, storage, false).0
}

// ---------------------------------------------------------------------------
// The Tang-style baseline ("IMM" rows of Tables 2 and 3)
// ---------------------------------------------------------------------------

/// Two-direction growable storage mirroring Tang et al.'s hypergraph
/// implementation: per-sample vertex vectors *and* a per-vertex vector of
/// sample ids, maintained incrementally during sampling.
///
/// This is deliberately the less cache- and memory-friendly layout the paper
/// replaces: every association is stored twice, and both directions live in
/// per-entity `Vec`s with their own capacity slack.
struct TangStorage {
    sets: Vec<Vec<Vertex>>,
    vertex_to_sets: Vec<Vec<u32>>,
}

impl TangStorage {
    fn new(n: u32) -> Self {
        Self {
            sets: Vec::new(),
            vertex_to_sets: vec![Vec::new(); n as usize],
        }
    }

    fn len(&self) -> usize {
        self.sets.len()
    }

    fn push(&mut self, vertices: Vec<Vertex>) {
        let sid = self.sets.len() as u32;
        for &v in &vertices {
            self.vertex_to_sets[v as usize].push(sid);
        }
        self.sets.push(vertices);
    }

    /// Actual resident bytes including per-`Vec` capacity slack and the
    /// 24-byte `Vec` headers — the realistic footprint of this layout.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_header = size_of::<Vec<u32>>();
        let sets: usize = self
            .sets
            .iter()
            .map(|s| vec_header + s.capacity() * size_of::<Vertex>())
            .sum();
        let index: usize = self
            .vertex_to_sets
            .iter()
            .map(|s| vec_header + s.capacity() * size_of::<u32>())
            .sum();
        sets + index + self.sets.capacity() * vec_header
    }

    /// Greedy max-cover driven by the inverted index (Tang's selection).
    fn select(&self, n: u32, k: u32) -> Selection {
        let k = k.min(n);
        let mut counters: Vec<u64> = (0..n as usize)
            .map(|v| self.vertex_to_sets[v].len() as u64)
            .collect();
        let mut covered = vec![false; self.sets.len()];
        let mut selected = vec![false; n as usize];
        let mut seeds = Vec::with_capacity(k as usize);
        let mut gains = Vec::with_capacity(k as usize);
        let mut covered_count = 0usize;
        for _ in 0..k {
            let mut best: Option<(u64, Vertex)> = None;
            for (v, (&c, &s)) in counters.iter().zip(&selected).enumerate() {
                if s {
                    continue;
                }
                match best {
                    Some((bc, _)) if bc >= c => {}
                    _ => best = Some((c, v as Vertex)),
                }
            }
            let Some((gain, v)) = best else { break };
            selected[v as usize] = true;
            seeds.push(v);
            gains.push(gain);
            for &sid in &self.vertex_to_sets[v as usize] {
                let j = sid as usize;
                if covered[j] {
                    continue;
                }
                covered[j] = true;
                covered_count += 1;
                for &u in &self.sets[j] {
                    counters[u as usize] -= 1;
                }
            }
        }
        Selection {
            seeds,
            covered: covered_count,
            fraction: if self.sets.is_empty() {
                0.0
            } else {
                covered_count as f64 / self.sets.len() as f64
            },
            marginal_gains: gains,
        }
    }
}

/// The Tang-style engine: one sample at a time through `generate_rrr` into
/// [`TangStorage`], selection over its inverted index.
struct TangEngine<'a> {
    graph: &'a Graph,
    model: DiffusionModel,
    factory: StreamFactory,
    storage: TangStorage,
    scratch: RrrScratch,
    /// Next global sample index; runs ahead of `storage.len()` once the
    /// fresh-resampling mode has dropped the estimation samples.
    next_index: u64,
    resample_final: bool,
}

impl Engine for TangEngine<'_> {
    fn grow_to(&mut self, total: usize, report: &mut RunReport, sample_work: &mut Vec<u64>) {
        let n = self.graph.num_vertices();
        let count = (total - self.storage.len()) as u64;
        for index in self.next_index..self.next_index + count {
            let mut rng = self.factory.sample_stream(index);
            let root = rng.bounded_u64(u64::from(n)) as Vertex;
            let s = generate_rrr(self.graph, self.model, root, &mut rng, &mut self.scratch);
            sample_work.push(s.edges_examined);
            report.counters.samples_generated += 1;
            report.counters.edges_examined += s.edges_examined;
            report.rrr_sizes.record(s.vertices.len() as u64);
            self.storage.push(s.vertices);
        }
        self.next_index += count;
        // Single-threaded engine: the whole batch lands on one worker.
        report.thread_samples.record(count);
    }

    fn resident_bytes(&self) -> usize {
        self.storage.resident_bytes()
    }

    fn select(&self, k: u32) -> (Selection, SelectStats) {
        let n = self.graph.num_vertices();
        (self.storage.select(n, k), SelectStats::default())
    }

    fn finish(&mut self, report: &mut RunReport) {
        report.counters.rrr_entries = self.storage.sets.iter().map(|s| s.len() as u64).sum();
        if crate::obs::trace::enabled() {
            report.trace = Some(crate::obs::trace::collect_all());
        }
    }

    fn discard_estimation_samples(&mut self) -> bool {
        if self.resample_final {
            self.storage = TangStorage::new(self.graph.num_vertices());
        }
        self.resample_final
    }
}

/// The sequential baseline mirroring Tang et al.'s implementation ("IMM"):
/// identical algorithm and RRR kernel, but samples stored in both directions
/// with per-entity vectors.
///
/// Produces the *same seed set* as [`immopt_sequential`] for the same
/// parameters (the greedy engines are deterministic and see the same
/// samples); differs in runtime and memory, which is what Table 2 measures.
#[must_use]
pub fn imm_baseline(graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_baseline_with_options(graph, params, false)
}

/// [`imm_baseline`] with Tang's *fresh-resampling* behaviour switchable.
///
/// Tang et al.'s released code does **not** reuse the estimation-phase
/// samples: after θ is fixed, the hypergraph is discarded and θ fresh
/// samples are generated (also the statistically safest reading of the
/// martingale analysis — cf. Chen's 2018 note on IMM). The CLUSTER'19
/// paper's Algorithm 1 instead tops up (`Sample(G, θ − |R|, R)`), one of
/// IMMOPT's advertised savings. `resample_final = true` reproduces Tang's
/// behaviour for the Table 2/3 runtime comparison; the seed set then comes
/// from a different (equally valid) sample population than IMMOPT's.
#[must_use]
pub fn imm_baseline_with_options(
    graph: &Graph,
    params: &ImmParams,
    resample_final: bool,
) -> ImmResult {
    let n = graph.num_vertices();
    let mut engine = TangEngine {
        graph,
        model: params.model,
        factory: StreamFactory::new(params.seed),
        storage: TangStorage::new(n),
        scratch: RrrScratch::new(n),
        next_index: 0,
        resample_final,
    };
    let footprint = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        graph_bytes: graph.resident_bytes(),
        ..MemoryStats::default()
    };
    run_imm("baseline", graph, params, footprint, &mut engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::RrrCollection;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(400, 3000, WeightModel::UniformRandom { seed: 2 }, false, 11)
    }

    /// Per-model variant of [`test_graph`]: LT runs require the normalized
    /// in-weight contract the engines now enforce.
    fn graph_for(model: DiffusionModel) -> Graph {
        let lt = model == DiffusionModel::LinearThreshold;
        erdos_renyi(400, 3000, WeightModel::UniformRandom { seed: 2 }, lt, 11)
    }

    #[test]
    fn immopt_returns_k_seeds() {
        let g = test_graph();
        let p = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.seeds.len(), 8);
        assert!(r.theta > 0);
        assert!(r.coverage_fraction > 0.0 && r.coverage_fraction <= 1.0);
        // Seeds must be distinct.
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn baseline_and_immopt_agree_on_seeds() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let g = graph_for(model);
            let p = ImmParams::new(5, 0.5, model, 33);
            let a = imm_baseline(&g, &p);
            let b = immopt_sequential(&g, &p);
            assert_eq!(a.seeds, b.seeds, "seed sets diverged under {model}");
            assert_eq!(a.theta, b.theta);
            assert!((a.coverage_fraction - b.coverage_fraction).abs() < 1e-12);
        }
    }

    #[test]
    fn baseline_uses_more_memory() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 33);
        let a = imm_baseline(&g, &p);
        let b = immopt_sequential(&g, &p);
        assert!(
            a.memory.peak_rrr_bytes > b.memory.peak_rrr_bytes,
            "hypergraph {} must exceed compact {}",
            a.memory.peak_rrr_bytes,
            b.memory.peak_rrr_bytes
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = test_graph();
        let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 7);
        let a = immopt_sequential(&g, &p);
        let b = immopt_sequential(&g, &p);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = test_graph();
        let p1 = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 1);
        let p2 = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 2);
        let a = immopt_sequential(&g, &p1);
        let b = immopt_sequential(&g, &p2);
        // θ at least will almost surely differ; allow seeds equality.
        assert!(a.theta != b.theta || a.seeds != b.seeds);
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let g = test_graph();
        let loose = immopt_sequential(
            &g,
            &ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 3),
        );
        let tight = immopt_sequential(
            &g,
            &ImmParams::new(5, 0.3, DiffusionModel::IndependentCascade, 3),
        );
        assert!(
            tight.theta > loose.theta,
            "θ: tight {} vs loose {}",
            tight.theta,
            loose.theta
        );
    }

    #[test]
    fn degenerate_graphs() {
        let empty = ripples_graph::GraphBuilder::new(0).build().unwrap();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&empty, &p);
        assert!(r.seeds.is_empty());

        let single = ripples_graph::GraphBuilder::new(1).build().unwrap();
        let r = immopt_sequential(&single, &p);
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    fn k_clamped_to_n() {
        let g = erdos_renyi(5, 12, WeightModel::Constant(0.5), false, 4);
        let p = ImmParams::new(50, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.seeds.len(), 5);
    }

    #[test]
    fn tang_resample_mode_is_statistically_equivalent() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 9);
        let fresh = imm_baseline_with_options(&g, &p, true);
        let reuse = imm_baseline_with_options(&g, &p, false);
        assert_eq!(fresh.seeds.len(), reuse.seeds.len());
        assert_eq!(fresh.theta, reuse.theta, "θ depends only on estimation");
        // Both record exactly the θ samples that drive the final selection
        // (fresh mode discards the estimation batch before regenerating).
        assert_eq!(fresh.sample_work.len(), fresh.theta);
        assert_eq!(reuse.sample_work.len(), reuse.theta);
        // Coverage fractions agree statistically.
        assert!((fresh.coverage_fraction - reuse.coverage_fraction).abs() < 0.1);
    }

    #[test]
    fn work_trace_recorded() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 9);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.sample_work.len(), r.theta);
        assert!(r.total_sample_work() > 0);
    }

    /// Regression: `arena_bytes_peak` (and the fused `mask_bytes_peak`)
    /// must track the *maximum* across batches, not the last batch's
    /// reservation — a big batch followed by a small top-up must not lower
    /// the reported peak.
    #[test]
    fn byte_peaks_track_max_across_batches() {
        let mut report = RunReport::new("test");
        let mut collection = RrrCollection::new();
        collection.push(&[0]);
        let big = BatchOutcome {
            arena_bytes: 4096,
            mask_bytes: 1024,
            fused_passes: 3,
            lane_width_counts: vec![0, 2, 5],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &collection, 0, &big);
        collection.push(&[1]);
        let small = BatchOutcome {
            arena_bytes: 128,
            mask_bytes: 64,
            fused_passes: 2,
            lane_width_counts: vec![0, 1],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &collection, 1, &small);
        assert_eq!(report.counters.arena_bytes_peak, 4096);
        assert_eq!(report.counters.mask_bytes_peak, 1024);
        assert_eq!(report.counters.fused_passes, 5);
        // Lane-width tallies fold into the histogram: 3 expansions with one
        // lane active, 5 with two.
        assert_eq!(report.lanes_active.count(), 8);
        assert_eq!(report.lanes_active.sum(), 3 + 2 * 5);
        assert_eq!(report.lanes_active.max(), 2);
    }
}
