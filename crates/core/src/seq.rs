//! Sequential IMM implementations: the Tang-style hypergraph baseline
//! ("IMM" in Table 2) and the paper's optimized serial version ("IMMOPT").
//!
//! Both run Algorithm 1 through the crate's one `driver::run_imm`; they
//! differ only in how `R` is stored and how `SelectSeeds` walks it — which
//! is exactly the delta Table 2 measures. `CompactEngine` (compact
//! one-direction storage, batch samplers, the [`SelectEngine`] dispatch) is
//! also what the multithreaded engine and the resident-sketch build run.

use crate::driver::{record_batch, record_store_counters, run_imm, Engine};
use crate::memory::MemoryStats;
use crate::obs::metrics::{self, Metric};
use crate::obs::trace::{self, TraceName};
use crate::obs::RunReport;
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::sample::{SampleEngine, SamplerDispatch, AUTO_PROBE_SAMPLES};
use crate::select::{
    index_only, select_from_hot_index, select_from_index, select_with_engine_store, with_index,
    SelectEngine, SelectStats, Selection,
};
use crate::theta::ThetaSchedule;
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{
    BatchOutcome, DiffusionModel, DynRrrStore, RrrStore, RrrStoreKind, SampleIndex, StorageConfig,
};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::time::Instant;

/// The degree τ below which an index-only run turns a vertex cold after a
/// selection pass whose `k`-th marginal gain was `g_k`: the least count `c`
/// with `c + 3·√c + 9 ≥ g_k / 2`, both counted over the pass's θ samples.
///
/// A later pass reaches a vertex's row only if it pops the vertex, and it
/// pops no vertex whose count stays below that pass's `k`-th gain. A count
/// is a sum of independent per-sample indicators, so its spread is about
/// `√c`; the rule drops a vertex only when its count three such spreads up,
/// plus 9 for the small counts where that bound is loose, is still below
/// half the `k`-th gain — its share of the samples would have to double
/// against the `k`-th seed's before a pass could pop it. If one does, the
/// pass draws the samples again and loses nothing but time
/// (`index_regenerations`).
#[must_use]
pub(crate) fn hot_threshold(g_k: u64) -> u64 {
    let stays_hot = |c: u64| {
        let c = c as f64;
        c + 3.0 * c.sqrt() + 9.0 >= g_k as f64 / 2.0
    };
    // `g_k` itself stays hot: find the least count that does.
    let (mut lo, mut hi) = (0u64, g_k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if stays_hot(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// What a [`run_compact`] run keeps of its samples.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Keep {
    /// Every sample, and every index row: the serve sketch selects over it
    /// after the run.
    Store,
    /// What the run's selection passes read. A run that decides to select
    /// from the index alone keeps its index alone, and of the index the rows
    /// of the vertices whose degree reaches the τ that `threshold` sets from
    /// each pass's `k`-th marginal gain: [`hot_threshold`], or a harsher one
    /// in the tests that force regenerations. `prefix` is `None` but in the
    /// tests that force what the first batch's prefix decides.
    HotRows {
        threshold: fn(u64) -> u64,
        prefix: Option<bool>,
    },
}

impl Keep {
    /// A batch run's: [`hot_threshold`], and the prefix decided by the rule.
    pub(crate) const HOT_ROWS: Keep = Keep::HotRows {
        threshold: hot_threshold,
        prefix: None,
    };
}

/// What an index-only run's index kept, and what regenerating it cost.
#[derive(Clone, Copy, Debug, Default)]
struct HotIndex {
    /// The last pass's τ.
    tau: u64,
    /// Vertices whose rows the index kept after the last pass.
    rows: usize,
    regenerations: u64,
    regeneration_edges: u64,
    /// Samples the first round had drawn when its early pass cooled the
    /// index; 0 if none did.
    first_cool_at: usize,
    /// The stage and the index as that pass found them, which it freed and
    /// compacted: the first round's peaks.
    first_stage_bytes: usize,
    first_index_bytes: usize,
}

/// Entries per vertex of the graph that the first round of an index-only
/// run over an unbudgeted store stages before its early pass: half the
/// stage a released store starts with, so the pass comes before the first
/// full stage builds a segment with a table of `4·(n + 1)` bytes.
const FIRST_COOL_ENTRIES_PER_VERTEX: u64 = 4;

/// The shared-memory engine: samples land in a [`DynRrrStore`] through the
/// [`SamplerDispatch`] batch kernels, and selection runs the requested
/// [`SelectEngine`] over it with `partitions` interval owners.
///
/// A run that may drop its samples decides on the first batch's first
/// [`AUTO_PROBE_SAMPLES`] samples, the prefix `Auto`'s sampler probe cuts
/// too: when [`index_only`] says an indexed pass over them reads the index
/// alone and no population the θ schedule can reach passes the index's
/// 32-bit sample ids, the store — flat or spill — releases them into its
/// index ([`DynRrrStore::release_samples`]) right there. Every later sample
/// then waits in the bounded stage until the index absorbs it, no
/// sample-major copy of the first round exists, and every pass reads the
/// index alone, even one the rule would have run index-free over the whole
/// round (every engine selects the same seeds). Under a spill store's
/// `--rrr-budget` it is the index's sealed segments that spill. A prefix
/// that says keep keeps the store for the whole run, as the serve sketch
/// does.
///
/// An index-only run keeps only the rows its greedy can reach: after each
/// pass the vertices whose degree is below τ ([`Keep::HotRows`]) turn cold
/// ([`DynRrrStore::cool_index_below`]). A pass that pops a cold vertex draws
/// the samples again through the same dispatcher and rebuilds the index with
/// the rows it lacks, so every pass is bitwise the pass over the full index.
/// Over a store with no budget (no `--rrr-budget`) the first round does not
/// wait for its pass: it stops once its samples should fill
/// [`FIRST_COOL_ENTRIES_PER_VERTEX`]` · (n + 1)` stage entries, at the
/// prefix's mean set size, for one pass whose seeds go nowhere and whose τ
/// cools the index, so the rest of the round absorbs hot rows only
/// ([`CompactEngine::cool_first_round`]). A budgeted store keeps the round
/// whole: what its budget spills is that round's rows.
struct CompactEngine<'a> {
    store: DynRrrStore,
    dispatch: SamplerDispatch<'a>,
    select: SelectEngine,
    partitions: usize,
    n: u32,
    /// Until the first batch's prefix decides whether the run selects from
    /// the index alone, for a run that may drop its samples: the largest
    /// population its θ schedule can ask for.
    max_population: Option<usize>,
    /// The `k` of the estimation passes, which the prefix decides for.
    sizing_k: u32,
    /// What the prefix decides in place of the rule: `None` but in tests.
    prefix: Option<bool>,
    /// Samples the store held when it released them, after which every
    /// pass reads the index: the prefix; 0 while it keeps them.
    index_only_at: usize,
    /// τ from a pass's `k`-th gain, for a run that may drop its samples.
    threshold: Option<fn(u64) -> u64>,
    hot: HotIndex,
}

impl CompactEngine<'_> {
    /// Decides, once, over the first batch's prefix, whether the run
    /// selects from the index alone; if it does, releases the store's
    /// samples into its index and routes every pass from then on through
    /// the index. A prefix that says keep keeps the store for the run.
    fn release_if_index_only(&mut self) {
        let Some(max_population) = self.max_population.take() else {
            return;
        };
        let release = self
            .prefix
            .unwrap_or_else(|| index_only(self.select, &self.store, self.sizing_k, max_population));
        if release {
            self.store.release_samples(self.n, self.partitions);
            self.index_only_at = self.store.len();
            metrics::set(Metric::IndexOnlyAtSamples, self.index_only_at as u64);
        }
    }

    /// Where the first round of an index-only run over a store with no
    /// budget stops for its early pass, `prefix` samples in: at the sample
    /// count whose entries should fill [`FIRST_COOL_ENTRIES_PER_VERTEX`]
    /// per vertex at the prefix's mean set size. `None` when the round ends
    /// first, and for every other run.
    fn first_cool_cut(&self, prefix: usize, total: usize) -> Option<usize> {
        let unbudgeted = self.store.kind() == RrrStoreKind::Flat;
        let entries = self.store.total_entries();
        if self.threshold.is_none() || self.index_only_at == 0 || !unbudgeted || entries == 0 {
            return None;
        }
        let stage = FIRST_COOL_ENTRIES_PER_VERTEX * (u64::from(self.n) + 1);
        let cut = (stage * prefix as u64).div_ceil(entries);
        let cut = usize::try_from(cut).unwrap_or(usize::MAX).max(prefix);
        (cut < total).then_some(cut)
    }

    /// The first round's early pass: the lazy greedy over the index of its
    /// first `cut` samples, whose seeds, gains and counters go nowhere (the
    /// live registry is muted for it), sets τ, and the vertices below it
    /// turn cold. No vertex is cold before it, so it reads every row it
    /// pops; the store frees its stage and sizes the next by the hot rows.
    fn cool_first_round(&mut self, cut: usize) {
        let threshold = self.threshold.expect("an index-only run");
        let (n, k) = (self.n, self.sizing_k);
        let banned = vec![false; n as usize];
        let (selection, index_bytes) = metrics::muted(|| {
            with_index(&self.store, n, self.partitions, |index, build| {
                (select_from_index(index, k, &banned).0, build.index_bytes)
            })
        });
        self.hot.first_cool_at = cut;
        self.hot.first_stage_bytes = self.store.resident_bytes();
        self.hot.first_index_bytes = index_bytes;
        self.cool(&selection, k, threshold);
    }

    /// Sets τ from `selection`'s `k`-th gain, and turns the vertices below
    /// it cold.
    fn cool(&mut self, selection: &Selection, k: u32, threshold: fn(u64) -> u64) {
        let full = selection.seeds.len() == k as usize;
        let g_k = selection.marginal_gains.last().filter(|_| full);
        self.hot.tau = threshold(g_k.copied().unwrap_or(0));
        let t0 = Instant::now();
        let (cooled, rows) = self.store.cool_index_below(self.hot.tau);
        self.hot.rows = rows;
        trace::complete(TraceName::IndexCompact, t0, cooled as u64, rows as u64);
    }

    /// One pass of an index-only run: the lazy greedy over the index, which
    /// rebuilds the index from the samples drawn again when it pops a cold
    /// vertex; then the vertices below the pass's τ turn cold.
    fn select_hot(&mut self, k: u32, threshold: fn(u64) -> u64) -> (Selection, SelectStats) {
        let Self {
            store,
            dispatch,
            partitions,
            n,
            hot,
            ..
        } = self;
        let banned = vec![false; *n as usize];
        let (selection, stats, rebuilt) = with_index(&*store, *n, *partitions, |index, build| {
            let mut redraw = |index: &SampleIndex, key: u64| {
                let t0 = Instant::now();
                let samples = index.absorbed_samples();
                let mut outcome = BatchOutcome::default();
                let fresh = store.regrow(index.revived(key), *partitions, |fresh| {
                    outcome = metrics::muted(|| dispatch.redraw(samples, fresh));
                });
                assert_eq!(
                    fresh.degrees(),
                    index.degrees(),
                    "the samples drawn again must be the samples drawn"
                );
                hot.regenerations += 1;
                hot.regeneration_edges += outcome.total_work();
                metrics::add(Metric::IndexRegenerations, 1);
                trace::complete(TraceName::IndexRegenerate, t0, outcome.total_work(), key);
                fresh
            };
            let (selection, mut stats, rebuilt) =
                select_from_hot_index(index, k, &banned, &mut redraw);
            stats.absorb(build);
            (selection, stats, rebuilt)
        });
        if let Some(index) = rebuilt {
            store.replace_index(index);
        }
        self.cool(&selection, k, threshold);
        (selection, stats)
    }
}

impl Engine for CompactEngine<'_> {
    /// The first batch of a run that may drop its samples stops after its
    /// prefix to decide, and an index-only one over a store with no budget
    /// again for its early pass; it samples the rest into what that left: a
    /// sample's content depends on its global index alone, so the cuts move
    /// no sample.
    fn grow_to(&mut self, total: usize, report: &mut RunReport) {
        let mut first = self.store.len();
        let mut outcome = BatchOutcome::default();
        if first == 0 && self.max_population.is_some() {
            first = total.min(AUTO_PROBE_SAMPLES);
            outcome = self.dispatch.sample_batch(0, first, &mut self.store);
            self.release_if_index_only();
            if let Some(cut) = self.first_cool_cut(first, total) {
                let count = cut - first;
                let early = self
                    .dispatch
                    .sample_batch(first as u64, count, &mut self.store);
                outcome.absorb(early);
                self.cool_first_round(cut);
                first = cut;
            }
        }
        if total > first {
            let rest = self
                .dispatch
                .sample_batch(first as u64, total - first, &mut self.store);
            outcome.absorb(rest);
        }
        record_batch(report, &outcome);
    }

    /// The store's samples or stage, and never less than the first round's
    /// stage before its early pass freed it.
    fn resident_bytes(&self) -> usize {
        self.store.resident_bytes().max(self.hot.first_stage_bytes)
    }

    fn graph_bytes(&self) -> usize {
        self.dispatch.graph().resident_bytes()
    }

    /// An index-only run's passes report the index at least as large as
    /// the first round's early pass found it.
    fn select(&mut self, k: u32) -> (Selection, SelectStats) {
        match self.threshold.filter(|_| self.index_only_at > 0) {
            Some(threshold) => {
                let (selection, mut stats) = self.select_hot(k, threshold);
                stats.index_bytes = stats.index_bytes.max(self.hot.first_index_bytes);
                (selection, stats)
            }
            None => select_with_engine_store(self.select, &self.store, self.n, k, self.partitions),
        }
    }

    fn finish(&mut self, report: &mut RunReport) {
        record_store_counters(report, &self.store);
        let c = &mut report.counters;
        c.index_hot_rows = self.hot.rows as u64;
        c.index_hot_tau = self.hot.tau;
        c.index_regenerations = self.hot.regenerations;
        c.index_regeneration_edges = self.hot.regeneration_edges;
        c.index_only_at_samples = self.index_only_at as u64;
        c.index_first_cool_at_samples = self.hot.first_cool_at as u64;
        c.stage_entries_limit = self.store.stage_entries_limit();
        if crate::obs::trace::enabled() {
            report.trace = Some(crate::obs::trace::collect_all());
        }
    }
}

/// Runs IMM over compact storage and returns the result with the filled
/// store. `parallel` runs the streamed reference sampler and one selection
/// interval owner per worker of the caller's pool; otherwise both are
/// strictly sequential. With [`Keep::Store`] (the serve mode keeps the
/// sketch resident) the store keeps every sample; otherwise a run whose
/// every selection pass reads only the index releases them, and keeps the
/// rows its greedy can reach ([`CompactEngine`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_compact(
    label: &str,
    graph: &Graph,
    params: &ImmParams,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
    parallel: bool,
    keep: Keep,
) -> (ImmResult, DynRrrStore) {
    let n = graph.num_vertices();
    let factory = StreamFactory::new(params.seed);
    let (threshold, prefix) = match keep {
        Keep::Store => (None, None),
        Keep::HotRows { threshold, prefix } => (Some(threshold), prefix),
    };
    let sizing_k = params.sizing_k(n);
    let max_population = (threshold.is_some() && n >= 2).then(|| {
        let k = u64::from(sizing_k);
        ThetaSchedule::new(u64::from(n), k, params.epsilon, params.ell).max_population()
    });
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
        max_population,
        sizing_k,
        prefix,
        index_only_at: 0,
        threshold,
        hot: HotIndex::default(),
    };
    let footprint = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
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
/// RRR storage backend (CLI `--select` / `--sample` / `--rrr-budget`). Every selection engine and every backend returns the
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
    run_compact(
        "immopt",
        graph,
        params,
        select,
        sample,
        storage,
        false,
        Keep::HOT_ROWS,
    )
    .0
}

/// [`immopt_sequential_with_storage`] with [`SelectEngine::Fused`], and
/// `threshold` in place of the rule that sets τ from a pass's `k`-th
/// marginal gain: an entry point for tests, which force index
/// regenerations with a τ far above the rule's. Any τ returns the seeds,
/// θ and selection counters of the full index; a high one costs
/// regenerations (`parallel` samples and selects as `mt` does).
#[doc(hidden)]
#[must_use]
pub fn index_only_run_with_threshold(
    graph: &Graph,
    params: &ImmParams,
    storage: StorageConfig,
    parallel: bool,
    threshold: fn(u64) -> u64,
) -> ImmResult {
    let select = SelectEngine::Fused;
    let sample = SampleEngine::Reference;
    let keep = Keep::HotRows {
        threshold,
        prefix: None,
    };
    run_compact(
        "immopt", graph, params, select, sample, storage, parallel, keep,
    )
    .0
}

/// [`immopt_sequential_with_storage`] with what the first batch's prefix
/// decides forced to `streams`: an entry point for tests, which force the
/// prefix's two mispredictions. `false` keeps the store for the run, as a
/// prefix the rule keeps does; `true` releases the prefix into the index
/// even where the rule would keep every sample, and the run then selects
/// from the index alone. Either returns the seeds and θ of the rule's run
/// (`parallel` samples and selects as `mt` does).
#[doc(hidden)]
#[must_use]
pub fn index_only_run_with_prefix(
    graph: &Graph,
    params: &ImmParams,
    select: SelectEngine,
    sample: SampleEngine,
    storage: StorageConfig,
    parallel: bool,
    streams: bool,
) -> ImmResult {
    let keep = Keep::HotRows {
        threshold: hot_threshold,
        prefix: Some(streams),
    };
    run_compact(
        "immopt", graph, params, select, sample, storage, parallel, keep,
    )
    .0
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
    /// Its steps count towards `select_iterations`; Table 2 compares this
    /// layout by time and memory, so they charge no `select_entries_touched`.
    fn select(&self, n: u32, k: u32) -> (Selection, SelectStats) {
        let k = k.min(n);
        let mut counters: Vec<u64> = (0..n as usize)
            .map(|v| self.vertex_to_sets[v].len() as u64)
            .collect();
        let mut covered = vec![false; self.sets.len()];
        let mut selected = vec![false; n as usize];
        let mut seeds = Vec::with_capacity(k as usize);
        let mut gains = Vec::with_capacity(k as usize);
        let mut covered_count = 0usize;
        let mut stats = SelectStats::default();
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
            stats.step(v, gain, 0, true);
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
        let selection = Selection::finish(seeds, gains, covered_count, self.sets.len());
        (selection, stats)
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
    fn grow_to(&mut self, total: usize, report: &mut RunReport) {
        let n = self.graph.num_vertices();
        let count = (total - self.storage.len()) as u64;
        // Single-threaded engine: the whole batch lands on one worker.
        let mut outcome = BatchOutcome {
            per_worker_samples: vec![count],
            ..BatchOutcome::default()
        };
        for index in self.next_index..self.next_index + count {
            let mut rng = self.factory.sample_stream(index);
            let root = rng.bounded_u64(u64::from(n)) as Vertex;
            let s = generate_rrr(self.graph, self.model, root, &mut rng, &mut self.scratch);
            outcome.add([s.vertices.len()], s.edges_examined);
            self.storage.push(s.vertices);
        }
        self.next_index += count;
        record_batch(report, &outcome);
    }

    fn resident_bytes(&self) -> usize {
        self.storage.resident_bytes()
    }

    fn graph_bytes(&self) -> usize {
        self.graph.resident_bytes()
    }

    fn select(&mut self, k: u32) -> (Selection, SelectStats) {
        let n = self.graph.num_vertices();
        self.storage.select(n, k)
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
        ..MemoryStats::default()
    };
    run_imm("baseline", graph, params, footprint, &mut engine)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn hot_threshold_is_the_least_count_that_stays_hot() {
        // Below g_k = 18 even a count of 0 passes: nothing turns cold.
        for g_k in [0, 1, 17, 18] {
            assert_eq!(hot_threshold(g_k), 0, "g_k {g_k}");
        }
        for g_k in [19u64, 100, 1086, 9544, 1 << 20] {
            let tau = hot_threshold(g_k);
            let stays = |c: u64| c as f64 + 3.0 * (c as f64).sqrt() + 9.0 >= g_k as f64 / 2.0;
            assert!(stays(tau) && !stays(tau - 1), "g_k {g_k}: tau {tau}");
            assert!(tau < g_k / 2);
        }
    }

    /// Small weighted-cascade cascades: an index-only run's shape.
    fn cascade_graph() -> Graph {
        let wc = WeightModel::WeightedCascade;
        ripples_graph::generators::barabasi_albert(300, 3, wc, false, 5)
    }

    /// A τ above every count turns every vertex cold after each pass, so
    /// every later pass pops cold vertices only and rebuilds its index from
    /// the samples drawn again — yet returns what the full index returns:
    /// a kept store's run, which selects over every row.
    #[test]
    fn forced_regenerations_select_what_the_full_index_selects() {
        let g = cascade_graph();
        let spill = StorageConfig {
            kind: ripples_diffusion::RrrStoreKind::Spill,
            budget: Some(4096),
        };
        let cases = [
            (
                DiffusionModel::IndependentCascade,
                StorageConfig::default(),
                false,
            ),
            (DiffusionModel::LinearThreshold, spill, true),
        ];
        for (model, storage, parallel) in cases {
            let case = format!("{model} {:?} parallel {parallel}", storage.kind);
            let p = ImmParams::new(6, 0.5, model, 3);
            let (select, sample) = (SelectEngine::Fused, SampleEngine::Reference);
            let keep = Keep::Store;
            let kept = run_compact("kept", &g, &p, select, sample, storage, parallel, keep).0;
            let hot = index_only_run_with_threshold(&g, &p, storage, parallel, |_| u64::MAX);
            assert_eq!(hot.seeds, kept.seeds, "{case}");
            assert_eq!(hot.theta, kept.theta, "{case}");
            let (h, k) = (&hot.report.counters, &kept.report.counters);
            assert_eq!(h.select_entries_touched, k.select_entries_touched, "{case}");
            assert_eq!(h.select_iterations, k.select_iterations, "{case}");
            assert_eq!(h.edges_examined, k.edges_examined, "{case}");
            assert_eq!(h.samples_generated, k.samples_generated, "{case}");
            assert!(
                h.select_iterations >= 12,
                "{case}: a second pass reads a cold index"
            );
            assert!(h.index_regenerations > 0, "{case}");
            assert!(h.index_regeneration_edges > 0, "{case}");
            assert_eq!((h.index_hot_rows, h.index_hot_tau), (0, u64::MAX), "{case}");
            assert_eq!(k.index_regenerations + k.index_hot_rows, 0, "{case}");
        }
    }

    /// A τ above every count at the first round's early pass, and none
    /// after it: every vertex a later pass pops was cooled by the early
    /// pass, so the passes draw the samples again, and still select what a
    /// kept store's run selects.
    #[test]
    fn a_pass_that_pops_a_vertex_the_early_pass_cooled_draws_again() {
        thread_local! {
            static COOLINGS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        fn at_the_early_pass_only(_: u64) -> u64 {
            let first = COOLINGS.with(|c| c.replace(c.get() + 1)) == 0;
            if first {
                u64::MAX
            } else {
                0
            }
        }
        let g = cascade_graph();
        let p = ImmParams::new(6, 0.3, DiffusionModel::IndependentCascade, 3);
        let storage = StorageConfig::default();
        let (select, sample) = (SelectEngine::Fused, SampleEngine::Reference);
        let kept = run_compact("kept", &g, &p, select, sample, storage, false, Keep::Store).0;
        let hot = index_only_run_with_threshold(&g, &p, storage, false, at_the_early_pass_only);
        let (h, k) = (&hot.report.counters, &kept.report.counters);
        assert!(h.index_first_cool_at_samples > 0, "the early pass ran");
        assert!(h.index_first_cool_at_samples < h.round_budgets[0]);
        assert_eq!(k.index_first_cool_at_samples, 0);
        assert!(h.index_regenerations >= 1);
        assert_eq!(hot.seeds, kept.seeds);
        assert_eq!(hot.theta, kept.theta);
        assert_eq!(h.select_entries_touched, k.select_entries_touched);
        assert_eq!(h.select_iterations, k.select_iterations);
        assert_eq!(h.edges_examined, k.edges_examined);
        assert_eq!(h.index_hot_tau, 0, "no pass after the early one cooled");
    }

    /// The rule's own τ on the same graph: vertices turn cold, and no pass
    /// pops one.
    #[test]
    fn the_statistical_margin_regenerates_nothing_here() {
        let g = cascade_graph();
        let p = ImmParams::new(4, 0.2, DiffusionModel::IndependentCascade, 3);
        let storage = StorageConfig::default();
        let r = index_only_run_with_threshold(&g, &p, storage, false, hot_threshold);
        let c = &r.report.counters;
        assert_eq!(c.index_regenerations, 0);
        assert!(c.index_hot_tau > 0 && c.index_hot_rows < 300);
        assert_eq!(r.seeds, immopt_sequential(&g, &p).seeds);
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
        // Fresh mode discards the estimation batch and regenerates all θ
        // samples; reuse mode tops the batch up to θ.
        let held = *reuse.report.counters.round_budgets.last().unwrap();
        let theta = reuse.theta as u64;
        assert_eq!(reuse.report.counters.samples_generated, held.max(theta));
        assert_eq!(fresh.report.counters.samples_generated, held + theta);
        // Coverage fractions agree statistically.
        assert!((fresh.coverage_fraction - reuse.coverage_fraction).abs() < 0.1);
    }

    #[test]
    fn work_trace_recorded() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 9);
        let r = immopt_sequential(&g, &p);
        assert!(r.report.counters.edges_examined > 0);
        let trace = crate::scaling::WorkTrace::replay(&g, &p, r.theta, 1);
        assert_eq!(trace.theta, r.theta);
        assert_eq!(trace.rrr_entries, r.report.counters.rrr_entries);
    }

    /// Regression: `arena_bytes_peak` (and the fused `mask_bytes_peak`)
    /// must track the *maximum* across batches, not the last batch's
    /// reservation — a big batch followed by a small top-up must not lower
    /// the reported peak.
    #[test]
    fn byte_peaks_track_max_across_batches() {
        let mut report = RunReport::new("test");
        let big = BatchOutcome {
            arena_bytes: 4096,
            mask_bytes: 1024,
            fused_passes: 3,
            lane_width_counts: vec![0, 2, 5],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &big);
        let small = BatchOutcome {
            arena_bytes: 128,
            mask_bytes: 64,
            fused_passes: 2,
            lane_width_counts: vec![0, 1],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &small);
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
