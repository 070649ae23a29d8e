//! Batch RRR-set generation (Algorithm 3's parallel loop).
//!
//! Samples are indexed *globally*: sample `i` draws its root and its edge
//! coin-flips from `factory.sample_stream(i)`. Consequently the content of
//! the collection is a pure function of `(graph, model, factory, range)` —
//! identical across thread counts, rank counts, and partitions, which is
//! what lets the test suite assert sequential ≡ multithreaded ≡ distributed.
//!
//! Both parallel kernels — the reference one here and the fused one in
//! [`crate::fused`] — run on one streamed block scheduler, `stream_blocks`: workers
//! claim fixed-size blocks of global indices from an atomic cursor (the
//! paper's dynamic schedule), fill a reused [`SampleArena`] per block, and
//! the calling thread appends finished blocks to the store in index order
//! while the others keep sampling. A worker that gets a window of blocks
//! ahead of that merge parks, so transient sampling memory is a few blocks
//! per worker however large the batch.

use crate::mixed::SampleArena;
use crate::model::DiffusionModel;
use crate::rrr::{generate_rrr, generate_rrr_into, RrrScratch};
use crate::store::RrrStore;
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use ripples_trace::TraceName;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Statistics of one sampling batch.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Per-sample in-edges examined, aligned with the batch's samples; the
    /// work units consumed by the strong-scaling replay model.
    pub work_per_sample: Vec<u64>,
    /// Samples each worker generated (one entry per worker that filled at
    /// least one block). Workers claim blocks as they free up, so the split
    /// depends on the schedule and varies from run to run; it always sums
    /// to the batch. Sequential paths report the whole batch as one worker.
    pub per_worker_samples: Vec<u64>,
    /// Reserved bytes of the block arenas the batch had in flight — at most
    /// about three blocks per worker, whatever the batch size: transient
    /// sampling memory beyond the store. Sequential paths, which push
    /// straight into the store, report 0.
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
/// appends them to `out` in index order, on the streamed block scheduler
/// the module docs describe.
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
    let n = graph.num_vertices();
    let fill = |scratch: &mut RrrScratch, range: Range<u64>, block: &mut Block| {
        for index in range {
            let (root, mut rng) = sample_root(graph, factory, index);
            let work = block
                .arena
                .append_with(|buf| generate_rrr_into(graph, model, root, &mut rng, scratch, buf));
            block.works.push(work);
        }
    };
    let init = || RrrScratch::new(n);
    let span = TraceName::SampleChunk;
    stream_blocks(n, first_index, count, 1, span, out, init, fill).0
}

/// Blocks per worker a claim may run ahead of the merge before the
/// claiming worker parks: at most `2·workers` blocks are ever finished but
/// not merged.
const BLOCKS_AHEAD_PER_WORKER: usize = 2;

/// Samples per block for a batch of `count` over `workers`, for a kernel
/// that generates samples `lanes` at a time: about eight blocks per worker
/// so the last ones even out the load, 4 096 at most so in-flight memory
/// does not grow with the batch, and a multiple of `lanes` so that every
/// block boundary inside a batch is a boundary of the kernel's own blocks
/// (64 for the fused kernel, 1 for the reference one — whose 64-sample
/// `Auto` probe of graph-spanning cascades still spreads over every core).
fn block_len(count: usize, workers: usize, lanes: usize) -> u64 {
    ((count / (8 * workers)).clamp(lanes, 4096) / lanes * lanes) as u64
}

/// One block of a streamed batch: its samples and the work of each.
pub(crate) struct Block {
    pub(crate) arena: SampleArena,
    pub(crate) works: Vec<u64>,
}

/// What the workers and the merging thread share.
struct Pending {
    /// Slot `j` holds block `merged + j` once it is finished.
    ahead: VecDeque<Option<Block>>,
    /// Blocks appended to the store so far.
    merged: usize,
    /// Merged blocks, emptied on their next use.
    spare: Vec<Block>,
    /// A thread unwound: nobody will finish or merge its block.
    abandoned: bool,
}

/// The block schedule of one streamed batch.
struct Stream {
    nblocks: usize,
    /// How far past the merge a block may be claimed without parking.
    window: usize,
    /// The next block to claim. `Relaxed` suffices: it hands out indices
    /// and publishes nothing; blocks travel under `pending`'s lock.
    cursor: AtomicUsize,
    pending: Mutex<Pending>,
    /// Signalled when a block is finished; the merging thread waits on it.
    finished: Condvar,
    /// Signalled when the merge advances; parked workers wait on it.
    advanced: Condvar,
}

impl Stream {
    /// Every update under the lock is one step that leaves `Pending` valid,
    /// and the unwind guard must not panic, so a poisoned lock is taken as
    /// it is.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next block, parking while it is a window or more ahead of
    /// the merge; `None` once every block is claimed. Hands back a spare
    /// block buffer when there is one.
    fn claim(&self) -> Option<(usize, Option<Block>)> {
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        if b >= self.nblocks {
            return None;
        }
        let mut p = self.pending();
        while b >= p.merged + self.window && !p.abandoned {
            p = self
                .advanced
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (!p.abandoned).then(|| (b, p.spare.pop()))
    }

    /// Hands finished block `b` to the merge.
    fn finish(&self, b: usize, block: Block) {
        let mut p = self.pending();
        let slot = b - p.merged;
        p.ahead[slot] = Some(block);
        self.finished.notify_one();
    }

    /// The next block in index order, waiting until it is finished; `None`
    /// without waiting when `wait` is false and it is not.
    fn take_next(&self, wait: bool) -> Option<Block> {
        let mut p = self.pending();
        loop {
            assert!(!p.abandoned, "a sampling worker panicked");
            if let Some(block) = p.ahead.front_mut().and_then(Option::take) {
                p.ahead.rotate_left(1);
                p.merged += 1;
                self.advanced.notify_all();
                return Some(block);
            }
            if !wait {
                return None;
            }
            p = self
                .finished
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Appends the next block in index order to `out` and its work to
    /// `works`, waiting until it is finished when `wait`; false when not
    /// waiting and it is not finished.
    fn merge_next<S: RrrStore>(&self, out: &mut S, works: &mut Vec<u64>, wait: bool) -> bool {
        let Some(block) = self.take_next(wait) else {
            return false;
        };
        out.append_arena(&block.arena);
        works.extend_from_slice(&block.works);
        self.pending().spare.push(block);
        true
    }
}

/// Wakes every waiter of a [`Stream`] for good when the thread holding it
/// unwinds, so a panic in one worker (or in the merge) ends the batch as a
/// panic, not a hang.
struct AbandonOnUnwind<'a>(&'a Stream);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.pending().abandoned = true;
            self.0.finished.notify_all();
            self.0.advanced.notify_all();
        }
    }
}

/// The streamed block scheduler behind [`sample_batch`] and
/// [`crate::fused::sample_batch_fused`]: generates samples `first_index ..
/// first_index + count` and appends them to `out` in index order.
///
/// The batch is cut into blocks of [`block_len`] samples, a multiple of
/// `lanes`, on a grid aligned to absolute indices. `current_num_threads()` workers, the calling thread
/// one of them, claim blocks from an atomic cursor; `fill` writes block
/// `range` into an emptied, reused arena, with the worker's kernel scratch
/// (made by `init` when the worker claims its first block), and each block
/// records a `span` trace event. Only the calling thread touches `out`: it
/// appends finished blocks in index order between blocks of its own, so `S`
/// needs no `Send`. A worker whose claim is `2·workers` blocks or more ahead
/// of that merge parks until the merge catches up. `out.finish_batch()` ends
/// the batch.
///
/// Sample content is a function of the global index and the merge order is
/// index order, so `out` receives the same samples at any thread count.
/// Returns the outcome (work per sample, samples per worker, arena bytes)
/// and the scratch of every worker that filled a block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_blocks<S, W, I, F>(
    num_vertices: u32,
    first_index: u64,
    count: usize,
    lanes: usize,
    span: TraceName,
    out: &mut S,
    init: I,
    fill: F,
) -> (BatchOutcome, Vec<W>)
where
    S: RrrStore,
    W: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, Range<u64>, &mut Block) + Sync,
{
    let end = first_index + count as u64;
    let threads = rayon::current_num_threads().max(1);
    let len = block_len(count, threads, lanes);
    let first_block = first_index / len;
    let nblocks = if count == 0 {
        0
    } else {
        ((end - 1) / len - first_block + 1) as usize
    };
    let workers = threads.min(nblocks).max(1);
    let window = BLOCKS_AHEAD_PER_WORKER * workers;
    let stream = Stream {
        nblocks,
        window,
        cursor: AtomicUsize::new(0),
        pending: Mutex::new(Pending {
            ahead: (0..window).map(|_| None).collect(),
            merged: 0,
            spare: Vec::new(),
            abandoned: false,
        }),
        finished: Condvar::new(),
        advanced: Condvar::new(),
    };
    // One worker's share: its scratch, the samples it generated, and how
    // it fills a claimed block.
    struct Worker<W> {
        scratch: Option<W>,
        samples: u64,
    }
    let fill_block = |worker: &mut Worker<W>, b: usize, spare: Option<Block>| {
        let mut block = spare.unwrap_or_else(|| Block {
            arena: SampleArena::with_capacity(num_vertices, len as usize),
            works: Vec::with_capacity(len as usize),
        });
        block.arena.clear();
        block.works.clear();
        let base = (first_block + b as u64) * len;
        let range = base.max(first_index)..(base + len).min(end);
        let t0 = ripples_trace::enabled().then(std::time::Instant::now);
        fill(
            worker.scratch.get_or_insert_with(&init),
            range.clone(),
            &mut block,
        );
        worker.samples += range.end - range.start;
        if let Some(t0) = t0 {
            ripples_trace::complete(span, t0, range.start, range.end - range.start);
        }
        block
    };
    let mut outcome = BatchOutcome {
        work_per_sample: Vec::with_capacity(count),
        ..BatchOutcome::default()
    };
    let works = &mut outcome.work_per_sample;
    let done: Vec<Worker<W>> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let _guard = AbandonOnUnwind(&stream);
                    let mut worker = Worker {
                        scratch: None,
                        samples: 0,
                    };
                    while let Some((b, spare)) = stream.claim() {
                        stream.finish(b, fill_block(&mut worker, b, spare));
                    }
                    worker
                })
            })
            .collect();
        // The calling thread merges whatever is finished before each claim
        // of its own and, instead of parking, merges until its claim fits
        // the window.
        let _guard = AbandonOnUnwind(&stream);
        let mut own = Worker {
            scratch: None,
            samples: 0,
        };
        let mut merged = 0usize;
        loop {
            while stream.merge_next(out, works, false) {
                merged += 1;
            }
            let b = stream.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                break;
            }
            while b >= merged + window {
                stream.merge_next(out, works, true);
                merged += 1;
            }
            let spare = stream.pending().spare.pop();
            stream.finish(b, fill_block(&mut own, b, spare));
        }
        while merged < nblocks {
            stream.merge_next(out, works, true);
            merged += 1;
        }
        let mut done = vec![own];
        for helper in helpers {
            done.push(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    out.finish_batch();
    outcome.arena_bytes = stream
        .pending()
        .spare
        .iter()
        .map(|block| block.arena.resident_bytes())
        .sum();
    if ripples_metrics::enabled() {
        ripples_metrics::set_max(
            ripples_metrics::Metric::ArenaBytesPeak,
            outcome.arena_bytes as u64,
        );
    }
    outcome.per_worker_samples = done.iter().map(|w| w.samples).filter(|&c| c > 0).collect();
    let scratch = done.into_iter().filter_map(|w| w.scratch).collect();
    (outcome, scratch)
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
    fn per_worker_samples_sum_to_the_batch() {
        // Which worker fills which block is up to the schedule. What is
        // not: every sample is counted once, only workers that filled a
        // block are listed, and no more workers start than there are blocks.
        let g = graph();
        let f = StreamFactory::new(9);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .expect("pool");
        for count in [1usize, 3, 7, 100, 5000] {
            let o = pool.install(|| {
                let mut c = RrrCollection::new();
                sample_batch(&g, DiffusionModel::IndependentCascade, &f, 0, count, &mut c)
            });
            assert_eq!(o.per_worker_samples.iter().sum::<u64>(), count as u64);
            assert!(o.per_worker_samples.iter().all(|&c| c > 0), "{count}");
            let blocks = (count as u64).div_ceil(block_len(count, 8, 1)) as usize;
            assert!(o.per_worker_samples.len() <= blocks.min(8), "{count}");
        }
    }

    #[test]
    fn arena_bytes_do_not_grow_with_the_batch() {
        // From 4 096 · 8 samples per worker on, a block is at its cap: ten
        // times the samples is ten times the blocks through the same arenas.
        let g = lt_graph();
        let f = StreamFactory::new(3);
        let run = |threads: usize, count: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut c = RrrCollection::new();
                sample_batch(&g, DiffusionModel::LinearThreshold, &f, 0, count, &mut c)
            })
            .arena_bytes
        };
        assert_eq!(block_len(33_000, 1, 1), 4096);
        let one_block = run(1, 33_000);
        assert!(one_block > 0);
        let ten_times = run(1, 330_000);
        assert!(
            ten_times <= 2 * one_block,
            "{ten_times} bytes for 10x the samples, {one_block} for 1x"
        );
        // With two workers the arenas in flight depend on the schedule but
        // not on the batch: the window, plus the one each worker fills, each
        // at most twice one block's bytes.
        let workers = 2;
        let in_flight = BLOCKS_AHEAD_PER_WORKER * workers + workers;
        let two = run(workers, 330_000);
        assert!(
            two <= 2 * in_flight * one_block,
            "{two} bytes in flight at two workers, one block takes {one_block}"
        );
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
