//! Fused multi-cascade RRR sampling: 64 cascades per frontier pass.
//!
//! The reference sampler ([`crate::sampler::sample_batch`]) walks the CSR
//! once per sample, so a batch of θ samples traverses the in-adjacency θ
//! times with a branchy per-edge coin flip. Following Göktürk & Kaya's
//! fused/vectorized kernels (and the EfficientIMM recipe), this kernel
//! instead advances a *block* of [`FUSED_LANES`] = 64 cascades together:
//!
//! * Per-vertex cascade state is one machine word — bit `l` of `active[v]`
//!   says vertex `v` is in lane `l`'s RRR set — kept in flat scratch arrays
//!   sized `n`.
//! * One frontier pass expands each pending vertex once for *all* lanes
//!   that newly reached it, amortizing the CSR traversal and turning the
//!   per-edge decision into branch-light mask arithmetic: dense masks take
//!   a full-width sweep (64 independent SplitMix64 draws → one `u64` live
//!   mask per edge, autovectorization-friendly), sparse masks draw only
//!   the expanding lanes' coins so one lane never pays for sixty-four.
//! * Lane `l` of the block at sample base `b` owns global sample `b + l`
//!   and draws from `factory.sample_stream(b + l)` — the *root* is the
//!   stream's first draw exactly as in the reference sampler, so roots are
//!   bitwise identical; the edge coin flips consume the stream in a
//!   different (full-width) order, so set *contents* are statistically
//!   equivalent rather than bitwise equal. The oracle's
//!   `sampler-equivalence` check pins that equivalence.
//!
//! Emission goes through the streamed block scheduler the reference
//! sampler runs on ([`crate::sampler`]): workers claim runs of whole lane
//! blocks, fill a [`crate::SampleArena`] per run, and the runs reach the
//! store in global index order, so the collection layout is a pure function of `(graph,
//! model, factory, range)` — identical across thread counts, like the
//! reference path. The per-vertex lane masks *are* the block's 64 RRR sets,
//! as a transposed bitmap: a block in which the [`set_form`] rule keeps
//! some lane out of a list is emitted by transposing the masks 64 vertices
//! at a time straight into 64 lane bitmaps, which the arena keeps as
//! bitmaps or scans for their clear bits into complements — the sorted
//! lists of a graph-spanning cascade are never built. A block of sparse
//! cascades builds its 64 sorted lists in one vertex-ordered pass.
//!
//! The kernel wins when cascades are wide (dense masks amortize the
//! full-width draws); the `SampleEngine::Auto` dispatch in `ripples-core`
//! gates it on measured mean RRR size.

use crate::mixed::{bitmap_words, set_form, SetForm};
use crate::model::DiffusionModel;
use crate::sampler::{stream_blocks, BatchOutcome, Block};
use ripples_graph::{Graph, RowProbs, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};
use ripples_trace::TraceName;
use std::ops::Range;

/// Cascades advanced per frontier pass: one bit of a machine word each.
pub const FUSED_LANES: usize = 64;

/// Blocks are aligned to absolute sample indices: block `b` always owns
/// samples `64·b .. 64·b + 64` and always advances all 64 lanes, no matter
/// which sub-range a batch call asks for — only the in-range lanes are
/// *emitted*. That makes a block's content a pure function of
/// `(graph, model, factory, b)`, so batches compose: sampling `[0, 100)`
/// then `[100, 200)` yields the same collection as `[0, 200)` (a boundary
/// block's out-of-range lanes are regenerated by the next batch; at most
/// 63 wasted cascades per batch, noise against IMM's batch sizes).
///
/// Per-worker scratch for the fused kernel, reused across blocks.
struct FusedScratch {
    /// Bit `l` set ⇔ the vertex is in lane `l`'s RRR set.
    active: Vec<u64>,
    /// Bit `l` set ⇔ lane `l` reached the vertex this pass and has not
    /// expanded it yet (read-and-cleared at expansion).
    newly: Vec<u64>,
    /// Vertices with nonzero `active`, for O(touched) reset between blocks.
    touched: Vec<Vertex>,
    /// Current and next frontier vertex lists.
    cur: Vec<Vertex>,
    next: Vec<Vertex>,
    /// Per-lane RNG states; lane `l` holds `sample_stream(base + l)`.
    rngs: Vec<SplitMix64>,
    /// Per-lane uniform draws for one LT vertex expansion.
    draws: [f64; FUSED_LANES],
    /// Per-lane RRR sets of the current block when it is emitted as lists,
    /// built strictly increasing by a vertex-ordered pass at its end.
    lane_sets: Vec<Vec<Vertex>>,
    /// Per-lane bitmaps (`bitmap_words(n)` words each, lane-major) of the
    /// current block when it is emitted as bitmaps; allocated by the first
    /// such block.
    lane_bits: Vec<u64>,
    /// Which of the two the current block filled.
    emit_bitmaps: bool,
    /// Per-lane edges examined, reference-compatible accounting.
    works: [u64; FUSED_LANES],
}

impl FusedScratch {
    fn new(n: u32) -> Self {
        Self {
            active: vec![0; n as usize],
            newly: vec![0; n as usize],
            touched: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            rngs: Vec::with_capacity(FUSED_LANES),
            draws: [0.0; FUSED_LANES],
            lane_sets: (0..FUSED_LANES).map(|_| Vec::new()).collect(),
            lane_bits: Vec::new(),
            emit_bitmaps: false,
            works: [0; FUSED_LANES],
        }
    }

    /// Bytes of per-vertex mask state this worker holds resident: the two
    /// mask arrays and, once a block has been emitted as bitmaps, their
    /// transposed copy.
    fn mask_bytes(&self) -> usize {
        (self.active.len() + self.newly.len() + self.lane_bits.len()) * std::mem::size_of::<u64>()
    }

    /// Transposes `active` — one word of 64 lane bits per vertex — into
    /// `lane_bits` — one bitmap of n vertex bits per lane — 64 vertices at
    /// a time. Every word of `lane_bits` is overwritten, so nothing of the
    /// previous block survives.
    fn transpose_into_lane_bits(&mut self) {
        let words = self.active.len().div_ceil(FUSED_LANES);
        self.lane_bits.resize(FUSED_LANES * words, 0);
        for (group, masks) in self.active.chunks(FUSED_LANES).enumerate() {
            let mut tile = [0u64; FUSED_LANES];
            tile[..masks.len()].copy_from_slice(masks);
            transpose64(&mut tile);
            for (lane, &word) in tile.iter().enumerate() {
                self.lane_bits[lane * words + group] = word;
            }
        }
    }

    /// Clears block-local state in O(touched), not O(n).
    fn reset(&mut self) {
        for &v in &self.touched {
            self.active[v as usize] = 0;
        }
        debug_assert!(self.newly.iter().all(|&m| m == 0), "newly leaked a mask");
        self.touched.clear();
        self.cur.clear();
        self.next.clear();
        self.rngs.clear();
        self.works = [0; FUSED_LANES];
        for set in &mut self.lane_sets {
            set.clear();
        }
    }

    /// Marks `prop`'s lanes as having activated `u`, maintaining the
    /// frontier list and per-lane emission buffers.
    #[inline]
    fn activate(&mut self, u: Vertex, prop: u64) {
        let slot = u as usize;
        if self.active[slot] == 0 {
            self.touched.push(u);
        }
        if self.newly[slot] == 0 {
            self.next.push(u);
        }
        self.active[slot] |= prop;
        self.newly[slot] |= prop;
    }
}

/// In-place transpose of a 64×64 bit matrix held as 64 row words with
/// column `c` at bit `c`: afterwards bit `r` of word `c` is what bit `c` of
/// word `r` was. Six rounds of swapping the off-diagonal quadrants of
/// 2j×2j tiles (Hacker's Delight §7-3).
fn transpose64(rows: &mut [u64; 64]) {
    let mut j = 32;
    // Columns whose `j` bit is clear.
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((rows[k] >> j) ^ rows[k + j]) & mask;
            rows[k] ^= t << j;
            rows[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Converts an IC edge probability to a `u64` comparison threshold:
/// `draw < threshold` holds with probability `p` (to within one part in
/// 2⁶⁴). Callers special-case `p ≥ 1` so certain edges stay certain.
#[inline]
fn ic_threshold(p: f64) -> u64 {
    debug_assert!(p < 1.0);
    (p * 18_446_744_073_709_551_616.0) as u64 // p · 2⁶⁴
}

/// Runs one full 64-lane block whose lane `l` is global sample
/// `base_index + l`; returns the pass count. Leaves the block's per-lane
/// sets in `scratch.lane_bits` or `scratch.lane_sets` as
/// `scratch.emit_bitmaps` says, and its per-lane work in `scratch.works`.
fn run_block(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    base_index: u64,
    scratch: &mut FusedScratch,
    lane_width_counts: &mut [u64],
) -> u64 {
    let n = u64::from(graph.num_vertices());
    scratch.reset();
    for l in 0..FUSED_LANES {
        let mut rng = factory.sample_stream(base_index + l as u64);
        // The root is the stream's first draw — identical to the reference
        // sampler's `sample_root`.
        let root = rng.bounded_u64(n) as Vertex;
        let bit = 1u64 << l;
        if scratch.active[root as usize] == 0 {
            scratch.touched.push(root);
        }
        if scratch.newly[root as usize] == 0 {
            scratch.cur.push(root);
        }
        scratch.active[root as usize] |= bit;
        scratch.newly[root as usize] |= bit;
        scratch.rngs.push(rng);
    }
    let mut passes = 0u64;
    while !scratch.cur.is_empty() {
        passes += 1;
        for i in 0..scratch.cur.len() {
            let v = scratch.cur[i];
            let m = std::mem::take(&mut scratch.newly[v as usize]);
            if m == 0 {
                // Merged into an earlier expansion this pass.
                continue;
            }
            lane_width_counts[m.count_ones() as usize] += 1;
            match model {
                DiffusionModel::IndependentCascade => expand_ic(graph, v, m, scratch),
                DiffusionModel::LinearThreshold => expand_lt(graph, v, m, scratch),
            }
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
        scratch.next.clear();
    }
    // Emit the block as bitmaps iff the density rule keeps some lane out of
    // a list. No lane holds more vertices than the block touched, and the
    // rule keeps every set up to a size a list, so most sparse blocks are
    // settled without counting.
    let vertices = graph.num_vertices();
    let dense = |len: usize| set_form(len, vertices) != SetForm::List;
    scratch.emit_bitmaps = dense(scratch.touched.len()) && {
        let mut lane_lens = [0usize; FUSED_LANES];
        for &v in &scratch.touched {
            let mut mask = scratch.active[v as usize];
            while mask != 0 {
                lane_lens[mask.trailing_zeros() as usize] += 1;
                mask &= mask - 1;
            }
        }
        lane_lens.iter().any(|&len| dense(len))
    };
    if scratch.emit_bitmaps {
        scratch.transpose_into_lane_bits();
        return passes;
    }
    // Build the per-lane sets in one vertex-ordered pass over the block's
    // activation masks: each lane's set comes out strictly increasing (the
    // layout `RrrCollection` requires) without a per-lane sort.
    scratch.touched.sort_unstable();
    for i in 0..scratch.touched.len() {
        let v = scratch.touched[i];
        let mut mask = scratch.active[v as usize];
        while mask != 0 {
            let l = mask.trailing_zeros() as usize;
            scratch.lane_sets[l].push(v);
            mask &= mask - 1;
        }
    }
    passes
}

/// IC expansion of `v` for the lanes in `m`: every in-edge is live per lane
/// independently with its probability.
#[inline]
fn expand_ic(graph: &Graph, v: Vertex, m: u64, scratch: &mut FusedScratch) {
    let sources = graph.in_neighbors(v);
    // Dense masks amortize a branch-free full-width sweep; sparse masks
    // (the common case early and late in a block) draw only the expanding
    // lanes' coins so one lane never pays for sixty-four. Either way the
    // draw schedule is a pure function of the block's content, so the
    // layout stays deterministic across thread counts.
    let wide = m.count_ones() as usize >= FUSED_LANES / 2;
    let deg = match graph.in_probs(v) {
        RowProbs::Same(p) => ic_edges(sources.map(|u| (u, p)), m, wide, scratch),
        RowProbs::Each(probs) => ic_edges(sources.zip(probs.iter().copied()), m, wide, scratch),
    };
    // Reference accounting: expanding a vertex charges its full in-degree
    // to the expanding lane.
    let mut mm = m;
    while mm != 0 {
        let l = mm.trailing_zeros() as usize;
        scratch.works[l] += deg;
        mm &= mm - 1;
    }
}

/// The per-edge half of [`expand_ic`], once per probability layout;
/// returns the edges it walked, the row's degree.
#[inline]
fn ic_edges(
    edges: impl Iterator<Item = (Vertex, f32)>,
    m: u64,
    wide: bool,
    scratch: &mut FusedScratch,
) -> u64 {
    let mut deg = 0u64;
    for (u, p) in edges {
        deg += 1;
        let p = f64::from(p);
        let live = if p >= 1.0 {
            !0u64
        } else {
            let thr = ic_threshold(p);
            let mut lv = 0u64;
            if wide {
                // Full-width draw: all 64 lanes flip this edge's coin in
                // one branch-free sweep, building the live mask bitwise.
                for (l, rng) in scratch.rngs.iter_mut().enumerate() {
                    lv |= u64::from(rng.next_u64() < thr) << l;
                }
            } else {
                let mut mm = m;
                while mm != 0 {
                    let l = mm.trailing_zeros() as usize;
                    lv |= u64::from(scratch.rngs[l].next_u64() < thr) << l;
                    mm &= mm - 1;
                }
            }
            lv
        };
        let prop = live & m & !scratch.active[u as usize];
        if prop != 0 {
            scratch.activate(u, prop);
        }
    }
    deg
}

/// LT expansion of `v` for the lanes in `m`: each lane draws once and
/// selects at most one in-neighbor by cumulative weight (the remaining mass
/// selects "no incoming live edge").
#[inline]
fn expand_lt(graph: &Graph, v: Vertex, m: u64, scratch: &mut FusedScratch) {
    let sources = graph.in_neighbors(v);
    // Each lane in `m` draws once per vertex expansion; lanes outside the
    // mask leave their streams untouched (see `expand_ic` on determinism).
    let mut mm = m;
    while mm != 0 {
        let l = mm.trailing_zeros() as usize;
        scratch.draws[l] = scratch.rngs[l].unit_f64();
        mm &= mm - 1;
    }
    match graph.in_probs(v) {
        RowProbs::Same(p) => lt_edges(sources.map(|u| (u, p)), m, scratch),
        RowProbs::Each(probs) => lt_edges(sources.zip(probs.iter().copied()), m, scratch),
    }
}

/// The per-edge half of [`expand_lt`], once per probability layout.
#[inline]
fn lt_edges(edges: impl Iterator<Item = (Vertex, f32)>, m: u64, scratch: &mut FusedScratch) {
    let mut deciding = m;
    let mut acc = 0.0f64;
    for (u, p) in edges {
        if deciding == 0 {
            break;
        }
        acc += f64::from(p);
        // Reference accounting: each lane pays one unit per edge it is
        // still scanning when the edge is examined.
        let mut take = 0u64;
        let mut dd = deciding;
        while dd != 0 {
            let l = dd.trailing_zeros() as usize;
            scratch.works[l] += 1;
            take |= u64::from(scratch.draws[l] < acc) << l;
            dd &= dd - 1;
        }
        deciding &= !take;
        let prop = take & !scratch.active[u as usize];
        if prop != 0 {
            scratch.activate(u, prop);
        }
    }
}

/// Generates samples `first_index .. first_index + count` with the fused
/// multi-cascade kernel and appends them to `out` in index order.
///
/// Output layout is deterministic and thread-count invariant (blocks are
/// keyed by global sample index and merged in order); contents are
/// statistically equivalent — not bitwise equal — to the reference
/// sampler's, with bitwise-identical roots. See the module docs.
///
/// # Panics
///
/// Panics if the graph has no vertices and `count > 0`, or if `model` is
/// Linear Threshold and the in-weights are not normalized.
pub fn sample_batch_fused<S: crate::store::RrrStore>(
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
    crate::sampler::validate_model_weights(graph, model);
    let n = graph.num_vertices();
    let words = bitmap_words(n);
    let lanes = FUSED_LANES as u64;
    let init = || FusedWorker {
        scratch: FusedScratch::new(n),
        lane_width_counts: vec![0; FUSED_LANES + 1],
    };
    // A scheduled block is a run of whole lane blocks except at the batch's
    // ends, where a lane block that overhangs the batch is run in full and
    // only its in-range lanes are emitted.
    let fill = |worker: &mut FusedWorker, range: Range<u64>, block: &mut Block| {
        let mut base = range.start / lanes * lanes;
        while base < range.end {
            block.passes += run_block(
                graph,
                model,
                factory,
                base,
                &mut worker.scratch,
                &mut worker.lane_width_counts,
            );
            let scratch = &worker.scratch;
            let emit_lo = range.start.saturating_sub(base) as usize;
            let emit_hi = (range.end - base).min(lanes) as usize;
            for l in emit_lo..emit_hi {
                let work = scratch.works[l];
                if scratch.emit_bitmaps {
                    let bitmap = &scratch.lane_bits[l * words..(l + 1) * words];
                    let len = bitmap.iter().map(|word| word.count_ones()).sum();
                    block.arena.append_bitmap(bitmap, len);
                } else {
                    let set = &scratch.lane_sets[l];
                    block.arena.append_set(set);
                }
                block.work += work;
            }
            base += lanes;
        }
    };
    let span = TraceName::FusedChunk;
    let (mut outcome, workers) =
        stream_blocks(n, first_index, count, FUSED_LANES, span, out, init, fill);
    for worker in workers {
        outcome.mask_bytes += worker.scratch.mask_bytes();
        outcome.lane_width_counts.resize(FUSED_LANES + 1, 0);
        for (slot, c) in outcome
            .lane_width_counts
            .iter_mut()
            .zip(&worker.lane_width_counts)
        {
            *slot += c;
        }
    }
    out.finish_batch();
    outcome
}

/// One worker's state across the blocks it claims.
struct FusedWorker {
    scratch: FusedScratch,
    lane_width_counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrr::RrrCollection;
    use crate::sampler::{sample_batch_sequential, sample_root_of};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::{GraphBuilder, WeightModel};

    fn graph() -> Graph {
        erdos_renyi(300, 2000, WeightModel::UniformRandom { seed: 3 }, false, 99)
    }

    fn lt_graph() -> Graph {
        erdos_renyi(300, 2000, WeightModel::UniformRandom { seed: 3 }, true, 99)
    }

    #[test]
    fn layout_deterministic_across_thread_counts() {
        let g = graph();
        let f = StreamFactory::new(2024);
        let model = DiffusionModel::IndependentCascade;
        let mut reference = RrrCollection::new();
        let ro = sample_batch_fused(&g, model, &f, 0, 700, &mut reference);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (c, o) = pool.install(|| {
                let mut c = RrrCollection::new();
                let o = sample_batch_fused(&g, model, &f, 0, 700, &mut c);
                (c, o)
            });
            assert_eq!(c, reference, "collections differ at {threads} threads");
            assert_eq!(o.edges_examined, ro.edges_examined);
            assert_eq!(o.fused_passes, ro.fused_passes);
        }
    }

    #[test]
    fn transpose64_moves_bit_c_of_row_r_to_bit_r_of_row_c() {
        let mut rng = SplitMix64::new(17);
        let rows: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let mut got = rows;
        transpose64(&mut got);
        for (c, &word) in got.iter().enumerate() {
            for (r, &row) in rows.iter().enumerate() {
                assert_eq!(word >> r & 1, row >> c & 1, "row {r} column {c}");
            }
        }
        transpose64(&mut got);
        assert_eq!(got, rows, "transposing twice is the identity");
    }

    /// Cascades that span the graph — near all of it at `p` = 0.6, where
    /// the sets are complements, and a good part at 0.15, where they are
    /// bitmaps: every block is emitted as bitmaps.
    fn spanning_graph(p: f32) -> Graph {
        erdos_renyi(333, 4000, WeightModel::Constant(p), false, 7)
    }

    #[test]
    fn bitmap_emission_equals_list_emission() {
        // The same blocks, once through the transposed bitmaps into a
        // store that keeps them as bitmaps or complements and once expanded
        // into the list-only collection; a vertex count that is no multiple
        // of 64 and a batch that starts and ends inside a block.
        for (p, complements) in [(0.6, true), (0.15, false)] {
            let g = spanning_graph(p);
            let f = StreamFactory::new(31);
            let model = DiffusionModel::IndependentCascade;
            let mut lists = RrrCollection::new();
            let lo = sample_batch_fused(&g, model, &f, 10, 150, &mut lists);
            let mut mixed = crate::MixedRrrCollection::new(g.num_vertices());
            let mo = sample_batch_fused(&g, model, &f, 10, 150, &mut mixed);
            let kept = if complements {
                mixed.complement_sets()
            } else {
                mixed.bitmap_sets()
            };
            assert!(kept > 100, "cascades were meant to span: p = {p}");
            assert_eq!(lo.edges_examined, mo.edges_examined);
            assert_eq!(lists.unsorted_pushes(), 0);
            let mut out = Vec::new();
            for i in 0..lists.len() {
                crate::RrrStore::decode_into(&mixed, i, &mut out);
                assert_eq!(out, lists.get(i), "sample {i}");
                let root = sample_root_of(&g, &f, 10 + i as u64);
                assert!(lists.get(i).binary_search(&root).is_ok());
            }
            // The transposed copy is mask state too: 2·333 mask words plus
            // 64 lane bitmaps of 6 words per worker.
            assert!(mo.mask_bytes >= (2 * 333 + 64 * 6) * 8);
        }
    }

    #[test]
    fn batches_compose() {
        let g = graph();
        let f = StreamFactory::new(77);
        let model = DiffusionModel::IndependentCascade;
        let mut split = RrrCollection::new();
        let head = sample_batch_fused(&g, model, &f, 0, 100, &mut split);
        let tail = sample_batch_fused(&g, model, &f, 100, 100, &mut split);
        let mut whole = RrrCollection::new();
        let all = sample_batch_fused(&g, model, &f, 0, 200, &mut whole);
        assert_eq!(split, whole);
        // Lane block 64..128 straddles the split: each half counts only
        // the work of the lanes it emits.
        assert_eq!(head.total_work() + tail.total_work(), all.total_work());
    }

    #[test]
    fn roots_match_reference_and_sets_contain_them() {
        for (model, g) in [
            (DiffusionModel::IndependentCascade, graph()),
            (DiffusionModel::LinearThreshold, lt_graph()),
        ] {
            let f = StreamFactory::new(5);
            let mut c = RrrCollection::new();
            sample_batch_fused(&g, model, &f, 0, 200, &mut c);
            assert_eq!(c.len(), 200);
            assert_eq!(c.unsorted_pushes(), 0, "fused emission must pre-sort");
            for i in 0..c.len() {
                let root = sample_root_of(&g, &f, i as u64);
                assert!(
                    c.get(i).binary_search(&root).is_ok(),
                    "{model} sample {i} lost its root"
                );
                assert!(c.get(i).windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn certain_path_traversed_fully() {
        // 0 -> 1 -> ... -> 9 with p = 1: every sample rooted at v must be
        // exactly {0..=v}; exercises the p ≥ 1 certainty special case.
        let mut b = GraphBuilder::new(10);
        for u in 0..9 {
            b.add_edge(u, u + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let f = StreamFactory::new(11);
        let mut c = RrrCollection::new();
        sample_batch_fused(&g, DiffusionModel::IndependentCascade, &f, 0, 300, &mut c);
        for i in 0..c.len() {
            let root = sample_root_of(&g, &f, i as u64);
            let expect: Vec<Vertex> = (0..=root).collect();
            assert_eq!(c.get(i), &expect[..], "sample {i} rooted at {root}");
        }
    }

    #[test]
    fn zero_probability_stops_at_root() {
        let mut b = GraphBuilder::new(8);
        for u in 0..7 {
            b.add_edge(u, u + 1, 0.0).unwrap();
        }
        let g = b.build().unwrap();
        let f = StreamFactory::new(4);
        let mut c = RrrCollection::new();
        let o = sample_batch_fused(&g, DiffusionModel::IndependentCascade, &f, 0, 128, &mut c);
        for i in 0..c.len() {
            assert_eq!(c.get(i).len(), 1);
        }
        // Reference accounting: roots with one in-edge examine it.
        assert!(o.total_work() > 0);
        assert!(o.fused_passes >= 1);
    }

    #[test]
    fn ic_marginal_probability_agrees_with_reference() {
        // Single edge 0 -> 1 with p = 0.25: the fraction of samples rooted
        // at 1 that extend to {0, 1} estimates p for both samplers.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.25).unwrap();
        let g = b.build().unwrap();
        let f = StreamFactory::new(13);
        let trials = 20_000usize;
        let frac = |c: &RrrCollection| {
            let mut rooted = 0usize;
            let mut extended = 0usize;
            for i in 0..c.len() {
                if c.get(i).contains(&1) {
                    rooted += 1;
                    if c.get(i).len() == 2 {
                        extended += 1;
                    }
                }
            }
            extended as f64 / rooted as f64
        };
        let mut fused = RrrCollection::new();
        sample_batch_fused(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            0,
            trials,
            &mut fused,
        );
        let mut reference = RrrCollection::new();
        sample_batch_sequential(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            0,
            trials,
            &mut reference,
        );
        let (pf, pr) = (frac(&fused), frac(&reference));
        assert!((pf - 0.25).abs() < 0.02, "fused marginal {pf}");
        assert!((pf - pr).abs() < 0.03, "fused {pf} vs reference {pr}");
    }

    #[test]
    fn lt_mean_set_size_agrees_with_reference() {
        let g = lt_graph();
        let f = StreamFactory::new(21);
        let trials = 4000usize;
        let mean = |c: &RrrCollection| c.total_entries() as f64 / c.len() as f64;
        let mut fused = RrrCollection::new();
        let fo = sample_batch_fused(
            &g,
            DiffusionModel::LinearThreshold,
            &f,
            0,
            trials,
            &mut fused,
        );
        let mut reference = RrrCollection::new();
        let ro = sample_batch_sequential(
            &g,
            DiffusionModel::LinearThreshold,
            &f,
            0,
            trials,
            &mut reference,
        );
        let (mf, mr) = (mean(&fused), mean(&reference));
        assert!(
            (mf - mr).abs() / mr < 0.1,
            "LT mean set size fused {mf} vs reference {mr}"
        );
        // Work accounting uses the same units as the reference sampler.
        let (wf, wr) = (fo.total_work() as f64, ro.total_work() as f64);
        assert!(
            (wf - wr).abs() / wr < 0.15,
            "LT work fused {wf} vs reference {wr}"
        );
    }

    #[test]
    fn outcome_counters_populated() {
        let g = graph();
        let f = StreamFactory::new(8);
        let mut c = RrrCollection::new();
        let o = sample_batch_fused(&g, DiffusionModel::IndependentCascade, &f, 0, 150, &mut c);
        assert!(o.fused_passes > 0);
        assert!(o.mask_bytes >= 2 * 300 * 8, "mask bytes unreported");
        assert_eq!(o.lane_width_counts.len(), FUSED_LANES + 1);
        assert!(o.lane_width_counts.iter().sum::<u64>() > 0);
        assert_eq!(
            o.lane_width_counts[0], 0,
            "an expansion with an empty mask must never be counted"
        );
        assert_eq!(o.per_worker_samples.iter().sum::<u64>(), 150);
        assert!(o.arena_bytes > 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let g = graph();
        let f = StreamFactory::new(5);
        let mut c = RrrCollection::new();
        let o = sample_batch_fused(&g, DiffusionModel::IndependentCascade, &f, 0, 0, &mut c);
        assert!(c.is_empty());
        assert_eq!(o.total_work(), 0);
        assert_eq!(o.fused_passes, 0);
    }

    #[test]
    #[should_panic(expected = "in-weight sum")]
    fn lt_unnormalized_rejected() {
        let g = graph();
        let f = StreamFactory::new(1);
        let mut c = RrrCollection::new();
        sample_batch_fused(&g, DiffusionModel::LinearThreshold, &f, 0, 4, &mut c);
    }
}
