//! Random reverse-reachable (RRR) set generation — Algorithm 3's
//! `GenerateRR` — and the compact one-direction sample collection.

use crate::mixed::{RrrSetRef, SampleArena};
use crate::model::DiffusionModel;
use ripples_graph::{Graph, RowProbs, Vertex};
use ripples_rng::SplitMix64;

/// Reusable per-thread scratch for RRR generation.
///
/// Visited marks use the epoch trick: bumping a generation counter clears
/// the whole array in O(1), so a thread generating millions of samples
/// never re-touches `n` bytes between samples.
#[derive(Clone, Debug)]
pub struct RrrScratch {
    visited_epoch: Vec<u32>,
    epoch: u32,
    queue: Vec<Vertex>,
}

impl RrrScratch {
    /// Creates scratch sized for a graph with `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: u32) -> Self {
        Self {
            visited_epoch: vec![0; num_vertices as usize],
            epoch: 0,
            queue: Vec::with_capacity(1024),
        }
    }

    #[inline]
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: hard-clear once every 2^32 samples.
            self.visited_epoch.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    pub(crate) fn visit(&mut self, v: Vertex) -> bool {
        let slot = &mut self.visited_epoch[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// The outcome of one `GenerateRR` call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RrrSample {
    /// Vertices of the RRR set, **sorted ascending by id** (paper §3.1).
    pub vertices: Vec<Vertex>,
    /// Number of in-edges examined while generating this sample; the unit
    /// of sampling work used by the scaling replay model.
    pub edges_examined: u64,
}

/// Generates one random reverse-reachable set rooted at `root`.
///
/// The BFS walks *incoming* edges and decides lazily, per edge, whether the
/// edge exists in the sampled live-edge graph `g` — `g` is never
/// materialized (paper §3.1). Model semantics:
///
/// * **IC**: every in-edge `(u → v)` of a visited `v` is live independently
///   with probability `p(u→v)`.
/// * **LT**: each visited `v` selects *at most one* live in-edge, choosing
///   `u` with probability `p(u→v)` (weights sum to ≤ 1; the remainder is
///   "no incoming live edge"). This is why LT RRR sets are small — the
///   reverse traversal is a path, not a tree (§4.2's observed LT/IC gap).
#[must_use]
pub fn generate_rrr(
    graph: &Graph,
    model: DiffusionModel,
    root: Vertex,
    rng: &mut SplitMix64,
    scratch: &mut RrrScratch,
) -> RrrSample {
    let (set, edges_examined) = generate_rrr_in_scratch(graph, model, root, rng, scratch);
    RrrSample {
        vertices: set.to_vec(),
        edges_examined,
    }
}

/// Allocation-free variant of [`generate_rrr`]: the sorted set is the BFS
/// queue it was collected in, sorted in place, and lives in `scratch` until
/// its next sample. Returns it and the edges examined, so that a caller
/// copies the set only where it keeps it as a list. The BFS never enqueues
/// a vertex twice, so the set is [`generate_rrr`]'s sorted, deduplicated
/// output.
pub fn generate_rrr_in_scratch<'s>(
    graph: &Graph,
    model: DiffusionModel,
    root: Vertex,
    rng: &mut SplitMix64,
    scratch: &'s mut RrrScratch,
) -> (&'s [Vertex], u64) {
    debug_assert!(root < graph.num_vertices(), "root out of range");
    scratch.begin();
    scratch.visit(root);
    scratch.queue.push(root);
    let mut head = 0usize;
    let mut edges_examined = 0u64;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        let (sources, probs) = (graph.in_neighbors(v), graph.in_probs(v));
        edges_examined += expand_with(model, rng, sources, probs, 0.0, |u| {
            if scratch.visit(u) {
                scratch.queue.push(u);
            }
        });
    }
    scratch.queue.sort_unstable();
    (&scratch.queue, edges_examined)
}

/// Expands one in-row, the one IC/LT row body of the reference,
/// vertex-keyed and sharded samplers: calls `live` with each live edge's
/// source and returns the edges examined. IC: every in-edge is live
/// independently with its probability. LT: one draw selects an in-neighbor
/// by weight, or none with the tail probability 1 − Σw; `lt_start` is the
/// accumulator before the row's first edge, 0.0 for a whole row, and a
/// draw below it selected an edge before the row (a vertex-cut chunk's).
#[inline]
pub(crate) fn expand_with(
    model: DiffusionModel,
    rng: &mut SplitMix64,
    sources: impl Iterator<Item = Vertex>,
    probs: RowProbs<'_>,
    lt_start: f64,
    live: impl FnMut(Vertex),
) -> u64 {
    match probs {
        RowProbs::Same(p) => expand_edges(model, rng, sources.map(|u| (u, p)), lt_start, live),
        RowProbs::Each(probs) => expand_edges(
            model,
            rng,
            sources.zip(probs.iter().copied()),
            lt_start,
            live,
        ),
    }
}

/// [`expand_with`] once per probability layout.
#[inline]
fn expand_edges(
    model: DiffusionModel,
    rng: &mut SplitMix64,
    edges: impl Iterator<Item = (Vertex, f32)>,
    lt_start: f64,
    mut live: impl FnMut(Vertex),
) -> u64 {
    let mut examined = 0u64;
    match model {
        DiffusionModel::IndependentCascade => {
            for (u, p) in edges {
                examined += 1;
                if rng.unit_f64() < f64::from(p) {
                    live(u);
                }
            }
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            // Probabilities are non-negative, so the accumulator is
            // monotone and this test is exact.
            if draw < lt_start {
                return 0;
            }
            let mut acc = lt_start;
            for (u, p) in edges {
                examined += 1;
                acc += f64::from(p);
                if draw < acc {
                    live(u);
                    break;
                }
            }
        }
    }
    examined
}

/// Makes room in `buf` for `extra` more elements: when it lacks room, by a
/// quarter of its length, but to no more than `most` elements and by no more
/// than `room` bytes, and never by less than it lacks. Returns the bytes
/// reserved.
pub(crate) fn grow<T>(buf: &mut Vec<T>, extra: usize, most: usize, room: usize) -> usize {
    let spare = buf.capacity() - buf.len();
    if spare >= extra {
        return 0;
    }
    let size = std::mem::size_of::<T>();
    let toward = (buf.len() / 4)
        .min(most.saturating_sub(buf.len()))
        .min(spare + room / size);
    let before = buf.capacity();
    buf.reserve_exact(extra.max(toward));
    (buf.capacity() - before) * size
}

/// The compact one-direction RRR storage of the paper's optimized serial
/// implementation (IMMOPT): a flattened arena of sorted vertex lists.
///
/// *"We only store the information in one direction, where each sample in R
/// is stored as a list of vertices in the corresponding RRR set — sorted by
/// the vertex ids."* (§3.1). Each association is stored once; the inverted
/// index ([`crate::SampleIndex`]) is selection working memory kept beside
/// the store, 1–2 bytes per association.
#[derive(Clone, Debug, Default)]
pub struct RrrCollection {
    offsets: Vec<usize>,
    data: Vec<Vertex>,
    /// Samples that arrived unsorted (or with duplicates) and were repaired
    /// on insert; see [`RrrCollection::push`]. Diagnostic only — excluded
    /// from equality so repaired collections still compare by content.
    unsorted_pushes: u64,
}

impl PartialEq for RrrCollection {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.data == other.data
    }
}

impl Eq for RrrCollection {}

impl RrrCollection {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty collection with room for `samples` offset slots.
    #[must_use]
    pub fn with_capacity(samples: usize) -> Self {
        let mut offsets = Vec::with_capacity(samples + 1);
        offsets.push(0);
        Self {
            offsets,
            data: Vec::new(),
            unsorted_pushes: 0,
        }
    }

    /// Number of samples stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of vertex entries across all samples.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.data.len()
    }

    /// Appends one sample. Samples must be sorted ascending with no
    /// duplicates — every downstream consumer (binary-search partition
    /// navigation, merge-style selection, bitwise cross-engine comparison)
    /// relies on that invariant, and in release builds a `debug_assert`
    /// would silently let a violation corrupt results. Instead the cheap
    /// O(len) check always runs; a violating sample is repaired
    /// (sorted + deduplicated) and counted in
    /// [`RrrCollection::unsorted_pushes`] so run reports surface the bug
    /// without poisoning the collection.
    pub fn push(&mut self, vertices: &[Vertex]) {
        if vertices.windows(2).all(|w| w[0] < w[1]) {
            self.data.extend_from_slice(vertices);
        } else {
            self.unsorted_pushes += 1;
            let mut repaired = vertices.to_vec();
            repaired.sort_unstable();
            repaired.dedup();
            self.data.extend_from_slice(&repaired);
        }
        self.offsets.push(self.data.len());
    }

    /// Appends one sample produced by `fill`, which writes the sample's
    /// vertices onto the arena tail — [`RrrCollection::push`] without the
    /// intermediate slice. Enforces the same contract: the appended range
    /// is validated, repaired if violating, and counted.
    ///
    /// With `ahead`, the arena grows by a quarter at a time ahead of the
    /// fill, as the bitmap words do: a sampling worker refills one arena
    /// block after block, and doubling would leave it reserving up to twice
    /// the largest block it ever held. Without, the fill goes into the room
    /// the caller reserved.
    pub(crate) fn append_with(&mut self, ahead: bool, fill: impl FnOnce(&mut Vec<Vertex>)) {
        const MIN_GROWTH: usize = 1024;
        let start = self.data.len();
        if ahead && self.data.capacity() - start < MIN_GROWTH {
            self.data.reserve_exact(MIN_GROWTH.max(start / 4));
        }
        fill(&mut self.data);
        let tail = &mut self.data[start..];
        if !tail.windows(2).all(|w| w[0] < w[1]) {
            self.unsorted_pushes += 1;
            tail.sort_unstable();
            let mut repaired = self.data.split_off(start);
            repaired.dedup();
            self.data.append(&mut repaired);
        }
        self.offsets.push(self.data.len());
    }

    /// Makes room for `samples` more samples of `entries` more ids in all,
    /// as [`grow`] does with at most `most` ids and `room` more bytes;
    /// returns the bytes reserved.
    pub(crate) fn reserve_toward(
        &mut self,
        samples: usize,
        entries: usize,
        most: usize,
        room: usize,
    ) -> usize {
        let offsets = grow(&mut self.offsets, samples, most.saturating_add(1), room);
        offsets + grow(&mut self.data, entries, most, room.saturating_sub(offsets))
    }

    /// Removes the newest sample; its arena space is reused by the next.
    pub(crate) fn truncate_last(&mut self) {
        self.offsets.pop();
        self.data
            .truncate(*self.offsets.last().expect("offsets never empty"));
    }

    /// Appends every sample of `other`.
    pub(crate) fn extend_from(&mut self, other: &RrrCollection) {
        let base = self.data.len();
        self.data.extend_from_slice(&other.data);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&end| base + end));
        self.unsorted_pushes += other.unsorted_pushes;
    }

    /// Number of pushed samples that violated the sorted/deduped contract
    /// and were repaired on insert. Nonzero values indicate a generator
    /// bug; the run report exports this counter.
    #[must_use]
    pub fn unsorted_pushes(&self) -> u64 {
        self.unsorted_pushes
    }

    /// The `i`-th sample's sorted vertex list.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> &[Vertex] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates all samples.
    pub fn iter(&self) -> impl Iterator<Item = &[Vertex]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Resident bytes of the sample storage — the quantity Table 2's memory
    /// columns compare between layouts. Reports *reserved capacity*, not
    /// just initialized length: a `Vec`'s growth slack is real allocated
    /// memory, and peak tracking that ignored it under-reported footprint.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<usize>() + self.data.capacity() * size_of::<Vertex>()
    }

    /// Rebuilds a collection from deserialized raw parts, re-validating
    /// every structural invariant a [`RrrCollection::push`] sequence would
    /// have established: `offsets` starts at 0, is monotone, and ends at
    /// `data.len()`; every sample is strictly ascending. Returns a
    /// description naming the offending field and index on violation — the
    /// snapshot-restore path maps these onto structured errors instead of
    /// letting corrupt bytes poison selections.
    ///
    /// # Errors
    ///
    /// Any violated invariant, as human-readable text naming the field.
    pub fn from_raw_parts(offsets: Vec<usize>, data: Vec<Vertex>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets[0] must be 0".to_string());
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets[{}] > offsets[{}]", i, i + 1));
        }
        if *offsets.last().expect("non-empty checked above") != data.len() {
            return Err(format!(
                "offsets[{}] = {} != data length {}",
                offsets.len() - 1,
                offsets.last().expect("non-empty"),
                data.len()
            ));
        }
        for i in 0..offsets.len() - 1 {
            let sample = &data[offsets[i]..offsets[i + 1]];
            if !sample.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("sample {i} is not strictly ascending"));
            }
        }
        Ok(Self {
            offsets,
            data,
            unsorted_pushes: 0,
        })
    }

    /// Appends the samples of one arena in order — the merge step of the
    /// streamed samplers ([`crate::sampler::sample_batch`]). Produces the
    /// exact layout that [`RrrCollection::push`]ing every sample would. This
    /// is the list-only type, so a set the arena holds as a bitmap or a
    /// complement is expanded to its sorted list here.
    pub(crate) fn append_arena(&mut self, arena: &SampleArena) {
        if let Some(lists) = arena.as_lists() {
            self.extend_from(lists);
            return;
        }
        for set in arena.iter() {
            match set {
                RrrSetRef::List(list) => self.data.extend_from_slice(list),
                set => set.for_each(|v| self.data.push(v)),
            }
            self.offsets.push(self.data.len());
        }
        self.unsorted_pushes += arena.unsorted_pushes();
    }

    /// Gives the `Vec` growth slack of a batch of appends back.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.data.shrink_to_fit();
    }

    /// Empties the collection, keeping its buffers for the next fill.
    pub(crate) fn clear(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
        self.unsorted_pushes = 0;
    }
}

impl FromIterator<Vec<Vertex>> for RrrCollection {
    fn from_iter<T: IntoIterator<Item = Vec<Vertex>>>(iter: T) -> Self {
        let mut c = Self::new();
        for s in iter {
            c.push(&s);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrrStore;
    use ripples_graph::GraphBuilder;

    fn path(n: u32, p: f32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n - 1 {
            b.add_edge(u, u + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn certain_edges_traverse_fully() {
        // 0 -> 1 -> 2 -> 3 with p = 1: RRR(3) = {0,1,2,3}.
        let g = path(4, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut scratch = RrrScratch::new(4);
        let s = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            3,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(s.vertices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_edges_stop_immediately() {
        let g = path(4, 0.0);
        let mut rng = SplitMix64::new(1);
        let mut scratch = RrrScratch::new(4);
        let s = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            3,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(s.vertices, vec![3]);
        assert_eq!(s.edges_examined, 1);
    }

    #[test]
    fn root_always_included() {
        let g = path(6, 0.5);
        let mut rng = SplitMix64::new(7);
        let mut scratch = RrrScratch::new(6);
        for root in 0..6 {
            for _ in 0..20 {
                let s = generate_rrr(
                    &g,
                    DiffusionModel::IndependentCascade,
                    root,
                    &mut rng,
                    &mut scratch,
                );
                assert!(s.vertices.binary_search(&root).is_ok());
            }
        }
    }

    #[test]
    fn output_sorted_and_deduped() {
        // Diamond so both branches reach the same ancestor.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut rng = SplitMix64::new(3);
        let mut scratch = RrrScratch::new(4);
        let s = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            3,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(s.vertices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lt_walks_are_paths() {
        // Star into vertex 0: many in-neighbors, LT picks at most one.
        let mut b = GraphBuilder::new(10);
        for u in 1..10 {
            b.add_edge(u, 0, 0.1).unwrap();
        }
        let g = b.build().unwrap();
        let mut rng = SplitMix64::new(5);
        let mut scratch = RrrScratch::new(10);
        for _ in 0..50 {
            let s = generate_rrr(
                &g,
                DiffusionModel::LinearThreshold,
                0,
                &mut rng,
                &mut scratch,
            );
            assert!(s.vertices.len() <= 2, "LT grabbed {:?}", s.vertices);
        }
    }

    #[test]
    fn lt_respects_no_activation_mass() {
        // Single in-edge of weight 0.5: about half of the walks stop at the
        // root.
        let g = path(2, 0.5);
        let mut rng = SplitMix64::new(11);
        let mut scratch = RrrScratch::new(2);
        let n = 4000;
        let extended = (0..n)
            .filter(|_| {
                generate_rrr(
                    &g,
                    DiffusionModel::LinearThreshold,
                    1,
                    &mut rng,
                    &mut scratch,
                )
                .vertices
                .len()
                    == 2
            })
            .count();
        let freq = extended as f64 / f64::from(n);
        assert!((freq - 0.5).abs() < 0.05, "freq {freq}");
    }

    #[test]
    fn ic_respects_probability() {
        let g = path(2, 0.25);
        let mut rng = SplitMix64::new(13);
        let mut scratch = RrrScratch::new(2);
        let n = 8000;
        let hits = (0..n)
            .filter(|_| {
                generate_rrr(
                    &g,
                    DiffusionModel::IndependentCascade,
                    1,
                    &mut rng,
                    &mut scratch,
                )
                .vertices
                .len()
                    == 2
            })
            .count();
        let freq = hits as f64 / f64::from(n);
        assert!((freq - 0.25).abs() < 0.03, "freq {freq}");
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let g = path(5, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut scratch = RrrScratch::new(5);
        let a = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            4,
            &mut rng,
            &mut scratch,
        );
        let b = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            0,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(a.vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.vertices, vec![0]);
    }

    #[test]
    fn collection_push_get_iter() {
        let mut c = RrrCollection::new();
        c.push(&[1, 3, 5]);
        c.push(&[2]);
        c.push(&[]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_entries(), 4);
        assert_eq!(c.get(0), &[1, 3, 5]);
        assert_eq!(c.get(2), &[] as &[Vertex]);
        let all: Vec<&[Vertex]> = c.iter().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn collection_bytes_grow() {
        let mut c = RrrCollection::new();
        let before = c.resident_bytes();
        c.push(&[1, 2, 3, 4]);
        assert!(c.resident_bytes() > before);
    }

    #[test]
    fn collection_from_iter() {
        let c: RrrCollection = vec![vec![0, 1], vec![2]].into_iter().collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), &[2]);
    }

    #[test]
    fn unsorted_push_is_repaired_and_counted() {
        // Runs identically in debug and release: the sortedness check is no
        // longer a debug_assert, so an unsorted sample can never silently
        // corrupt binary-search navigation in optimized builds.
        let mut c = RrrCollection::new();
        c.push(&[1, 3, 5]);
        c.push(&[5, 1, 3, 3]); // unsorted + duplicate
        c.push(&[2, 4]);
        assert_eq!(c.unsorted_pushes(), 1);
        assert_eq!(c.get(1), &[1, 3, 5]);
        // Sorted pushes leave the counter untouched.
        assert_eq!(c.get(2), &[2, 4]);
        let mut clean = RrrCollection::new();
        clean.push(&[1, 3, 5]);
        clean.push(&[1, 3, 5]);
        clean.push(&[2, 4]);
        assert_eq!(clean.unsorted_pushes(), 0);
        // Equality compares content only — the diagnostic counter is not
        // part of the value.
        assert_eq!(c, clean);
    }

    #[test]
    fn generate_rrr_in_scratch_sorts_the_set_in_place() {
        let g = path(4, 1.0);
        let mut scratch = RrrScratch::new(4);
        let mut rng = SplitMix64::new(1);
        let ic = DiffusionModel::IndependentCascade;
        let (set, work) = generate_rrr_in_scratch(&g, ic, 3, &mut rng, &mut scratch);
        // Collected root first, handed out sorted.
        assert_eq!(set, &[0, 1, 2, 3]);
        let set = set.to_vec();
        let mut rng2 = SplitMix64::new(1);
        let s = generate_rrr(&g, ic, 3, &mut rng2, &mut scratch);
        assert_eq!(s.vertices, set);
        assert_eq!(s.edges_examined, work);
    }

    #[test]
    fn arena_merge_matches_pushes() {
        let mut a0 = SampleArena::with_capacity(1000, 2);
        a0.append_set(&[1, 3, 5]);
        a0.append_set(&[2]);
        let mut a1 = SampleArena::new(1000);
        a1.append_set(&[]); // empty sample
        a1.append_set(&[0, 4]);
        assert_eq!(a0.len(), 2);
        assert_eq!(a0.total_entries(), 4);
        assert!(matches!(a0.set(0), RrrSetRef::List([1, 3, 5])));
        assert!(a1.set(0).is_empty());
        assert!(a0.resident_bytes() > 0);

        let mut merged = RrrCollection::new();
        merged.push(&[9]); // pre-existing content must survive the merge
        merged.append_arenas(&[a0, a1]);
        let mut reference = RrrCollection::new();
        for s in [&[9][..], &[1, 3, 5], &[2], &[], &[0, 4]] {
            reference.push(s);
        }
        assert_eq!(merged, reference);
        assert_eq!(merged.unsorted_pushes(), 0);
    }

    #[test]
    fn arena_repairs_and_counts_unsorted_samples() {
        let mut a = SampleArena::new(1000);
        a.append_set(&[5, 1, 3, 3]);
        assert!(matches!(a.set(0), RrrSetRef::List([1, 3, 5])));
        let mut c = RrrCollection::new();
        c.append_arenas(&[a]);
        assert_eq!(c.unsorted_pushes(), 1);
        assert_eq!(c.get(0), &[1, 3, 5]);
    }

    #[test]
    fn scratch_epoch_wraparound_hard_clears() {
        // After 2^32 samples the epoch counter wraps; begin() must
        // hard-clear the visited marks so stale entries written at epoch
        // u32::MAX cannot masquerade as "visited" under the restarted
        // epoch. We fast-forward the counter instead of generating 2^32
        // samples.
        let g = path(5, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut scratch = RrrScratch::new(5);
        scratch.epoch = u32::MAX - 1;
        let a = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            4,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(a.vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(scratch.epoch, u32::MAX);
        // Next sample wraps: every mark in visited_epoch equals u32::MAX,
        // and without the hard clear epoch would restart at 0/1 and either
        // treat everything as visited or never terminate cleanly.
        let b = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            4,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(scratch.epoch, 1, "wrap must reset to a fresh epoch");
        assert_eq!(
            b.vertices,
            vec![0, 1, 2, 3, 4],
            "stale marks leaked through the wrap"
        );
        let c = generate_rrr(
            &g,
            DiffusionModel::IndependentCascade,
            0,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(c.vertices, vec![0]);
    }
}
