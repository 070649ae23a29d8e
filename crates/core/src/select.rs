//! Seed selection (Algorithm 4): greedy maximum coverage over the RRR
//! collection — count, argmax, purge.
//!
//! The crate holds five copies of that loop, each for a reason:
//!
//! * [`select_seeds_sequential`] — the reference: one counter array, an
//!   O(n) argmax and one membership probe per alive sample and seed, over
//!   any [`RrrStore`]. Every test compares against it, and it is what
//!   [`SelectEngine::Sequential`] runs.
//! * `greedy_cover` — Algorithm 4 as the paper states it, with no index:
//!   interval owners count the samples, and a cover step probes every alive
//!   sample. It reads the list or the mixed collection a store holds, each
//!   owner walking its 64-aligned interval of each set
//!   ([`ripples_diffusion::RrrSetRef::for_each_in`]), and starts from a
//!   `selected` mask (the serve mode's banned vertices).
//!   Counters are owned by vertex interval, so no owner ever needs an
//!   atomic update, and each owner keeps its interval's argmax
//!   incrementally, so a round's winner is a p-way reduction rather than
//!   an O(n) scan. [`SelectEngine::Partitioned`] runs it.
//! * `lazy_greedy` — the lazy recount greedy, in shared and distributed
//!   memory alike. It asks a process-local oracle (`LocalCover`) to recount
//!   or cover a vertex, recounts a batch of heap entries per round, and
//!   sums each round's recounts over the processes through a reduce hook.
//!   [`select_from_index`] runs it over one inverted index with batch 1 and
//!   nothing to sum: every indexed pass in shared memory, and a batch run
//!   whose every pass is indexed releases its samples into the index
//!   ([`ripples_diffusion::DynRrrStore::release_samples`]).
//!   [`SelectEngine::Fused`] runs it; [`SelectEngine::Auto`] picks between
//!   it and `greedy_cover` by [`fused_is_profitable`]. The communicator
//!   engines run it with a batch of recounts per all-reduce
//!   (`dist::select_seeds_distributed`).
//! * `seq::TangStorage::select` — the Table 2/3 baseline over Tang et
//!   al.'s two-direction layout, slow on purpose.
//! * `ripples-oracle`'s `reference.rs` — the oracle's own greedy, which
//!   shares no code with this crate.
//!
//! All of them use the same deterministic tie-break (highest count, then
//! lowest vertex id), so they return *identical* seed sets on identical
//! collections — a property the cross-implementation tests rely on.

use ripples_diffusion::intervals::{fork_owners, owner_intervals};
use ripples_diffusion::{RrrCollection, RrrStore, SampleIndex};
use ripples_graph::Vertex;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Result of a seed-selection pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// The chosen seeds, in selection order.
    pub seeds: Vec<Vertex>,
    /// Number of RRR sets covered by the seeds.
    pub covered: usize,
    /// `F_R(S)`: fraction of RRR sets covered.
    pub fraction: f64,
    /// Marginal cover counts, aligned with `seeds` (seed `i` covered this
    /// many previously-uncovered sets when chosen).
    pub marginal_gains: Vec<u64>,
}

impl Selection {
    pub(crate) fn finish(
        seeds: Vec<Vertex>,
        marginal_gains: Vec<u64>,
        covered: usize,
        total: usize,
    ) -> Self {
        Selection {
            seeds,
            covered,
            fraction: if total == 0 {
                0.0
            } else {
                covered as f64 / total as f64
            },
            marginal_gains,
        }
    }
}

/// Per-pass statistics of a selection engine, reported separately from
/// [`Selection`] so the cross-engine equality tests keep comparing pure
/// selection results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Wall time spent bringing the inverted index up to date, nanoseconds.
    pub index_build_nanos: u64,
    /// Reserved bytes of the inverted index.
    pub index_bytes: usize,
    /// Entries the pass read: index-row entries recounted by the lazy
    /// greedy over an inverted index ([`select_from_index`], or an indexed
    /// rank of a communicator engine), or the entries of the samples each
    /// step covered, which the index-free bodies and an index-free rank's
    /// counters decrement.
    pub entries_touched: u64,
    /// Greedy steps taken: one per seed selected.
    pub iterations: u64,
}

impl SelectStats {
    /// Accumulates another pass's statistics (peak for bytes, sums for the
    /// monotonic quantities).
    pub fn absorb(&mut self, other: SelectStats) {
        self.index_build_nanos += other.index_build_nanos;
        self.index_bytes = self.index_bytes.max(other.index_bytes);
        self.entries_touched += other.entries_touched;
        self.iterations += other.iterations;
    }

    /// Records one greedy step — seed `v`, its marginal `gain`, and the
    /// `touched` entries the step read — in the stats and the trace, and
    /// adds the same deltas to the live registry's cells while it is
    /// enabled. The registry counts the step itself only where
    /// `counts_step` (see [`Peers::counts_steps`]). Every greedy body
    /// records its steps here and nowhere else.
    pub(crate) fn step(&mut self, v: Vertex, gain: u64, touched: u64, counts_step: bool) {
        use crate::obs::metrics::{self, Metric};
        use crate::obs::trace::{self, TraceName};
        self.iterations += 1;
        self.entries_touched += touched;
        trace::mark(TraceName::SelectStep, u64::from(v), gain);
        trace::mark(TraceName::SelectTouched, touched, u64::from(v));
        metrics::add(Metric::SelectIterations, u64::from(counts_step));
        metrics::add(Metric::SelectEntriesTouched, touched);
    }
}

pub(crate) fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One interval's champion: the unselected vertex with the highest count,
/// lowest id on ties (`selected` is indexed absolutely; the slice covers
/// vertices `vl..vl + slice.len()`). `None` when every vertex is selected.
fn slice_champion(slice: &[u64], selected: &[bool], vl: Vertex) -> Option<(u64, Vertex)> {
    let mut best: Option<(u64, Vertex)> = None;
    for (i, &c) in slice.iter().enumerate() {
        if selected[vl as usize + i] {
            continue;
        }
        match best {
            Some((bc, _)) if bc >= c => {}
            _ => best = Some((c, vl + i as Vertex)),
        }
    }
    best
}

/// Reference sequential greedy max-cover, over any store.
#[must_use]
pub fn select_seeds_sequential<S: RrrStore>(store: &S, n: u32, k: u32) -> Selection {
    sequential_greedy(store, n, k, vec![false; n as usize]).0
}

/// [`select_seeds_sequential`] from an initial `selected` mask.
fn sequential_greedy<S: RrrStore>(
    store: &S,
    n: u32,
    k: u32,
    mut selected: Vec<bool>,
) -> (Selection, SelectStats) {
    let k = k.min(n);
    let mut stats = SelectStats::default();
    let mut cover = CounterCover::new(store, n);
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let Some((gain, v)) = slice_champion(&cover.counts, &selected, 0) else {
            break;
        };
        selected[v as usize] = true;
        gains.push(gain);
        seeds.push(v);
        let touched = cover.cover(v);
        stats.step(v, gain, touched, true);
    }
    // A seed's count is the alive samples it covers.
    let covered = gains.iter().sum::<u64>() as usize;
    (Selection::finish(seeds, gains, covered, store.len()), stats)
}

/// [`LocalCover`] without an index, over any store: one counter per vertex
/// of the samples no seed covers yet, and one covered flag per sample. A
/// recount reads its counter; covering probes every alive sample and
/// decrements the counters of each one it covers, whose entries are the
/// entries it reads. The sequential reference and an index-free rank of
/// the communicator engines select through it.
pub(crate) struct CounterCover<'a, S> {
    store: &'a S,
    pub(crate) counts: Vec<u64>,
    covered: Vec<bool>,
}

impl<'a, S: RrrStore> CounterCover<'a, S> {
    /// Counts every vertex over the samples: one sweep.
    pub(crate) fn new(store: &'a S, n: u32) -> Self {
        let mut counts = vec![0u64; n as usize];
        for j in 0..store.len() {
            store.set(j).for_each(|u| counts[u as usize] += 1);
        }
        let covered = vec![false; store.len()];
        CounterCover {
            store,
            counts,
            covered,
        }
    }
}

impl<S: RrrStore> LocalCover for CounterCover<'_, S> {
    fn recount(&mut self, v: Vertex) -> (u64, u64) {
        (self.counts[v as usize], 0)
    }

    fn cover(&mut self, v: Vertex) -> u64 {
        let (store, counts) = (self.store, &mut self.counts);
        let mut read = 0u64;
        for (j, cov) in self.covered.iter_mut().enumerate() {
            if *cov {
                continue;
            }
            let set = store.set(j);
            if set.contains(v) {
                *cov = true;
                read += set.len() as u64;
                set.for_each(|u| counts[u as usize] -= 1);
            }
        }
        read
    }
}

/// One interval owner: the counters of vertices `vl..vh`, and their argmax.
struct Owner<'a> {
    vl: Vertex,
    vh: Vertex,
    counters: &'a mut [u64],
    /// The interval's [`slice_champion`] and the count it had when found.
    /// Counters never increase, so it stays the champion until it is
    /// selected or that count no longer matches its counter.
    champion: Option<(u64, Vertex)>,
}

impl Owner<'_> {
    /// Applies `step` to the counter of every vertex of sample `j` that
    /// falls into the interval.
    fn walk<S: RrrStore>(&mut self, sets: &S, j: usize, step: impl Fn(&mut u64)) {
        let (vl, counters) = (self.vl, &mut *self.counters);
        sets.set(j)
            .for_each_in(vl, self.vh, |u| step(&mut counters[(u - vl) as usize]));
    }
}

/// The index-free greedy max-cover (Algorithm 4 as the paper states it).
///
/// The vertex space is split into intervals `[vl, vh)`, each owned by one
/// task that updates only its own counter slice — the paper's
/// synchronization-free design ("the alternative would have necessitated
/// atomic updates") — and keeps its interval's champion, so the round's
/// winner is a reduction over the owners. The owners count their intervals
/// across all samples, and a cover step probes every alive sample.
/// Vertices set in `selected` are never candidates and never cover a
/// sample, so the result is the plain selection on the sketch with those
/// vertices deleted (from every set, and from the vertex universe).
///
/// Returns bitwise the [`Selection`] of [`select_seeds_sequential`].
fn greedy_cover<S: RrrStore + Sync>(
    sets: &S,
    n: u32,
    k: u32,
    partitions: usize,
    mut selected: Vec<bool>,
) -> (Selection, SelectStats) {
    let k = k.min(n);
    let mut stats = SelectStats::default();
    let mut counters = vec![0u64; n as usize];
    let mut rest = counters.as_mut_slice();
    let mut owners: Vec<Owner<'_>> = owner_intervals(n, partitions)
        .into_iter()
        .map(|(vl, vh)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut((vh - vl) as usize);
            rest = tail;
            Owner {
                vl,
                vh,
                counters: head,
                champion: None,
            }
        })
        .collect();

    // Counting pass: each owner counts its interval across all samples,
    // walking only its own sub-range of each. Then every owner's first
    // champion.
    fork_owners(&mut owners, |owner| {
        for j in 0..sets.len() {
            owner.walk(sets, j, |c| *c += 1);
        }
        owner.champion = slice_champion(owner.counters, &selected, owner.vl);
    });

    let mut covered = vec![false; sets.len()];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    let mut newly: Vec<usize> = Vec::new();
    for _ in 0..k {
        // Ascending interval order plus the strict comparison reproduces
        // the lowest-id tie-break globally.
        let best = owners
            .iter()
            .filter_map(|owner| owner.champion)
            .reduce(|best, champion| if champion.0 > best.0 { champion } else { best });
        let Some((gain, v)) = best else {
            break;
        };
        selected[v as usize] = true;
        seeds.push(v);
        gains.push(gain);

        // Cover step: the alive samples containing v.
        newly.clear();
        newly.extend((0..sets.len()).filter(|&j| !covered[j] && sets.set(j).contains(v)));
        debug_assert_eq!(gain as usize, newly.len(), "stale champion count");
        let mut touched = 0u64;
        for &j in &newly {
            covered[j] = true;
            touched += sets.set(j).len() as u64;
        }
        covered_count += newly.len();
        stats.step(v, gain, touched, true);

        // Decrement step: each owner updates its interval over the newly
        // covered samples, then looks for a new champion if its own was
        // selected or lost count.
        let (newly, selected) = (&newly, &selected);
        fork_owners(&mut owners, |owner| {
            for &j in newly {
                owner.walk(sets, j, |c| *c -= 1);
            }
            let stale = |(count, u): (u64, Vertex)| {
                selected[u as usize] || owner.counters[(u - owner.vl) as usize] != count
            };
            if owner.champion.is_some_and(stale) {
                owner.champion = slice_champion(owner.counters, selected, owner.vl);
            }
        });
    }
    (
        Selection::finish(seeds, gains, covered_count, sets.len()),
        stats,
    )
}

/// One bit per sample: which samples the seeds so far cover.
struct CoveredBits(Vec<u64>);

impl CoveredBits {
    fn new(samples: usize) -> Self {
        CoveredBits(vec![0; samples.div_ceil(64)])
    }

    fn contains(&self, j: usize) -> bool {
        self.0[j / 64] >> (j % 64) & 1 == 1
    }

    /// Marks sample `j` covered; returns whether it was not yet.
    fn insert(&mut self, j: usize) -> bool {
        let fresh = !self.contains(j);
        self.0[j / 64] |= 1 << (j % 64);
        fresh
    }
}

/// A vertex's entry in the lazy greedy's heap: the bound on its marginal
/// count in the high half, its id inverted in the low half, so the largest
/// entry is the highest bound, lowest id on ties. A count is at most θ,
/// which stays below 2³² wherever the heap runs (`uses_index` bounds each
/// index's samples, and the ranked engines their global θ).
fn heap_entry(count: u64, v: Vertex) -> u64 {
    count << 32 | u64::from(!v)
}

/// What one process knows of the samples it holds, in the two questions
/// the lazy greedy asks of it. Each answer comes with the entries it read,
/// as [`SelectStats::entries_touched`] counts them.
pub(crate) trait LocalCover {
    /// The held samples that contain `v` and no seed covers yet, and the
    /// entries read to count them.
    fn recount(&mut self, v: Vertex) -> (u64, u64);
    /// Marks the held samples that contain `v` covered; returns the entries
    /// read to do so.
    fn cover(&mut self, v: Vertex) -> u64;
}

/// Rebuilds an index whose greedy popped a cold vertex: given the index and
/// the popped key, returns an index of the same samples in which every
/// cold vertex whose degree reaches the key is hot again.
pub(crate) type Redraw<'a> = &'a mut dyn FnMut(&SampleIndex, u64) -> SampleIndex;

/// [`LocalCover`] over an inverted index: a recount reads `v`'s row
/// against one covered bit per sample, and no sample-major data at all.
/// Covering walks the row once more and counts nothing: the recount that
/// selected the vertex counted those entries.
///
/// Recounting a cold vertex ([`SampleIndex::cool_below`]) first rebuilds
/// the index with `redraw`, and the cover reads the rebuilt index from then
/// on; without `redraw` the read panics.
pub(crate) struct IndexCover<'a> {
    index: &'a SampleIndex,
    rebuilt: Option<SampleIndex>,
    redraw: Option<Redraw<'a>>,
    covered: CoveredBits,
}

impl<'a> IndexCover<'a> {
    pub(crate) fn new(index: &'a SampleIndex) -> Self {
        let covered = CoveredBits::new(index.absorbed_samples());
        IndexCover {
            index,
            rebuilt: None,
            redraw: None,
            covered,
        }
    }

    /// Every vertex's index degree: its count before any seed.
    pub(crate) fn degrees(&self) -> Vec<u64> {
        self.index.degrees().iter().map(|&d| u64::from(d)).collect()
    }

    /// The index the cover reads: the rebuilt one once there is one.
    fn current(&self) -> &SampleIndex {
        self.rebuilt.as_ref().unwrap_or(self.index)
    }
}

impl LocalCover for IndexCover<'_> {
    fn recount(&mut self, v: Vertex) -> (u64, u64) {
        if let Some(redraw) = self.redraw.as_mut() {
            let index = self.rebuilt.as_ref().unwrap_or(self.index);
            // A cold vertex was never recounted: its key is its degree.
            if index.is_cold(v) {
                let rebuilt = redraw(index, u64::from(index.degree(v)));
                self.rebuilt = Some(rebuilt);
            }
        }
        let (index, covered) = (self.current(), &self.covered);
        let mut count = 0u64;
        index.for_each_sample(v, |j| count += u64::from(!covered.contains(j)));
        (count, u64::from(index.degree(v)))
    }

    fn cover(&mut self, v: Vertex) -> u64 {
        let index = self.rebuilt.as_ref().unwrap_or(self.index);
        let covered = &mut self.covered;
        index.for_each_sample(v, |j| {
            covered.insert(j);
        });
        0
    }
}

/// The processes that share one lazy greedy heap, as the greedy sees them.
pub(crate) struct Peers<F> {
    /// Heap entries recounted per round: `reduce` runs once per round.
    pub batch: usize,
    /// Sums a buffer of per-process counts over every process, in place.
    pub reduce: F,
    /// Whether this process counts greedy steps in the live registry, whose
    /// cells sum over the rank threads of an in-process world: one process
    /// per world does.
    pub counts_steps: bool,
}

/// The lazy greedy max-cover: the one body of every indexed selection pass,
/// in shared memory and across ranks. `local` answers for this process's
/// samples; `bounds` is its count of every vertex before any seed, and
/// `peers` sums both over the processes that share the heap. Returns the
/// seeds, their marginal gains and the steps' [`SelectStats`] (iterations
/// and the entries `local` read).
///
/// A max-heap holds an upper bound on every candidate's marginal count —
/// the summed `bounds` at first — packed as one `u64` per vertex, so the
/// heap is no larger than a counter array. Each round pops the top
/// `peers.batch` entries, recounts them with `local`, sums the recounts in
/// one `peers.reduce`, and pushes them back; if the best recount beats
/// every entry left in the heap, that vertex is selected instead of pushed
/// back, and every process covers its own samples in its row. Covering
/// samples only lowers marginal counts (submodularity), so every bound
/// stays at or above its vertex's count, and a recount that beats every
/// bound beats every other vertex's count; the heap's (count desc, id asc)
/// order is the reference's tie-break. The heap, and so every round's
/// batch, is identical on every process, and the sums make it the heap of
/// one process holding the union of the samples. Vertices set in `banned`
/// are never candidates and never cover a sample.
///
/// At `batch` 1 a round is one pop and one recount, selected when it still
/// beats the next bound: the classic lazy greedy. A larger batch reads
/// recounts that a smaller one would have skipped, in fewer rounds.
pub(crate) fn lazy_greedy<L: LocalCover + ?Sized, F: FnMut(&mut [u64])>(
    local: &mut L,
    mut bounds: Vec<u64>,
    k: usize,
    banned: &[bool],
    mut peers: Peers<F>,
) -> (Vec<Vertex>, Vec<u64>, SelectStats) {
    assert_eq!(
        banned.len(),
        bounds.len(),
        "banned mask must cover all vertices"
    );
    (peers.reduce)(&mut bounds);
    // The heap takes over the bounds' allocation.
    for (v, bound) in bounds.iter_mut().enumerate() {
        *bound = heap_entry(*bound, v as Vertex);
    }
    bounds.retain(|&entry| !banned[!(entry as u32) as usize]);
    let mut heap = BinaryHeap::from(bounds);
    let k = k.min(heap.len());
    let (mut seeds, mut gains) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let (mut batch, mut counts) = (Vec::new(), Vec::new());
    let mut stats = SelectStats::default();
    // Entries read since the last selected seed.
    let mut read = 0u64;
    while seeds.len() < k {
        batch.clear();
        batch.extend(
            std::iter::from_fn(|| heap.pop())
                .take(peers.batch)
                .map(|e| !(e as u32)),
        );
        counts.clear();
        counts.extend(batch.iter().map(|&v| {
            let (count, entries) = local.recount(v);
            read += entries;
            count
        }));
        (peers.reduce)(&mut counts);
        let recounts = batch.iter().zip(&counts).map(|(&v, &c)| heap_entry(c, v));
        let best = recounts.clone().max().expect("a vertex is left");
        let selects = heap.peek().is_none_or(|&next| next < best);
        heap.extend(recounts.filter(|&entry| !(selects && entry == best)));
        if selects {
            let (v, gain) = (!(best as u32), best >> 32);
            read += local.cover(v);
            seeds.push(v);
            gains.push(gain);
            stats.step(v, gain, std::mem::take(&mut read), peers.counts_steps);
        }
    }
    (seeds, gains, stats)
}

/// The greedy max-cover from the inverted index alone: `lazy_greedy` over
/// one process's index, what every indexed selection pass in shared memory
/// runs. It reads the index's rows and one covered bit per sample, and no
/// sample-major data at all. `entries_touched` is the row entries the
/// recounts read.
///
/// Returns bitwise the [`Selection`] that [`select_seeds_sequential`]
/// returns on the samples the index holds (with `banned` deleted).
///
/// # Panics
///
/// Panics if `banned` does not have one entry per indexed vertex.
#[must_use]
pub fn select_from_index(index: &SampleIndex, k: u32, banned: &[bool]) -> (Selection, SelectStats) {
    select_from_index_in_batches(index, k, banned, 1)
}

/// [`select_from_index`], recounting `batch` heap entries per round.
fn select_from_index_in_batches(
    index: &SampleIndex,
    k: u32,
    banned: &[bool],
    batch: usize,
) -> (Selection, SelectStats) {
    let (selection, stats, _) = select_over_cover(IndexCover::new(index), k, banned, batch);
    (selection, stats)
}

/// [`select_from_index`] over an index that may hold cold vertices, in a
/// run that can draw its samples again: when the greedy pops a cold vertex,
/// `redraw` rebuilds the index with the rows of every cold vertex whose
/// degree reaches the popped key, and the pass goes on over the rebuilt
/// index. The heap and the covered bits do not depend on which rows an
/// index keeps, so the pass is bitwise the pass over the full index —
/// seeds, gains, iterations and entries read — and each step is recorded
/// once. Returns the rebuilt index, if the pass made one.
pub(crate) fn select_from_hot_index(
    index: &SampleIndex,
    k: u32,
    banned: &[bool],
    redraw: Redraw<'_>,
) -> (Selection, SelectStats, Option<SampleIndex>) {
    let mut local = IndexCover::new(index);
    local.redraw = Some(redraw);
    select_over_cover(local, k, banned, 1)
}

/// The lazy greedy over one process's index cover; returns the index it
/// rebuilt, if any.
fn select_over_cover(
    mut local: IndexCover<'_>,
    k: u32,
    banned: &[bool],
    batch: usize,
) -> (Selection, SelectStats, Option<SampleIndex>) {
    let bounds = local.degrees();
    let peers = Peers {
        batch,
        reduce: |_: &mut [u64]| {},
        counts_steps: true,
    };
    let (seeds, gains, stats) = lazy_greedy(&mut local, bounds, k as usize, banned, peers);
    let covered = gains.iter().sum::<u64>() as usize;
    let samples = local.index.absorbed_samples();
    let selection = Selection::finish(seeds, gains, covered, samples);
    (selection, stats, local.rebuilt)
}

/// Number of samples in `store` covered by `seeds` (samples containing at
/// least one seed). Engine-independent by construction, so the correctness
/// oracle uses it to score any engine's seed set on any (possibly relabeled)
/// collection without trusting that engine's own bookkeeping; and
/// `n · covered / len` is the standard RRR estimate of the seed set's
/// expected influence, which the serve mode's `spread_estimate` query
/// returns without touching the graph. A store whose inverted index holds
/// every sample answers with the union of the seeds' rows; any other with
/// one membership probe per sample and seed.
///
/// # Panics
///
/// Panics if a seed is cold in that index ([`SampleIndex::cool_below`]):
/// its rows are gone, and counting it as covering nothing would be wrong.
#[must_use]
pub fn coverage_of<S: RrrStore>(store: &S, seeds: &[Vertex]) -> usize {
    store.with_current_index(|index| match index {
        Some(index) => {
            let mut covered = CoveredBits::new(index.absorbed_samples());
            let mut count = 0usize;
            // An id past the index's vertices is in no sample.
            for &s in seeds
                .iter()
                .filter(|&&s| (s as usize) < index.num_vertices())
            {
                index.for_each_sample(s, |j| count += usize::from(covered.insert(j)));
            }
            count
        }
        None => (0..store.len())
            .filter(|&j| seeds.iter().any(|&s| store.set(j).contains(s)))
            .count(),
    })
}

/// Cost-model check for the inverted index: building and walking it costs
/// O(E) (E = total RRR entries), while the index-free cover steps cost
/// O(k·θ·(log₂s̄+1)) binary-search steps (s̄ = E/θ, the mean set size).
/// Dividing both by θ, the index pays for itself when
/// `k·(log₂s̄+1) ≥ 2·s̄`: always for the small sets realistic cascades
/// produce (s̄ ≲ 50), only at very large `k` for dense synthetic graphs
/// whose samples span a large fraction of the vertex set.
///
/// Evaluated on any [`RrrStore`]: a store exposes `len` and `total_entries`
/// without decoding.
#[must_use]
pub fn fused_is_profitable<S: RrrStore>(store: &S, k: u32) -> bool {
    let theta = store.len() as u64;
    if theta == 0 {
        return false;
    }
    let sbar = (store.total_entries() / theta).max(1);
    u64::from(k) * u64::from(sbar.ilog2() + 1) >= 2 * sbar
}

/// Which greedy max-cover engine a run uses for its selection passes. All
/// variants return identical [`Selection`]s.
///
/// The inverted index names samples with `u32` ids, its only global 32-bit
/// quantity (a segment of it addresses its own bytes with `u32`s, and a
/// batch is cut into more segments before one could outgrow them). A store
/// with 2³² − 1 or more samples is therefore selected over without an index
/// whatever the variant: `Auto` silently, `Fused` with one note on stderr.
/// The index-free route has no 32-bit limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectEngine {
    /// Cost-model dispatch (the default): [`SelectEngine::Fused`] when
    /// [`fused_is_profitable`], else [`SelectEngine::Partitioned`].
    Auto,
    /// [`select_seeds_sequential`] — the O(k·θ) reference scan.
    Sequential,
    /// The index-free body: interval owners count, and every cover step
    /// probes the alive samples.
    Partitioned,
    /// [`select_from_index`]: the lazy recount over the inverted index.
    Fused,
}

impl SelectEngine {
    /// Parses a CLI tag (`--select ENGINE`).
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "auto" => Some(SelectEngine::Auto),
            "sequential" | "seq" => Some(SelectEngine::Sequential),
            "partitioned" | "part" => Some(SelectEngine::Partitioned),
            "fused" => Some(SelectEngine::Fused),
            _ => None,
        }
    }

    /// Canonical tag, the inverse of [`SelectEngine::from_tag`].
    #[must_use]
    pub const fn tag(self) -> &'static str {
        match self {
            SelectEngine::Auto => "auto",
            SelectEngine::Sequential => "sequential",
            SelectEngine::Partitioned => "partitioned",
            SelectEngine::Fused => "fused",
        }
    }
}

/// Whether a selection pass of `engine` over `store` runs with the inverted
/// index — the one place the engines' and the index's limits are weighed.
/// The index's one limit is its `u32` sample ids; entries have none, because
/// every segment of it is cut to fit its own `u32` byte offsets.
pub(crate) fn uses_index<S: RrrStore>(engine: SelectEngine, store: &S, k: u32) -> bool {
    let fits = store.len() < u32::MAX as usize;
    match engine {
        SelectEngine::Sequential | SelectEngine::Partitioned => false,
        SelectEngine::Auto => fits && fused_is_profitable(store, k),
        SelectEngine::Fused => {
            if !fits {
                static NOTE: std::sync::Once = std::sync::Once::new();
                NOTE.call_once(|| {
                    eprintln!(
                        "note: {} samples are past the inverted index's 32-bit sample \
                         ids; --select fused runs without the index",
                        store.len()
                    );
                });
            }
            fits
        }
    }
}

/// Whether a run can keep the inverted index alone, dropping its
/// sample-major store for good: `engine` indexes a pass over the samples
/// `store` holds, and the largest population the θ schedule can ask for,
/// `max_population`, fits the index's `u32` sample ids, so no later pass
/// can need the index-free route. Applied once, to the first batch's
/// prefix.
pub(crate) fn index_only<S: RrrStore>(
    engine: SelectEngine,
    store: &S,
    k: u32,
    max_population: usize,
) -> bool {
    max_population < u32::MAX as usize && uses_index(engine, store, k)
}

/// Runs `f` with `store`'s inverted index, brought up to date, and what that
/// cost.
pub(crate) fn with_index<S: RrrStore, R>(
    store: &S,
    n: u32,
    owners: usize,
    f: impl FnOnce(&SampleIndex, SelectStats) -> R,
) -> R {
    let t0 = Instant::now();
    store.with_sample_index(n, owners, |index| {
        use crate::obs::trace;
        if trace::enabled() {
            let entries = store.total_entries();
            trace::complete(trace::TraceName::IndexBuild, t0, entries, owners as u64);
        }
        let stats = SelectStats {
            index_build_nanos: nanos_since(t0),
            index_bytes: index.resident_bytes(),
            ..SelectStats::default()
        };
        f(index, stats)
    })
}

/// One indexed selection pass: [`select_from_index`] over `store`'s
/// inverted index, brought up to date with up to `owners` interval owners.
fn select_over_index<S: RrrStore>(
    store: &S,
    n: u32,
    k: u32,
    owners: usize,
    banned: &[bool],
) -> (Selection, SelectStats) {
    with_index(store, n, owners, |index, build| {
        let (selection, mut stats) = select_from_index(index, k, banned);
        stats.absorb(build);
        (selection, stats)
    })
}

/// [`select_with_engine_store`] over a plain list collection.
#[must_use]
pub fn select_with_engine(
    engine: SelectEngine,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> (Selection, SelectStats) {
    select_with_engine_store(engine, collection, n, k, partitions)
}

/// Runs one selection pass with `engine` over any store. `partitions` is
/// the number of interval owners of the index-free body and of the index
/// build; the sequential reference ignores it.
#[must_use]
pub fn select_with_engine_store<S: RrrStore>(
    engine: SelectEngine,
    store: &S,
    n: u32,
    k: u32,
    partitions: usize,
) -> (Selection, SelectStats) {
    select_with_engine_banned(engine, store, n, k, partitions, vec![false; n as usize])
}

/// [`select_with_engine_store`] with a pre-banned vertex set — the
/// `topk_excluding` query primitive of the resident serve mode. Banned
/// vertices are marked selected before the first greedy round, so the
/// result is the selection on the sketch without them (every banned id
/// deleted from every RRR set and from the vertex universe); fewer than `k`
/// seeds come back when bans exhaust the vertex set.
///
/// An indexed pass reads the index each store keeps
/// ([`RrrStore::with_sample_index`]) and nothing else; an index-free pass
/// reads each sample as it is held ([`RrrStore::set`]):
///
/// | store | read through | owners |
/// |---|---|---|
/// | [`RrrStore::as_mixed`]: lists, bitmaps or complements | the mixed collection | `partitions`, 64-aligned |
/// | else [`RrrStore::as_flat`]: lists | the list collection | `partitions`, 64-aligned |
/// | any other [`RrrStore`] | the store | the sequential reference |
///
/// Only test stores take the last row: a store that released its samples
/// into its index never takes the index-free route.
///
/// # Panics
///
/// Panics if `banned.len() != n as usize`.
#[must_use]
pub fn select_with_engine_banned<S: RrrStore>(
    engine: SelectEngine,
    store: &S,
    n: u32,
    k: u32,
    partitions: usize,
    banned: Vec<bool>,
) -> (Selection, SelectStats) {
    assert_eq!(
        banned.len(),
        n as usize,
        "banned mask must cover all vertices"
    );
    if engine == SelectEngine::Sequential {
        sequential_greedy(store, n, k, banned)
    } else if uses_index(engine, store, k) {
        select_over_index(store, n, k, partitions, &banned)
    } else if let Some(mixed) = store.as_mixed() {
        greedy_cover(mixed, n, k, partitions, banned)
    } else if let Some(lists) = store.as_flat() {
        greedy_cover(lists, n, k, partitions, banned)
    } else {
        sequential_greedy(store, n, k, banned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::{DynRrrStore, RrrStoreKind, SampleArena, StorageConfig};

    const ENGINES: [SelectEngine; 4] = [
        SelectEngine::Auto,
        SelectEngine::Sequential,
        SelectEngine::Partitioned,
        SelectEngine::Fused,
    ];

    fn collection(sets: &[&[Vertex]]) -> RrrCollection {
        let mut c = RrrCollection::new();
        for s in sets {
            c.push(s);
        }
        c
    }

    #[test]
    fn picks_the_obvious_cover() {
        // Vertex 2 covers 3 sets; nothing else covers more than 1.
        let c = collection(&[&[0, 2], &[2, 5], &[2], &[7]]);
        let sel = select_seeds_sequential(&c, 8, 1);
        assert_eq!(sel.seeds, vec![2]);
        assert_eq!(sel.covered, 3);
        assert!((sel.fraction - 0.75).abs() < 1e-12);
        assert_eq!(sel.marginal_gains, vec![3]);
    }

    #[test]
    fn second_seed_accounts_for_purged_sets() {
        // After choosing 2, the set {2,5} is covered: 5's residual gain is 0
        // while 7 still covers one.
        let c = collection(&[&[0, 2], &[2, 5], &[2], &[7]]);
        let sel = select_seeds_sequential(&c, 8, 2);
        assert_eq!(sel.seeds, vec![2, 7]);
        assert_eq!(sel.covered, 4);
        assert_eq!(sel.marginal_gains, vec![3, 1]);
    }

    #[test]
    fn ties_break_to_lowest_id() {
        let c = collection(&[&[3], &[5]]);
        let sel = select_seeds_sequential(&c, 8, 1);
        assert_eq!(sel.seeds, vec![3]);
    }

    #[test]
    fn all_engines_agree() {
        // A messier instance exercising purge bookkeeping.
        let c = collection(&[
            &[0, 1, 2],
            &[1, 2, 3],
            &[2, 3, 4],
            &[4, 5],
            &[0, 5],
            &[6],
            &[1, 6],
            &[2],
        ]);
        let n = 8;
        let k = 4;
        let (seq, seq_stats) = select_with_engine(SelectEngine::Sequential, &c, n, k, 1);
        for p in [1, 2, 3, 5, 8] {
            let (scan, scan_stats) = select_with_engine(SelectEngine::Partitioned, &c, n, k, p);
            assert_eq!(scan, seq, "partitioned(p={p}) diverged");
            let (indexed, stats) = select_with_engine(SelectEngine::Fused, &c, n, k, p);
            assert_eq!(indexed, seq, "fused(p={p}) diverged");
            assert!(stats.index_bytes > 0);
            assert_eq!(scan_stats.index_bytes, 0);
            // Both index-free bodies decrement the covered samples' entries;
            // the lazy body reads at least each seed's row once.
            assert_eq!(scan_stats.entries_touched, seq_stats.entries_touched);
            assert!(stats.entries_touched >= row_entries(&c, &seq.seeds));
        }
        assert_batches_match(&c, n, k, &[false; 8], &seq);
    }

    /// The lazy greedy returns `expect` at every batch size, up to one
    /// round for the whole heap.
    fn assert_batches_match(
        c: &RrrCollection,
        n: u32,
        k: u32,
        banned: &[bool],
        expect: &Selection,
    ) {
        for batch in [1, 2, 7, 32, n as usize + 1] {
            let (got, _) = c.with_sample_index(n, 1, |index| {
                select_from_index_in_batches(index, k, banned, batch)
            });
            assert_eq!(&got, expect, "batch {batch}");
        }
    }

    /// Entries of the rows of `seeds`: what a pass over the index reads at
    /// the least, one recount per seed.
    fn row_entries(c: &RrrCollection, seeds: &[Vertex]) -> u64 {
        let rows = seeds
            .iter()
            .map(|&s| c.iter().filter(|set| set.contains(&s)).count());
        rows.sum::<usize>() as u64
    }

    #[test]
    fn fused_on_empty_collection_matches_sequential() {
        let c = RrrCollection::new();
        let seq = select_seeds_sequential(&c, 5, 2);
        for p in [1, 3] {
            assert_eq!(select_with_engine(SelectEngine::Fused, &c, 5, 2, p).0, seq);
        }
    }

    #[test]
    fn fused_with_more_partitions_than_vertices() {
        let c = collection(&[&[0], &[1], &[0, 1]]);
        assert_eq!(
            select_with_engine(SelectEngine::Fused, &c, 2, 2, 64).0,
            select_seeds_sequential(&c, 2, 2)
        );
    }

    #[test]
    fn partitioned_with_more_partitions_than_vertices() {
        let c = collection(&[&[0], &[1], &[0, 1]]);
        assert_eq!(
            select_with_engine(SelectEngine::Partitioned, &c, 2, 2, 64).0,
            select_seeds_sequential(&c, 2, 2)
        );
    }

    #[test]
    fn engine_dispatch_is_consistent() {
        let c = collection(&[&[0, 1, 2], &[1, 2, 3], &[2, 3, 4], &[4, 5], &[0, 5]]);
        let seq = select_seeds_sequential(&c, 6, 3);
        for engine in ENGINES {
            let (sel, stats) = select_with_engine(engine, &c, 6, 3, 4);
            assert_eq!(sel, seq, "{} diverged", engine.tag());
            // `auto` alone may choose to index.
            match engine {
                SelectEngine::Fused => assert!(stats.index_bytes > 0),
                SelectEngine::Auto => {}
                _ => assert_eq!(stats.index_bytes, 0, "{}", engine.tag()),
            }
        }
    }

    #[test]
    fn cost_model_prefers_fused_for_sparse_sets() {
        // Empty collection: nothing to index, never profitable.
        assert!(!fused_is_profitable(&RrrCollection::new(), 100));
        // s̄ = 2: k·(log₂2+1) = 2k ≥ 4 already at k = 2.
        let sparse = collection(&[&[0, 1], &[2, 3], &[4, 5]]);
        assert!(fused_is_profitable(&sparse, 2));
        assert!(!fused_is_profitable(&sparse, 1));
        // s̄ = 1024: needs k·11 ≥ 2048, i.e. k ≥ 187.
        let mut dense = RrrCollection::new();
        let big: Vec<Vertex> = (0..1024).collect();
        dense.push(&big);
        assert!(!fused_is_profitable(&dense, 100));
        assert!(fused_is_profitable(&dense, 200));
    }

    /// A store that *reports* a size without holding it: the index decision
    /// reads `len` and `total_entries` and nothing else.
    struct Reported {
        len: usize,
        total_entries: u64,
    }

    impl RrrStore for Reported {
        fn len(&self) -> usize {
            self.len
        }
        fn total_entries(&self) -> u64 {
            self.total_entries
        }
        fn push(&mut self, _: &[Vertex]) {
            unreachable!()
        }
        fn append_arena(&mut self, _: &SampleArena) {
            unreachable!()
        }
        fn finish_batch(&mut self) {
            unreachable!()
        }
        fn set(&self, _: usize) -> ripples_diffusion::RrrSetRef<'_> {
            unreachable!()
        }
        fn resident_bytes(&self) -> usize {
            unreachable!()
        }
        fn unsorted_pushes(&self) -> u64 {
            unreachable!()
        }
    }

    #[test]
    fn stores_past_the_u32_index_limits_take_the_index_free_route() {
        // Small sets and a large k: the cost model wants the index.
        let k = 1000;
        let fits = Reported {
            len: 1 << 20,
            total_entries: 1 << 24,
        };
        // Entries have no limit of their own: segments are cut to fit.
        let many_entries = Reported {
            len: 1 << 28,
            total_entries: 1 << 34,
        };
        let too_many_samples = Reported {
            len: 1 << 32,
            total_entries: 1 << 34,
        };
        for engine in [SelectEngine::Auto, SelectEngine::Fused] {
            assert!(uses_index(engine, &fits, k), "{}", engine.tag());
            assert!(uses_index(engine, &many_entries, k), "{}", engine.tag());
            assert!(fused_is_profitable(&too_many_samples, k));
            assert!(
                !uses_index(engine, &too_many_samples, k),
                "{}",
                engine.tag()
            );
        }
        for engine in [SelectEngine::Sequential, SelectEngine::Partitioned] {
            assert!(!uses_index(engine, &fits, k), "{}", engine.tag());
        }
    }

    #[test]
    fn runs_that_could_pass_the_u32_limit_keep_their_store() {
        // Round one fits the index easily and the cost model wants it; what
        // decides is the largest population the schedule could reach.
        let k = 1000;
        let round_one = Reported {
            len: 1 << 20,
            total_entries: 1 << 24,
        };
        let last_id = u32::MAX as usize - 1;
        for engine in [SelectEngine::Auto, SelectEngine::Fused] {
            assert!(
                index_only(engine, &round_one, k, last_id),
                "{}",
                engine.tag()
            );
            for population in [u32::MAX as usize, 1 << 32, 1 << 40] {
                assert!(
                    !index_only(engine, &round_one, k, population),
                    "{} at {population}",
                    engine.tag()
                );
            }
        }
        for engine in [SelectEngine::Sequential, SelectEngine::Partitioned] {
            assert!(
                !index_only(engine, &round_one, k, 1 << 20),
                "{}",
                engine.tag()
            );
        }
    }

    #[test]
    fn coverage_reads_the_rows_of_a_current_index() {
        // Three-vertex sets stay lists under the n/32 density rule.
        let n = 400u32;
        let queries: [&[Vertex]; 5] = [&[], &[0], &[3, 10, 10, 69], &[1, 2, 40, 5], &[n, 0]];
        // Sparse sets only, then every fourth set dense enough to be a
        // bitmap in the flat store.
        for dense in [false, true] {
            let sets: Vec<Vec<Vertex>> = (0..40u32)
                .map(|j| match j % 4 {
                    3 if dense => (0..n).filter(|v| (v + j) % 3 != 0).collect(),
                    _ => vec![j % 7, 10 + j % 5, 30 + j % 11],
                })
                .collect();
            let lists: RrrCollection = sets.iter().cloned().collect();
            for (kind, budget) in [
                (RrrStoreKind::Flat, None),
                (RrrStoreKind::Spill, None),
                (RrrStoreKind::Spill, Some(16)),
            ] {
                let case = format!("{kind:?}/{budget:?}, dense sets: {dense}");
                let mut store = DynRrrStore::new(StorageConfig { kind, budget }, n);
                for s in &sets[..30] {
                    store.push(s);
                }
                let bitmaps = store.as_mixed().map_or(0, |m| m.bitmap_sets());
                assert_eq!(bitmaps > 0, dense, "{case}");
                let scan = |store: &DynRrrStore, seeds: &[Vertex]| {
                    (0..store.len())
                        .filter(|&j| seeds.iter().any(|&s| store.set(j).contains(s)))
                        .count()
                };
                store.with_sample_index(n, 2, |_| ());
                assert!(store.with_current_index(|index| index.is_some()), "{case}");
                for seeds in queries {
                    assert_eq!(coverage_of(&store, seeds), scan(&store, seeds), "{case}");
                }
                // Ten more samples: the index is stale, and the scan answers.
                for s in &sets[30..] {
                    store.push(s);
                }
                assert!(store.with_current_index(|index| index.is_none()), "{case}");
                for seeds in queries {
                    assert_eq!(coverage_of(&store, seeds), coverage_of(&lists, seeds));
                }
            }
        }
    }

    #[test]
    fn engine_tags_round_trip() {
        for engine in ENGINES {
            assert_eq!(SelectEngine::from_tag(engine.tag()), Some(engine));
        }
        assert_eq!(
            SelectEngine::from_tag("part"),
            Some(SelectEngine::Partitioned)
        );
        for removed in ["bogus", "lazy", "celf", "hypergraph", "hyper"] {
            assert!(SelectEngine::from_tag(removed).is_none(), "{removed}");
        }
    }

    #[test]
    fn select_stats_absorb_peaks_and_sums() {
        let mut a = SelectStats {
            index_build_nanos: 5,
            index_bytes: 100,
            entries_touched: 7,
            iterations: 3,
        };
        a.absorb(SelectStats {
            index_build_nanos: 3,
            index_bytes: 40,
            entries_touched: 2,
            iterations: 5,
        });
        assert_eq!(a.index_build_nanos, 8);
        assert_eq!(a.index_bytes, 100);
        assert_eq!(a.entries_touched, 9);
        assert_eq!(a.iterations, 8);
    }

    #[test]
    fn coverage_of_matches_selection_bookkeeping() {
        let c = collection(&[&[0, 1, 2], &[1, 2, 3], &[2, 3, 4], &[4, 5], &[0, 5]]);
        let sel = select_seeds_sequential(&c, 6, 3);
        assert_eq!(coverage_of(&c, &sel.seeds), sel.covered);
        assert_eq!(coverage_of(&c, &[4, 0]), 4);
        assert_eq!(coverage_of(&c, &[]), 0);
        assert_eq!(coverage_of(&RrrCollection::new(), &[1, 2]), 0);
        // Any store scores like the lists it encodes.
        let config = StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(0),
        };
        let mut store = DynRrrStore::new(config, 6);
        for set in c.iter() {
            store.push(set);
        }
        assert_eq!(coverage_of(&store, &sel.seeds), sel.covered);
        assert_eq!(coverage_of(&store, &[4, 0]), 4);
    }

    /// A seed whose rows the store's index dropped is a loud error, not a
    /// seed that covers nothing.
    #[test]
    #[should_panic(expected = "vertex 5 is cold")]
    fn coverage_of_a_cold_seed_panics() {
        let c = collection(&[&[0, 1, 2], &[1, 2, 3], &[2, 3, 4], &[4, 5], &[0, 5]]);
        let mut store = DynRrrStore::from_flat(c, 6);
        store.with_sample_index(6, 1, |_| ());
        // Degrees 2, 2, 3, 2, 2, 2: every vertex but 2 turns cold.
        assert_eq!(store.cool_index_below(3), (5, 1));
        assert_eq!(coverage_of(&store, &[2]), 3);
        let _ = coverage_of(&store, &[2, 5]);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let c = collection(&[&[0], &[1]]);
        let sel = select_seeds_sequential(&c, 2, 100);
        assert_eq!(sel.seeds.len(), 2);
        assert_eq!(sel.covered, 2);
    }

    #[test]
    fn empty_collection_selects_arbitrary_vertices() {
        let c = RrrCollection::new();
        let sel = select_seeds_sequential(&c, 5, 2);
        // No coverage signal: greedy falls back to lowest ids.
        assert_eq!(sel.seeds, vec![0, 1]);
        assert_eq!(sel.covered, 0);
        assert_eq!(sel.fraction, 0.0);
    }

    #[test]
    fn greedy_matches_brute_force_on_small_instance() {
        // Exhaustively verify the (1−1/e) greedy against optimal cover for
        // k=2 on a small universe.
        let c = collection(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4], &[1], &[3]]);
        let n = 5u32;
        let greedy = select_seeds_sequential(&c, n, 2);
        // Brute-force optimum.
        let mut best = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                best = best.max(coverage_of(&c, &[a, b]));
            }
        }
        assert!(
            greedy.covered as f64 >= (1.0 - 1.0 / std::f64::consts::E) * best as f64,
            "greedy {} below guarantee vs optimal {best}",
            greedy.covered
        );
    }

    #[test]
    fn store_engines_match_flat_reference() {
        let sets: Vec<Vec<Vertex>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![4, 5],
            vec![0, 5],
            vec![6],
            vec![1, 6],
            vec![2],
            vec![],
            vec![7],
        ];
        let n = 8u32;
        let k = 4u32;
        let seq = select_seeds_sequential(&sets.iter().cloned().collect::<RrrCollection>(), n, k);
        // Flat, and the spill-kind store under its default budget and a
        // tiny one.
        for (kind, budget) in [
            (RrrStoreKind::Flat, None),
            (RrrStoreKind::Spill, None),
            (RrrStoreKind::Spill, Some(16)),
        ] {
            let mut store = DynRrrStore::new(StorageConfig { kind, budget }, n);
            for s in &sets {
                store.push(s);
            }
            for engine in ENGINES {
                let (sel, _) = select_with_engine_store(engine, &store, n, k, 3);
                let case = format!("{kind:?}/{budget:?}/{}", engine.tag());
                assert_eq!(sel, seq, "{case} diverged");
            }
        }
    }

    #[test]
    fn store_direct_and_indexed_agree_and_report_stats() {
        let mut c = DynRrrStore::new(StorageConfig::of(RrrStoreKind::Spill), 40);
        let mut lists = RrrCollection::new();
        for base in 0..50u32 {
            let mut s: Vec<Vertex> = (0..6).map(|i| (base * 13 + i * 7) % 40).collect();
            s.sort_unstable();
            s.dedup();
            c.push(&s);
            lists.push(&s);
        }
        let (direct, dstats) = select_with_engine_store(SelectEngine::Partitioned, &c, 40, 5, 2);
        let (indexed, istats) = select_with_engine_store(SelectEngine::Fused, &c, 40, 5, 2);
        assert_eq!(direct, indexed);
        assert_eq!(dstats.index_bytes, 0);
        assert!(istats.index_bytes > 0);
        let (_, sstats) = select_with_engine_store(SelectEngine::Sequential, &c, 40, 5, 2);
        assert_eq!(sstats.entries_touched, dstats.entries_touched);
        assert!(istats.entries_touched >= row_entries(&lists, &indexed.seeds));
    }

    #[test]
    fn banned_selection_equals_selection_on_filtered_sketch() {
        let sets: Vec<Vec<Vertex>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![4, 5],
            vec![0, 5],
            vec![1, 6],
            vec![2],
        ];
        let n = 7u32;
        let k = 3u32;
        let full: RrrCollection = sets.iter().cloned().collect();
        let mut banned = vec![false; n as usize];
        banned[2] = true;
        banned[5] = true;
        // Reference: delete banned ids from every set, select normally.
        let filtered: RrrCollection = sets
            .iter()
            .map(|s| s.iter().copied().filter(|&v| !banned[v as usize]).collect())
            .collect();
        let plain = select_seeds_sequential(&filtered, n, k);
        for engine in ENGINES {
            let (masked, _) = select_with_engine_banned(engine, &full, n, k, 2, banned.clone());
            assert_eq!(masked.seeds, plain.seeds, "{}", engine.tag());
            assert_eq!(masked.marginal_gains, plain.marginal_gains);
            assert_eq!(masked.covered, plain.covered);
            assert!(masked.seeds.iter().all(|&v| !banned[v as usize]));
        }
        assert_batches_match(&full, n, k, &banned, &plain);
    }

    #[test]
    fn banned_everything_returns_no_seeds() {
        let c = collection(&[&[0, 1], &[1, 2]]);
        for engine in ENGINES {
            let (sel, _) = select_with_engine_banned(engine, &c, 3, 2, 2, vec![true; 3]);
            assert!(sel.seeds.is_empty(), "{}", engine.tag());
            assert_eq!(sel.covered, 0);
        }
    }
}
