//! Seed selection (Algorithm 4): greedy maximum coverage over the RRR
//! collection, in five interchangeable engines.
//!
//! * [`select_seeds_sequential`] — reference implementation.
//! * [`select_seeds_partitioned`] — the paper's multithreaded engine:
//!   vertex-interval-partitioned counters so no thread ever needs an atomic
//!   update, with binary-searched partition navigation inside each sorted
//!   sample.
//! * [`select_seeds_lazy`] — CELF-style lazy greedy over the counters
//!   (ablation: the paper's related-work trades; coverage is submodular so
//!   stale upper bounds are valid).
//! * [`select_seeds_hypergraph`] — inverted-index-driven selection, the
//!   strategy of Tang et al.'s original code (fast selection, 2× memory).
//! * [`select_seeds_fused`] — the default engine: a borrowed u32-CSR
//!   inverted index fuses the hypergraph engine's O(touched entries) cover
//!   step with the partitioned engine's synchronization-free interval
//!   counters, plus an incrementally maintained per-interval argmax so each
//!   round's winner is a p-way reduction rather than an O(n) scan.
//!
//! All engines use the same deterministic tie-break (highest count, then
//! lowest vertex id), so the greedy engines return *identical* seed sets on
//! identical collections — a property the cross-implementation tests rely
//! on.

use ripples_diffusion::{HyperGraph, MixedRrrCollection, RrrCollection, RrrStore, SampleIndex};
use ripples_graph::Vertex;

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

/// Picks the argmax with deterministic tie-breaking (lowest id wins ties),
/// skipping already-selected vertices. Returns `None` when every vertex is
/// selected.
pub(crate) fn argmax(counters: &[u64], selected: &[bool]) -> Option<Vertex> {
    let mut best: Option<(u64, Vertex)> = None;
    for (v, (&c, &s)) in counters.iter().zip(selected).enumerate() {
        if s {
            continue;
        }
        match best {
            Some((bc, _)) if bc >= c => {}
            _ => best = Some((c, v as Vertex)),
        }
    }
    best.map(|(_, v)| v)
}

/// Reference sequential greedy max-cover.
#[must_use]
pub fn select_seeds_sequential(collection: &RrrCollection, n: u32, k: u32) -> Selection {
    let n_us = n as usize;
    let k = k.min(n);
    let mut counters = vec![0u64; n_us];
    for set in collection.iter() {
        for &v in set {
            counters[v as usize] += 1;
        }
    }
    let mut covered = vec![false; collection.len()];
    let mut selected = vec![false; n_us];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    for _ in 0..k {
        let Some(v) = argmax(&counters, &selected) else {
            break;
        };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectStep,
                u64::from(v),
                counters[v as usize],
            );
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        gains.push(counters[v as usize]);
        seeds.push(v);
        for (j, cov) in covered.iter_mut().enumerate() {
            if *cov {
                continue;
            }
            let set = collection.get(j);
            if set.binary_search(&v).is_ok() {
                *cov = true;
                covered_count += 1;
                for &u in set {
                    counters[u as usize] -= 1;
                }
            }
        }
    }
    Selection::finish(seeds, gains, covered_count, collection.len())
}

/// What Algorithm 4 asks of a sample collection: membership, and a walk
/// over the part of a sample that falls into one owner's vertex interval.
trait IntervalSets: Sync {
    /// Owners' interval bounds are multiples of this many vertices.
    const ALIGN: usize;

    fn len(&self) -> usize;

    fn contains(&self, j: usize, v: Vertex) -> bool;

    /// Streams the vertices of sample `j` in `[vl, vh)` (`vl` a multiple of
    /// [`Self::ALIGN`]) to `f`.
    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex));
}

/// Sorted lists: "vl and vh can be efficiently found using binary search".
impl IntervalSets for RrrCollection {
    const ALIGN: usize = 1;

    fn len(&self) -> usize {
        RrrCollection::len(self)
    }

    fn contains(&self, j: usize, v: Vertex) -> bool {
        self.get(j).binary_search(&v).is_ok()
    }

    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex)) {
        self.partition_slice(j, vl, vh).iter().copied().for_each(f);
    }
}

/// Lists or bitmaps: an owner's interval is one word range of every bitmap,
/// so membership is a bit test and the walk a word scan.
impl IntervalSets for MixedRrrCollection {
    const ALIGN: usize = 64;

    fn len(&self) -> usize {
        MixedRrrCollection::len(self)
    }

    fn contains(&self, j: usize, v: Vertex) -> bool {
        self.set(j).contains(v)
    }

    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex)) {
        self.set(j).for_each_in(vl, vh, f);
    }
}

/// The multithreaded engine of Algorithm 4.
///
/// The vertex space is split into `p` intervals `[vl, vh)`; each interval is
/// owned by exactly one rayon task, which updates only its own counter
/// slice — the paper's synchronization-free design ("the alternative would
/// have necessitated atomic updates"). Within each sample, a task locates
/// its interval with binary search instead of scanning the whole sorted
/// list.
#[must_use]
pub fn select_seeds_partitioned(
    collection: &RrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> Selection {
    select_partitioned(collection, n, k, partitions)
}

/// [`select_seeds_partitioned`] over a store that holds its dense sets as
/// bitmaps: the same owners, counters and tie-break, with every interval
/// aligned to 64 vertices so that an owner counts and purges its share of a
/// bitmap set by scanning one word range, and tests membership with one
/// bit. Returns bitwise the same [`Selection`] as
/// [`select_seeds_sequential`] over the expanded lists.
#[must_use]
pub fn select_seeds_partitioned_mixed(
    store: &MixedRrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> Selection {
    select_partitioned(store, n, k, partitions)
}

/// Hands out the disjoint counter slices of the interval owners.
fn owner_slices<'a>(counters: &'a mut [u64], bounds: &[(Vertex, Vertex)]) -> Vec<&'a mut [u64]> {
    let mut rest = counters;
    bounds
        .iter()
        .map(|&(vl, vh)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut((vh - vl) as usize);
            rest = tail;
            head
        })
        .collect()
}

fn select_partitioned<S: IntervalSets>(sets: &S, n: u32, k: u32, partitions: usize) -> Selection {
    let n_us = n as usize;
    let k = k.min(n);
    // Interval bounds: vl = n·t/p, vh = n·(t+1)/p (Algorithm 4), in units
    // of `S::ALIGN` vertices.
    let units = n_us.div_ceil(S::ALIGN);
    let p = partitions.clamp(1, units.max(1));
    let bound = |t: usize| (S::ALIGN * (units * t / p)).min(n_us) as Vertex;
    let bounds: Vec<(Vertex, Vertex)> = (0..p).map(|t| (bound(t), bound(t + 1))).collect();

    let mut counters = vec![0u64; n_us];
    // Counting pass: each owner counts its interval across all samples,
    // walking only its own sub-range of each sample.
    rayon::scope(|s| {
        for (slice, &(vl, vh)) in owner_slices(&mut counters, &bounds)
            .into_iter()
            .zip(&bounds)
        {
            s.spawn(move |_| {
                for j in 0..sets.len() {
                    sets.for_each_in(j, vl, vh, |u| slice[(u - vl) as usize] += 1);
                }
            });
        }
    });

    let mut covered = vec![false; sets.len()];
    let mut selected = vec![false; n_us];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;

    for _ in 0..k {
        let Some(v) = argmax(&counters, &selected) else {
            break;
        };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectStep,
                u64::from(v),
                counters[v as usize],
            );
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        gains.push(counters[v as usize]);
        seeds.push(v);

        // Each owner independently identifies the samples containing v
        // (one membership test per alive sample) and decrements its
        // interval. Owner 0 additionally reports which samples became
        // covered.
        let covered_ref = &covered;
        let mut slices = owner_slices(&mut counters, &bounds);
        let newly: Vec<usize> = rayon::scope(|s| {
            let first_slice = slices.remove(0);
            for (slice, &(vl, vh)) in slices.into_iter().zip(&bounds[1..]) {
                s.spawn(move |_| {
                    for (j, &cov) in covered_ref.iter().enumerate() {
                        if !cov && sets.contains(j, v) {
                            sets.for_each_in(j, vl, vh, |u| slice[(u - vl) as usize] -= 1);
                        }
                    }
                });
            }
            let (vl, vh) = bounds[0];
            let mut newly = Vec::new();
            for (j, &cov) in covered_ref.iter().enumerate() {
                if !cov && sets.contains(j, v) {
                    newly.push(j);
                    sets.for_each_in(j, vl, vh, |u| first_slice[(u - vl) as usize] -= 1);
                }
            }
            newly
        });
        covered_count += newly.len();
        for j in newly {
            covered[j] = true;
        }
    }
    Selection::finish(seeds, gains, covered_count, sets.len())
}

/// CELF-style lazy greedy on the cover counters.
///
/// Coverage is submodular, so a vertex's stale counter is an upper bound on
/// its current marginal gain; the lazy queue only recomputes the head.
/// Returns the same *coverage quality* as the eager engines (exact greedy),
/// though tie order may differ.
#[must_use]
pub fn select_seeds_lazy(collection: &RrrCollection, n: u32, k: u32) -> Selection {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n_us = n as usize;
    let k = k.min(n);
    let mut counters = vec![0u64; n_us];
    for set in collection.iter() {
        for &v in set {
            counters[v as usize] += 1;
        }
    }
    let mut covered = vec![false; collection.len()];
    // Heap of (count, Reverse(id), round_validated).
    let mut heap: BinaryHeap<(u64, Reverse<Vertex>, u32)> = (0..n)
        .map(|v| (counters[v as usize], Reverse(v), 0u32))
        .collect();
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    let mut round = 0u32;
    while seeds.len() < k as usize {
        let Some((count, Reverse(v), validated)) = heap.pop() else {
            break;
        };
        if validated < round {
            // Stale: recompute v's true marginal gain and reinsert.
            let fresh = collection
                .iter()
                .enumerate()
                .filter(|(j, set)| !covered[*j] && set.binary_search(&v).is_ok())
                .count() as u64;
            heap.push((fresh, Reverse(v), round));
            continue;
        }
        // Fresh entry at the top: greedy-optimal pick.
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectStep,
                u64::from(v),
                count,
            );
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        seeds.push(v);
        gains.push(count);
        round += 1;
        for (j, set) in collection.iter().enumerate() {
            if !covered[j] && set.binary_search(&v).is_ok() {
                covered[j] = true;
                covered_count += 1;
            }
        }
    }
    Selection::finish(seeds, gains, covered_count, collection.len())
}

/// Inverted-index selection over the two-direction hypergraph layout (the
/// Tang-style baseline): covering a seed's samples and decrementing their
/// member counters costs O(touched entries) instead of a scan over all
/// samples.
#[must_use]
pub fn select_seeds_hypergraph(hyper: &HyperGraph, n: u32, k: u32) -> Selection {
    let n_us = n as usize;
    let k = k.min(n);
    let mut counters: Vec<u64> = (0..n).map(|v| hyper.degree(v) as u64).collect();
    let mut covered = vec![false; hyper.len()];
    let mut selected = vec![false; n_us];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    for _ in 0..k {
        let Some(v) = argmax(&counters, &selected) else {
            break;
        };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectStep,
                u64::from(v),
                counters[v as usize],
            );
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        gains.push(counters[v as usize]);
        seeds.push(v);
        for &sid in hyper.samples_containing(v) {
            let j = sid as usize;
            if covered[j] {
                continue;
            }
            covered[j] = true;
            covered_count += 1;
            for &u in hyper.sets().get(j) {
                counters[u as usize] -= 1;
            }
        }
    }
    Selection::finish(seeds, gains, covered_count, hyper.len())
}

/// Per-pass statistics of an index-driven selection engine, reported
/// separately from [`Selection`] so the cross-engine equality tests keep
/// comparing pure selection results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Wall time spent building the inverted index, nanoseconds.
    pub index_build_nanos: u64,
    /// Reserved bytes of the inverted index.
    pub index_bytes: usize,
    /// Index/collection entries touched across all cover+decrement steps.
    pub entries_touched: u64,
    /// Wall time spent decoding compressed RRR blocks during selection,
    /// nanoseconds (0 on the flat store, whose slices need no decoding).
    pub decode_nanos: u64,
}

impl SelectStats {
    /// Accumulates another pass's statistics (peak for bytes, sums for the
    /// monotonic quantities).
    pub fn absorb(&mut self, other: SelectStats) {
        self.index_build_nanos += other.index_build_nanos;
        self.index_bytes = self.index_bytes.max(other.index_bytes);
        self.entries_touched += other.entries_touched;
        self.decode_nanos += other.decode_nanos;
    }
}

/// Rescans one interval's counter slice for its champion: the unselected
/// vertex with the highest count, lowest id on ties (`selected` is indexed
/// absolutely; the slice covers vertices `vl..vl + slice.len()`).
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

/// The fused selection engine — the crate's default for shared-memory runs.
///
/// Fuses the two fast strategies that were previously mutually exclusive:
///
/// * **O(touched entries) cover step** from the hypergraph engine, driven
///   by a borrowed [`SampleIndex`] (u32-CSR, built here by a parallel
///   counting sort) instead of the 2×-memory [`HyperGraph`] copy;
/// * **interval-partitioned counter ownership** from the partitioned
///   engine — each of `partitions` owners decrements only its own slice,
///   so there are no atomics;
///
/// and adds an incrementally maintained per-interval argmax: an owner
/// rescans its interval only when its champion was selected or decremented
/// (counters never increase, so an untouched champion stays optimal), which
/// makes each round's winner a p-way reduction instead of an O(n) scan.
///
/// Returns bitwise the same [`Selection`] as [`select_seeds_sequential`].
#[must_use]
pub fn select_seeds_fused(
    collection: &RrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> Selection {
    select_seeds_fused_with_stats(collection, n, k, partitions).0
}

/// [`select_seeds_fused`] plus its [`SelectStats`].
#[must_use]
pub fn select_seeds_fused_with_stats(
    collection: &RrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> (Selection, SelectStats) {
    let n_us = n as usize;
    let k = k.min(n);
    let p = partitions.clamp(1, n_us.max(1));

    let t0 = std::time::Instant::now();
    let index = SampleIndex::build(collection, n, p);
    let mut stats = SelectStats {
        index_build_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        index_bytes: index.resident_bytes(),
        ..SelectStats::default()
    };
    if crate::obs::trace::enabled() {
        crate::obs::trace::complete(
            crate::obs::trace::TraceName::IndexBuild,
            t0,
            index.total_entries() as u64,
            p as u64,
        );
    }

    let bounds: Vec<(Vertex, Vertex)> = (0..p)
        .map(|t| (((n_us * t) / p) as Vertex, ((n_us * (t + 1)) / p) as Vertex))
        .collect();
    let mut counters: Vec<u64> = (0..n).map(|v| index.degree(v)).collect();
    let mut selected = vec![false; n_us];
    let mut covered = vec![false; collection.len()];
    // Invariant: each interval's champion carries its *current* count and
    // beats every other unselected vertex of the interval on
    // (count, lowest id).
    let mut champions: Vec<Option<(u64, Vertex)>> = {
        let mut rest: &[u64] = &counters;
        bounds
            .iter()
            .map(|&(vl, vh)| {
                let (slice, tail) = rest.split_at((vh - vl) as usize);
                rest = tail;
                slice_champion(slice, &selected, vl)
            })
            .collect()
    };

    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    for _ in 0..k {
        // p-way reduction over interval champions; ascending interval order
        // plus the strict comparison reproduces argmax's lowest-id
        // tie-break globally.
        let mut best: Option<(u64, Vertex)> = None;
        for &ch in &champions {
            let Some((c, v)) = ch else { continue };
            match best {
                Some((bc, bv)) if bc > c || (bc == c && bv < v) => {}
                _ => best = Some((c, v)),
            }
        }
        let Some((gain, v)) = best else {
            break;
        };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(crate::obs::trace::TraceName::SelectStep, u64::from(v), gain);
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        seeds.push(v);
        gains.push(gain);

        // Cover step: walk only the samples containing v.
        let mut newly: Vec<u32> = Vec::new();
        let mut touched = 0u64;
        for &sid in index.samples_containing(v) {
            let j = sid as usize;
            if covered[j] {
                continue;
            }
            covered[j] = true;
            newly.push(sid);
            touched += collection.get(j).len() as u64;
        }
        debug_assert_eq!(gain as usize, newly.len(), "stale champion count");
        covered_count += newly.len();
        stats.entries_touched += touched;
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectEntriesTouched, touched);
        }
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectTouched,
                touched,
                u64::from(v),
            );
        }

        // Decrement step: each owner updates its interval over the newly
        // covered samples and rescans its champion only when invalidated
        // (champion selected or decremented). Counters never increase, so
        // an untouched champion cannot be overtaken.
        let decrement_one =
            |champ: &mut Option<(u64, Vertex)>, slice: &mut [u64], vl: Vertex, vh: Vertex| {
                let mut dirty = matches!(*champ, Some((_, cv)) if cv == v);
                for &sid in &newly {
                    for &u in collection.partition_slice(sid as usize, vl, vh) {
                        slice[(u - vl) as usize] -= 1;
                        if matches!(*champ, Some((_, cv)) if cv == u) {
                            dirty = true;
                        }
                    }
                }
                if dirty {
                    *champ = slice_champion(slice, &selected, vl);
                }
            };
        if p == 1 {
            let (vl, vh) = bounds[0];
            decrement_one(&mut champions[0], &mut counters, vl, vh);
        } else {
            let mut rest: &mut [u64] = &mut counters;
            rayon::scope(|s| {
                for (champ, &(vl, vh)) in champions.iter_mut().zip(&bounds) {
                    let (slice, tail) = rest.split_at_mut((vh - vl) as usize);
                    rest = tail;
                    let decrement_one = &decrement_one;
                    s.spawn(move |_| decrement_one(champ, slice, vl, vh));
                }
            });
        }
    }
    (
        Selection::finish(seeds, gains, covered_count, collection.len()),
        stats,
    )
}

/// Number of RRR sets in `collection` covered by `seeds` (sets containing at
/// least one seed). Engine-independent by construction, so the correctness
/// oracle uses it to score any engine's seed set on any (possibly relabeled)
/// collection without trusting that engine's own bookkeeping.
#[must_use]
pub fn coverage_of(collection: &RrrCollection, seeds: &[Vertex]) -> usize {
    collection
        .iter()
        .filter(|set| seeds.iter().any(|s| set.binary_search(s).is_ok()))
        .count()
}

/// Cost-model check for the fused engine: building and walking the u32-CSR
/// index costs O(E) (E = total RRR entries), while the partitioned engine's
/// per-seed purge scans cost O(k·θ·(log₂s̄+1)) binary-search steps
/// (s̄ = E/θ, the mean set size). Dividing both by θ, the index pays for
/// itself when `k·(log₂s̄+1) ≥ 2·s̄`: always for the small sets realistic
/// cascades produce (s̄ ≲ 50), only at very large `k` for dense synthetic
/// graphs whose samples span a large fraction of the vertex set.
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

/// Which greedy max-cover engine a run uses for its selection passes.
/// All variants except `Lazy` return identical [`Selection`]s; `Lazy` may
/// reorder tied seeds but preserves coverage and marginal gains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectEngine {
    /// Cost-model dispatch (the default): [`SelectEngine::Fused`] when
    /// [`fused_is_profitable`], else [`SelectEngine::Partitioned`].
    Auto,
    /// [`select_seeds_sequential`] — the O(k·θ) reference scan.
    Sequential,
    /// [`select_seeds_partitioned`] — interval counters, full purge scans.
    Partitioned,
    /// [`select_seeds_lazy`] — CELF lazy greedy.
    Lazy,
    /// [`select_seeds_hypergraph`] — Tang-style two-direction layout
    /// (copies the collection to build the [`HyperGraph`]).
    Hypergraph,
    /// [`select_seeds_fused`] — u32-CSR index + interval counters +
    /// incremental argmax.
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
            "lazy" | "celf" => Some(SelectEngine::Lazy),
            "hypergraph" | "hyper" => Some(SelectEngine::Hypergraph),
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
            SelectEngine::Lazy => "lazy",
            SelectEngine::Hypergraph => "hypergraph",
            SelectEngine::Fused => "fused",
        }
    }
}

/// Runs one selection pass with `engine`. `partitions` is consumed by the
/// partitioned and fused engines and ignored by the serial ones. Engines
/// without an index report default (zero) [`SelectStats`]; the hypergraph
/// engine charges its two-direction build to the stats so CLI comparisons
/// see its true cost.
#[must_use]
pub fn select_with_engine(
    engine: SelectEngine,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    partitions: usize,
) -> (Selection, SelectStats) {
    match engine {
        SelectEngine::Auto => {
            let resolved = if fused_is_profitable(collection, k) {
                SelectEngine::Fused
            } else {
                SelectEngine::Partitioned
            };
            select_with_engine(resolved, collection, n, k, partitions)
        }
        SelectEngine::Sequential => (
            select_seeds_sequential(collection, n, k),
            SelectStats::default(),
        ),
        SelectEngine::Partitioned => (
            select_seeds_partitioned(collection, n, k, partitions),
            SelectStats::default(),
        ),
        SelectEngine::Lazy => (select_seeds_lazy(collection, n, k), SelectStats::default()),
        SelectEngine::Hypergraph => {
            let t0 = std::time::Instant::now();
            let hyper = HyperGraph::build(collection.clone(), n);
            let stats = SelectStats {
                index_build_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                index_bytes: hyper
                    .resident_bytes()
                    .saturating_sub(collection.resident_bytes()),
                ..SelectStats::default()
            };
            (select_seeds_hypergraph(&hyper, n, k), stats)
        }
        SelectEngine::Fused => select_seeds_fused_with_stats(collection, n, k, partitions),
    }
}

/// Greedy max-cover directly over a compressed [`RrrStore`]: a streaming
/// counting pass, then per-seed sweeps that probe each alive sample with
/// [`RrrStore::contains`] (early-exit on the sorted order) and decode only
/// the samples the seed actually covers. The strategy of
/// [`select_seeds_sequential`] with decode-on-touch instead of slices —
/// the same counters and the same `(count, lowest id)` tie-break, so the
/// returned [`Selection`] is bitwise identical to the flat reference.
#[must_use]
pub fn select_seeds_store_direct<S: RrrStore>(
    store: &S,
    n: u32,
    k: u32,
) -> (Selection, SelectStats) {
    select_seeds_store_banned(store, n, k, &vec![false; n as usize])
}

/// [`select_seeds_store_direct`] with a pre-banned vertex set: banned
/// vertices are marked selected before the first greedy round, so they are
/// never candidates and never cover a sample. Because banned vertices also
/// never have their samples purged *through them* (only a chosen seed
/// covers samples), the greedy trajectory over the non-banned vertices is
/// exactly the trajectory of a plain selection on the vertex-filtered
/// sketch (every banned id deleted from every RRR set) — the
/// `topk_excluding` query primitive of the resident serve mode. Returned
/// `seeds` never contain a banned vertex, so fewer than `k` seeds come
/// back when bans exhaust the vertex set.
///
/// # Panics
///
/// Panics if `banned.len() != n as usize`.
#[must_use]
pub fn select_seeds_store_banned<S: RrrStore>(
    store: &S,
    n: u32,
    k: u32,
    banned: &[bool],
) -> (Selection, SelectStats) {
    let n_us = n as usize;
    assert_eq!(banned.len(), n_us, "banned mask must cover all vertices");
    let k = k.min(n);
    let mut stats = SelectStats::default();
    let mut counters = vec![0u64; n_us];
    let t0 = std::time::Instant::now();
    for j in 0..store.len() {
        store.for_each_vertex(j, |v| counters[v as usize] += 1);
    }
    stats.decode_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut covered = vec![false; store.len()];
    let mut selected = banned.to_vec();
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    for _ in 0..k {
        let Some(v) = argmax(&counters, &selected) else {
            break;
        };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(
                crate::obs::trace::TraceName::SelectStep,
                u64::from(v),
                counters[v as usize],
            );
        }
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
            crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
        }
        gains.push(counters[v as usize]);
        seeds.push(v);
        let t0 = std::time::Instant::now();
        let mut touched = 0u64;
        for (j, cov) in covered.iter_mut().enumerate() {
            if *cov {
                continue;
            }
            if store.contains(j, v) {
                *cov = true;
                covered_count += 1;
                touched += store.sample_len(j) as u64;
                store.for_each_vertex(j, |u| counters[u as usize] -= 1);
            }
        }
        stats.decode_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.entries_touched += touched;
        if crate::obs::metrics::enabled() {
            crate::obs::metrics::add(crate::obs::metrics::Metric::SelectEntriesTouched, touched);
        }
    }
    (
        Selection::finish(seeds, gains, covered_count, store.len()),
        stats,
    )
}

/// Index-driven greedy max-cover over a compressed [`RrrStore`]: streams
/// the store through [`RrrStore::with_sample_index`] (a gap-varint
/// inverted index; [`DynRrrStore`] caches it across rounds so only samples
/// new since the last selection are absorbed), takes initial counters from
/// its degrees, covers each seed's samples by streaming the index list,
/// and decodes each newly covered sample exactly once for the counter
/// decrements — the hypergraph/fused engines' O(touched entries) strategy
/// without ever materializing the flat collection. Same tie-break,
/// bitwise-identical [`Selection`].
///
/// [`DynRrrStore`]: ripples_diffusion::DynRrrStore
#[must_use]
pub fn select_seeds_store_indexed<S: RrrStore>(
    store: &S,
    n: u32,
    k: u32,
) -> (Selection, SelectStats) {
    let n_us = n as usize;
    let k = k.min(n);
    let t0 = std::time::Instant::now();
    store.with_sample_index(n, |index| {
        let mut stats = SelectStats {
            index_build_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            index_bytes: index.resident_bytes(),
            ..SelectStats::default()
        };
        if crate::obs::trace::enabled() {
            crate::obs::trace::complete(
                crate::obs::trace::TraceName::IndexBuild,
                t0,
                store.total_entries(),
                1,
            );
        }
        let mut counters: Vec<u64> = (0..n).map(|v| u64::from(index.degree(v))).collect();
        let mut covered = vec![false; store.len()];
        let mut selected = vec![false; n_us];
        let mut seeds = Vec::with_capacity(k as usize);
        let mut gains = Vec::with_capacity(k as usize);
        let mut covered_count = 0usize;
        for _ in 0..k {
            let Some(v) = argmax(&counters, &selected) else {
                break;
            };
            selected[v as usize] = true;
            if crate::obs::trace::enabled() {
                crate::obs::trace::mark(
                    crate::obs::trace::TraceName::SelectStep,
                    u64::from(v),
                    counters[v as usize],
                );
            }
            if crate::obs::metrics::enabled() {
                crate::obs::metrics::add(crate::obs::metrics::Metric::SelectSteps, 1);
                crate::obs::metrics::add(crate::obs::metrics::Metric::SeedsSelected, 1);
            }
            gains.push(counters[v as usize]);
            seeds.push(v);
            // Cover step over the seed's index list; decode-on-touch decrement.
            let t0 = std::time::Instant::now();
            let mut newly: Vec<usize> = Vec::new();
            index.for_each_sample(v, |j| {
                if !covered[j] {
                    covered[j] = true;
                    newly.push(j);
                }
            });
            let mut touched = 0u64;
            for &j in &newly {
                touched += store.sample_len(j) as u64;
                store.for_each_vertex(j, |u| counters[u as usize] -= 1);
            }
            stats.decode_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            covered_count += newly.len();
            stats.entries_touched += touched;
            if crate::obs::metrics::enabled() {
                crate::obs::metrics::add(
                    crate::obs::metrics::Metric::SelectEntriesTouched,
                    touched,
                );
            }
            if crate::obs::trace::enabled() {
                crate::obs::trace::mark(
                    crate::obs::trace::TraceName::SelectTouched,
                    touched,
                    u64::from(v),
                );
            }
        }
        (
            Selection::finish(seeds, gains, covered_count, store.len()),
            stats,
        )
    })
}

/// Storage-aware engine dispatch. A flat store holding only lists takes
/// the exact [`select_with_engine`] path (same code, same bitwise
/// guarantees). Any other store maps each engine onto its equivalent over
/// the [`RrrStore`] read interface — index-driven for the index engines
/// (`fused`/`hypergraph`, and `auto` when the [`fused_is_profitable`] cost
/// model says the index pays for itself), a scan otherwise: Algorithm 4
/// over word ranges when the store is a flat one with bitmap sets
/// ([`select_seeds_partitioned_mixed`]), decode-on-touch sweeps over a
/// compressed one. Every eager engine returns the same [`Selection`] for
/// the same samples regardless of the backend; the lazy engine maps to the
/// scan on these stores (eager greedy — same seeds as the other eager
/// engines, which on ties may differ from flat `lazy`'s reordering).
#[must_use]
pub fn select_with_engine_store<S: RrrStore>(
    engine: SelectEngine,
    store: &S,
    n: u32,
    k: u32,
    partitions: usize,
) -> (Selection, SelectStats) {
    if let Some(flat) = store.as_flat() {
        return select_with_engine(engine, flat, n, k, partitions);
    }
    let indexed = match engine {
        SelectEngine::Fused | SelectEngine::Hypergraph => true,
        SelectEngine::Auto => fused_is_profitable(store, k),
        SelectEngine::Sequential | SelectEngine::Partitioned | SelectEngine::Lazy => false,
    };
    if indexed {
        select_seeds_store_indexed(store, n, k)
    } else if let Some(mixed) = store.as_mixed() {
        // Like the list-only scan engines, reports no index and no entries
        // touched.
        (
            select_seeds_partitioned_mixed(mixed, n, k, partitions),
            SelectStats::default(),
        )
    } else {
        select_seeds_store_direct(store, n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let seq = select_seeds_sequential(&c, n, k);
        for p in [1, 2, 3, 5, 8] {
            let par = select_seeds_partitioned(&c, n, k, p);
            assert_eq!(par, seq, "partitioned(p={p}) diverged");
        }
        let hyper = HyperGraph::build(c.clone(), n);
        let hg = select_seeds_hypergraph(&hyper, n, k);
        assert_eq!(hg, seq, "hypergraph engine diverged");
        for p in [1, 2, 3, 5, 8] {
            let (fused, stats) = select_seeds_fused_with_stats(&c, n, k, p);
            assert_eq!(fused, seq, "fused(p={p}) diverged");
            assert!(stats.index_bytes > 0);
            assert!(stats.entries_touched > 0);
        }
        let lazy = select_seeds_lazy(&c, n, k);
        assert_eq!(lazy.covered, seq.covered, "lazy engine lost coverage");
        assert_eq!(lazy.marginal_gains, seq.marginal_gains);
    }

    #[test]
    fn fused_on_empty_collection_matches_sequential() {
        let c = RrrCollection::new();
        let seq = select_seeds_sequential(&c, 5, 2);
        for p in [1, 3] {
            assert_eq!(select_seeds_fused(&c, 5, 2, p), seq);
        }
    }

    #[test]
    fn fused_with_more_partitions_than_vertices() {
        let c = collection(&[&[0], &[1], &[0, 1]]);
        assert_eq!(
            select_seeds_fused(&c, 2, 2, 64),
            select_seeds_sequential(&c, 2, 2)
        );
    }

    #[test]
    fn engine_dispatch_is_consistent() {
        let c = collection(&[&[0, 1, 2], &[1, 2, 3], &[2, 3, 4], &[4, 5], &[0, 5]]);
        let (seq, seq_stats) = select_with_engine(SelectEngine::Sequential, &c, 6, 3, 4);
        for engine in [
            SelectEngine::Auto,
            SelectEngine::Partitioned,
            SelectEngine::Hypergraph,
            SelectEngine::Fused,
        ] {
            let (sel, _) = select_with_engine(engine, &c, 6, 3, 4);
            assert_eq!(sel, seq, "{} diverged", engine.tag());
        }
        assert_eq!(seq_stats, SelectStats::default());
        let (lazy, _) = select_with_engine(SelectEngine::Lazy, &c, 6, 3, 4);
        assert_eq!(lazy.marginal_gains, seq.marginal_gains);
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

    #[test]
    fn engine_tags_round_trip() {
        for engine in [
            SelectEngine::Auto,
            SelectEngine::Sequential,
            SelectEngine::Partitioned,
            SelectEngine::Lazy,
            SelectEngine::Hypergraph,
            SelectEngine::Fused,
        ] {
            assert_eq!(SelectEngine::from_tag(engine.tag()), Some(engine));
        }
        assert_eq!(SelectEngine::from_tag("celf"), Some(SelectEngine::Lazy));
        assert!(SelectEngine::from_tag("bogus").is_none());
    }

    #[test]
    fn select_stats_absorb_peaks_and_sums() {
        let mut a = SelectStats {
            index_build_nanos: 5,
            index_bytes: 100,
            entries_touched: 7,
            decode_nanos: 11,
        };
        a.absorb(SelectStats {
            index_build_nanos: 3,
            index_bytes: 40,
            entries_touched: 2,
            decode_nanos: 4,
        });
        assert_eq!(a.index_build_nanos, 8);
        assert_eq!(a.index_bytes, 100);
        assert_eq!(a.entries_touched, 9);
        assert_eq!(a.decode_nanos, 15);
    }

    #[test]
    fn coverage_of_matches_selection_bookkeeping() {
        let c = collection(&[&[0, 1, 2], &[1, 2, 3], &[2, 3, 4], &[4, 5], &[0, 5]]);
        let sel = select_seeds_sequential(&c, 6, 3);
        assert_eq!(coverage_of(&c, &sel.seeds), sel.covered);
        assert_eq!(coverage_of(&c, &[]), 0);
        assert_eq!(coverage_of(&RrrCollection::new(), &[1, 2]), 0);
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
                let covered = c
                    .iter()
                    .filter(|s| s.binary_search(&a).is_ok() || s.binary_search(&b).is_ok())
                    .count();
                best = best.max(covered);
            }
        }
        assert!(
            greedy.covered as f64 >= (1.0 - 1.0 / std::f64::consts::E) * best as f64,
            "greedy {} below guarantee vs optimal {best}",
            greedy.covered
        );
    }

    #[test]
    fn partitioned_with_more_partitions_than_vertices() {
        let c = collection(&[&[0], &[1], &[0, 1]]);
        let sel = select_seeds_partitioned(&c, 2, 2, 64);
        let seq = select_seeds_sequential(&c, 2, 2);
        assert_eq!(sel, seq);
    }

    #[test]
    fn store_engines_match_flat_reference() {
        use ripples_diffusion::{DynRrrStore, RrrStoreKind, StorageConfig};
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
        let mut flat = RrrCollection::new();
        for s in &sets {
            flat.push(s);
        }
        let seq = select_seeds_sequential(&flat, n, k);
        for kind in [
            RrrStoreKind::Flat,
            RrrStoreKind::Varint,
            RrrStoreKind::Spill,
        ] {
            let mut store = DynRrrStore::new(
                StorageConfig {
                    kind,
                    budget: Some(16),
                },
                n,
            );
            for s in &sets {
                store.push(s);
            }
            for engine in [
                SelectEngine::Auto,
                SelectEngine::Sequential,
                SelectEngine::Partitioned,
                SelectEngine::Hypergraph,
                SelectEngine::Fused,
            ] {
                let (sel, _) = select_with_engine_store(engine, &store, n, k, 3);
                assert_eq!(sel, seq, "{:?}/{} diverged", kind, engine.tag());
            }
        }
    }

    #[test]
    fn store_direct_and_indexed_agree_and_report_stats() {
        use ripples_diffusion::CompressedRrrCollection;
        let mut c = CompressedRrrCollection::new();
        for base in 0..50u32 {
            let mut s: Vec<Vertex> = (0..6).map(|i| (base * 13 + i * 7) % 40).collect();
            s.sort_unstable();
            s.dedup();
            c.push(&s);
        }
        let (direct, dstats) = select_seeds_store_direct(&c, 40, 5);
        let (indexed, istats) = select_seeds_store_indexed(&c, 40, 5);
        assert_eq!(direct, indexed);
        assert_eq!(dstats.index_bytes, 0);
        assert!(istats.index_bytes > 0);
        assert_eq!(dstats.entries_touched, istats.entries_touched);
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
        let mut full = RrrCollection::new();
        for s in &sets {
            full.push(s);
        }
        let mut banned = vec![false; n as usize];
        banned[2] = true;
        banned[5] = true;
        let (masked, _) = select_seeds_store_banned(&full, n, k, &banned);
        // Reference: delete banned ids from every set, select normally.
        let mut filtered = RrrCollection::new();
        for s in &sets {
            let kept: Vec<Vertex> = s.iter().copied().filter(|&v| !banned[v as usize]).collect();
            filtered.push(&kept);
        }
        let plain = select_seeds_sequential(&filtered, n, k);
        assert_eq!(masked.seeds, plain.seeds);
        assert_eq!(masked.marginal_gains, plain.marginal_gains);
        assert_eq!(masked.covered, plain.covered);
        assert!(masked.seeds.iter().all(|&v| !banned[v as usize]));
    }

    #[test]
    fn banned_everything_returns_no_seeds() {
        let c = collection(&[&[0, 1], &[1, 2]]);
        let (sel, _) = select_seeds_store_banned(&c, 3, 2, &[true, true, true]);
        assert!(sel.seeds.is_empty());
        assert_eq!(sel.covered, 0);
    }

    #[test]
    fn lazy_on_empty_heap() {
        let c = RrrCollection::new();
        let sel = select_seeds_lazy(&c, 3, 2);
        assert_eq!(sel.seeds.len(), 2);
        assert_eq!(sel.covered, 0);
    }
}
