//! Seed selection (Algorithm 4): greedy maximum coverage over the RRR
//! collection — count, argmax, purge.
//!
//! The crate holds five copies of that loop, each for a reason:
//!
//! * [`select_seeds_sequential`] — the reference: one counter array, an
//!   O(n) argmax and one membership probe per alive sample and seed, over
//!   any [`RrrStore`]. Every test compares against it, and it is what
//!   [`SelectEngine::Sequential`] runs.
//! * `greedy_cover` — the one production body, behind
//!   [`select_with_engine_store`]. Its three parameters are the collection
//!   view (`IntervalSets`: sorted lists, lists-or-bitmaps, or any store
//!   streamed by one owner), the store's inverted index or none (with it
//!   the cover step walks the seed's row, without it it probes every alive
//!   sample, which is Algorithm 4 as the paper states it) and the initial
//!   `selected` mask (the serve mode's banned vertices).
//!   Counters are owned by vertex interval, so no owner ever needs an
//!   atomic update, and each owner keeps its interval's argmax
//!   incrementally, so a round's winner is a p-way reduction rather than
//!   an O(n) scan. [`SelectEngine::Partitioned`] and
//!   [`SelectEngine::Fused`] are this body without and with the index;
//!   [`SelectEngine::Auto`] picks between them by [`fused_is_profitable`].
//! * `dist::GreedyRounds::run` — the distributed protocol: its counters
//!   are global and its decrements travel through a collective, so it
//!   shares the index and `argmax` with this module but not a body.
//! * `seq::TangStorage::select` — the Table 2/3 baseline over Tang et
//!   al.'s two-direction layout, slow on purpose.
//! * `ripples-oracle`'s `reference.rs` — the oracle's own greedy, which
//!   shares no code with this crate.
//!
//! All of them use the same deterministic tie-break (highest count, then
//! lowest vertex id), so they return *identical* seed sets on identical
//! collections — a property the cross-implementation tests rely on.

use ripples_diffusion::{
    IntervalSets, RrrCollection, RrrStore, RrrStoreKind, SampleIndex, Streamed,
};
use ripples_graph::Vertex;
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
    /// Wall time spent building the inverted index, nanoseconds.
    pub index_build_nanos: u64,
    /// Reserved bytes of the inverted index.
    pub index_bytes: usize,
    /// Entries of the samples covered across all greedy steps — what the
    /// decrement walks, with or without an index.
    pub entries_touched: u64,
    /// Wall time spent walking RRR blocks during selection, nanoseconds
    /// (0 on the flat store, whose lists and bitmaps need no decoding).
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

pub(crate) fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Picks the argmax with deterministic tie-breaking (lowest id wins ties),
/// skipping already-selected vertices. Returns `None` when every vertex is
/// selected.
pub(crate) fn argmax(counters: &[u64], selected: &[bool]) -> Option<Vertex> {
    slice_champion(counters, selected, 0).map(|(_, v)| v)
}

/// One interval's champion: the unselected vertex with the highest count,
/// lowest id on ties (`selected` is indexed absolutely; the slice covers
/// vertices `vl..vl + slice.len()`).
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

/// Publishes one greedy step — seed `v`, its marginal `gain`, and the
/// `touched` entries of the samples it covered — to the trace and the
/// live metrics.
fn publish_step(v: Vertex, gain: u64, touched: u64) {
    use crate::obs::metrics::{self, Metric};
    use crate::obs::trace::{self, TraceName};
    if trace::enabled() {
        trace::mark(TraceName::SelectStep, u64::from(v), gain);
        trace::mark(TraceName::SelectTouched, touched, u64::from(v));
    }
    if metrics::enabled() {
        metrics::add(Metric::SelectIterations, 1);
        metrics::add(Metric::SelectEntriesTouched, touched);
    }
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
    let mut counters = vec![0u64; n as usize];
    let t0 = Instant::now();
    for j in 0..store.len() {
        store.for_each_vertex(j, |v| counters[v as usize] += 1);
    }
    stats.decode_nanos += nanos_since(t0);
    let mut covered = vec![false; store.len()];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    for _ in 0..k {
        let Some(v) = argmax(&counters, &selected) else {
            break;
        };
        let gain = counters[v as usize];
        selected[v as usize] = true;
        gains.push(gain);
        seeds.push(v);
        let t0 = Instant::now();
        let mut touched = 0u64;
        for (j, cov) in covered.iter_mut().enumerate() {
            if !*cov && store.contains(j, v) {
                *cov = true;
                covered_count += 1;
                touched += store.sample_len(j) as u64;
                store.for_each_vertex(j, |u| counters[u as usize] -= 1);
            }
        }
        stats.decode_nanos += nanos_since(t0);
        stats.entries_touched += touched;
        publish_step(v, gain, touched);
    }
    (
        Selection::finish(seeds, gains, covered_count, store.len()),
        stats,
    )
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
    fn walk<S: IntervalSets>(&mut self, sets: &S, j: usize, step: impl Fn(&mut u64)) {
        let (vl, counters) = (self.vl, &mut *self.counters);
        sets.for_each_in(j, vl, self.vh, |u| step(&mut counters[(u - vl) as usize]));
    }
}

/// The production greedy max-cover (Algorithm 4).
///
/// The vertex space is split into intervals `[vl, vh)`, each owned by one
/// task that updates only its own counter slice — the paper's
/// synchronization-free design ("the alternative would have necessitated
/// atomic updates") — and keeps its interval's champion, so the round's
/// winner is a reduction over the owners. With an `index` the counters
/// start from its degrees and a cover step walks the seed's row; without
/// one the owners count their intervals across all samples and a cover
/// step probes every alive sample. Vertices set in `selected` are never
/// candidates and never cover a sample, so the result is the plain selection
/// on the sketch with those vertices deleted (from every set, and from the
/// vertex universe).
///
/// `stats` carries the index's cost in. Returns bitwise the [`Selection`]
/// of [`select_seeds_sequential`].
fn greedy_cover<S: IntervalSets>(
    sets: &S,
    index: Option<&SampleIndex>,
    n: u32,
    k: u32,
    partitions: usize,
    mut selected: Vec<bool>,
    mut stats: SelectStats,
) -> (Selection, SelectStats) {
    let n_us = n as usize;
    let k = k.min(n);
    let mut counters: Vec<u64> = match index {
        Some(index) => (0..n).map(|v| u64::from(index.degree(v))).collect(),
        None => vec![0; n_us],
    };
    let mut rest = counters.as_mut_slice();
    let mut owners: Vec<Owner<'_>> = S::intervals(n, partitions)
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

    // Counting pass, where no index has counted already: each owner counts
    // its interval across all samples, walking only its own sub-range of
    // each. Then every owner's first champion.
    let t0 = Instant::now();
    sets.for_each_owner(&mut owners, |sets, owner| {
        if index.is_none() {
            for j in 0..sets.store().len() {
                owner.walk(sets, j, |c| *c += 1);
            }
        }
        owner.champion = slice_champion(owner.counters, &selected, owner.vl);
    });
    stats.decode_nanos += nanos_since(t0);

    let store = sets.store();
    let mut covered = vec![false; store.len()];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut gains = Vec::with_capacity(k as usize);
    let mut covered_count = 0usize;
    let mut newly: Vec<usize> = Vec::new();
    for _ in 0..k {
        // Ascending interval order plus the strict comparison reproduces
        // argmax's lowest-id tie-break globally.
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
        let t0 = Instant::now();
        newly.clear();
        match index {
            Some(index) => index.for_each_sample(v, |j| {
                if !covered[j] {
                    newly.push(j);
                }
            }),
            None => newly.extend((0..store.len()).filter(|&j| !covered[j] && store.contains(j, v))),
        }
        debug_assert_eq!(gain as usize, newly.len(), "stale champion count");
        let mut touched = 0u64;
        for &j in &newly {
            covered[j] = true;
            touched += store.sample_len(j) as u64;
        }
        covered_count += newly.len();
        stats.entries_touched += touched;
        publish_step(v, gain, touched);

        // Decrement step: each owner updates its interval over the newly
        // covered samples, then looks for a new champion if its own was
        // selected or lost count.
        let (newly, selected) = (&newly, &selected);
        sets.for_each_owner(&mut owners, |sets, owner| {
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
        stats.decode_nanos += nanos_since(t0);
    }
    (
        Selection::finish(seeds, gains, covered_count, store.len()),
        stats,
    )
}

/// Number of samples in `store` covered by `seeds` (samples containing at
/// least one seed). Engine-independent by construction, so the correctness
/// oracle uses it to score any engine's seed set on any (possibly relabeled)
/// collection without trusting that engine's own bookkeeping; and
/// `n · covered / len` is the standard RRR estimate of the seed set's
/// expected influence, which the serve mode's `spread_estimate` query
/// returns without touching the graph.
#[must_use]
pub fn coverage_of<S: RrrStore>(store: &S, seeds: &[Vertex]) -> usize {
    (0..store.len())
        .filter(|&j| seeds.iter().any(|&s| store.contains(j, s)))
        .count()
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
    /// The production body without an inverted index: interval owners
    /// count, and every cover step probes the alive samples.
    Partitioned,
    /// The production body with an inverted index: counters start from its
    /// degrees, and a cover step walks the seed's row.
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

/// Runs `f` with `store`'s inverted index, brought up to date, and what that
/// cost — or, for a pass that is not `indexed`, with neither.
pub(crate) fn with_index_if<S: RrrStore, R>(
    indexed: bool,
    store: &S,
    n: u32,
    owners: usize,
    f: impl FnOnce(Option<&SampleIndex>, SelectStats) -> R,
) -> R {
    if !indexed {
        return f(None, SelectStats::default());
    }
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
        f(Some(index), stats)
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
/// the number of interval owners of the production body; the sequential
/// reference ignores it.
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
/// How each store is read; when the engine asks for the index, every one
/// of them hands over its own ([`RrrStore::with_sample_index`]):
///
/// | store | collection view | owners |
/// |---|---|---|
/// | flat, lists only | sorted lists | `partitions` |
/// | flat with bitmaps | lists or bitmaps, 64-aligned intervals | `partitions` |
/// | spill | streamed | 1 |
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
    let (selection, mut stats) = if engine == SelectEngine::Sequential {
        match store.as_flat() {
            Some(lists) => sequential_greedy(lists, n, k, banned),
            None => sequential_greedy(store, n, k, banned),
        }
    } else {
        let indexed = uses_index(engine, store, k);
        if let Some(lists) = store.as_flat() {
            cover_with_cached_index(lists, store, indexed, n, k, partitions, banned)
        } else if let Some(mixed) = store.as_mixed() {
            cover_with_cached_index(mixed, store, indexed, n, k, partitions, banned)
        } else {
            cover_with_cached_index(&Streamed(store), store, indexed, n, k, partitions, banned)
        }
    };
    if store.kind() == RrrStoreKind::Flat {
        stats.decode_nanos = 0;
    }
    (selection, stats)
}

/// [`greedy_cover`] over `sets`, a view of `store`, with the index the
/// store caches across passes when `indexed`.
fn cover_with_cached_index<C: IntervalSets, S: RrrStore>(
    sets: &C,
    store: &S,
    indexed: bool,
    n: u32,
    k: u32,
    partitions: usize,
    banned: Vec<bool>,
) -> (Selection, SelectStats) {
    with_index_if(indexed, store, n, partitions, |index, stats| {
        greedy_cover(sets, index, n, k, partitions, banned, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::{DynRrrStore, SampleArena, SpillRrrStore, StorageConfig};

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
        let seq = select_seeds_sequential(&c, n, k);
        for p in [1, 2, 3, 5, 8] {
            let (scan, scan_stats) = select_with_engine(SelectEngine::Partitioned, &c, n, k, p);
            assert_eq!(scan, seq, "partitioned(p={p}) diverged");
            let (indexed, stats) = select_with_engine(SelectEngine::Fused, &c, n, k, p);
            assert_eq!(indexed, seq, "fused(p={p}) diverged");
            assert!(stats.index_bytes > 0);
            assert!(stats.entries_touched > 0);
            assert_eq!(scan_stats.index_bytes, 0);
            assert_eq!(scan_stats.entries_touched, stats.entries_touched);
        }
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
            // Lists need no decoding, and `auto` alone may choose to index.
            assert_eq!(stats.decode_nanos, 0, "{}", engine.tag());
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
        fn kind(&self) -> RrrStoreKind {
            RrrStoreKind::Spill
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
        fn sample_len(&self, _: usize) -> usize {
            unreachable!()
        }
        fn decode_into(&self, _: usize, _: &mut Vec<Vertex>) {
            unreachable!()
        }
        fn for_each_vertex<F: FnMut(Vertex)>(&self, _: usize, _: F) {
            unreachable!()
        }
        fn contains(&self, _: usize, _: Vertex) -> bool {
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
        assert_eq!(coverage_of(&c, &[4, 0]), 4);
        assert_eq!(coverage_of(&c, &[]), 0);
        assert_eq!(coverage_of(&RrrCollection::new(), &[1, 2]), 0);
        // Any store scores like the lists it encodes.
        let mut varint = SpillRrrStore::new(0);
        for set in c.iter() {
            varint.push(set);
        }
        assert_eq!(coverage_of(&varint, &sel.seeds), sel.covered);
        assert_eq!(coverage_of(&varint, &[4, 0]), 4);
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
        // Flat, and the compressed store resident and forced to disk.
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
                let (sel, stats) = select_with_engine_store(engine, &store, n, k, 3);
                let case = format!("{kind:?}/{budget:?}/{}", engine.tag());
                assert_eq!(sel, seq, "{case} diverged");
                assert_eq!(stats.decode_nanos > 0, kind != RrrStoreKind::Flat, "{case}");
            }
        }
    }

    #[test]
    fn store_direct_and_indexed_agree_and_report_stats() {
        let mut c = SpillRrrStore::new(SpillRrrStore::DEFAULT_BUDGET);
        for base in 0..50u32 {
            let mut s: Vec<Vertex> = (0..6).map(|i| (base * 13 + i * 7) % 40).collect();
            s.sort_unstable();
            s.dedup();
            c.push(&s);
        }
        let (direct, dstats) = select_with_engine_store(SelectEngine::Partitioned, &c, 40, 5, 2);
        let (indexed, istats) = select_with_engine_store(SelectEngine::Fused, &c, 40, 5, 2);
        assert_eq!(direct, indexed);
        assert_eq!(dstats.index_bytes, 0);
        assert!(istats.index_bytes > 0);
        assert_eq!(dstats.entries_touched, istats.entries_touched);
        let (_, sstats) = select_with_engine_store(SelectEngine::Sequential, &c, 40, 5, 2);
        assert_eq!(sstats.entries_touched, istats.entries_touched);
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
