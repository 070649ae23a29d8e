//! RRR-set storage behind one [`RrrStore`] trait, and the one store the
//! engines run, [`DynRrrStore`].
//!
//! The samples live in one sample-major container, [`MixedRrrCollection`]:
//! uncompressed and directly addressable, each set a sorted `u32` list, an
//! n-bit bitmap once it spans more than n/32 vertices, or the sorted list
//! of the vertices it leaves out once it spans more than 31n/32
//! ([`crate::mixed::set_form`]). While no set is that dense it is exactly
//! the paper's [`RrrCollection`]. Every store hands a sample back one way,
//! [`RrrStore::set`]: an [`RrrSetRef`] in the form it is held, which
//! answers its length, membership and ascending walk — whole, or an
//! interval owner's part of it, binary-searched in a list. Beside the
//! samples [`DynRrrStore`] keeps the one inverted index ([`SampleIndex`],
//! gap-varint rows), which is what a budget bounds and spills:
//! `--rrr-budget` (the spill kind) bounds the stage an index-only
//! run samples into and the index it grows, and sealed index segments are
//! what goes to disk. A store that keeps its samples holds them in RAM.
//!
//! Every store fills through the same two paths — per-sample
//! [`RrrStore::push`] and the [`SampleArena`] merge of the streamed
//! samplers, one [`RrrStore::append_arena`] per block and one
//! [`RrrStore::finish_batch`] per batch — in the same sample order, so
//! every store decodes bitwise identical to the list reference and the
//! cross-engine equality invariants extend across storage configurations.
//! The differential oracle's `storage-equivalence` check enforces exactly
//! that.

use crate::mixed::{FormCounts, MixedRrrCollection, RrrSetRef, SampleArena};
use crate::rrr::RrrCollection;
use crate::sample_index::SampleIndex;
use ripples_graph::Vertex;
use std::cell::RefCell;

/// One storage backend for a collection of sorted RRR sets.
///
/// The contract every backend upholds: samples are identified by their
/// append index, each sample is a sorted, deduplicated vertex list, and a
/// store fed the same samples in the same order as the flat reference
/// decodes the exact same lists — selection over any backend is then
/// bitwise identical given the shared greedy tie-break.
pub trait RrrStore {
    /// Appends one sample, repairing (sort + dedup) and counting violations
    /// of the sorted contract exactly like [`RrrCollection::push`].
    fn push(&mut self, vertices: &[Vertex]);

    /// Appends the samples of one arena in order — the merge step of the
    /// streamed samplers, once per finished block, in index order. Must
    /// produce the layout that pushing every sample in the same order
    /// would; may hold `Vec` growth slack until [`RrrStore::finish_batch`].
    fn append_arena(&mut self, arena: &SampleArena);

    /// Ends a batch of [`RrrStore::append_arena`] calls: gives back the
    /// growth slack that many small appends leave, so that `resident_bytes`
    /// reports what the samples take. Once per batch, not once per block —
    /// giving slack back reallocates.
    fn finish_batch(&mut self);

    /// Appends the samples of `arenas` in arena order as one batch.
    fn append_arenas(&mut self, arenas: &[SampleArena]) {
        for arena in arenas {
            self.append_arena(arena);
        }
        self.finish_batch();
    }

    /// Number of samples stored.
    fn len(&self) -> usize;

    /// True when no samples are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total vertex entries across all samples.
    fn total_entries(&self) -> u64;

    /// Sample `i` as it is held — a sorted list, a bitmap or a complement —
    /// the one way a stored sample is read: its length, membership, and its
    /// vertices in ascending order, all of them or an interval owner's.
    fn set(&self, i: usize) -> RrrSetRef<'_>;

    /// Decodes sample `i` into `out` (cleared first).
    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        out.clear();
        match self.set(i) {
            RrrSetRef::List(list) => out.extend_from_slice(list),
            set => set.for_each(|v| out.push(v)),
        }
    }

    /// Resident bytes of the storage, capacity-based (growth slack is real
    /// allocated memory). Spilled bytes are *not* resident.
    fn resident_bytes(&self) -> usize;

    /// Samples repaired on insert for violating the sorted contract.
    fn unsorted_pushes(&self) -> u64;

    /// The flat reference collection, when this store is one — selection
    /// dispatch uses it to hand the engine plain sorted slices. A flat-kind
    /// store answers `Some` only while it holds nothing but lists.
    fn as_flat(&self) -> Option<&RrrCollection> {
        None
    }

    /// The list, bitmap or complement collection behind a flat-kind store,
    /// whatever forms it currently holds — what selection reads set by set
    /// once it holds more than lists.
    fn as_mixed(&self) -> Option<&MixedRrrCollection> {
        None
    }

    /// Samples stored as bitmaps and as complements (the flat store's
    /// density rule) and the bytes of their payload.
    fn form_counts(&self) -> FormCounts {
        self.as_mixed()
            .map_or_else(FormCounts::default, MixedRrrCollection::form_counts)
    }

    /// Total bytes written to a spill file over the store's lifetime
    /// (0 for RAM-only backends).
    fn spill_bytes_written(&self) -> u64 {
        0
    }

    /// Spill-file creations or writes that failed; the store kept the data
    /// resident instead (0 for RAM-only backends).
    fn spill_write_failures(&self) -> u64 {
        0
    }

    /// Runs `f` over the inverted index of the store's current contents.
    /// The default builds a [`SampleIndex`] from scratch on every call, from
    /// the store's [`RrrStore::as_mixed`] or [`RrrStore::as_flat`] view;
    /// [`DynRrrStore`] — the type every engine entry point and the serve
    /// mode actually run — keeps one, grows it at every batch's end and
    /// absorbs here only what no batch end has, with up to `owners`
    /// vertex-interval owners where its layout can serve them, so a
    /// θ-doubling round pays for its *new* samples and a query over a
    /// sealed sketch pays nothing.
    fn with_sample_index<R>(
        &self,
        num_vertices: u32,
        owners: usize,
        f: impl FnOnce(&SampleIndex) -> R,
    ) -> R
    where
        Self: Sized,
    {
        let mut index = SampleIndex::new(num_vertices);
        match (self.as_mixed(), self.as_flat()) {
            (Some(sets), _) => index.absorb(sets, owners),
            (None, Some(lists)) => index.absorb(lists, owners),
            (None, None) => panic!("a store is indexed through its as_mixed or as_flat view"),
        }
        f(&index)
    }

    /// Runs `f` over the inverted index the store keeps when that index
    /// holds every stored sample, and over `None` otherwise. Unlike
    /// [`RrrStore::with_sample_index`] it never builds or grows one.
    fn with_current_index<R>(&self, f: impl FnOnce(Option<&SampleIndex>) -> R) -> R
    where
        Self: Sized,
    {
        f(None)
    }
}

/// The storage configurations: with `--rrr-budget` and without. Both hold
/// the samples in one [`MixedRrrCollection`]: sorted lists, bitmaps for
/// sets above n/32 vertices and complements for those above 31n/32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RrrStoreKind {
    /// No byte budget: the index stays resident.
    Flat,
    /// A byte budget (`--rrr-budget`) bounds the stage of a run that selects
    /// from the index alone and the index, whose sealed segments spill to
    /// disk beyond it ([`DynRrrStore`]).
    Spill,
}

impl RrrStoreKind {
    /// The name of this kind, as `serve`'s info frame and the oracle's case
    /// names print it.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Spill => "spill",
        }
    }
}

/// How an IMM run should store its RRR sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// The backend kind.
    pub kind: RrrStoreKind,
    /// Resident-byte cap of a spill-kind store (`--rrr-budget`); ignored by
    /// the flat kind. `None` uses [`StorageConfig::DEFAULT_BUDGET`].
    pub budget: Option<usize>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            kind: RrrStoreKind::Flat,
            budget: None,
        }
    }
}

impl StorageConfig {
    /// A spill-kind store's budget when none is configured: 1 GiB.
    pub const DEFAULT_BUDGET: usize = 1 << 30;

    /// Config for one backend kind with no budget override.
    #[must_use]
    pub fn of(kind: RrrStoreKind) -> Self {
        Self { kind, budget: None }
    }
}

impl RrrStore for RrrCollection {
    fn push(&mut self, vertices: &[Vertex]) {
        RrrCollection::push(self, vertices);
    }

    fn append_arena(&mut self, arena: &SampleArena) {
        RrrCollection::append_arena(self, arena);
    }

    fn finish_batch(&mut self) {
        self.shrink_to_fit();
    }

    fn len(&self) -> usize {
        RrrCollection::len(self)
    }

    fn total_entries(&self) -> u64 {
        RrrCollection::total_entries(self) as u64
    }

    fn set(&self, i: usize) -> RrrSetRef<'_> {
        RrrSetRef::List(self.get(i))
    }

    fn resident_bytes(&self) -> usize {
        RrrCollection::resident_bytes(self)
    }

    fn unsorted_pushes(&self) -> u64 {
        RrrCollection::unsorted_pushes(self)
    }

    fn as_flat(&self) -> Option<&RrrCollection> {
        Some(self)
    }
}

impl RrrStore for MixedRrrCollection {
    fn push(&mut self, vertices: &[Vertex]) {
        MixedRrrCollection::push(self, vertices);
    }

    fn append_arena(&mut self, arena: &SampleArena) {
        MixedRrrCollection::append_arena(self, arena);
    }

    fn finish_batch(&mut self) {
        self.shrink_to_fit();
    }

    fn len(&self) -> usize {
        MixedRrrCollection::len(self)
    }

    fn total_entries(&self) -> u64 {
        MixedRrrCollection::total_entries(self)
    }

    fn set(&self, i: usize) -> RrrSetRef<'_> {
        MixedRrrCollection::set(self, i)
    }

    fn resident_bytes(&self) -> usize {
        MixedRrrCollection::resident_bytes(self)
    }

    fn unsorted_pushes(&self) -> u64 {
        MixedRrrCollection::unsorted_pushes(self)
    }

    fn as_flat(&self) -> Option<&RrrCollection> {
        self.as_lists()
    }

    fn as_mixed(&self) -> Option<&MixedRrrCollection> {
        Some(self)
    }
}

/// Entries a store that released its samples stages before it absorbs
/// them, per row of the index's tables: `8·(n + 1)` until the index's first
/// cooling, and from then on, without a budget, `8·(h + 1)` for its `h` hot
/// rows, scaled by the index's entries over its hot rows' entries — the
/// stage holds every entry of a sample, the segment it becomes only the hot
/// ones — and never more than `8·(n + 1)` ([`StageLimit::for_hot_rows`]).
/// At one byte or more per entry, a segment absorbed from a full stage
/// holds at least twice its `4·(n + 1)`- or `4·(h + 1)`-byte offsets table
/// in rows, so the tables stay a minor share of the index at any θ. A
/// larger stage saves less table than it costs itself: on a 200 000-vertex
/// sparse IC run, 16 per vertex held 4 MB less index and 12 MB more stage
/// than 8, and 4 held 8 MB more index. Sized by the hot rows, where every
/// stage of that run took 7.18 MB, it takes 4.24 MB in its first round's
/// early stage of `4·(n + 1)` entries, 2.13 MB in the rest of that round
/// and 0.65 MB by its last pass.
const STAGE_ENTRIES_PER_VERTEX: u64 = 8;

/// What a released store's stage holds before the index absorbs it.
#[derive(Clone, Copy, Debug)]
struct StageLimit {
    entries: u64,
    /// Bytes at the stage's lengths ([`MixedRrrCollection::held_bytes`]):
    /// half the budget, the other half the index's; unbounded without one.
    bytes: usize,
}

impl StageLimit {
    fn new(num_vertices: u32, budget: Option<usize>) -> Self {
        Self {
            entries: STAGE_ENTRIES_PER_VERTEX * (u64::from(num_vertices) + 1),
            bytes: budget.map_or(usize::MAX, |budget| budget / 2),
        }
    }

    /// This limit once `index` has cooled: [`STAGE_ENTRIES_PER_VERTEX`]
    /// entries per hot row and one, times the index's entries over its hot
    /// rows' entries, at most what [`StageLimit::new`] allows. With no hot
    /// entry left, that most.
    fn for_hot_rows(self, index: &SampleIndex) -> Self {
        let most = STAGE_ENTRIES_PER_VERTEX * (index.num_vertices() as u64 + 1);
        let rows = STAGE_ENTRIES_PER_VERTEX * (index.hot_rows() as u64 + 1);
        let (all, hot) = index.entries();
        let entries = match hot {
            0 => most,
            hot => {
                let scaled = (u128::from(rows) * u128::from(all)).div_ceil(u128::from(hot));
                u64::try_from(scaled).unwrap_or(most).min(most)
            }
        };
        Self { entries, ..self }
    }

    /// Whether `(entries, bytes)` fit the stage.
    fn admits(self, (entries, bytes): (u64, usize)) -> bool {
        entries <= self.entries && bytes <= self.bytes
    }

    /// An empty stage whose buffers grow toward this limit rather than past
    /// it ([`MixedRrrCollection::bounded`]): what it reserves stays within
    /// the limit but for the growth of one set.
    fn stage(self, num_vertices: u32) -> MixedRrrCollection {
        let entries = usize::try_from(self.entries).unwrap_or(usize::MAX);
        MixedRrrCollection::bounded(num_vertices, entries, self.bytes)
    }
}

/// What one set adds to a stage's `(entries, held bytes)`, at most: a list's
/// entries, offset and slot, a bitmap's words, length and slot, or a
/// complement's missing ids, offset and slot.
fn stage_size(set: RrrSetRef<'_>) -> (u64, usize) {
    let bytes = match set {
        RrrSetRef::List(list) => 16 + 4 * list.len(),
        RrrSetRef::Bitmap { words, .. } => 8 * words.len() + 12,
        RrrSetRef::Complement { missing, .. } => 16 + 4 * missing.len(),
    };
    (set.len() as u64, bytes)
}

/// The samples a store released into its index
/// ([`DynRrrStore::release_samples`]), counted, and the spill files of the
/// indexes it no longer holds (one replaced, one given up at the `u32`
/// limit): all zero until it does.
#[derive(Debug, Default)]
struct Released {
    samples: usize,
    entries: u64,
    unsorted_pushes: u64,
    forms: FormCounts,
    spill_bytes_written: u64,
    spill_write_failures: u64,
    /// What the stage holds before it is absorbed; `None` while the store
    /// keeps its samples.
    stage_limit: Option<StageLimit>,
}

impl Released {
    /// Counts the samples of `sets`, which are let go.
    fn retire(&mut self, sets: &MixedRrrCollection) {
        self.samples += sets.len();
        self.entries += sets.total_entries();
        self.unsorted_pushes += sets.unsorted_pushes();
        self.forms += sets.form_counts();
    }

    /// Counts what `index`, which is let go, spilled.
    fn retire_index(&mut self, index: &SampleIndex) {
        self.spill_bytes_written += index.spill_bytes_written();
        self.spill_write_failures += index.spill_write_failures();
    }
}

/// The RRR store every engine entry point and the serve mode run: one
/// sample-major [`MixedRrrCollection`] — the kept samples, or once they are
/// released, the stage — beside the one inverted index.
///
/// Owns the [`SampleIndex`] behind [`RrrStore::with_sample_index`] with one
/// lifecycle: no index exists until the first indexed pass builds it, and
/// from then on every [`RrrStore::finish_batch`] absorbs the batch's samples
/// with the interval owners the index was built with. IMM selects over the
/// same (append-only) store every θ round and the serve mode over a sealed
/// one for every query, so a pass finds the index up to date. The index is
/// not part of a snapshot: a restored service builds it on its first
/// indexed query.
///
/// A batch run that selects from the index alone releases the samples
/// ([`DynRrrStore::release_samples`]): as a rule after the first batch's
/// 64-sample prefix, mid-batch, and otherwise the whole first round at the
/// first selection pass. From then on every sample waits in a stage of at
/// most `8 · (n + 1)` entries — without a budget, after every cooling
/// ([`DynRrrStore::cool_index_below`]) fewer, by the index's hot rows — but
/// always room for one sample, absorbed into the index at its global
/// sample ids and cleared when full and at every batch's end, so the index
/// grows while sampling runs and no sample-major copy of the population
/// exists. `len`, `total_entries` and the counters still cover every
/// sample; reading a released one panics.
///
/// A spill-kind store's `--rrr-budget` bounds the stage and the index
/// together: the stage holds at most half the budget's bytes, and at every
/// absorb the index gets what the budget leaves beside the samples, less a
/// segment's table ([`SampleIndex::limit_resident`]), and spills its oldest
/// sealed segments to fit, so the two stay within the budget plus one
/// segment (and the index's degrees, when the budget is smaller than they
/// are). A store that keeps its samples holds them in RAM whatever the
/// budget, and says so once on stderr when they pass it.
/// [`RrrStore::resident_bytes`] reports the samples alone, and the index is
/// reported on its own, through `SelectStats::index_bytes`; what it spills
/// is [`RrrStore::spill_bytes_written`]. A flat store has no budget, and its
/// index stays resident.
#[derive(Debug)]
pub struct DynRrrStore {
    /// The kept samples, or a released store's stage.
    sets: MixedRrrCollection,
    kind: RrrStoreKind,
    /// The inverted index once an indexed pass has built it, and the
    /// interval owners it was built with.
    index_cache: RefCell<Option<(SampleIndex, usize)>>,
    /// A spill-kind store's `--rrr-budget`.
    budget: Option<usize>,
    released: Released,
}

impl DynRrrStore {
    /// Creates an empty store per `config` for a graph of `num_vertices`.
    #[must_use]
    pub fn new(config: StorageConfig, num_vertices: u32) -> Self {
        let budget = match config.kind {
            RrrStoreKind::Flat => None,
            RrrStoreKind::Spill => Some(config.budget.unwrap_or(StorageConfig::DEFAULT_BUDGET)),
        };
        Self {
            sets: MixedRrrCollection::new(num_vertices),
            kind: config.kind,
            index_cache: RefCell::new(None),
            budget,
            released: Released::default(),
        }
    }

    /// Wraps a restored list collection over a graph of `num_vertices`
    /// (snapshot-restore path): the store behaves exactly as if the samples
    /// had been pushed in place — flat fast paths included when no set is
    /// dense, bitmaps and complements for the dense ones otherwise.
    #[must_use]
    pub fn from_flat(collection: RrrCollection, num_vertices: u32) -> Self {
        Self::from_mixed(MixedRrrCollection::from_lists(num_vertices, collection))
    }

    /// Wraps a restored collection of lists, bitmaps and complements as a
    /// flat-kind store (snapshot-restore path).
    #[must_use]
    pub fn from_mixed(sets: MixedRrrCollection) -> Self {
        Self {
            sets,
            ..Self::new(StorageConfig::default(), 0)
        }
    }

    /// The storage configuration the store was made with; a restored one
    /// is flat.
    #[must_use]
    pub fn kind(&self) -> RrrStoreKind {
        self.kind
    }

    /// Samples the cached inverted index has absorbed: 0 until the first
    /// indexed selection pass, the store's length after it and after every
    /// batch that follows.
    #[must_use]
    pub fn indexed_samples(&self) -> usize {
        self.index_cache
            .borrow()
            .as_ref()
            .map_or(0, |(index, _)| index.absorbed_samples())
    }

    /// Brings the inverted index up to date — building it with up to
    /// `owners` interval owners if no indexed pass has — and releases every
    /// sample into it: from here on the store holds only a stage of the
    /// samples appended since the index last absorbed. It may be called
    /// between two batches or between the two halves of one; samples
    /// appended after it go to the stage.
    pub fn release_samples(&mut self, num_vertices: u32, owners: usize) {
        self.with_sample_index(num_vertices, owners, |_| ());
        let limit = StageLimit::new(num_vertices, self.budget);
        let held = std::mem::replace(&mut self.sets, limit.stage(num_vertices));
        self.released.retire(&held);
        self.released.stage_limit = Some(limit);
        let room = self.index_room();
        if let Some((index, _)) = self.index_cache.get_mut() {
            index.limit_resident(room);
        }
    }

    /// Grows `index`, an empty index, from the samples `draw` appends to a
    /// store that has released its samples into it, under this store's
    /// budget and with `owners` interval owners: what an index-only run's
    /// index becomes when it draws its samples again, as it grew the first
    /// time. Returns the grown index.
    pub fn regrow(
        &self,
        index: SampleIndex,
        owners: usize,
        draw: impl FnOnce(&mut Self),
    ) -> SampleIndex {
        let n = index.num_vertices() as u32;
        let limit = StageLimit::new(n, self.budget);
        let mut store = Self {
            sets: limit.stage(n),
            kind: self.kind,
            index_cache: RefCell::new(Some((index, owners))),
            budget: self.budget,
            released: Released {
                stage_limit: Some(limit),
                ..Released::default()
            },
        };
        draw(&mut store);
        store.absorb_new();
        let (index, _) = store.index_cache.into_inner().expect("the store's index");
        index
    }

    /// Puts `index`, an index of the same samples, in place of the store's;
    /// what the old one spilled still counts.
    ///
    /// # Panics
    ///
    /// Panics if the store has no index, or if `index` holds a different
    /// number of samples.
    pub fn replace_index(&mut self, index: SampleIndex) {
        let (old, _) = self
            .index_cache
            .get_mut()
            .as_mut()
            .expect("a store with an index");
        assert_eq!(index.absorbed_samples(), old.absorbed_samples());
        self.released.retire_index(old);
        *old = index;
    }

    /// Turns the index's vertices of degree below `tau` cold
    /// ([`SampleIndex::cool_below`]); returns how many turned cold and how
    /// many rows the index keeps, `(0, 0)` without an index. A store with
    /// no budget that released its samples first lets the index absorb its
    /// stage, then frees the stage and starts a new one sized by the hot
    /// rows (see [`DynRrrStore::stage_entries_limit`]). A budgeted stage
    /// keeps its limits: the budget bounds it already, and on the LT spill
    /// benchmark shape a stage sized by the hot rows cost ~10 % of the
    /// solve's time in absorbs for no lower peak.
    pub fn cool_index_below(&mut self, tau: u64) -> (usize, usize) {
        let resize = self.budget.is_none() && self.released.stage_limit.is_some();
        if resize {
            self.absorb_new();
        }
        let Some((index, _)) = self.index_cache.get_mut() else {
            return (0, 0);
        };
        let cooled = index.cool_below(tau);
        if let Some(limit) = self.released.stage_limit.as_mut().filter(|_| resize) {
            *limit = limit.for_hot_rows(index);
            self.sets = limit.stage(self.sets.num_vertices());
        }
        (cooled, index.hot_rows())
    }

    /// The entries a released store's stage holds before the index absorbs
    /// it, as the last cooling left that limit: without a budget `8·(h + 1)`
    /// for the index's `h` hot rows, scaled by its entries over its hot
    /// rows' entries and at most `8·(n + 1)`, and `8·(n + 1)` under one; 0
    /// for a store that keeps its samples.
    #[must_use]
    pub fn stage_entries_limit(&self) -> u64 {
        self.released.stage_limit.map_or(0, |limit| limit.entries)
    }

    /// Position in `sets` of global sample `i`.
    fn held(&self, i: usize) -> usize {
        let absorbed = self.released.samples;
        assert!(
            i >= absorbed,
            "sample {i} lives only in the inverted index (samples 0..{absorbed} were absorbed)"
        );
        i - absorbed
    }

    /// The bytes the budget leaves the index beside the samples the store
    /// holds — its kept samples, or its stage at the most it may hold — less
    /// one segment's `4·(n + 1)`-byte table: the index may hold its newest
    /// segment past its limit while that is smaller than its table
    /// ([`SampleIndex::limit_resident`]). `None` (no bound) without a
    /// budget, and once an index of the store's could not write its spill
    /// file: the run is over budget already, and one warning said so.
    fn index_room(&self) -> Option<usize> {
        let budget = self
            .budget
            .filter(|_| self.released.spill_write_failures == 0)?;
        let held = self.sets.resident_bytes();
        let samples = self
            .released
            .stage_limit
            .map_or(held, |limit| held.max(limit.bytes));
        let table = 4 * (self.sets.num_vertices() as usize + 1);
        Some(budget.saturating_sub(samples + table))
    }

    /// A released store's stage, when `size` more would overfill it, goes
    /// into the index first.
    fn make_room(&mut self, size: (u64, usize)) {
        if let Some(limit) = self.released.stage_limit {
            let stage = &self.sets;
            if !limit.admits((stage.total_entries() + size.0, stage.held_bytes() + size.1)) {
                self.absorb_new();
            }
        }
    }

    /// A kept store whose samples passed its budget says so on stderr, once
    /// per process: the budget bounds a stage and an index, not them.
    fn note_past_budget(&self) {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let held = self.sets.resident_bytes();
        let kept = self.released.stage_limit.is_none();
        if let Some(budget) = self.budget.filter(|&budget| kept && held > budget) {
            NOTE.call_once(|| {
                eprintln!(
                    "note: this run keeps its RRR sets in RAM ({held} bytes, past --rrr-budget \
                     {budget}); the budget bounds the stage and the index of a run that selects \
                     from the index alone"
                );
            });
        }
    }

    /// Absorbs the samples the index lacks, if there is an index, with the
    /// owners it was built with; a released store then clears its stage. A
    /// kept store that reaches the index's 32-bit sample ids drops the
    /// index instead: every pass from then on is index-free (`uses_index`
    /// in selection dispatch), and a released store never gets there
    /// (`index_only` bounds its θ schedule).
    fn absorb_new(&mut self) {
        let base = self.released.samples;
        let end = base + self.sets.len();
        if end >= u32::MAX as usize && self.released.stage_limit.is_none() {
            if let Some((index, _)) = self.index_cache.get_mut().take() {
                self.released.retire_index(&index);
            }
            return;
        }
        let room = self.index_room();
        let Some((index, owners)) = self.index_cache.get_mut() else {
            return;
        };
        if index.absorbed_samples() < end {
            let t0 = std::time::Instant::now();
            index.limit_resident(room);
            index.absorb_at(&self.sets, base, *owners);
            ripples_trace::complete(
                ripples_trace::TraceName::IndexBuild,
                t0,
                self.sets.total_entries(),
                *owners as u64,
            );
        }
        if self.released.stage_limit.is_some() {
            self.released.retire(&self.sets);
            self.sets.clear();
        }
    }
}

impl RrrStore for DynRrrStore {
    fn push(&mut self, vertices: &[Vertex]) {
        self.make_room(stage_size(RrrSetRef::List(vertices)));
        self.sets.push(vertices);
        self.note_past_budget();
    }

    /// A released store takes a block larger than its whole stage one
    /// sample at a time.
    fn append_arena(&mut self, arena: &SampleArena) {
        let size = (arena.total_entries(), arena.held_bytes());
        match self.released.stage_limit {
            Some(limit) if !limit.admits(size) => {
                for set in arena.iter() {
                    self.make_room(stage_size(set));
                    self.sets.push_set(set);
                }
                self.released.unsorted_pushes += arena.unsorted_pushes();
            }
            _ => {
                self.make_room(size);
                self.sets.append_arena(arena);
                self.note_past_budget();
            }
        }
    }

    /// A kept store gives its growth slack back; a released store's stage
    /// keeps its buffers for the next batch.
    fn finish_batch(&mut self) {
        if self.released.stage_limit.is_none() {
            self.sets.shrink_to_fit();
        }
        self.absorb_new();
    }

    fn len(&self) -> usize {
        self.released.samples + self.sets.len()
    }

    fn total_entries(&self) -> u64 {
        self.released.entries + self.sets.total_entries()
    }

    fn set(&self, i: usize) -> RrrSetRef<'_> {
        self.sets.set(self.held(i))
    }

    /// The kept samples, or a released store's stage; the index is reported
    /// as the index.
    fn resident_bytes(&self) -> usize {
        self.sets.resident_bytes()
    }

    fn unsorted_pushes(&self) -> u64 {
        self.released.unsorted_pushes + self.sets.unsorted_pushes()
    }

    /// `None` once the samples are released: the stage is not the store.
    fn as_flat(&self) -> Option<&RrrCollection> {
        self.as_mixed()?.as_lists()
    }

    /// `None` once the samples are released: the stage is not the store.
    fn as_mixed(&self) -> Option<&MixedRrrCollection> {
        Some(&self.sets).filter(|_| self.released.stage_limit.is_none())
    }

    fn form_counts(&self) -> FormCounts {
        let mut forms = self.sets.form_counts();
        forms += self.released.forms;
        forms
    }

    /// The index's segments, the current index's and those of the indexes
    /// the store let go.
    fn spill_bytes_written(&self) -> u64 {
        let index = self.index_cache.borrow();
        self.released.spill_bytes_written
            + index
                .as_ref()
                .map_or(0, |(index, _)| index.spill_bytes_written())
    }

    /// The index's segments, as [`RrrStore::spill_bytes_written`].
    fn spill_write_failures(&self) -> u64 {
        let index = self.index_cache.borrow();
        self.released.spill_write_failures
            + index
                .as_ref()
                .map_or(0, |(index, _)| index.spill_write_failures())
    }

    fn with_sample_index<R>(
        &self,
        num_vertices: u32,
        owners: usize,
        f: impl FnOnce(&SampleIndex) -> R,
    ) -> R {
        let room = self.index_room();
        let mut cache = self.index_cache.borrow_mut();
        let (index, _) = cache.get_or_insert_with(|| (SampleIndex::new(num_vertices), owners));
        debug_assert_eq!(
            index.num_vertices(),
            num_vertices as usize,
            "index cache reused across different vertex universes"
        );
        index.limit_resident(room);
        index.absorb_at(&self.sets, self.released.samples, owners);
        f(index)
    }

    fn with_current_index<R>(&self, f: impl FnOnce(Option<&SampleIndex>) -> R) -> R {
        let cache = self.index_cache.borrow();
        f(cache
            .as_ref()
            .map(|(index, _)| index)
            .filter(|index| index.absorbed_samples() == self.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random sorted sample list over `n` vertices.
    fn synth_samples(n: u32, count: usize) -> Vec<Vec<Vertex>> {
        let mut x = 0x9E3779B9u32;
        (0..count)
            .map(|i| {
                let len = i % 7;
                let mut s: Vec<Vertex> = (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(1103515245).wrapping_add(12345);
                        (x >> 8) % n
                    })
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    }

    /// The flat store, and the spill-kind store under its default budget
    /// and under `budget`.
    fn all_backends(n: u32, budget: usize) -> Vec<DynRrrStore> {
        vec![
            DynRrrStore::new(StorageConfig::of(RrrStoreKind::Flat), n),
            DynRrrStore::new(StorageConfig::of(RrrStoreKind::Spill), n),
            DynRrrStore::new(
                StorageConfig {
                    kind: RrrStoreKind::Spill,
                    budget: Some(budget),
                },
                n,
            ),
        ]
    }

    #[test]
    fn every_backend_round_trips_identically() {
        let n = 500;
        let samples = synth_samples(n, 300);
        for mut store in all_backends(n, 2048) {
            for s in &samples {
                store.push(s);
            }
            assert_eq!(store.len(), samples.len(), "{:?}", store.kind());
            let total: u64 = samples.iter().map(|s| s.len() as u64).sum();
            assert_eq!(store.total_entries(), total, "{:?}", store.kind());
            let mut out = Vec::new();
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(store.set(i).len(), s.len(), "{:?}", store.kind());
                store.decode_into(i, &mut out);
                assert_eq!(&out, s, "{:?} sample {i}", store.kind());
                let mut streamed = Vec::new();
                store.set(i).for_each(|v| streamed.push(v));
                assert_eq!(&streamed, s, "{:?} sample {i}", store.kind());
                for v in [0, n / 2, n - 1] {
                    assert_eq!(
                        store.set(i).contains(v),
                        s.binary_search(&v).is_ok(),
                        "{:?} sample {i} vertex {v}",
                        store.kind()
                    );
                }
            }
            assert!(store.resident_bytes() > 0);
            assert_eq!(store.unsorted_pushes(), 0);
        }
    }

    #[test]
    fn every_backend_repairs_unsorted_pushes() {
        for mut store in all_backends(100, 4096) {
            store.push(&[9, 3, 3, 7]);
            assert_eq!(store.unsorted_pushes(), 1, "{:?}", store.kind());
            let mut out = Vec::new();
            store.decode_into(0, &mut out);
            assert_eq!(out, vec![3, 7, 9], "{:?}", store.kind());
        }
    }

    #[test]
    fn arena_fill_matches_push_fill() {
        let n = 200;
        let samples = synth_samples(n, 64);
        let mut arenas = vec![SampleArena::new(n), SampleArena::new(n)];
        for (i, s) in samples.iter().enumerate() {
            arenas[i / 32].append_set(s);
        }
        for (mut via_arena, mut via_push) in
            all_backends(n, 4096).into_iter().zip(all_backends(n, 4096))
        {
            via_arena.append_arenas(&arenas);
            for s in &samples {
                via_push.push(s);
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            for i in 0..samples.len() {
                via_arena.decode_into(i, &mut a);
                via_push.decode_into(i, &mut b);
                assert_eq!(a, b, "{:?} sample {i}", via_arena.kind());
            }
        }
    }

    #[test]
    fn compressed_backends_shrink_storage() {
        use ripples_graph::{generators::standin, WeightModel};
        use ripples_rng::StreamFactory;
        /// What a varint sample store holds: a count and an end offset per
        /// sample, and its ids as gap varints.
        fn varint_bytes_of<'a>(sets: impl Iterator<Item = &'a [Vertex]>) -> usize {
            let gaps = |set: &[Vertex]| {
                let mut next = 0;
                set.iter()
                    .map(|&v| {
                        let gap = v - next;
                        next = v + 1;
                        ripples_graph::varint::varint_len(gap) as usize
                    })
                    .sum::<usize>()
            };
            sets.map(|set| 8 + gaps(set)).sum()
        }
        // Clustered sorted ids: the flat layout pays 4 bytes per entry,
        // varint gaps mostly 1 byte.
        let n = 1 << 14;
        let clustered: Vec<Vec<Vertex>> = (0..400u32)
            .map(|base| {
                let mut set: Vec<Vertex> = (0..48).map(|i| (base * 7 + i * 3) % n).collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let mut flat = MixedRrrCollection::new(n);
        for set in &clustered {
            RrrStore::push(&mut flat, set);
        }
        assert!(flat.as_flat().is_some(), "48 of 16384 is a list");
        // The figure EXPERIMENTS.md § "Beyond the paper" quotes: 3 000 IC
        // samples of the cit-HepTh stand-in with uniform probabilities, in
        // the paper's compact list layout, take 5 023 684 bytes against
        // 1 274 986 as varints (3.94×), both at their lengths.
        let graph =
            standin("cit-HepTh")
                .unwrap()
                .build(32, WeightModel::UniformRandom { seed: 8 }, false);
        let mut plain = RrrCollection::new();
        let factory = StreamFactory::new(21);
        let ic = crate::DiffusionModel::IndependentCascade;
        crate::sample_batch_sequential(&graph, ic, &factory, 0..3_000, &mut plain);
        for (label, plain_bytes, varint_bytes, min_ratio) in [
            (
                "clustered",
                flat.held_bytes(),
                varint_bytes_of(clustered.iter().map(Vec::as_slice)),
                3.5,
            ),
            (
                "cit-HepTh",
                8 * (plain.len() + 1) + 4 * plain.total_entries(),
                varint_bytes_of(plain.iter()),
                3.94,
            ),
        ] {
            assert!(
                varint_bytes as f64 * min_ratio < plain_bytes as f64,
                "{label}: varint {varint_bytes} not {min_ratio}× below flat {plain_bytes}"
            );
        }
    }

    #[test]
    fn bitmap_tiny_universe() {
        // n = 2: any non-empty set is denser than n/32, so it is a bitmap
        // of one word — or, holding all of n, a complement of no ids.
        let mut c = MixedRrrCollection::new(2);
        RrrStore::push(&mut c, &[0, 1]);
        RrrStore::push(&mut c, &[1]);
        RrrStore::push(&mut c, &[]);
        assert_eq!((c.bitmap_sets(), c.complement_sets()), (1, 1));
        assert_eq!((c.bitmap_bytes(), c.complement_bytes()), (8, 0));
        assert!(c.as_flat().is_none());
        let mut out = Vec::new();
        RrrStore::decode_into(&c, 0, &mut out);
        assert_eq!(out, vec![0, 1]);
        RrrStore::decode_into(&c, 1, &mut out);
        assert_eq!(out, vec![1]);
        assert!(c.set(1).contains(1) && !c.set(1).contains(0));
        RrrStore::decode_into(&c, 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dense_sets_round_trip_identically_through_every_backend() {
        let n = 640;
        let mut samples = synth_samples(n, 40);
        for (i, s) in samples.iter_mut().enumerate() {
            if i.is_multiple_of(3) {
                *s = (0..n)
                    .filter(|v| !(v + i as u32).is_multiple_of(5))
                    .collect();
            }
        }
        let mut arena = SampleArena::new(n);
        for s in &samples {
            arena.append_set(s);
        }
        assert!(arena.bitmap_sets() > 0);
        for (mut pushed, mut merged) in all_backends(n, 2048).into_iter().zip(all_backends(n, 2048))
        {
            for s in &samples {
                pushed.push(s);
            }
            merged.append_arenas(std::slice::from_ref(&arena));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (i, s) in samples.iter().enumerate() {
                pushed.decode_into(i, &mut a);
                merged.decode_into(i, &mut b);
                assert_eq!(&a, s, "{:?} pushed sample {i}", pushed.kind());
                assert_eq!(&b, s, "{:?} merged sample {i}", merged.kind());
                assert_eq!(merged.set(i).len(), s.len());
                assert_eq!(merged.set(i).contains(7), s.binary_search(&7).is_ok());
            }
            assert_eq!(pushed.total_entries(), merged.total_entries());
            assert_eq!(pushed.resident_bytes() > 0, merged.resident_bytes() > 0);
            let bitmaps =
                |store: &DynRrrStore| store.as_mixed().map(MixedRrrCollection::bitmap_sets);
            assert_eq!(bitmaps(&pushed), bitmaps(&merged));
            assert_eq!(bitmaps(&pushed), Some(arena.bitmap_sets()));
            assert!(pushed.as_flat().is_none());
        }
    }

    /// A spill-kind store under `budget`.
    fn spill_store(n: u32, budget: usize) -> DynRrrStore {
        let config = StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(budget),
        };
        DynRrrStore::new(config, n)
    }

    /// Pushes `samples` in batches of 100 into a store that released its
    /// first sample, running `check` after each batch.
    fn release_and_fill(
        store: &mut DynRrrStore,
        n: u32,
        samples: &[Vec<Vertex>],
        mut check: impl FnMut(&DynRrrStore),
    ) {
        store.push(&samples[0]);
        store.release_samples(n, 1);
        for batch in samples[1..].chunks(100) {
            for s in batch {
                store.push(s);
                check(store);
            }
            store.finish_batch();
            check(store);
        }
    }

    #[test]
    fn spill_store_spills_and_reads_back() {
        // Under a 4 KiB budget a released store's index spills its sealed
        // segments, and every row reads back whole.
        let n = 1000;
        let samples = synth_samples(n, 2000);
        let mut store = spill_store(n, 4096);
        release_and_fill(&mut store, n, &samples, |_| ());
        assert!(store.spill_bytes_written() > 0, "a 4 KiB budget must spill");
        assert_eq!(store.spill_write_failures(), 0);
        let c: RrrCollection = samples.into_iter().collect();
        store.with_current_index(|index| {
            let index = index.expect("the index holds every sample");
            crate::sample_index::tests::assert_matches_the_definition(index, &c);
        });
    }

    #[test]
    fn spill_store_without_pressure_stays_in_ram() {
        let n = 100;
        let samples = synth_samples(n, 50);
        let mut kept = spill_store(n, StorageConfig::DEFAULT_BUDGET);
        for s in &samples {
            kept.push(s);
        }
        kept.finish_batch();
        kept.with_sample_index(n, 1, |_| ());
        let mut released = spill_store(n, StorageConfig::DEFAULT_BUDGET);
        release_and_fill(&mut released, n, &samples, |_| ());
        for store in [&kept, &released] {
            assert_eq!(store.spill_bytes_written(), 0);
            assert_eq!(store.indexed_samples(), samples.len());
        }
        let mut out = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            kept.decode_into(i, &mut out);
            assert_eq!(&out, s);
        }
    }

    #[test]
    fn unspilled_arena_merge_holds_no_growth_slack() {
        // A kept store reports its samples at their lengths once a batch
        // ends, whatever its budget: here 74 000 sets of ~32 ids merged from
        // two arenas, past an 8 MiB budget.
        let n = 1 << 14;
        let mut arenas = vec![SampleArena::new(n), SampleArena::new(n)];
        let mut x = 0x2545_F491u32;
        for i in 0..74_000usize {
            let mut set: Vec<Vertex> = (0..32)
                .map(|_| {
                    x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                    (x >> 8) % n
                })
                .collect();
            set.sort_unstable();
            set.dedup();
            arenas[i % 2].append_set(&set);
        }
        let mut store = spill_store(n, 8 << 20);
        store.append_arenas(&arenas);
        assert_eq!(store.spill_bytes_written(), 0);
        assert!(store.resident_bytes() > 8 << 20);
        assert_eq!(store.resident_bytes(), store.sets.held_bytes());
    }

    #[test]
    fn a_released_stage_reserves_no_more_than_its_limit() {
        // Its buffers grow toward the stage's limit, not past it: by the
        // held bytes half the budget leaves, and without a budget by the
        // 8·(n + 1) entries (here 488 ids of ~3 ids a set).
        let n = 60;
        let samples = synth_samples(n, 3000);
        let largest = samples.iter().map(|s| 16 + 4 * s.len()).max().unwrap();
        for budget in [2048, StorageConfig::DEFAULT_BUDGET] {
            let mut store = spill_store(n, budget);
            let limit = StageLimit::new(n, Some(budget));
            let mut peak = 0;
            release_and_fill(&mut store, n, &samples, |store| {
                peak = peak.max(store.resident_bytes());
            });
            let bound = if budget == 2048 {
                limit.bytes + largest
            } else {
                // At most 488 entries and as many offsets, by a quarter.
                let entries = limit.entries as usize;
                4 * entries + 8 * (entries + 1)
            };
            assert!(
                peak <= bound,
                "budget {budget}: stage peak {peak} > {bound}"
            );
            assert!(peak > bound / 4, "budget {budget}: {peak} never filled");
        }
    }

    #[test]
    fn a_cooling_sizes_the_stage_by_the_hot_rows() {
        // n = 60: after a cooling that leaves the four hubs hot, an
        // unbudgeted stage holds 8·(h + 1) hot entries' worth, below the
        // 488 entries it started with, and reserves no more than that
        // limit and one set; a budgeted stage keeps its limits, and its
        // index the room beside it.
        let n = 60;
        // Every sample holds one of the hubs 0..4 besides ~3 other ids, so
        // the hubs' rows hold a third of the entries.
        let samples: Vec<Vec<Vertex>> = synth_samples(n, 3000)
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                s.retain(|&v| v >= 4);
                s.insert(0, i as Vertex % 4);
                s
            })
            .collect();
        let largest = samples.iter().map(|s| 16 + 4 * s.len()).max().unwrap();
        for budget in [None, Some(2048)] {
            let mut store = match budget {
                None => DynRrrStore::new(StorageConfig::default(), n),
                Some(budget) => spill_store(n, budget),
            };
            let (first, rest) = samples.split_at(1500);
            release_and_fill(&mut store, n, first, |_| ());
            let before = store.released.stage_limit.expect("released");
            let room = store.index_room();
            store.with_sample_index(n, 1, |_| ());
            let tau = store.with_current_index(|index| {
                let hubs = &index.expect("an index").degrees()[..4];
                u64::from(*hubs.iter().min().unwrap())
            });
            let (cooled, rows) = store.cool_index_below(tau);
            assert_eq!((cooled, rows), (n as usize - 4, 4), "{budget:?}");
            let after = store.released.stage_limit.expect("released");
            assert_eq!(store.stage_entries_limit(), after.entries);
            assert_eq!(after.bytes, before.bytes, "{budget:?}");
            if budget.is_some() {
                assert_eq!(after.entries, before.entries);
            } else {
                assert!(after.entries < before.entries);
                assert!(after.entries >= 8 * (rows as u64 + 1));
                assert!(store.sets.is_empty(), "the stage was freed");
            }
            assert_eq!(store.index_room(), room, "{budget:?}");
            let mut peak = 0;
            for batch in rest.chunks(100) {
                for s in batch {
                    store.push(s);
                    peak = peak.max(store.resident_bytes());
                }
                store.finish_batch();
            }
            if budget.is_none() {
                let entries = after.entries as usize;
                let bound = 4 * entries + 8 * (entries + 1) + largest;
                assert!(peak <= bound, "stage peak {peak} > {bound}");
            }
            let c: RrrCollection = samples.iter().cloned().collect();
            store.with_current_index(|index| {
                let index = index.expect("the index holds every sample");
                crate::sample_index::tests::assert_matches_the_definition(index, &c);
            });
        }
    }

    #[test]
    fn spill_resident_bytes_stay_near_budget() {
        // The stage and the index together stay within the budget plus one
        // sealed segment (a 4·(n + 1)-byte table and its rows), and below
        // the flat layout of the same samples.
        let n = 1000;
        let samples = synth_samples(n, 4000);
        let budget = 16 << 10;
        let mut store = spill_store(n, budget);
        let segment = 4 * (n as usize + 1) + budget / 2;
        let mut peak = 0;
        release_and_fill(&mut store, n, &samples, |store| {
            let index = store.with_current_index(|index| index.map_or(0, |i| i.resident_bytes()));
            peak = peak.max(store.resident_bytes() + index);
        });
        assert!(store.spill_bytes_written() > 0);
        assert!(
            peak <= budget + segment,
            "stage and index {peak} exceed budget {budget} + one segment {segment}"
        );
        let flat: RrrCollection = samples.into_iter().collect();
        assert!(peak < flat.resident_bytes());
    }

    #[test]
    fn cached_index_is_left_alone_while_the_store_is_unchanged() {
        let n = 300;
        let samples = synth_samples(n, 200);
        for mut store in all_backends(n, 2048) {
            assert_eq!(store.indexed_samples(), 0);
            let (half, rest) = samples.split_at(120);
            for s in half {
                store.push(s);
            }
            let observe = |store: &DynRrrStore| {
                store.with_sample_index(n, 2, |index| {
                    (index.absorbed_samples(), index.resident_bytes())
                })
            };
            let first = observe(&store);
            assert_eq!(first.0, 120);
            assert_eq!(observe(&store), first, "{:?}", store.kind());
            assert_eq!(store.indexed_samples(), 120);
            for s in rest {
                store.push(s);
            }
            assert_eq!(observe(&store).0, 200, "{:?}", store.kind());
        }
    }

    #[test]
    fn a_kept_store_drops_its_index_at_the_u32_limit() {
        // No test holds u32::MAX samples: `released.samples` stands in for
        // the u32::MAX - 1 samples before the store's second one, as if the
        // store held them.
        let n = 8;
        let mut store = DynRrrStore::new(StorageConfig::default(), n);
        store.push(&[1, 2]);
        store.with_sample_index(n, 1, |_| ());
        assert_eq!(store.indexed_samples(), 1);
        store.released.samples = u32::MAX as usize - 1;
        store.push(&[3]);
        store.finish_batch();
        // Selection dispatch sends such a store down the index-free route,
        // which reads its samples.
        assert_eq!(store.len(), u32::MAX as usize + 1);
        assert_eq!(store.indexed_samples(), 0);
        assert!(store.with_current_index(|index| index.is_none()));
        assert_eq!(store.set(u32::MAX as usize).len(), 1);
        store.push(&[4, 5, 6]);
        store.finish_batch();
        assert_eq!(store.indexed_samples(), 0);
        assert_eq!(store.set(u32::MAX as usize + 1).len(), 3);
    }

    #[test]
    fn a_released_store_grows_its_index_from_a_bounded_stage() {
        // A 328-entry stage over 600 samples of ~3 entries: several
        // absorbs per batch, by push and by arena.
        let n = 40;
        let c: RrrCollection = synth_samples(n, 600).into_iter().collect();
        let mut store = DynRrrStore::new(StorageConfig::default(), n);
        for set in c.iter().take(50) {
            store.push(set);
        }
        store.release_samples(n, 2);
        assert_eq!(store.len(), 50);
        assert!(store.as_mixed().is_none() && store.as_flat().is_none());
        fn stage(store: &DynRrrStore) -> &MixedRrrCollection {
            &store.sets
        }
        let limit = store.released.stage_limit.expect("released").entries;
        let mut absorbs_within_batches = 0;
        for set in c.iter().take(300).skip(50) {
            let before = store.indexed_samples();
            store.push(set);
            absorbs_within_batches += usize::from(store.indexed_samples() != before);
            assert!(stage(&store).total_entries() <= limit);
        }
        let last = store.len() - 1;
        assert_eq!(store.set(last).len(), c.get(last).len());
        store.finish_batch();
        for block in (300..600).step_by(64) {
            let mut arena = SampleArena::new(n);
            for j in block..(block + 64).min(600) {
                arena.append_set(c.get(j));
            }
            let before = store.indexed_samples();
            store.append_arena(&arena);
            absorbs_within_batches += usize::from(store.indexed_samples() != before);
            assert!(stage(&store).total_entries() <= limit);
        }
        store.finish_batch();
        assert!(stage(&store).is_empty());
        assert!(absorbs_within_batches > 3, "{absorbs_within_batches}");
        assert_eq!(store.len(), c.len());
        assert_eq!(store.total_entries(), c.total_entries() as u64);
        assert_eq!(store.unsorted_pushes(), 0);
        let mut kept = MixedRrrCollection::new(n);
        for set in c.iter() {
            kept.push(set);
        }
        assert!(kept.bitmap_sets() > 0);
        assert_eq!(store.form_counts(), kept.form_counts());
        store.with_current_index(|index| {
            let index = index.expect("the index holds every sample");
            crate::sample_index::tests::assert_matches_the_definition(index, &c);
        });
    }

    #[test]
    #[should_panic(expected = "lives only in the inverted index")]
    fn an_absorbed_sample_is_not_held_sample_major() {
        let mut store = DynRrrStore::new(StorageConfig::default(), 4);
        store.push(&[1, 2]);
        store.release_samples(4, 1);
        let _ = store.set(0);
    }

    #[test]
    fn the_default_store_is_flat() {
        let store = DynRrrStore::new(StorageConfig::default(), 10);
        assert_eq!(store.kind(), RrrStoreKind::Flat);
        assert!(store.as_flat().is_some());
    }
}
