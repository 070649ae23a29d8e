//! Pluggable RRR-set storage backends behind one [`RrrStore`] trait.
//!
//! The paper's engines hold every sketch flat in RAM
//! ([`RrrCollection`]); HBMax-style byte-level compression (see PAPERS.md)
//! shows the same pipelines run several-fold larger θ when the resident
//! sketches are delta-coded. This module makes the storage layout a
//! first-class choice:
//!
//! * [`MixedRrrCollection`] — `--rrr-store flat`: uncompressed and directly
//!   addressable. Each set is a sorted `u32` list, an n-bit bitmap once it
//!   spans more than n/32 vertices, or the sorted list of the vertices it
//!   leaves out once it spans more than 31n/32 ([`crate::mixed::set_form`]).
//!   While no set is that dense the store is exactly the paper's
//!   [`RrrCollection`] and the slice selection engines binary-search it
//!   directly; the bitwise baseline for every other backend.
//! * [`SpillRrrStore`] — `--rrr-store spill`: LEB128 delta-varint blocks
//!   (the codec of [`crate::compressed`]) sealed into chunks, typically
//!   2–4× smaller on sparse sets. Sealed chunks beyond a `--rrr-budget`
//!   byte cap are written to a temp spill file and streamed back on touch,
//!   so θ beyond RAM completes instead of OOMing; below the cap nothing
//!   touches the disk.
//!
//! All backends fill through the same two paths — per-sample
//! [`RrrStore::push`] and the [`SampleArena`] merge of the streamed
//! samplers, one [`RrrStore::append_arena`] per block and one
//! [`RrrStore::finish_batch`] per batch — in the same sample order, so
//! every backend decodes bitwise identical to the list reference and the
//! cross-engine equality invariants extend across storage layouts. The
//! differential oracle's `storage-equivalence` check enforces exactly that.

use crate::compressed::{block_contains, check_block, decode_sample, encode_set};
use crate::intervals::Streamed;
use crate::mixed::{FormCounts, MixedRrrCollection, RrrSetRef, SampleArena};
use crate::rrr::RrrCollection;
use crate::sample_index::SampleIndex;
use crate::spill::SpillFile;
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

    /// Vertex count of sample `i` without decoding it.
    fn sample_len(&self, i: usize) -> usize;

    /// Decodes sample `i` into `out` (cleared first).
    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>);

    /// Streams the vertices of sample `i` to `f` in ascending order.
    fn for_each_vertex<F: FnMut(Vertex)>(&self, i: usize, f: F);

    /// Membership test on sample `i` (early exit on the sorted order).
    fn contains(&self, i: usize, v: Vertex) -> bool;

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
    /// The default builds a [`SampleIndex`] from scratch on every call,
    /// streaming the samples; [`DynRrrStore`] — the type every engine entry
    /// point and the serve mode actually run — keeps one, grows it at every
    /// batch's end and absorbs here only what no batch end has, with up to
    /// `owners` vertex-interval owners where its layout can serve them, so a
    /// θ-doubling round pays for its *new* samples and a query over a sealed
    /// sketch pays nothing.
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
        index.absorb(&Streamed(self), owners);
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

    /// The backend's kind tag.
    fn kind(&self) -> RrrStoreKind;
}

/// The available storage backends (`--rrr-store`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RrrStoreKind {
    /// Uncompressed, directly addressable: sorted lists, bitmaps for sets
    /// above n/32 vertices and complements for those above 31n/32
    /// ([`MixedRrrCollection`]).
    Flat,
    /// Delta-varint chunks, spilled to disk beyond a byte budget
    /// ([`SpillRrrStore`]).
    Spill,
}

impl RrrStoreKind {
    /// Parses a CLI tag (`--rrr-store flat|spill`).
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "flat" => Some(Self::Flat),
            "spill" => Some(Self::Spill),
            _ => None,
        }
    }

    /// The CLI tag of this kind.
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
    /// Resident-byte cap for the spill backend (`--rrr-budget`); ignored by
    /// the flat backend. `None` uses [`SpillRrrStore::DEFAULT_BUDGET`].
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

    fn sample_len(&self, i: usize) -> usize {
        self.get(i).len()
    }

    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        out.clear();
        out.extend_from_slice(self.get(i));
    }

    fn for_each_vertex<F: FnMut(Vertex)>(&self, i: usize, mut f: F) {
        for &v in self.get(i) {
            f(v);
        }
    }

    fn contains(&self, i: usize, v: Vertex) -> bool {
        self.get(i).binary_search(&v).is_ok()
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

    fn kind(&self) -> RrrStoreKind {
        RrrStoreKind::Flat
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

    fn sample_len(&self, i: usize) -> usize {
        self.set(i).len()
    }

    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        out.clear();
        match self.set(i) {
            RrrSetRef::List(list) => out.extend_from_slice(list),
            set => set.for_each(|v| out.push(v)),
        }
    }

    fn for_each_vertex<F: FnMut(Vertex)>(&self, i: usize, f: F) {
        self.set(i).for_each(f);
    }

    fn contains(&self, i: usize, v: Vertex) -> bool {
        self.set(i).contains(v)
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

    fn kind(&self) -> RrrStoreKind {
        RrrStoreKind::Flat
    }
}

/// Where a sealed chunk's encoded payload lives.
#[derive(Debug)]
enum ChunkPayload {
    /// Still resident.
    Ram(Vec<u8>),
    /// Written to the spill file at `offset`, `len` bytes.
    Disk { offset: u64, len: usize },
}

/// One sealed run of consecutive samples, varint-encoded.
#[derive(Debug)]
struct Chunk {
    /// Global index of the chunk's first sample.
    first_sample: usize,
    /// Per-sample vertex counts.
    counts: Vec<u32>,
    /// Per-sample end byte offsets within the payload.
    ends: Vec<u32>,
    payload: ChunkPayload,
}

impl Chunk {
    fn samples(&self) -> usize {
        self.counts.len()
    }

    /// Counts and offsets, and the payload while it is in RAM.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.counts.capacity() + self.ends.capacity()) * size_of::<u32>()
            + match &self.payload {
                ChunkPayload::Ram(bytes) => bytes.capacity(),
                ChunkPayload::Disk { .. } => 0,
            }
    }
}

/// Payload byte range of a chunk's `j`-th block.
fn block_range(ends: &[u32], j: usize) -> std::ops::Range<usize> {
    let start = if j == 0 { 0 } else { ends[j - 1] as usize };
    start..ends[j] as usize
}

/// The delta-varint RRR store: blocks sealed into chunks; once resident
/// bytes exceed the budget, sealed chunk payloads are appended to a temp
/// spill file and read back on touch through a one-chunk cache. Per-sample
/// counts and offsets stay resident (8 bytes per sample), so
/// `sample_len`/`len` never touch the disk and access within a loaded chunk
/// is O(1). Under its budget the store never opens a file and is simply the
/// compressed in-RAM layout: a sealed chunk gives its growth slack back, and
/// so does the open chunk at the end of a sampling batch, so what it reports
/// resident is 8 bytes per sample plus the encoded bytes. The encoding runs
/// on the merging thread while the other workers keep sampling.
///
/// The access patterns of selection — a sequential counting sweep, then
/// per-seed touches in ascending sample order — load each spilled chunk a
/// bounded number of times per pass, so a budget-bound run completes with
/// streaming reads instead of OOMing.
///
/// A spill file that cannot be created or written (`TMPDIR` missing,
/// read-only or full) degrades the store instead of ending the run: the
/// chunk stays resident, spilling stops, one warning goes to stderr and
/// [`RrrStore::spill_write_failures`] counts it — the run completes over
/// budget with the same samples. Reading a chunk back is different: once
/// the only copy of a chunk is on disk, a vanished or truncated spill file
/// is not recoverable, and that read panics naming the file (the rules of
/// the one spill-file helper, which the inverted index's segments share).
#[derive(Debug)]
pub struct SpillRrrStore {
    budget: usize,
    /// Seal the open chunk when its payload reaches this many bytes.
    chunk_target: usize,
    /// The most payload bytes one chunk may hold: its end offsets are
    /// `u32`. A block that would carry the open chunk past it opens the
    /// next chunk instead.
    payload_limit: usize,
    chunks: Vec<Chunk>,
    /// Chunks on disk. Spilling goes oldest first and stops for good at the
    /// first failed write, so they are always `chunks[..spilled]`.
    spilled: usize,
    /// Resident bytes of the sealed chunks, kept as chunks seal and spill
    /// so that the budget check each push makes costs O(1).
    sealed_bytes: usize,
    /// The open chunk's state (same layout as a sealed RAM chunk).
    open_first: usize,
    open_counts: Vec<u32>,
    open_ends: Vec<u32>,
    open_data: Vec<u8>,
    spill: SpillFile,
    total_entries: u64,
    unsorted_pushes: u64,
    /// `(chunk index, payload)` of the most recently loaded spilled chunk.
    cache: RefCell<Option<(usize, Vec<u8>)>>,
}

impl SpillRrrStore {
    /// Default resident budget when none is configured: 1 GiB.
    pub const DEFAULT_BUDGET: usize = 1 << 30;

    /// Creates a store with the given resident-byte budget.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Self::with_payload_limit(budget, u32::MAX as usize)
    }

    /// [`SpillRrrStore::new`] with the most payload bytes a chunk may hold
    /// lowered from the `u32` offset range.
    pub(crate) fn with_payload_limit(budget: usize, payload_limit: usize) -> Self {
        // Small budgets must still seal (and therefore spill) promptly; big
        // budgets want fewer, larger chunks for sequential I/O.
        let chunk_target = (budget / 4).clamp(1 << 10, 8 << 20);
        Self {
            budget,
            chunk_target,
            payload_limit,
            chunks: Vec::new(),
            spilled: 0,
            sealed_bytes: 0,
            open_first: 0,
            open_counts: Vec::new(),
            open_ends: Vec::new(),
            open_data: Vec::new(),
            spill: SpillFile::new("RRR sets"),
            total_entries: 0,
            unsorted_pushes: 0,
            cache: RefCell::new(None),
        }
    }

    /// Adopts a deserialized block stream — `offsets` bounds each sample's
    /// block in `data`, `counts` holds the per-sample vertex counts — and
    /// cuts it into chunks under `budget`, re-validating every invariant a
    /// push sequence would have established: offsets start at 0, stay
    /// monotone, and end at `data.len()`; every block passes the codec's
    /// checked decode. The snapshot-restore path turns the message into a
    /// structured error instead of panicking inside the unchecked hot-path
    /// decoder.
    ///
    /// # Errors
    ///
    /// Any violated invariant, as human-readable text naming the field.
    fn from_blocks(
        offsets: &[usize],
        counts: &[u32],
        data: &[u8],
        budget: usize,
    ) -> Result<Self, String> {
        if offsets.len() != counts.len() + 1 {
            return Err(format!(
                "offsets length {} != counts length {} + 1",
                offsets.len(),
                counts.len()
            ));
        }
        if offsets[0] != 0 {
            return Err("offsets[0] must be 0".to_string());
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets[{}] > offsets[{}]", i, i + 1));
        }
        if offsets[counts.len()] != data.len() {
            return Err(format!(
                "offsets[{}] = {} != data length {}",
                counts.len(),
                offsets[counts.len()],
                data.len()
            ));
        }
        let mut store = Self::new(budget);
        for (i, &count) in counts.iter().enumerate() {
            let block = &data[offsets[i]..offsets[i + 1]];
            check_block(block, count).map_err(|e| format!("sample {i}: {e}"))?;
            store.push_block(count, |data| data.extend_from_slice(block));
        }
        store.shrink_open();
        Ok(store)
    }

    /// The configured resident budget in bytes.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of chunks currently on disk.
    #[must_use]
    pub fn spilled_chunks(&self) -> usize {
        self.spilled
    }

    /// Visits the chunks in sample order — sealed ones, read back from the
    /// spill file where that is where they live, then the open one — as
    /// `(counts, end offsets within the payload, payload)`.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u32], &[u32], &[u8])) {
        for (idx, chunk) in self.chunks.iter().enumerate() {
            self.with_chunk_payload(idx, |bytes| f(&chunk.counts, &chunk.ends, bytes));
        }
        if !self.open_counts.is_empty() {
            f(&self.open_counts, &self.open_ends, &self.open_data);
        }
    }

    /// Appends one strictly ascending set, in either arena form.
    fn push_set(&mut self, set: RrrSetRef<'_>) {
        let count = u32::try_from(set.len()).expect("an RRR set holds at most u32::MAX vertices");
        self.push_block(count, |data| encode_set(data, set));
    }

    /// Appends the `count`-vertex block `write` puts at the open chunk's
    /// tail, then seals and spills as the chunk target and the budget say.
    fn push_block(&mut self, count: u32, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.open_data.len();
        write(&mut self.open_data);
        if self.open_data.len() > self.payload_limit && start > 0 {
            // Past the limit the chunk's end offsets would not fit: the
            // block opens the next chunk.
            let block = self.open_data.split_off(start);
            self.seal_open();
            self.open_data = block;
        }
        let end = u32::try_from(self.open_data.len()).expect("one block fits the u32 offset range");
        self.open_counts.push(count);
        self.open_ends.push(end);
        self.total_entries += u64::from(count);
        if self.open_data.len() >= self.chunk_target {
            self.seal_open();
        }
        self.enforce_budget();
        self.check_sealed_bytes();
    }

    /// Gives the open chunk's `Vec` growth slack back: `resident_bytes`
    /// reports capacity, and slack that outlives the fill would show up as
    /// phantom peak bytes.
    fn shrink_open(&mut self) {
        self.open_counts.shrink_to_fit();
        self.open_ends.shrink_to_fit();
        self.open_data.shrink_to_fit();
    }

    fn seal_open(&mut self) {
        if self.open_counts.is_empty() {
            return;
        }
        self.shrink_open();
        let samples = self.open_counts.len();
        let chunk = Chunk {
            first_sample: self.open_first,
            counts: std::mem::take(&mut self.open_counts),
            ends: std::mem::take(&mut self.open_ends),
            payload: ChunkPayload::Ram(std::mem::take(&mut self.open_data)),
        };
        self.sealed_bytes += chunk.resident_bytes();
        self.chunks.push(chunk);
        self.open_first += samples;
        self.check_sealed_bytes();
    }

    fn enforce_budget(&mut self) {
        // Oldest sealed RAM chunks spill first: selection touches samples
        // in ascending order, so the freshest (still-filling) tail stays
        // hot while the cold head streams from disk.
        while self.spill.writable()
            && self.spilled < self.chunks.len()
            && RrrStore::resident_bytes(self) > self.budget
        {
            let idx = self.spilled;
            let ChunkPayload::Ram(bytes) = &self.chunks[idx].payload else {
                unreachable!("chunks past the spilled prefix are resident");
            };
            let (len, freed) = (bytes.len(), bytes.capacity());
            // A failed write leaves the chunk resident.
            let Some(offset) = self.spill.append(&[bytes]) else {
                return;
            };
            self.chunks[idx].payload = ChunkPayload::Disk { offset, len };
            self.sealed_bytes -= freed;
            self.spilled += 1;
            self.check_sealed_bytes();
        }
    }

    /// Debug builds recount what `sealed_bytes` tracks.
    fn check_sealed_bytes(&self) {
        debug_assert_eq!(
            self.sealed_bytes,
            self.chunks.iter().map(Chunk::resident_bytes).sum::<usize>(),
            "tracked sealed-chunk bytes drifted"
        );
    }

    /// Index of the chunk holding global sample `i`, or `None` when `i`
    /// lives in the open chunk.
    fn chunk_of(&self, i: usize) -> Option<usize> {
        if i >= self.open_first {
            return None;
        }
        let idx = self
            .chunks
            .partition_point(|c| c.first_sample + c.samples() <= i);
        debug_assert!(idx < self.chunks.len());
        Some(idx)
    }

    /// Runs `f` over the payload of sealed chunk `idx`, loading it from
    /// disk (into the one-chunk cache) when spilled.
    fn with_chunk_payload<T>(&self, idx: usize, f: impl FnOnce(&[u8]) -> T) -> T {
        match &self.chunks[idx].payload {
            ChunkPayload::Ram(bytes) => f(bytes),
            ChunkPayload::Disk { offset, len } => {
                let mut cache = self.cache.borrow_mut();
                let hit = matches!(&*cache, Some((c, _)) if *c == idx);
                if !hit {
                    let mut bytes = vec![0u8; *len];
                    self.spill.read_at(*offset, &mut bytes);
                    *cache = Some((idx, bytes));
                }
                let (_, bytes) = cache.as_ref().expect("cache just filled");
                f(bytes)
            }
        }
    }

    /// Runs `f` over the block of sample `i` and its vertex count.
    fn with_sample_bytes<T>(&self, i: usize, f: impl FnOnce(&[u8], u32) -> T) -> T {
        match self.chunk_of(i) {
            None => {
                let j = i - self.open_first;
                f(
                    &self.open_data[block_range(&self.open_ends, j)],
                    self.open_counts[j],
                )
            }
            Some(idx) => {
                let chunk = &self.chunks[idx];
                let j = i - chunk.first_sample;
                self.with_chunk_payload(idx, |bytes| {
                    f(&bytes[block_range(&chunk.ends, j)], chunk.counts[j])
                })
            }
        }
    }
}

impl RrrStore for SpillRrrStore {
    fn push(&mut self, vertices: &[Vertex]) {
        if vertices.windows(2).all(|w| w[0] < w[1]) {
            self.push_set(RrrSetRef::List(vertices));
        } else {
            self.unsorted_pushes += 1;
            let mut repaired = vertices.to_vec();
            repaired.sort_unstable();
            repaired.dedup();
            self.push_set(RrrSetRef::List(&repaired));
        }
    }

    /// Arena content is already validated sorted; repairs that happened
    /// inside the arena carry over into `unsorted_pushes`. A set the arena
    /// holds as a bitmap or a complement is encoded from that form, never
    /// through a list.
    fn append_arena(&mut self, arena: &SampleArena) {
        for set in arena.iter() {
            self.push_set(set);
        }
        self.unsorted_pushes += arena.unsorted_pushes();
    }

    /// The open chunk gives its growth slack back (a sealed one already
    /// did when it was sealed).
    fn finish_batch(&mut self) {
        self.shrink_open();
    }

    fn len(&self) -> usize {
        self.open_first + self.open_counts.len()
    }

    fn total_entries(&self) -> u64 {
        self.total_entries
    }

    fn sample_len(&self, i: usize) -> usize {
        match self.chunk_of(i) {
            None => self.open_counts[i - self.open_first] as usize,
            Some(idx) => {
                let chunk = &self.chunks[idx];
                chunk.counts[i - chunk.first_sample] as usize
            }
        }
    }

    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        out.clear();
        self.for_each_vertex(i, |v| out.push(v));
    }

    fn for_each_vertex<F: FnMut(Vertex)>(&self, i: usize, f: F) {
        self.with_sample_bytes(i, |bytes, count| {
            let mut pos = 0usize;
            decode_sample(bytes, &mut pos, count, f);
            debug_assert_eq!(pos, bytes.len());
        });
    }

    fn contains(&self, i: usize, target: Vertex) -> bool {
        self.with_sample_bytes(i, |bytes, count| block_contains(bytes, count, target))
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let cache = self
            .cache
            .borrow()
            .as_ref()
            .map_or(0, |(_, bytes)| bytes.capacity());
        self.sealed_bytes
            + (self.open_counts.capacity() + self.open_ends.capacity()) * size_of::<u32>()
            + self.open_data.capacity()
            + cache
    }

    fn unsorted_pushes(&self) -> u64 {
        self.unsorted_pushes
    }

    fn spill_bytes_written(&self) -> u64 {
        self.spill.bytes_written()
    }

    fn spill_write_failures(&self) -> u64 {
        self.spill.write_failures()
    }

    fn kind(&self) -> RrrStoreKind {
        RrrStoreKind::Spill
    }
}

/// The concrete layout behind a [`DynRrrStore`].
#[derive(Debug)]
enum DynStoreInner {
    /// Sorted lists, or bitmaps and complements for dense sets.
    Flat(MixedRrrCollection),
    /// Delta-varint chunks with spill-to-disk.
    Spill(SpillRrrStore),
}

macro_rules! dyn_delegate {
    ($self:expr, $store:ident => $body:expr) => {
        match $self {
            DynStoreInner::Flat($store) => $body,
            DynStoreInner::Spill($store) => $body,
        }
    };
}

/// Entries per vertex a store that released its samples stages before it
/// absorbs them. At one byte or more per entry, a segment absorbed from a
/// full stage holds at least twice its `4·(n + 1)`-byte offsets table in
/// rows, so the tables stay a minor share of the index at any θ. A larger
/// stage saves less table than it costs itself: on a 200 000-vertex sparse
/// IC run, 16 per vertex held 4 MB less index and 12 MB more stage than 8,
/// and 4 held 8 MB more index.
const STAGE_ENTRIES_PER_VERTEX: u64 = 8;

/// What a released store's stage holds before the index absorbs it.
#[derive(Clone, Copy, Debug)]
struct StageLimit {
    entries: u64,
    /// Bytes at the stage's lengths ([`MixedRrrCollection::held_bytes`]):
    /// half the budget, so that with the growth slack of its buffers the
    /// stage stays within the budget; unbounded without one.
    bytes: usize,
}

impl StageLimit {
    fn new(num_vertices: u32, budget: Option<usize>) -> Self {
        Self {
            entries: STAGE_ENTRIES_PER_VERTEX * (u64::from(num_vertices) + 1),
            bytes: budget.map_or(usize::MAX, |budget| budget / 2),
        }
    }

    /// Whether `(entries, bytes)` fit the stage.
    fn admits(self, (entries, bytes): (u64, usize)) -> bool {
        entries <= self.entries && bytes <= self.bytes
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
/// ([`DynRrrStore::release_samples`]), counted, and the spill files it no
/// longer holds (a released spill store's, an index given up at the `u32`
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
    /// Counts the samples and spill file of `store`, which is let go.
    fn retire<S: RrrStore>(&mut self, store: &S) {
        self.samples += store.len();
        self.entries += store.total_entries();
        self.unsorted_pushes += store.unsorted_pushes();
        self.forms += store.form_counts();
        self.spill_bytes_written += store.spill_bytes_written();
        self.spill_write_failures += store.spill_write_failures();
    }
}

/// A runtime-chosen storage backend (`--rrr-store`), dispatching the
/// [`RrrStore`] trait over the two concrete layouts.
///
/// Owns the [`SampleIndex`] behind [`RrrStore::with_sample_index`], whatever
/// the layout, with one lifecycle: no index exists until the first indexed
/// pass builds it, and from then on every [`RrrStore::finish_batch`] absorbs
/// the batch's samples with the interval owners the index was built with.
/// IMM selects over the same (append-only) store every θ round and the serve
/// mode over a sealed one for every query, so a pass finds the index up to
/// date. The index is not part of a snapshot: a restored service builds it
/// on its first indexed query.
///
/// A spill-kind store's `--rrr-budget` bounds the samples it holds *and*
/// the index: at every absorb the index gets what the budget leaves beside
/// the samples ([`SampleIndex::limit_resident`]) and spills its oldest
/// sealed segments to fit, so the two stay within the budget plus one
/// segment (and the index's degrees, when the budget is smaller than they
/// are). [`RrrStore::resident_bytes`] reports the samples alone, and the
/// index is reported on its own, through `SelectStats::index_bytes`; what
/// either spills adds to [`RrrStore::spill_bytes_written`]. A flat store has
/// no budget, and its index stays resident.
///
/// A batch run that selects from the index alone releases the samples
/// ([`DynRrrStore::release_samples`]), whichever the layout: as a rule after
/// the first batch's 64-sample prefix, mid-batch, and otherwise the whole
/// first round at the first selection pass. From then on every sample waits
/// in a flat stage of at most `8 · (n + 1)` entries — and, under a budget,
/// half the budget's bytes — but always room for one sample, absorbed into
/// the index at its global sample ids and cleared when full and at every
/// batch's end, so the index grows while sampling runs (and spills sealed
/// segments under the budget as it does) and no sample-major copy of the
/// population exists. `len`, `total_entries` and the counters still cover
/// every sample; reading a released one panics.
#[derive(Debug)]
pub struct DynRrrStore {
    inner: DynStoreInner,
    /// The inverted index once an indexed pass has built it, and the
    /// interval owners it was built with.
    index_cache: RefCell<Option<(SampleIndex, usize)>>,
    /// A spill-kind store's `--rrr-budget`, which it keeps after it
    /// releases its samples.
    budget: Option<usize>,
    released: Released,
}

/// Absorbs the samples of `inner` that `index` lacks; `inner`'s first
/// sample has the global id `base`.
fn absorb_into(inner: &DynStoreInner, base: usize, index: &mut SampleIndex, owners: usize) {
    match inner {
        DynStoreInner::Flat(sets) => index.absorb_at(sets, base, owners),
        DynStoreInner::Spill(store) => index.absorb_at(&Streamed(store), base, owners),
    }
}

impl DynRrrStore {
    fn with_inner(inner: DynStoreInner) -> Self {
        let budget = match &inner {
            DynStoreInner::Flat(_) => None,
            DynStoreInner::Spill(store) => Some(store.budget()),
        };
        Self {
            inner,
            index_cache: RefCell::new(None),
            budget,
            released: Released::default(),
        }
    }

    /// Creates an empty store per `config` for a graph of `num_vertices`.
    #[must_use]
    pub fn new(config: StorageConfig, num_vertices: u32) -> Self {
        Self::with_inner(match config.kind {
            RrrStoreKind::Flat => DynStoreInner::Flat(MixedRrrCollection::new(num_vertices)),
            RrrStoreKind::Spill => DynStoreInner::Spill(SpillRrrStore::new(
                config.budget.unwrap_or(SpillRrrStore::DEFAULT_BUDGET),
            )),
        })
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
        Self::with_inner(DynStoreInner::Flat(sets))
    }

    /// Adopts a restored delta-varint block stream as a spill-kind store
    /// under the default budget (snapshot-restore path): `offsets` bounds
    /// each sample's block in `data`, `counts` holds the per-sample vertex
    /// counts, and nothing about them is trusted.
    ///
    /// # Errors
    ///
    /// The violated invariant, as human-readable text naming the field.
    pub fn from_blocks(offsets: &[usize], counts: &[u32], data: &[u8]) -> Result<Self, String> {
        let store =
            SpillRrrStore::from_blocks(offsets, counts, data, SpillRrrStore::DEFAULT_BUDGET)?;
        Ok(Self::with_inner(DynStoreInner::Spill(store)))
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
    /// sample into it, a spill store's spilled ones included, and the
    /// layout that held them with its spill file: from here on the store
    /// holds only a stage of the samples appended since the index last
    /// absorbed. It may be called between two batches or between the two
    /// halves of one; samples appended after it go to the stage.
    pub fn release_samples(&mut self, num_vertices: u32, owners: usize) {
        self.with_sample_index(num_vertices, owners, |_| ());
        let stage = DynStoreInner::Flat(MixedRrrCollection::new(num_vertices));
        let held = std::mem::replace(&mut self.inner, stage);
        dyn_delegate!(&held, s => self.released.retire(s));
        self.released.stage_limit = Some(StageLimit::new(num_vertices, self.budget));
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
        let mut store = Self::with_inner(DynStoreInner::Flat(MixedRrrCollection::new(n)));
        store.budget = self.budget;
        store.index_cache = RefCell::new(Some((index, owners)));
        store.released.stage_limit = Some(StageLimit::new(n, self.budget));
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
        self.released.spill_bytes_written += old.spill_bytes_written();
        self.released.spill_write_failures += old.spill_write_failures();
        *old = index;
    }

    /// Turns the index's vertices of degree below `tau` cold
    /// ([`SampleIndex::cool_below`]); returns how many turned cold and how
    /// many rows the index keeps, `(0, 0)` without an index.
    pub fn cool_index_below(&mut self, tau: u64) -> (usize, usize) {
        self.index_cache
            .get_mut()
            .as_mut()
            .map_or((0, 0), |(index, _)| {
                (index.cool_below(tau), index.hot_rows())
            })
    }

    /// Visits a spill-kind store's chunks in sample order (snapshot-write
    /// path, see [`SpillRrrStore::for_each_chunk`]); a flat store has none.
    pub fn for_each_chunk(&self, f: impl FnMut(&[u32], &[u32], &[u8])) {
        if let DynStoreInner::Spill(store) = &self.inner {
            store.for_each_chunk(f);
        }
    }

    /// Position in the layout of global sample `i`.
    fn held(&self, i: usize) -> usize {
        let absorbed = self.released.samples;
        assert!(
            i >= absorbed,
            "sample {i} lives only in the inverted index (samples 0..{absorbed} were absorbed)"
        );
        i - absorbed
    }

    /// The bytes the budget leaves the index beside the samples the store
    /// holds: its kept samples, or its stage at the most it may hold.
    /// `None` (no bound) without a budget, and once a spill file of the
    /// store's could not be written: the run is over budget already, and
    /// one warning says so.
    fn index_room(&self) -> Option<usize> {
        let failures = self.released.spill_write_failures
            + dyn_delegate!(&self.inner, s => RrrStore::spill_write_failures(s));
        let budget = self.budget.filter(|_| failures == 0)?;
        let held = dyn_delegate!(&self.inner, s => RrrStore::resident_bytes(s));
        let samples = self
            .released
            .stage_limit
            .map_or(held, |limit| held.max(limit.bytes));
        Some(budget.saturating_sub(samples))
    }

    /// A released store's stage, when `size` more would overfill it, goes
    /// into the index first.
    fn make_room(&mut self, size: (u64, usize)) {
        if let (Some(limit), DynStoreInner::Flat(stage)) = (self.released.stage_limit, &self.inner)
        {
            if !limit.admits((stage.total_entries() + size.0, stage.held_bytes() + size.1)) {
                self.absorb_new();
            }
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
        let end = base + dyn_delegate!(&self.inner, s => RrrStore::len(s));
        if end >= u32::MAX as usize && self.released.stage_limit.is_none() {
            if let Some((index, _)) = self.index_cache.get_mut().take() {
                self.released.spill_bytes_written += index.spill_bytes_written();
                self.released.spill_write_failures += index.spill_write_failures();
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
            absorb_into(&self.inner, base, index, *owners);
            ripples_trace::complete(
                ripples_trace::TraceName::IndexBuild,
                t0,
                dyn_delegate!(&self.inner, s => RrrStore::total_entries(s)),
                *owners as u64,
            );
        }
        if let (Some(_), DynStoreInner::Flat(stage)) = (self.released.stage_limit, &mut self.inner)
        {
            self.released.retire(stage);
            stage.clear();
        }
    }
}

impl RrrStore for DynRrrStore {
    fn push(&mut self, vertices: &[Vertex]) {
        self.make_room(stage_size(RrrSetRef::List(vertices)));
        dyn_delegate!(&mut self.inner, s => RrrStore::push(s, vertices));
    }

    /// A released store takes a block larger than its whole stage one
    /// sample at a time.
    fn append_arena(&mut self, arena: &SampleArena) {
        let size = (arena.total_entries(), arena.held_bytes());
        match self.released.stage_limit {
            Some(limit) if !limit.admits(size) => {
                for set in arena.iter() {
                    self.make_room(stage_size(set));
                    let DynStoreInner::Flat(stage) = &mut self.inner else {
                        unreachable!("a released store is flat");
                    };
                    stage.push_set(set);
                }
                self.released.unsorted_pushes += arena.unsorted_pushes();
            }
            _ => {
                self.make_room(size);
                dyn_delegate!(&mut self.inner, s => RrrStore::append_arena(s, arena));
            }
        }
    }

    /// A released store's stage keeps its buffers for the next batch.
    fn finish_batch(&mut self) {
        if self.released.stage_limit.is_none() {
            dyn_delegate!(&mut self.inner, s => RrrStore::finish_batch(s));
        }
        self.absorb_new();
    }

    fn len(&self) -> usize {
        self.released.samples + dyn_delegate!(&self.inner, s => RrrStore::len(s))
    }

    fn total_entries(&self) -> u64 {
        self.released.entries + dyn_delegate!(&self.inner, s => RrrStore::total_entries(s))
    }

    fn sample_len(&self, i: usize) -> usize {
        let i = self.held(i);
        dyn_delegate!(&self.inner, s => RrrStore::sample_len(s, i))
    }

    fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        let i = self.held(i);
        dyn_delegate!(&self.inner, s => RrrStore::decode_into(s, i, out));
    }

    fn for_each_vertex<F: FnMut(Vertex)>(&self, i: usize, f: F) {
        let i = self.held(i);
        dyn_delegate!(&self.inner, s => RrrStore::for_each_vertex(s, i, f));
    }

    fn contains(&self, i: usize, v: Vertex) -> bool {
        let i = self.held(i);
        dyn_delegate!(&self.inner, s => RrrStore::contains(s, i, v))
    }

    /// The kept samples, or a released store's stage; the index is reported
    /// as the index.
    fn resident_bytes(&self) -> usize {
        dyn_delegate!(&self.inner, s => RrrStore::resident_bytes(s))
    }

    fn unsorted_pushes(&self) -> u64 {
        self.released.unsorted_pushes
            + dyn_delegate!(&self.inner, s => RrrStore::unsorted_pushes(s))
    }

    /// `None` once the samples are released: the stage is not the store.
    fn as_flat(&self) -> Option<&RrrCollection> {
        let kept = self.released.stage_limit.is_none();
        dyn_delegate!(&self.inner, s => RrrStore::as_flat(s).filter(|_| kept))
    }

    /// `None` once the samples are released: the stage is not the store.
    fn as_mixed(&self) -> Option<&MixedRrrCollection> {
        let kept = self.released.stage_limit.is_none();
        dyn_delegate!(&self.inner, s => RrrStore::as_mixed(s).filter(|_| kept))
    }

    fn form_counts(&self) -> FormCounts {
        let mut forms = dyn_delegate!(&self.inner, s => RrrStore::form_counts(s));
        forms += self.released.forms;
        forms
    }

    /// Samples and index segments alike.
    fn spill_bytes_written(&self) -> u64 {
        let index = self.index_cache.borrow();
        self.released.spill_bytes_written
            + dyn_delegate!(&self.inner, s => RrrStore::spill_bytes_written(s))
            + index
                .as_ref()
                .map_or(0, |(index, _)| index.spill_bytes_written())
    }

    /// Samples and index segments alike.
    fn spill_write_failures(&self) -> u64 {
        let index = self.index_cache.borrow();
        self.released.spill_write_failures
            + dyn_delegate!(&self.inner, s => RrrStore::spill_write_failures(s))
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
        absorb_into(&self.inner, self.released.samples, index, owners);
        f(index)
    }

    fn with_current_index<R>(&self, f: impl FnOnce(Option<&SampleIndex>) -> R) -> R {
        let cache = self.index_cache.borrow();
        f(cache
            .as_ref()
            .map(|(index, _)| index)
            .filter(|index| index.absorbed_samples() == self.len()))
    }

    fn kind(&self) -> RrrStoreKind {
        dyn_delegate!(&self.inner, s => RrrStore::kind(s))
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

    /// The flat store, and the spill store resident (default budget) and
    /// forced to disk by `budget`.
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
                assert_eq!(store.sample_len(i), s.len(), "{:?}", store.kind());
                store.decode_into(i, &mut out);
                assert_eq!(&out, s, "{:?} sample {i}", store.kind());
                let mut streamed = Vec::new();
                store.for_each_vertex(i, |v| streamed.push(v));
                assert_eq!(&streamed, s, "{:?} sample {i}", store.kind());
                for v in [0, n / 2, n - 1] {
                    assert_eq!(
                        store.contains(i, v),
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
        fn varint_bytes_of<'a>(sets: impl Iterator<Item = &'a [Vertex]>) -> usize {
            let mut varint = SpillRrrStore::new(SpillRrrStore::DEFAULT_BUDGET);
            for set in sets {
                RrrStore::push(&mut varint, set);
            }
            RrrStore::resident_bytes(&varint)
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
        // 2 129 920 as varints (2.36×; growth slack counted on both sides).
        let graph =
            standin("cit-HepTh")
                .unwrap()
                .build(32, WeightModel::UniformRandom { seed: 8 }, false);
        let mut plain = RrrCollection::new();
        let factory = StreamFactory::new(21);
        let ic = crate::DiffusionModel::IndependentCascade;
        crate::sample_batch_sequential(&graph, ic, &factory, 0, 3_000, &mut plain);
        for (label, plain_bytes, varint_bytes, min_ratio) in [
            (
                "clustered",
                RrrStore::resident_bytes(&flat),
                varint_bytes_of(clustered.iter().map(Vec::as_slice)),
                2.0,
            ),
            (
                "cit-HepTh",
                plain.resident_bytes(),
                varint_bytes_of(plain.iter()),
                2.35,
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
        assert!(RrrStore::contains(&c, 1, 1) && !RrrStore::contains(&c, 1, 0));
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
                assert_eq!(merged.sample_len(i), s.len());
                assert_eq!(merged.contains(i, 7), s.binary_search(&7).is_ok());
            }
            assert_eq!(pushed.total_entries(), merged.total_entries());
            assert_eq!(pushed.resident_bytes() > 0, merged.resident_bytes() > 0);
            let bitmaps =
                |store: &DynRrrStore| store.as_mixed().map(MixedRrrCollection::bitmap_sets);
            assert_eq!(bitmaps(&pushed), bitmaps(&merged));
            if pushed.kind() == RrrStoreKind::Flat {
                assert_eq!(bitmaps(&pushed), Some(arena.bitmap_sets()));
                assert!(pushed.as_flat().is_none());
            }
        }
    }

    #[test]
    fn spill_store_spills_and_reads_back() {
        let n = 1000;
        let samples = synth_samples(n, 2000);
        let mut store = SpillRrrStore::new(4096);
        for s in &samples {
            RrrStore::push(&mut store, s);
        }
        assert!(
            store.spill_bytes_written() > 0,
            "a 4 KiB budget over 2000 samples must spill"
        );
        assert!(store.spilled_chunks() > 0);
        // Random-order reads (worst case for the one-chunk cache) still
        // decode exactly.
        let mut out = Vec::new();
        for &i in &[1999usize, 0, 1000, 3, 1998, 500, 7] {
            RrrStore::decode_into(&store, i, &mut out);
            assert_eq!(&out, &samples[i], "sample {i}");
        }
        // Sequential sweep.
        for (i, s) in samples.iter().enumerate() {
            RrrStore::decode_into(&store, i, &mut out);
            assert_eq!(&out, s, "sample {i}");
            assert_eq!(RrrStore::sample_len(&store, i), s.len());
        }
        let path = store.spill.path().to_path_buf();
        assert!(path.exists(), "spill file must exist while the store lives");
        drop(store);
        assert!(!path.exists(), "spill file must be removed on drop");
    }

    #[test]
    fn spill_store_without_pressure_stays_in_ram() {
        let samples = synth_samples(100, 50);
        let mut store = SpillRrrStore::new(SpillRrrStore::DEFAULT_BUDGET);
        for s in &samples {
            RrrStore::push(&mut store, s);
        }
        assert_eq!(store.spill_bytes_written(), 0);
        assert!(!store.spill.path().exists());
        let mut out = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            RrrStore::decode_into(&store, i, &mut out);
            assert_eq!(&out, s);
        }
    }

    #[test]
    fn unspilled_arena_merge_holds_no_growth_slack() {
        // 8 bytes of metadata per sample plus the encoded bytes: what the
        // retired in-RAM varint container reported. Before sealed chunks
        // and the merged open chunk gave their `Vec` slack back, this fill
        // (two sealed 2 MiB chunks and an open one) reported twice the
        // payload and spilled.
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
        let mut store = SpillRrrStore::new(8 << 20);
        RrrStore::append_arenas(&mut store, &arenas);
        assert_eq!(store.spill_bytes_written(), 0);
        assert!(store.chunks.len() >= 2 && !store.open_counts.is_empty());
        let mut payload = 0usize;
        store.for_each_chunk(|_, _, bytes| payload += bytes.len());
        let resident = RrrStore::resident_bytes(&store);
        assert!(resident >= 8 * RrrStore::len(&store) + payload);
        assert!(
            resident <= 8 * RrrStore::len(&store) + payload + store.chunk_target,
            "resident {resident} for {} samples and {payload} payload bytes",
            RrrStore::len(&store)
        );
    }

    #[test]
    fn a_chunk_is_sealed_before_its_payload_passes_the_offset_limit() {
        // The limit is the `u32` end offsets' range; lowered here so that a
        // few hundred small sets cross it many times over, by push and by
        // arena, resident and on disk.
        let n = 1000;
        let limit = 100;
        let samples = synth_samples(n, 600);
        let mut arena = SampleArena::new(n);
        for s in &samples {
            arena.append_set(s);
        }
        for budget in [SpillRrrStore::DEFAULT_BUDGET, 0] {
            let mut pushed = SpillRrrStore::with_payload_limit(budget, limit);
            for s in &samples {
                RrrStore::push(&mut pushed, s);
            }
            let mut merged = SpillRrrStore::with_payload_limit(budget, limit);
            RrrStore::append_arenas(&mut merged, std::slice::from_ref(&arena));
            for store in [&pushed, &merged] {
                let mut payloads = Vec::new();
                store.for_each_chunk(|_, ends, payload| {
                    assert_eq!(ends.last().map(|&e| e as usize), Some(payload.len()));
                    payloads.push(payload.len());
                });
                assert!(payloads.len() > 10, "{payloads:?}");
                assert!(payloads.iter().all(|&p| p <= limit), "{payloads:?}");
                let mut out = Vec::new();
                for (i, s) in samples.iter().enumerate() {
                    RrrStore::decode_into(store, i, &mut out);
                    assert_eq!(&out, s, "budget {budget} sample {i}");
                }
            }
        }
    }

    /// What the blocks lie about is `prop_snapshot`'s hostile-payload test.
    #[test]
    fn adopted_blocks_decode_like_pushed_ones_resident_or_on_disk() {
        let samples = synth_samples(1000, 3000);
        let mut pushed = SpillRrrStore::new(SpillRrrStore::DEFAULT_BUDGET);
        for s in &samples {
            RrrStore::push(&mut pushed, s);
        }
        // The global layout a snapshot carries, from the store's chunks.
        let (mut offsets, mut counts, mut data) = (vec![0usize], Vec::new(), Vec::new());
        pushed.for_each_chunk(|c, ends, bytes| {
            offsets.extend(ends.iter().map(|&e| data.len() + e as usize));
            counts.extend_from_slice(c);
            data.extend_from_slice(bytes);
        });
        // Resident or forced to disk, the adopted store decodes the same.
        for budget in [SpillRrrStore::DEFAULT_BUDGET, 0] {
            let adopted = SpillRrrStore::from_blocks(&offsets, &counts, &data, budget).unwrap();
            assert_eq!(adopted.spilled_chunks() > 0, budget == 0);
            assert_eq!(adopted.total_entries, pushed.total_entries);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for i in 0..samples.len() {
                RrrStore::decode_into(&adopted, i, &mut a);
                RrrStore::decode_into(&pushed, i, &mut b);
                assert_eq!(a, b, "budget {budget} sample {i}");
            }
        }
    }

    #[test]
    fn spill_resident_bytes_stay_near_budget() {
        let n = 1000;
        let samples = synth_samples(n, 4000);
        let budget = 16 << 10;
        let mut store = SpillRrrStore::new(budget);
        let mut flat = RrrCollection::new();
        for s in &samples {
            RrrStore::push(&mut store, s);
            flat.push(s);
        }
        // Resident footprint must land well below the flat layout: the
        // payload respects the budget and only the per-sample metadata
        // (8 bytes/sample) grows with θ.
        let meta = samples.len() * 8;
        assert!(
            RrrStore::resident_bytes(&store) < budget + 2 * meta + store.chunk_target,
            "resident {} exceeds budget {budget} + metadata {meta}",
            RrrStore::resident_bytes(&store)
        );
        assert!(RrrStore::resident_bytes(&store) < flat.resident_bytes());
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
        assert_eq!(store.sample_len(u32::MAX as usize), 1);
        store.push(&[4, 5, 6]);
        store.finish_batch();
        assert_eq!(store.indexed_samples(), 0);
        assert_eq!(store.sample_len(u32::MAX as usize + 1), 3);
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
            let DynStoreInner::Flat(stage) = &store.inner else {
                unreachable!("a released store is flat");
            };
            stage
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
        assert_eq!(store.sample_len(last), c.get(last).len());
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
        let _ = store.sample_len(0);
    }

    #[test]
    fn store_kind_tags_round_trip() {
        for kind in [RrrStoreKind::Flat, RrrStoreKind::Spill] {
            assert_eq!(RrrStoreKind::from_tag(kind.tag()), Some(kind));
        }
        for retired in ["nope", "varint", "bitpack"] {
            assert_eq!(RrrStoreKind::from_tag(retired), None, "{retired}");
        }
        let store = DynRrrStore::new(StorageConfig::default(), 10);
        assert_eq!(store.kind(), RrrStoreKind::Flat);
        assert!(store.as_flat().is_some());
    }
}
