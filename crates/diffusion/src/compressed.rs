//! Delta-varint compressed RRR storage and its incremental inverted index.
//!
//! §3.1's storage discussion is all about the memory wall: θ grows
//! super-linearly in accuracy, and the paper's Table 2 runs ran out of
//! memory on the largest inputs (the ◦ entries). This module pushes the
//! paper's one-direction layout one step further: because each sample is
//! *sorted by vertex id*, consecutive gaps are small and LEB128-varint
//! delta coding shrinks the arena by another 2–3× on typical inputs — at
//! the price of sequential-only access (no binary search inside a sample).
//! `benches/ablation_compression.rs` quantifies the trade against
//! [`crate::RrrCollection`].
//!
//! [`CompressedRrrCollection`] is the `varint` backend of the
//! [`crate::store::RrrStore`] family; [`IncrementalSampleIndex`] is the
//! matching gap-varint inverted index (vertex → ascending sample ids) that
//! lets the selection engine and the distributed per-rank purge run
//! decode-on-touch over compressed blocks without ever materializing the
//! flat layout.

use crate::mixed::{BitmapIter, RrrSetRef, SampleArena};
use crate::rrr::RrrCollection;
use crate::store::RrrStore;
use ripples_graph::Vertex;

/// A compressed, append-only collection of sorted RRR sets.
#[derive(Clone, Debug, Default)]
pub struct CompressedRrrCollection {
    offsets: Vec<usize>,
    /// Per-sample vertex counts (decode hint; also enables `len` queries
    /// without decoding).
    counts: Vec<u32>,
    data: Vec<u8>,
    /// Samples that arrived unsorted and were repaired on insert — same
    /// contract as [`RrrCollection::push`]. Diagnostic only; excluded from
    /// equality.
    unsorted_pushes: u64,
}

impl PartialEq for CompressedRrrCollection {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.counts == other.counts && self.data == other.data
    }
}

impl Eq for CompressedRrrCollection {}

#[inline]
pub(crate) fn push_varint(data: &mut Vec<u8>, mut x: u32) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            data.push(byte);
            return;
        }
        data.push(byte | 0x80);
    }
}

#[inline]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Encoded byte length of `x` under LEB128 (1–5 bytes for a `u32`).
#[inline]
pub(crate) fn varint_len(x: u32) -> usize {
    if x == 0 {
        1
    } else {
        (38 - x.leading_zeros() as usize) / 7
    }
}

/// Exact encoded byte length of a strictly ascending sample under the
/// delta-varint block layout of [`encode_sample`].
#[inline]
fn encoded_len(vertices: impl Iterator<Item = Vertex>) -> usize {
    let mut len = 0;
    let mut prev: Vertex = 0;
    for (idx, v) in vertices.enumerate() {
        len += varint_len(if idx == 0 { v } else { v - prev - 1 });
        prev = v;
    }
    len
}

/// Appends a strictly ascending sample as one delta-varint block (first
/// id absolute, then gap-1 deltas) — shared by every compressed backend.
#[inline]
pub(crate) fn encode_sample(data: &mut Vec<u8>, vertices: impl Iterator<Item = Vertex>) {
    let mut prev: Vertex = 0;
    for (idx, v) in vertices.enumerate() {
        if idx == 0 {
            push_varint(data, v);
        } else {
            push_varint(data, v - prev - 1);
        }
        prev = v;
    }
}

/// [`encode_sample`] of an arena set in either form: a list encodes from
/// its slice, a bitmap straight from the word scan.
#[inline]
pub(crate) fn encode_set(data: &mut Vec<u8>, set: RrrSetRef<'_>) {
    match set {
        RrrSetRef::List(list) => encode_sample(data, list.iter().copied()),
        RrrSetRef::Bitmap { words, .. } => encode_sample(data, BitmapIter::new(words)),
    }
}

/// [`encoded_len`] of an arena set in either form.
#[inline]
fn encoded_set_len(set: RrrSetRef<'_>) -> usize {
    match set {
        RrrSetRef::List(list) => encoded_len(list.iter().copied()),
        RrrSetRef::Bitmap { words, .. } => encoded_len(BitmapIter::new(words)),
    }
}

/// Decodes one delta-varint block of `count` ids starting at `*pos`,
/// streaming each vertex to `f`.
#[inline]
pub(crate) fn decode_sample(data: &[u8], pos: &mut usize, count: u32, mut f: impl FnMut(Vertex)) {
    let mut prev: Vertex = 0;
    for idx in 0..count {
        let raw = read_varint(data, pos);
        let v = if idx == 0 { raw } else { prev + raw + 1 };
        f(v);
        prev = v;
    }
}

impl CompressedRrrCollection {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            counts: Vec::new(),
            data: Vec::new(),
            unsorted_pushes: 0,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Vertex count of sample `i` (no decoding needed).
    #[must_use]
    pub fn sample_len(&self, i: usize) -> usize {
        self.counts[i] as usize
    }

    /// Total vertex entries across all samples.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Appends a sample. Enforces the same always-on sorted/deduped
    /// contract as [`RrrCollection::push`]: a violating sample is repaired
    /// (sorted + deduplicated) and counted in
    /// [`CompressedRrrCollection::unsorted_pushes`], so the compressed
    /// layout stays bitwise-convertible to the flat reference.
    pub fn push(&mut self, vertices: &[Vertex]) {
        if vertices.windows(2).all(|w| w[0] < w[1]) {
            encode_sample(&mut self.data, vertices.iter().copied());
            self.counts.push(vertices.len() as u32);
        } else {
            self.unsorted_pushes += 1;
            let mut repaired = vertices.to_vec();
            repaired.sort_unstable();
            repaired.dedup();
            encode_sample(&mut self.data, repaired.iter().copied());
            self.counts.push(repaired.len() as u32);
        }
        self.offsets.push(self.data.len());
    }

    /// Appends the samples of `arenas` in arena order — the same sample
    /// order [`RrrCollection::append_arenas`] produces, so a compressed
    /// store filled through the parallel sampling path decodes bitwise
    /// identical to the flat reference. Arena content is already validated
    /// sorted by [`SampleArena::append_with`]; repairs that happened inside
    /// the arenas carry over into `unsorted_pushes`. A set the arena holds
    /// as a bitmap is encoded from the word scan, never through a list.
    pub fn append_arenas(&mut self, arenas: &[SampleArena]) {
        let new_samples: usize = arenas.iter().map(SampleArena::len).sum();
        // A measuring pre-pass buys exact `reserve_exact` calls: amortized
        // `reserve` doubles capacity, and `resident_bytes` (the peak-memory
        // metric compression exists to shrink) reports capacity, so slack
        // here would show up as phantom peak bytes.
        let new_bytes: usize = arenas
            .iter()
            .flat_map(|a| a.iter().map(encoded_set_len))
            .sum();
        self.counts.reserve_exact(new_samples);
        self.offsets.reserve_exact(new_samples);
        self.data.reserve_exact(new_bytes);
        for arena in arenas {
            for set in arena.iter() {
                encode_set(&mut self.data, set);
                self.counts.push(set.len() as u32);
                self.offsets.push(self.data.len());
            }
            self.unsorted_pushes += arena.unsorted_pushes();
        }
    }

    /// Number of pushed samples that violated the sorted/deduped contract
    /// and were repaired on insert.
    #[must_use]
    pub fn unsorted_pushes(&self) -> u64 {
        self.unsorted_pushes
    }

    /// The raw block-offset array: `len() + 1` entries bounding each
    /// sample's varint block in [`CompressedRrrCollection::raw_bytes`].
    /// Snapshot serialization surface (`ripples-serve`).
    #[must_use]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Per-sample vertex counts. Snapshot serialization surface.
    #[must_use]
    pub fn raw_counts(&self) -> &[u32] {
        &self.counts
    }

    /// The delta-varint byte arena. Snapshot serialization surface.
    #[must_use]
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Rebuilds a collection from deserialized raw parts, re-validating
    /// every invariant a push sequence would have established: offsets
    /// start at 0, stay monotone, and end at `data.len()`; every block is
    /// a well-formed LEB128 stream that decodes exactly `counts[i]`
    /// strictly-ascending vertices in exactly its offset span. Truncated or
    /// bit-flipped blocks are reported by sample index and byte offset —
    /// the snapshot-restore path turns these into structured errors rather
    /// than panicking inside the unchecked hot-path decoder.
    ///
    /// # Errors
    ///
    /// Any violated invariant, as human-readable text naming the field.
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        counts: Vec<u32>,
        data: Vec<u8>,
    ) -> Result<Self, String> {
        if offsets.len() != counts.len() + 1 {
            return Err(format!(
                "offsets length {} != counts length {} + 1",
                offsets.len(),
                counts.len()
            ));
        }
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
        // Checked decode of every block: the hot-path decoder assumes
        // well-formed input, so corruption must be rejected here.
        for (i, &count) in counts.iter().enumerate() {
            let block = &data[offsets[i]..offsets[i + 1]];
            let mut pos = 0usize;
            let mut prev: Vertex = 0;
            for idx in 0..count {
                let mut x = 0u32;
                let mut shift = 0u32;
                loop {
                    let Some(&byte) = block.get(pos) else {
                        return Err(format!("sample {i}: varint truncated at block byte {pos}"));
                    };
                    pos += 1;
                    if shift >= 32 || (shift == 28 && byte & 0x7F > 0x0F) {
                        return Err(format!(
                            "sample {i}: varint overflows u32 at block byte {}",
                            pos - 1
                        ));
                    }
                    x |= u32::from(byte & 0x7F) << shift;
                    if byte & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                }
                let v = if idx == 0 {
                    x
                } else {
                    match prev.checked_add(x).and_then(|s| s.checked_add(1)) {
                        Some(v) => v,
                        None => {
                            return Err(format!(
                                "sample {i}: delta overflows vertex id at entry {idx}"
                            ));
                        }
                    }
                };
                prev = v;
            }
            if pos != block.len() {
                return Err(format!(
                    "sample {i}: block decodes in {pos} bytes but spans {}",
                    block.len()
                ));
            }
        }
        Ok(Self {
            offsets,
            counts,
            data,
            unsorted_pushes: 0,
        })
    }

    /// Decodes sample `i` into `out` (cleared first).
    pub fn decode_into(&self, i: usize, out: &mut Vec<Vertex>) {
        out.clear();
        let mut pos = self.offsets[i];
        decode_sample(&self.data, &mut pos, self.counts[i], |v| out.push(v));
        debug_assert_eq!(pos, self.offsets[i + 1]);
    }

    /// Streams the vertices of sample `i` to `f` without allocating.
    pub fn for_each_vertex(&self, i: usize, f: impl FnMut(Vertex)) {
        let mut pos = self.offsets[i];
        decode_sample(&self.data, &mut pos, self.counts[i], f);
    }

    /// Membership test by sequential decode (terminates early thanks to the
    /// sorted order).
    #[must_use]
    pub fn contains(&self, i: usize, target: Vertex) -> bool {
        let mut pos = self.offsets[i];
        let count = self.counts[i];
        let mut prev: Vertex = 0;
        for idx in 0..count {
            let raw = read_varint(&self.data, &mut pos);
            let v = if idx == 0 { raw } else { prev + raw + 1 };
            if v == target {
                return true;
            }
            if v > target {
                return false;
            }
            prev = v;
        }
        false
    }

    /// Resident bytes of the compressed arena (the Table 2 comparison
    /// quantity). Reports *reserved capacity*, not just initialized length,
    /// matching [`RrrCollection::resident_bytes`]: a `Vec`'s growth slack is
    /// real allocated memory, and `rrr_bytes_peak` comparisons across
    /// backends would be dishonest if the compressed store ignored it.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<usize>()
            + self.counts.capacity() * size_of::<u32>()
            + self.data.capacity()
    }
}

impl From<&RrrCollection> for CompressedRrrCollection {
    fn from(plain: &RrrCollection) -> Self {
        let mut c = Self::new();
        for set in plain.iter() {
            c.push(set);
        }
        c
    }
}

/// An *incremental* gap-varint inverted index: vertex → the ascending
/// sample ids containing it, coded exactly like the sample payloads (first
/// id absolute, then gap-1 deltas).
///
/// IMM's θ-doubling loop selects over the same store every round while the
/// store only ever grows at the tail. Rebuilding a CSR index per round
/// costs two full-store streaming decodes each time — the dominant
/// selection overhead of the compressed backends. This structure instead
/// keeps one growable gap-varint run per vertex and [`absorb`]s only the
/// samples appended since the last call, so the total index-build work
/// across all rounds is a single pass over the final store.
///
/// Because sample ids arrive in ascending order, appending preserves the
/// gap coding, and `for_each_sample` streams the id sequence a batch-built
/// [`crate::SampleIndex`] row holds — selection results stay bitwise
/// identical regardless of which index form drives them.
///
/// [`absorb`]: IncrementalSampleIndex::absorb
#[derive(Clone, Debug)]
pub struct IncrementalSampleIndex {
    /// Per-vertex gap-varint run of ascending sample ids.
    bufs: Vec<Vec<u8>>,
    /// Per-vertex sample counts.
    degrees: Vec<u32>,
    /// Per-vertex last absorbed sample id (gap-coding state).
    last: Vec<u32>,
    /// Samples consumed from the store so far; `absorb` resumes here.
    absorbed: usize,
}

impl IncrementalSampleIndex {
    /// Creates an empty index over `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: u32) -> Self {
        let n = num_vertices as usize;
        Self {
            bufs: vec![Vec::new(); n],
            degrees: vec![0; n],
            last: vec![0; n],
            absorbed: 0,
        }
    }

    /// Appends every sample `store` gained since the previous `absorb` (all
    /// of them on the first call). The store must be the same append-only
    /// store across calls — samples already absorbed are never re-read.
    ///
    /// # Panics
    ///
    /// Panics if the store holds more than `u32::MAX` samples (the u32
    /// index contract shared with [`crate::SampleIndex`]; selection
    /// dispatch sends such a store down the index-free route instead).
    pub fn absorb<S: RrrStore + ?Sized>(&mut self, store: &S) {
        assert!(
            u32::try_from(store.len()).is_ok(),
            "sample count exceeds the u32 index contract"
        );
        for i in self.absorbed..store.len() {
            let id = i as u32;
            store.for_each_vertex(i, |v| {
                let v = v as usize;
                let gap = if self.degrees[v] == 0 {
                    id
                } else {
                    id - self.last[v] - 1
                };
                push_varint(&mut self.bufs[v], gap);
                self.degrees[v] += 1;
                self.last[v] = id;
            });
        }
        self.absorbed = store.len();
    }

    /// Number of samples absorbed so far.
    #[must_use]
    pub fn absorbed_samples(&self) -> usize {
        self.absorbed
    }

    /// Number of vertices the index covers.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Number of absorbed samples containing vertex `v`.
    #[must_use]
    pub fn degree(&self, v: Vertex) -> u32 {
        self.degrees[v as usize]
    }

    /// Streams the ascending sample ids containing `v` to `f`.
    pub fn for_each_sample(&self, v: Vertex, mut f: impl FnMut(usize)) {
        let v = v as usize;
        let data = &self.bufs[v];
        let mut pos = 0usize;
        let mut prev = 0u32;
        for idx in 0..self.degrees[v] {
            let raw = read_varint(data, &mut pos);
            let id = if idx == 0 { raw } else { prev + raw + 1 };
            f(id as usize);
            prev = id;
        }
        debug_assert_eq!(pos, data.len());
    }

    /// Resident bytes of the index (capacity-based): the per-vertex runs
    /// plus the `Vec` headers and cursor arrays.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bufs.iter().map(Vec::capacity).sum::<usize>()
            + self.bufs.capacity() * size_of::<Vec<u8>>()
            + self.degrees.capacity() * size_of::<u32>()
            + self.last.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut data = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, u32::MAX];
        for &v in &values {
            push_varint(&mut data, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), v);
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u32, 1, 127, 128, 16383, 16384, 1 << 21, u32::MAX] {
            let mut data = Vec::new();
            push_varint(&mut data, v);
            assert_eq!(varint_len(v), data.len(), "value {v}");
        }
    }

    #[test]
    fn push_decode_roundtrip() {
        let mut c = CompressedRrrCollection::new();
        let samples: Vec<Vec<Vertex>> = vec![
            vec![5],
            vec![0, 1, 2, 3],
            vec![],
            vec![100, 5_000, 1_000_000],
        ];
        for s in &samples {
            c.push(s);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_entries(), 8);
        let mut out = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            c.decode_into(i, &mut out);
            assert_eq!(&out, s, "sample {i}");
            assert_eq!(c.sample_len(i), s.len());
        }
    }

    #[test]
    fn contains_matches_decode() {
        let mut c = CompressedRrrCollection::new();
        c.push(&[2, 7, 9, 30]);
        for v in 0..40 {
            let expect = [2, 7, 9, 30].contains(&v);
            assert_eq!(c.contains(0, v), expect, "vertex {v}");
        }
    }

    #[test]
    fn unsorted_push_is_repaired_and_counted() {
        // Same always-on repair contract as the flat collection: an
        // unsorted sample must never corrupt the delta coding (a negative
        // gap would wrap) even in release builds.
        let mut c = CompressedRrrCollection::new();
        c.push(&[5, 1, 3, 3]);
        assert_eq!(c.unsorted_pushes(), 1);
        let mut out = Vec::new();
        c.decode_into(0, &mut out);
        assert_eq!(out, vec![1, 3, 5]);
        let mut clean = CompressedRrrCollection::new();
        clean.push(&[1, 3, 5]);
        assert_eq!(clean.unsorted_pushes(), 0);
        assert_eq!(c, clean, "repair must normalize to the sorted encoding");
    }

    #[test]
    fn resident_bytes_reports_reserved_capacity() {
        // Regression (ISSUE 8 satellite): resident_bytes used to sum
        // `len()`s, under-reporting the growth slack a Vec actually holds.
        // Capacity-based accounting must dominate the len-based figure and
        // track reserve() even before any data lands.
        let mut c = CompressedRrrCollection::new();
        for base in 0..64u32 {
            c.push(&[base, base + 2, base + 300]);
        }
        use std::mem::size_of;
        let len_based =
            c.offsets.len() * size_of::<usize>() + c.counts.len() * size_of::<u32>() + c.data.len();
        assert!(
            c.resident_bytes() >= len_based,
            "capacity accounting {} must dominate len accounting {len_based}",
            c.resident_bytes()
        );
        let before = c.resident_bytes();
        c.data.reserve(1 << 16);
        assert!(
            c.resident_bytes() >= before + (1 << 16),
            "reserved-but-unused capacity must be visible: {} vs {before}",
            c.resident_bytes()
        );
        assert_eq!(
            len_based,
            c.offsets.len() * size_of::<usize>() + c.counts.len() * size_of::<u32>() + c.data.len(),
            "reserve must not change the len-based figure"
        );
    }

    #[test]
    fn compression_beats_plain_on_dense_sorted_sets() {
        let mut plain = RrrCollection::new();
        for base in 0..200u32 {
            let set: Vec<Vertex> = (0..64).map(|i| base + 3 * i).collect();
            plain.push(&set);
        }
        let compressed = CompressedRrrCollection::from(&plain);
        assert!(
            compressed.resident_bytes() * 2 < plain.resident_bytes(),
            "compressed {} not ≪ plain {}",
            compressed.resident_bytes(),
            plain.resident_bytes()
        );
        // Contents identical.
        let mut out = Vec::new();
        for i in 0..plain.len() {
            compressed.decode_into(i, &mut out);
            assert_eq!(out.as_slice(), plain.get(i));
        }
    }

    #[test]
    fn append_arenas_matches_pushes() {
        let mut a0 = SampleArena::with_capacity(1000, 2);
        a0.append_with(|buf| {
            buf.extend_from_slice(&[1, 3, 5]);
            0
        });
        a0.append_with(|buf| {
            buf.extend_from_slice(&[2]);
            0
        });
        let mut a1 = SampleArena::new(1000);
        a1.append_with(|_| 0);
        a1.append_with(|buf| {
            buf.extend_from_slice(&[0, 4]);
            0
        });
        let mut merged = CompressedRrrCollection::new();
        merged.push(&[9]);
        merged.append_arenas(&[a0, a1]);
        let mut reference = CompressedRrrCollection::new();
        for s in [&[9][..], &[1, 3, 5], &[2], &[], &[0, 4]] {
            reference.push(s);
        }
        assert_eq!(merged, reference);
        assert_eq!(merged.unsorted_pushes(), 0);
    }

    #[test]
    fn empty_collection() {
        let c = CompressedRrrCollection::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.total_entries(), 0);
    }

    /// The index of everything `c` holds.
    fn index_of(c: &CompressedRrrCollection, n: u32) -> IncrementalSampleIndex {
        let mut idx = IncrementalSampleIndex::new(n);
        idx.absorb(c);
        idx
    }

    #[test]
    fn index_degrees_and_streams_match_flat_index() {
        let mut c = CompressedRrrCollection::new();
        c.push(&[0, 2, 4]);
        c.push(&[1, 2]);
        c.push(&[]);
        c.push(&[2, 4]);
        let idx = index_of(&c, 5);
        assert_eq!(idx.num_vertices(), 5);
        assert_eq!(idx.degree(0), 1);
        assert_eq!(idx.degree(2), 3);
        assert_eq!(idx.degree(3), 0);
        let mut got = Vec::new();
        idx.for_each_sample(2, |i| got.push(i));
        assert_eq!(got, vec![0, 1, 3], "sample ids must stream ascending");
        got.clear();
        idx.for_each_sample(3, |i| got.push(i));
        assert!(got.is_empty());
        assert!(idx.resident_bytes() > 0);
    }

    #[test]
    fn index_handles_large_sparse_ids() {
        let mut c = CompressedRrrCollection::new();
        for i in 0..300usize {
            // Vertex 7 appears in every 3rd sample; vertex 1000 in all.
            if i % 3 == 0 {
                c.push(&[7, 1000]);
            } else {
                c.push(&[1000]);
            }
        }
        let idx = index_of(&c, 1001);
        assert_eq!(idx.degree(1000), 300);
        assert_eq!(idx.degree(7), 100);
        let mut ids = Vec::new();
        idx.for_each_sample(7, |i| ids.push(i));
        assert_eq!(ids, (0..300).step_by(3).collect::<Vec<_>>());
    }

    #[test]
    fn incremental_index_matches_batch_build_across_absorbs() {
        let mut c = CompressedRrrCollection::new();
        let mut flat = RrrCollection::new();
        let mut inc = IncrementalSampleIndex::new(6);
        // Grow the store in three uneven rounds, absorbing between them —
        // the θ-doubling access pattern the cache exists for.
        let rounds: [&[&[Vertex]]; 3] = [
            &[&[0, 2, 4], &[1, 2]],
            &[&[], &[2, 4], &[5]],
            &[&[0, 1, 2, 3, 4, 5], &[2]],
        ];
        for round in rounds {
            for s in round {
                c.push(s);
                flat.push(s);
            }
            inc.absorb(&c);
            assert_eq!(inc.absorbed_samples(), c.len());
            let batch = crate::SampleIndex::build(&flat, 6, 1);
            for v in 0..6u32 {
                assert_eq!(u64::from(inc.degree(v)), batch.degree(v), "vertex {v}");
                let mut row = Vec::new();
                inc.for_each_sample(v, |i| row.push(i as u32));
                assert_eq!(row, batch.samples_containing(v), "vertex {v}");
            }
        }
        // Absorbing with no new samples is a no-op.
        let before = inc.resident_bytes();
        inc.absorb(&c);
        assert_eq!(inc.resident_bytes(), before);
        assert!(inc.num_vertices() == 6);
    }
}
