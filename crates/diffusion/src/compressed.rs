//! The delta-varint codec for sorted RRR sets, and the incremental inverted
//! index coded the same way.
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
//! The codec has one container, the chunked [`crate::SpillRrrStore`]
//! (`--rrr-store spill`), which also spills sealed chunks to disk past a
//! byte budget. [`IncrementalSampleIndex`] is the matching gap-varint
//! inverted index (vertex → ascending sample ids) that lets the selection
//! engine and the distributed per-rank purge run decode-on-touch over
//! compressed blocks without ever materializing the flat layout.

use crate::mixed::{BitmapIter, RrrSetRef};
use crate::store::RrrStore;
use ripples_graph::Vertex;

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

/// Membership test on one delta-varint block of `count` ids by sequential
/// decode (terminates early thanks to the sorted order).
#[inline]
pub(crate) fn block_contains(data: &[u8], count: u32, target: Vertex) -> bool {
    let mut pos = 0usize;
    let mut prev: Vertex = 0;
    for idx in 0..count {
        let raw = read_varint(data, &mut pos);
        let v = if idx == 0 { raw } else { prev + raw + 1 };
        if v >= target {
            return v == target;
        }
        prev = v;
    }
    false
}

/// Checked decode of one deserialized block: a well-formed LEB128 stream
/// that decodes exactly `count` strictly ascending vertex ids in exactly
/// `block.len()` bytes. The hot-path decoders above assume well-formed
/// input, so bytes that come off a disk are rejected here first — truncated
/// or bit-flipped blocks are reported by byte offset, never by a panic.
///
/// # Errors
///
/// What is wrong with the block, as human-readable text.
pub(crate) fn check_block(block: &[u8], count: u32) -> Result<(), String> {
    let mut pos = 0usize;
    let mut prev: Vertex = 0;
    for idx in 0..count {
        let mut x = 0u32;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = block.get(pos) else {
                return Err(format!("varint truncated at block byte {pos}"));
            };
            pos += 1;
            if shift >= 32 || (shift == 28 && byte & 0x7F > 0x0F) {
                return Err(format!("varint overflows u32 at block byte {}", pos - 1));
            }
            x |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        prev = if idx == 0 {
            x
        } else {
            prev.checked_add(x)
                .and_then(|s| s.checked_add(1))
                .ok_or_else(|| format!("delta overflows vertex id at entry {idx}"))?
        };
    }
    if pos != block.len() {
        return Err(format!(
            "block decodes in {pos} bytes but spans {}",
            block.len()
        ));
    }
    Ok(())
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
    use crate::mixed::SampleArena;
    use crate::rrr::RrrCollection;

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

    /// One block per sample, back to back: `(end offset, count)` per block.
    fn encode_all(samples: &[Vec<Vertex>]) -> (Vec<u8>, Vec<(usize, u32)>) {
        let mut data = Vec::new();
        let blocks = samples
            .iter()
            .map(|s| {
                encode_sample(&mut data, s.iter().copied());
                (data.len(), s.len() as u32)
            })
            .collect();
        (data, blocks)
    }

    #[test]
    fn push_decode_roundtrip() {
        let samples: Vec<Vec<Vertex>> = vec![
            vec![5],
            vec![0, 1, 2, 3],
            vec![],
            vec![100, 5_000, 1_000_000],
            vec![u32::MAX - 1, u32::MAX],
        ];
        let (data, blocks) = encode_all(&samples);
        let mut pos = 0usize;
        for (s, &(end, count)) in samples.iter().zip(&blocks) {
            assert_eq!(check_block(&data[pos..end], count), Ok(()));
            let mut out = Vec::new();
            decode_sample(&data, &mut pos, count, |v| out.push(v));
            assert_eq!(&out, s);
            assert_eq!(pos, end);
        }
    }

    #[test]
    fn contains_matches_decode() {
        let mut data = Vec::new();
        encode_sample(&mut data, [2, 7, 9, 30].into_iter());
        for v in 0..40 {
            let expect = [2, 7, 9, 30].contains(&v);
            assert_eq!(block_contains(&data, 4, v), expect, "vertex {v}");
        }
        assert!(!block_contains(&[], 0, 0));
    }

    #[test]
    fn check_block_rejects_what_the_unchecked_decoder_would_misread() {
        let mut good = Vec::new();
        encode_sample(&mut good, [3, 4, 900].into_iter());
        assert_eq!(check_block(&good, 3), Ok(()));
        // A count that lies in either direction.
        assert!(check_block(&good, 4).unwrap_err().contains("truncated"));
        assert!(check_block(&good, 2).unwrap_err().contains("spans"));
        // A continuation bit on the last byte runs off the block.
        let mut cut = good.clone();
        *cut.last_mut().unwrap() |= 0x80;
        assert!(check_block(&cut, 3).unwrap_err().contains("truncated"));
        // Six continuation bytes cannot be a u32.
        assert!(check_block(&[0xFF; 6], 1)
            .unwrap_err()
            .contains("overflows u32"));
        // u32::MAX followed by any gap leaves the id space.
        let mut wrap = Vec::new();
        push_varint(&mut wrap, u32::MAX);
        push_varint(&mut wrap, 0);
        assert!(check_block(&wrap, 2)
            .unwrap_err()
            .contains("overflows vertex id"));
    }

    #[test]
    fn compression_beats_plain_on_dense_sorted_sets() {
        let samples: Vec<Vec<Vertex>> = (0..200u32)
            .map(|base| (0..64).map(|i| base + 3 * i).collect())
            .collect();
        let (data, _) = encode_all(&samples);
        let plain_bytes = 4 * 64 * samples.len();
        assert!(
            data.len() * 2 < plain_bytes,
            "compressed {} not ≪ plain {plain_bytes}",
            data.len()
        );
    }

    #[test]
    fn append_arenas_matches_pushes() {
        // An arena set encodes the same block whether it is held as a list
        // or — dense enough, n = 64 — as a bitmap read by word scan.
        let sets: [&[Vertex]; 4] = [&[1, 3, 5], &[2], &[], &[0, 4, 7, 9, 33, 63]];
        let mut arena = SampleArena::new(64);
        for s in sets {
            arena.append_with(|buf| {
                buf.extend_from_slice(s);
                0
            });
        }
        assert!(arena.bitmap_sets() > 0);
        let (mut merged, mut pushed) = (Vec::new(), Vec::new());
        for (set, s) in arena.iter().zip(sets) {
            encode_set(&mut merged, set);
            encode_sample(&mut pushed, s.iter().copied());
        }
        assert_eq!(merged, pushed);
    }

    /// The index of everything `c` holds.
    fn index_of(c: &RrrCollection, n: u32) -> IncrementalSampleIndex {
        let mut idx = IncrementalSampleIndex::new(n);
        idx.absorb(c);
        idx
    }

    #[test]
    fn index_degrees_and_streams_match_flat_index() {
        let mut c = RrrCollection::new();
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
        let mut c = RrrCollection::new();
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
        let mut c = crate::SpillRrrStore::new(0);
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
                RrrStore::push(&mut c, s);
                flat.push(s);
            }
            inc.absorb(&c);
            assert_eq!(inc.absorbed_samples(), RrrStore::len(&c));
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
