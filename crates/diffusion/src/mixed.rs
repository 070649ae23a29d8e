//! Per-set adaptive RRR storage: each set is a sorted `u32` list or an
//! n-bit bitmap, whichever is smaller.
//!
//! On the paper's §4 uniform-probability inputs a reverse cascade spans
//! most of the graph: a set of ~n vertices costs 4·n bytes as a sorted list
//! and n/8 bytes as a bitmap. HBMax (PAPERS.md) picks bitmap or coded list
//! from exactly this density signal; here the choice is made per set by
//! [`bitmap_is_smaller`], written once and used by every place that picks a
//! representation — [`MixedRrrCollection::push`] /
//! [`MixedRrrCollection::append_with`] and the fused sampler's block
//! emitter ([`crate::fused`]).
//!
//! [`MixedRrrCollection`] is both the store `--rrr-store flat` builds and
//! the worker-local [`SampleArena`] the parallel samplers fill, so a dense
//! set travels from the kernel to selection as a bitmap without its list
//! ever being materialised. While it holds no bitmap it *is* an
//! [`RrrCollection`] — [`MixedRrrCollection::as_lists`] hands that out and
//! the slice selectors run on it unchanged — and it allocates nothing
//! beyond what the list collection allocates.

use crate::rrr::{interval_of, RrrCollection};
use ripples_graph::Vertex;

/// The one representation rule: a set of `len` vertices out of
/// `num_vertices` is kept as a bitmap iff `32·len > n`, i.e. iff the
/// ⌈n/64⌉-word bitmap is smaller than the sorted `u32` list. A property of
/// the set and the graph alone, so the encoding (and the counters that
/// report it) repeats exactly across thread and rank counts.
#[inline]
#[must_use]
pub fn bitmap_is_smaller(len: usize, num_vertices: u32) -> bool {
    32 * len as u64 > u64::from(num_vertices)
}

/// Words in one bitmap over `num_vertices` vertices.
#[inline]
#[must_use]
pub fn bitmap_words(num_vertices: u32) -> usize {
    (num_vertices as usize).div_ceil(64)
}

/// Ascending iterator over the set bits of a bitmap.
#[derive(Clone, Debug)]
pub struct BitmapIter<'a> {
    words: &'a [u64],
    /// Index of the word `current` was loaded from.
    word: usize,
    /// Unvisited bits of `words[word]`.
    current: u64,
}

impl<'a> BitmapIter<'a> {
    /// Iterates the vertices whose bits are set in `words`.
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        Self {
            words,
            word: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitmapIter<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        while self.current == 0 {
            self.word += 1;
            self.current = *self.words.get(self.word)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(((self.word as u32) << 6) | bit)
    }
}

/// One stored RRR set, in whichever form it is held.
#[derive(Clone, Copy, Debug)]
pub enum RrrSetRef<'a> {
    /// Strictly ascending vertex ids.
    List(&'a [Vertex]),
    /// Bit `v` set ⇔ `v` is in the set.
    Bitmap {
        /// The ⌈n/64⌉ words of the bitmap.
        words: &'a [u64],
        /// Number of set bits.
        len: u32,
    },
}

impl RrrSetRef<'_> {
    /// Number of vertices in the set.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            RrrSetRef::List(list) => list.len(),
            RrrSetRef::Bitmap { len, .. } => *len as usize,
        }
    }

    /// True for the empty set.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership: a binary search on a list, one bit test on a bitmap.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        match self {
            RrrSetRef::List(list) => list.binary_search(&v).is_ok(),
            RrrSetRef::Bitmap { words, .. } => words
                .get((v >> 6) as usize)
                .is_some_and(|w| w >> (v & 63) & 1 == 1),
        }
    }

    /// Streams the vertices to `f` in ascending order.
    #[inline]
    pub fn for_each(&self, f: impl FnMut(Vertex)) {
        match self {
            RrrSetRef::List(list) => list.iter().copied().for_each(f),
            RrrSetRef::Bitmap { words, .. } => BitmapIter::new(words).for_each(f),
        }
    }

    /// Streams the vertices in `[vl, vh)` to `f` in ascending order: the
    /// binary-searched sub-slice of a list, one word range of a bitmap.
    /// `vl` must be a multiple of 64, and `vh` too unless no vertex of the
    /// set is `≥ vh` — Algorithm 4's interval owners, whose last interval
    /// ends at n.
    #[inline]
    pub fn for_each_in(&self, vl: Vertex, vh: Vertex, mut f: impl FnMut(Vertex)) {
        debug_assert_eq!(vl % 64, 0, "interval must start on a word");
        match self {
            RrrSetRef::List(list) => interval_of(list, vl, vh).iter().copied().for_each(f),
            RrrSetRef::Bitmap { words, .. } => {
                let lo = ((vl >> 6) as usize).min(words.len());
                let hi = (vh as usize).div_ceil(64).clamp(lo, words.len());
                BitmapIter::new(&words[lo..hi]).for_each(|v| f(vl + v));
            }
        }
    }
}

/// An append-only sequence of RRR sets, each held as a sorted list or as a
/// bitmap by [`bitmap_is_smaller`].
///
/// List sets live, in order, in one [`RrrCollection`]; bitmap sets live, in
/// order, in one word arena. `slots` maps a sample index to its form and
/// its rank within that form, and stays empty — unallocated — until the
/// first bitmap set arrives.
#[derive(Clone, Debug)]
pub struct MixedRrrCollection {
    num_vertices: u32,
    lists: RrrCollection,
    /// `rank << 1 | is_bitmap` per sample; empty while every set is a list.
    slots: Vec<usize>,
    /// `bitmap_words(num_vertices)` words per bitmap set.
    bits: Vec<u64>,
    /// Cardinality of each bitmap set.
    bitmap_lens: Vec<u32>,
}

/// A worker's sample arena, filled with one block of a parallel sampling
/// batch and merged into a store by [`crate::RrrStore::append_arena`]: the
/// same type the flat store is, so a dense set is a bitmap from the moment
/// the kernel emits it.
pub type SampleArena = MixedRrrCollection;

const BITMAP_SLOT: usize = 1;

impl MixedRrrCollection {
    /// Creates an empty collection over vertex ids `< num_vertices`.
    #[must_use]
    pub fn new(num_vertices: u32) -> Self {
        Self::with_capacity(num_vertices, 0)
    }

    /// Creates an empty collection with room for `samples` list offsets
    /// (the sampling workers know their chunk size up front).
    #[must_use]
    pub fn with_capacity(num_vertices: u32, samples: usize) -> Self {
        Self {
            num_vertices,
            lists: RrrCollection::with_capacity(samples),
            slots: Vec::new(),
            bits: Vec::new(),
            bitmap_lens: Vec::new(),
        }
    }

    /// Adopts an existing list collection (the snapshot-restore path). A
    /// collection with no set above the density rule is wrapped as it is;
    /// otherwise every set is re-encoded by [`Self::push`].
    #[must_use]
    pub fn from_lists(num_vertices: u32, lists: RrrCollection) -> Self {
        let mut out = Self::new(num_vertices);
        if lists
            .iter()
            .any(|set| bitmap_is_smaller(set.len(), num_vertices))
        {
            for set in lists.iter() {
                out.push(set);
            }
        } else {
            out.lists = lists;
        }
        out
    }

    /// The list collection, while no set is held as a bitmap.
    #[inline]
    #[must_use]
    pub fn as_lists(&self) -> Option<&RrrCollection> {
        self.slots.is_empty().then_some(&self.lists)
    }

    /// Number of sets stored.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        if self.slots.is_empty() {
            self.lists.len()
        } else {
            self.slots.len()
        }
    }

    /// True when no sets are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total vertex entries across all sets, in either form.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        let in_bitmaps: u64 = self.bitmap_lens.iter().map(|&len| u64::from(len)).sum();
        self.lists.total_entries() as u64 + in_bitmaps
    }

    /// Sets held as bitmaps.
    #[must_use]
    pub fn bitmap_sets(&self) -> u64 {
        self.bitmap_lens.len() as u64
    }

    /// Bytes of bitmap payload (length, not capacity: a function of the
    /// samples alone).
    #[must_use]
    pub fn bitmap_bytes(&self) -> u64 {
        (self.bits.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Samples repaired on insert for violating the sorted contract.
    #[must_use]
    pub fn unsorted_pushes(&self) -> u64 {
        self.lists.unsorted_pushes()
    }

    /// Reserved bytes of every backing buffer. For a collection holding
    /// only lists this is exactly [`RrrCollection::resident_bytes`].
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.lists.resident_bytes()
            + self.slots.capacity() * size_of::<usize>()
            + self.bits.capacity() * size_of::<u64>()
            + self.bitmap_lens.capacity() * size_of::<u32>()
    }

    /// The `i`-th set.
    #[inline]
    #[must_use]
    pub fn set(&self, i: usize) -> RrrSetRef<'_> {
        if self.slots.is_empty() {
            return RrrSetRef::List(self.lists.get(i));
        }
        let slot = self.slots[i];
        let rank = slot >> 1;
        if slot & BITMAP_SLOT == 0 {
            RrrSetRef::List(self.lists.get(rank))
        } else {
            let words = bitmap_words(self.num_vertices);
            RrrSetRef::Bitmap {
                words: &self.bits[rank * words..(rank + 1) * words],
                len: self.bitmap_lens[rank],
            }
        }
    }

    /// Iterates all sets in order.
    pub fn iter(&self) -> impl Iterator<Item = RrrSetRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.set(i))
    }

    /// Appends one set. The sorted/deduplicated contract is the one
    /// [`RrrCollection::push`] enforces — a violating sample is repaired
    /// and counted — and the density rule is applied to the repaired set.
    pub fn push(&mut self, vertices: &[Vertex]) {
        if bitmap_is_smaller(vertices.len(), self.num_vertices) {
            self.append_with(|tail| {
                tail.extend_from_slice(vertices);
                0
            });
        } else {
            // Repair only shrinks a set, so this one stays a list.
            self.lists.push(vertices);
            self.note_list();
        }
    }

    /// Appends one set produced by `fill`, which writes the vertices onto
    /// the tail of the list arena (e.g. [`crate::generate_rrr_into`]) and
    /// returns its work count. Validated and repaired like [`Self::push`];
    /// a set the density rule sends to a bitmap is moved there and its
    /// list space reused by the next sample.
    pub fn append_with<F>(&mut self, fill: F) -> u64
    where
        F: FnOnce(&mut Vec<Vertex>) -> u64,
    {
        let work = self.lists.append_with(fill);
        let newest = self.lists.len() - 1;
        let set = self.lists.get(newest);
        // Ids beyond the universe cannot be bits; such a set stays a list.
        let fits = set.last().is_none_or(|&max| max < self.num_vertices);
        if fits && bitmap_is_smaller(set.len(), self.num_vertices) {
            let start = self.bits.len();
            self.grow_bits();
            let set = self.lists.get(newest);
            let bitmap = &mut self.bits[start..];
            for &v in set {
                bitmap[(v >> 6) as usize] |= 1 << (v & 63);
            }
            let len = set.len() as u32;
            self.lists.truncate_last();
            self.note_bitmap(len);
        } else {
            self.note_list();
        }
        work
    }

    /// Appends one set given as a bitmap of `len` set bits (the fused
    /// sampler's lane bitmaps). A set the density rule keeps as a list is
    /// expanded by word scan.
    pub fn append_bitmap(&mut self, words: &[u64], len: u32) {
        debug_assert_eq!(words.len(), bitmap_words(self.num_vertices));
        debug_assert_eq!(
            len,
            words.iter().map(|w| w.count_ones()).sum::<u32>(),
            "bitmap cardinality"
        );
        if bitmap_is_smaller(len as usize, self.num_vertices) {
            let start = self.bits.len();
            self.grow_bits();
            self.bits[start..].copy_from_slice(words);
            self.note_bitmap(len);
        } else {
            self.lists.append_with(|tail| {
                tail.extend(BitmapIter::new(words));
                0
            });
            self.note_list();
        }
    }

    /// Appends the sets of `arena` in order — the merge step of the
    /// streamed samplers. While neither side holds a bitmap this is a copy
    /// of the arena's lists and nothing else.
    pub(crate) fn append_arena(&mut self, arena: &SampleArena) {
        debug_assert_eq!(arena.num_vertices, self.num_vertices);
        if self.slots.is_empty() && arena.slots.is_empty() {
            self.lists.extend_from(&arena.lists);
            return;
        }
        self.materialize_slots();
        let list_base = self.lists.len() << 1;
        let bitmap_base = self.bitmap_lens.len() << 1;
        if arena.slots.is_empty() {
            self.slots
                .extend((0..arena.lists.len()).map(|rank| list_base + (rank << 1)));
        } else {
            self.slots.extend(arena.slots.iter().map(|&slot| {
                slot + if slot & BITMAP_SLOT == 0 {
                    list_base
                } else {
                    bitmap_base
                }
            }));
        }
        self.lists.extend_from(&arena.lists);
        self.bits.extend_from_slice(&arena.bits);
        self.bitmap_lens.extend_from_slice(&arena.bitmap_lens);
    }

    /// Gives the `Vec` growth slack of a batch of appends back:
    /// `resident_bytes` reports capacity, and the bitmap arena is what this
    /// layout exists to keep small.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.lists.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.bits.shrink_to_fit();
        self.bitmap_lens.shrink_to_fit();
    }

    /// Empties the collection, keeping its buffers for the next fill — a
    /// sampling worker's arena, reused block after block.
    pub(crate) fn clear(&mut self) {
        self.lists.clear();
        self.slots.clear();
        self.bits.clear();
        self.bitmap_lens.clear();
    }

    /// Appends one zeroed bitmap to `bits`. Grows by a quarter at a time:
    /// doubling would let a store filled set by set hold up to twice the
    /// bitmap bytes it needs.
    fn grow_bits(&mut self) {
        let words = bitmap_words(self.num_vertices);
        if self.bits.capacity() - self.bits.len() < words {
            self.bits.reserve_exact(words.max(self.bits.len() / 4));
        }
        self.bits.resize(self.bits.len() + words, 0);
    }

    fn materialize_slots(&mut self) {
        if self.slots.is_empty() {
            self.slots = (0..self.lists.len()).map(|rank| rank << 1).collect();
        }
    }

    /// Records that the newest list set is the newest sample.
    #[inline]
    fn note_list(&mut self) {
        if !self.slots.is_empty() {
            self.slots.push((self.lists.len() - 1) << 1);
        }
    }

    /// Records a bitmap set of `len` vertices whose words are already in
    /// `bits` as the newest sample.
    fn note_bitmap(&mut self, len: u32) {
        self.materialize_slots();
        self.slots.push(self.bitmap_lens.len() << 1 | BITMAP_SLOT);
        self.bitmap_lens.push(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrrStore;

    fn decoded(c: &MixedRrrCollection) -> Vec<Vec<Vertex>> {
        c.iter()
            .map(|set| {
                let mut out = Vec::new();
                set.for_each(|v| out.push(v));
                out
            })
            .collect()
    }

    #[test]
    fn rule_is_the_smaller_encoding() {
        // n = 64: one word (8 bytes) beats a list from three ids up.
        assert!(!bitmap_is_smaller(2, 64));
        assert!(bitmap_is_smaller(3, 64));
        assert!(!bitmap_is_smaller(0, 0));
        assert!(!bitmap_is_smaller(62, 2000));
        assert!(bitmap_is_smaller(63, 2000));
        assert_eq!(bitmap_words(0), 0);
        assert_eq!(bitmap_words(64), 1);
        assert_eq!(bitmap_words(65), 2);
    }

    #[test]
    fn bitmap_iter_walks_set_bits_ascending() {
        let words = [1u64 | 1 << 63, 0, 1 << 5];
        let got: Vec<Vertex> = BitmapIter::new(&words).collect();
        assert_eq!(got, vec![0, 63, 133]);
        assert_eq!(BitmapIter::new(&[]).count(), 0);
        assert_eq!(BitmapIter::new(&[0, 0]).count(), 0);
    }

    #[test]
    fn all_list_collection_is_the_list_collection() {
        let mut c = MixedRrrCollection::new(10_000);
        let mut plain = RrrCollection::new();
        for base in 0..50u32 {
            let set = [base, base + 7, base + 900];
            c.push(&set);
            plain.push(&set);
        }
        assert_eq!(c.as_lists(), Some(&plain));
        assert_eq!(c.resident_bytes(), plain.resident_bytes());
        assert_eq!(c.bitmap_sets(), 0);
        assert_eq!(c.bitmap_bytes(), 0);
    }

    #[test]
    fn dense_sets_become_bitmaps_and_decode_identically() {
        let n = 200u32;
        let dense: Vec<Vertex> = (0..n).filter(|v| !v.is_multiple_of(3)).collect();
        let sparse = vec![4, 9, 150];
        let mut c = MixedRrrCollection::new(n);
        c.push(&sparse);
        assert!(c.as_lists().is_some());
        c.push(&dense);
        c.push(&[]);
        c.push(&sparse);
        assert!(c.as_lists().is_none());
        assert_eq!(c.len(), 4);
        assert_eq!(c.bitmap_sets(), 1);
        assert_eq!(c.bitmap_bytes(), 4 * 8);
        assert_eq!(c.total_entries(), dense.len() as u64 + 6);
        assert_eq!(
            decoded(&c),
            vec![sparse.clone(), dense.clone(), vec![], sparse]
        );
        assert!(matches!(c.set(1), RrrSetRef::Bitmap { .. }));
        for v in 0..n + 70 {
            assert_eq!(c.set(1).contains(v), dense.contains(&v), "vertex {v}");
        }
    }

    #[test]
    fn repair_happens_before_the_rule() {
        // Seven entries look dense for n = 200, the three distinct ones
        // are not.
        let mut c = MixedRrrCollection::new(200);
        c.push(&[9, 3, 3, 7, 7, 9, 3]);
        assert_eq!(c.unsorted_pushes(), 1);
        assert_eq!(c.bitmap_sets(), 0);
        assert_eq!(decoded(&c), vec![vec![3, 7, 9]]);
        // Still dense after the repair: bitmap, and counted all the same.
        let mut messy: Vec<Vertex> = (0..100).rev().collect();
        messy.push(5);
        c.push(&messy);
        assert_eq!(c.unsorted_pushes(), 2);
        assert_eq!(c.bitmap_sets(), 1);
        assert_eq!(decoded(&c)[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ids_beyond_the_universe_stay_lists() {
        let mut c = MixedRrrCollection::new(8);
        c.push(&[1, 2, 300]);
        assert_eq!(c.bitmap_sets(), 0);
        assert_eq!(decoded(&c), vec![vec![1, 2, 300]]);
    }

    #[test]
    fn append_bitmap_applies_the_rule() {
        let n = 130u32;
        let mut words = vec![0u64; bitmap_words(n)];
        for v in [0u32, 64, 129] {
            words[(v >> 6) as usize] |= 1 << (v & 63);
        }
        let mut c = MixedRrrCollection::new(n);
        c.append_bitmap(&words, 3);
        assert_eq!(c.bitmap_sets(), 0, "3 of 130 is a list");
        words[0] |= 0xFFFF;
        c.append_bitmap(&words, 18);
        assert_eq!(c.bitmap_sets(), 1);
        let mut expect: Vec<Vertex> = (0..16).collect();
        expect.extend([64, 129]);
        assert_eq!(decoded(&c), vec![vec![0, 64, 129], expect]);
    }

    #[test]
    fn arena_merge_matches_pushes_in_every_mix() {
        let n = 300u32;
        let dense: Vec<Vertex> = (0..n).step_by(2).collect();
        let sets: Vec<Vec<Vertex>> = vec![
            vec![1, 5],
            dense.clone(),
            vec![],
            vec![299],
            dense,
            vec![0, 1, 2],
        ];
        // Arena boundaries at every position, so list-only and mixed arenas
        // meet list-only and mixed destinations.
        for split in 0..=sets.len() {
            let mut arenas = [
                SampleArena::with_capacity(n, split),
                SampleArena::with_capacity(n, sets.len() - split),
            ];
            for (i, s) in sets.iter().enumerate() {
                arenas[usize::from(i >= split)].append_with(|tail| {
                    tail.extend_from_slice(s);
                    0
                });
            }
            let mut merged = MixedRrrCollection::new(n);
            merged.push(&[7]);
            merged.append_arenas(&arenas);
            let mut pushed = MixedRrrCollection::new(n);
            pushed.push(&[7]);
            for s in &sets {
                pushed.push(s);
            }
            assert_eq!(decoded(&merged), decoded(&pushed), "split {split}");
            assert_eq!(merged.bitmap_sets(), 2);
            assert_eq!(merged.total_entries(), pushed.total_entries());
            // And a bare list collection expands the same arenas.
            let mut bare = RrrCollection::new();
            bare.push(&[7]);
            bare.append_arenas(&arenas);
            let lists: Vec<Vec<Vertex>> = bare.iter().map(<[Vertex]>::to_vec).collect();
            assert_eq!(lists, decoded(&pushed), "split {split}");
        }
    }

    #[test]
    fn from_lists_wraps_sparse_and_reencodes_dense() {
        let mut sparse = RrrCollection::new();
        sparse.push(&[1, 2]);
        let wrapped = MixedRrrCollection::from_lists(1000, sparse.clone());
        assert_eq!(wrapped.as_lists(), Some(&sparse));
        let reencoded = MixedRrrCollection::from_lists(40, sparse.clone());
        assert_eq!(reencoded.bitmap_sets(), 1);
        assert_eq!(decoded(&reencoded), vec![vec![1, 2]]);
    }
}
