//! Per-set adaptive RRR storage: each set is a sorted `u32` list, an n-bit
//! bitmap, or the sorted list of the vertices it leaves out, whichever is
//! smallest.
//!
//! On the paper's §4 uniform-probability inputs a reverse cascade spans
//! most of the graph: a set of ~n vertices costs 4·n bytes as a sorted list
//! and n/8 bytes as a bitmap, but only 4 bytes per vertex it misses as a
//! complement. HBMax (PAPERS.md) picks bitmap or coded list from exactly
//! this density signal; here the choice is made per set by [`set_form`],
//! written once and used by every place that picks a representation —
//! [`MixedRrrCollection::push`] / [`MixedRrrCollection::append_set`] /
//! [`MixedRrrCollection::append_bitmap`] and the fused sampler's block
//! emitter ([`crate::fused`]).
//!
//! [`MixedRrrCollection`] is both the store every run builds and
//! the worker-local [`SampleArena`] the parallel samplers fill, so a dense
//! set travels from the kernel to selection as a bitmap or complement
//! without its list ever being materialised. While it holds only lists it
//! *is* an [`RrrCollection`] — [`MixedRrrCollection::as_lists`] hands that
//! out and the slice selectors run on it unchanged — and it allocates
//! nothing beyond what the list collection allocates.

use crate::rrr::{grow, RrrCollection};
use ripples_graph::Vertex;

/// How one stored set is held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetForm {
    /// The sorted vertex ids, 4 bytes each.
    List,
    /// One bit per vertex of the graph, ⌈n/64⌉ words.
    Bitmap,
    /// The sorted ids of the vertices *not* in the set, 4 bytes each.
    Complement,
}

/// The one representation rule: a set of `len` vertices out of
/// `num_vertices` is kept as a complement iff `32·(n − len) < n` (its
/// missing ids take fewer bytes than the ⌈n/64⌉-word bitmap, and so than
/// the list too), else as a bitmap iff `32·len > n` (the bitmap is smaller
/// than the sorted `u32` list), else as a list. So lists hold sets of up to
/// n/32 vertices, bitmaps those up to 31n/32 and complements the rest. A
/// property of the set and the graph alone, so the encoding (and the
/// counters that report it) repeats exactly across thread and rank counts.
#[inline]
#[must_use]
pub fn set_form(len: usize, num_vertices: u32) -> SetForm {
    let (len, n) = (len as u64, u64::from(num_vertices));
    if len <= n && 32 * (n - len) < n {
        SetForm::Complement
    } else if 32 * len > n {
        SetForm::Bitmap
    } else {
        SetForm::List
    }
}

/// What a flat store holds in other forms than lists: the sets held as
/// bitmaps and as complements, and the bytes of their payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FormCounts {
    /// Sets held as bitmaps.
    pub bitmap_sets: u64,
    /// Their words' bytes, ⌈n/64⌉ words each.
    pub bitmap_bytes: u64,
    /// Sets held as complements.
    pub complement_sets: u64,
    /// Their missing ids' bytes, 4 each.
    pub complement_bytes: u64,
}

impl FormCounts {
    /// Sets held in a form other than a list.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.bitmap_sets + self.complement_sets
    }
}

impl std::ops::AddAssign for FormCounts {
    fn add_assign(&mut self, other: Self) {
        self.bitmap_sets += other.bitmap_sets;
        self.bitmap_bytes += other.bitmap_bytes;
        self.complement_sets += other.complement_sets;
        self.complement_bytes += other.complement_bytes;
    }
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
    /// Every vertex below `num_vertices` except the strictly ascending
    /// `missing` ids.
    Complement {
        /// The vertices left out of the set.
        missing: &'a [Vertex],
        /// The size of the vertex universe.
        num_vertices: u32,
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
            RrrSetRef::Complement {
                missing,
                num_vertices,
            } => *num_vertices as usize - missing.len(),
        }
    }

    /// True for the empty set.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership: a binary search on a list or a complement, one bit test
    /// on a bitmap.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        match self {
            RrrSetRef::List(list) => list.binary_search(&v).is_ok(),
            RrrSetRef::Bitmap { words, .. } => words
                .get((v >> 6) as usize)
                .is_some_and(|w| w >> (v & 63) & 1 == 1),
            RrrSetRef::Complement {
                missing,
                num_vertices,
            } => v < *num_vertices && missing.binary_search(&v).is_err(),
        }
    }

    /// Streams the vertices to `f` in ascending order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(Vertex)) {
        match self {
            RrrSetRef::List(list) => list.iter().copied().for_each(f),
            RrrSetRef::Bitmap { words, .. } => BitmapIter::new(words).for_each(f),
            RrrSetRef::Complement {
                missing,
                num_vertices,
            } => for_each_between(missing, 0, *num_vertices, &mut f),
        }
    }

    /// Streams the vertices in `[vl, vh)` to `f` in ascending order: the
    /// binary-searched sub-slice of a list, one word range of a bitmap, the
    /// interval less the binary-searched missing ids of a complement. `vl`
    /// must be a multiple of 64, and `vh` too unless no vertex of the set
    /// is `≥ vh` — Algorithm 4's interval owners, whose last interval ends
    /// at n.
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
            RrrSetRef::Complement {
                missing,
                num_vertices,
            } => {
                let vh = vh.min(*num_vertices);
                if vl < vh {
                    for_each_between(interval_of(missing, vl, vh), vl, vh, &mut f);
                }
            }
        }
    }
}

/// The part of a sorted set inside the vertex interval `[vl, vh)`, located
/// by binary search — the partition navigation of Algorithm 4 ("vl and vh
/// can be efficiently found using binary search").
#[inline]
fn interval_of(set: &[Vertex], vl: Vertex, vh: Vertex) -> &[Vertex] {
    let lo = set.partition_point(|&x| x < vl);
    let hi = set.partition_point(|&x| x < vh);
    &set[lo..hi]
}

/// Streams `[lo, hi)` less the ascending `missing` ids, all inside it, to
/// `f`: the runs between consecutive missing ids.
#[inline]
fn for_each_between(missing: &[Vertex], lo: Vertex, hi: Vertex, f: &mut impl FnMut(Vertex)) {
    let mut next = lo;
    for &gap in missing {
        (next..gap).for_each(&mut *f);
        next = gap + 1;
    }
    (next..hi).for_each(f);
}

/// An append-only sequence of RRR sets, each held as a sorted list, a
/// bitmap or a complement by [`set_form`].
///
/// List and complement sets live, in order, in one [`RrrCollection`] (a
/// complement as the sorted list of its missing ids); bitmap sets live, in
/// order, in one word arena. `slots` maps a sample index to its form and
/// its rank within its arena, and stays empty — unallocated — until the
/// first set that is not a list arrives.
#[derive(Clone, Debug)]
pub struct MixedRrrCollection {
    num_vertices: u32,
    lists: RrrCollection,
    /// `rank << TAG_BITS | form tag` per sample; empty while every set is a
    /// list.
    slots: Vec<usize>,
    /// `bitmap_words(num_vertices)` words per bitmap set.
    bits: Vec<u64>,
    /// Cardinality of each bitmap set.
    bitmap_lens: Vec<u32>,
    /// Sets held as complements.
    complements: u64,
    /// Missing ids over all complements: their entries in `lists`.
    missing: u64,
    /// The most list entries and the most bytes a bounded collection's
    /// buffers grow toward ([`Self::bounded`]); `None` leaves their growth
    /// to `Vec`.
    bound: Option<(usize, usize)>,
}

/// A worker's sample arena, filled with one block of a parallel sampling
/// batch and merged into a store by [`crate::RrrStore::append_arena`]: the
/// same type the flat store is, so a dense set is a bitmap or complement
/// from the moment the kernel emits it.
pub type SampleArena = MixedRrrCollection;

const TAG_BITS: u32 = 2;
const TAG_MASK: usize = (1 << TAG_BITS) - 1;
const LIST_SLOT: usize = 0;
const BITMAP_SLOT: usize = 1;
const COMPLEMENT_SLOT: usize = 2;

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
            complements: 0,
            missing: 0,
            bound: None,
        }
    }

    /// An empty collection whose buffers grow by a quarter of their length
    /// at a time, as the worker arenas do, toward at most `entries` list
    /// entries and `bytes` resident bytes, and past that only by what one
    /// set needs: a released store's stage, which [`Self::clear`] empties
    /// and refills up to a limit of `entries` and `bytes` many times over.
    #[must_use]
    pub(crate) fn bounded(num_vertices: u32, entries: usize, bytes: usize) -> Self {
        Self {
            bound: Some((entries, bytes)),
            ..Self::new(num_vertices)
        }
    }

    /// Adopts an existing list collection (the snapshot-restore path). A
    /// collection whose sets the rule keeps as lists is wrapped as it is;
    /// otherwise every set is re-encoded by [`Self::push`].
    #[must_use]
    pub fn from_lists(num_vertices: u32, lists: RrrCollection) -> Self {
        let mut out = Self::new(num_vertices);
        if lists
            .iter()
            .any(|set| set_form(set.len(), num_vertices) != SetForm::List)
        {
            for set in lists.iter() {
                out.push(set);
            }
        } else {
            out.lists = lists;
        }
        out
    }

    /// The size of the vertex universe.
    #[must_use]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// The list collection, while every set is held as a list.
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

    /// Total vertex entries across all sets, in any form.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        let in_bitmaps: u64 = self.bitmap_lens.iter().map(|&len| u64::from(len)).sum();
        let in_complements = self.complements * u64::from(self.num_vertices) - self.missing;
        self.lists.total_entries() as u64 - self.missing + in_complements + in_bitmaps
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

    /// Sets held as complements.
    #[must_use]
    pub fn complement_sets(&self) -> u64 {
        self.complements
    }

    /// Bytes of complement payload: 4 per missing id.
    #[must_use]
    pub fn complement_bytes(&self) -> u64 {
        self.missing * std::mem::size_of::<Vertex>() as u64
    }

    /// The four counts above.
    #[must_use]
    pub fn form_counts(&self) -> FormCounts {
        FormCounts {
            bitmap_sets: self.bitmap_sets(),
            bitmap_bytes: self.bitmap_bytes(),
            complement_sets: self.complement_sets(),
            complement_bytes: self.complement_bytes(),
        }
    }

    /// Samples repaired on insert for violating the sorted contract.
    #[must_use]
    pub fn unsorted_pushes(&self) -> u64 {
        self.lists.unsorted_pushes()
    }

    /// Bytes of every backing buffer at its length: what
    /// [`Self::resident_bytes`] reports with no growth slack.
    pub(crate) fn held_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.lists.len() + 1 + self.slots.len()) * size_of::<usize>()
            + self.lists.total_entries() * size_of::<Vertex>()
            + self.bits.len() * size_of::<u64>()
            + self.bitmap_lens.len() * size_of::<u32>()
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
        let rank = slot >> TAG_BITS;
        match slot & TAG_MASK {
            LIST_SLOT => RrrSetRef::List(self.lists.get(rank)),
            BITMAP_SLOT => {
                let words = bitmap_words(self.num_vertices);
                RrrSetRef::Bitmap {
                    words: &self.bits[rank * words..(rank + 1) * words],
                    len: self.bitmap_lens[rank],
                }
            }
            _ => RrrSetRef::Complement {
                missing: self.lists.get(rank),
                num_vertices: self.num_vertices,
            },
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
        self.push_with(vertices, RrrCollection::push);
    }

    /// [`Self::push`] for a set a sampler collected in a buffer of its own
    /// (the BFS queue of [`crate::rrr::generate_rrr_in_scratch`]): only a
    /// set the density rule keeps as a list is copied to the list arena,
    /// which grows by a quarter at a time, as a worker's arena reused block
    /// after block wants; a bitmap or complement is built from the buffer.
    pub fn append_set(&mut self, vertices: &[Vertex]) {
        self.push_with(vertices, |lists, set| {
            lists.append_with(true, |tail| tail.extend_from_slice(set));
        });
    }

    /// Appends `vertices` in the form the rule gives it, a list through
    /// `list`, which repairs and counts an out-of-contract set; a set still
    /// dense after the repair moves on to its form.
    fn push_with(&mut self, vertices: &[Vertex], list: impl FnOnce(&mut RrrCollection, &[Vertex])) {
        let ascending = vertices.windows(2).all(|w| w[0] < w[1]);
        let form = if ascending {
            self.form_of(vertices)
        } else {
            SetForm::List
        };
        if form != SetForm::List {
            self.push_dense(vertices, form);
            return;
        }
        self.reserve(1, vertices.len(), 0, false);
        list(&mut self.lists, vertices);
        let newest = self.lists.len() - 1;
        let repaired = self.lists.get(newest);
        match self.form_of(repaired) {
            SetForm::List => self.note_list(),
            form => {
                let repaired = repaired.to_vec();
                self.lists.truncate_last();
                self.push_dense(&repaired, form);
            }
        }
    }

    /// The form of a strictly ascending set: the rule's, but a list for a
    /// set with ids beyond the universe, which cannot be bits or gaps.
    fn form_of(&self, set: &[Vertex]) -> SetForm {
        match set.last() {
            Some(&max) if max >= self.num_vertices => SetForm::List,
            _ => set_form(set.len(), self.num_vertices),
        }
    }

    /// Appends a strictly ascending set of the universe as the bitmap or
    /// complement `form` says.
    fn push_dense(&mut self, set: &[Vertex], form: SetForm) {
        if form == SetForm::Bitmap {
            self.reserve(0, 0, 1, true);
            let start = self.bits.len();
            self.grow_bits();
            let bitmap = &mut self.bits[start..];
            for &v in set {
                bitmap[(v >> 6) as usize] |= 1 << (v & 63);
            }
            self.note_bitmap(set.len() as u32);
        } else {
            let n = self.num_vertices;
            self.append_complement(n as usize - set.len(), |tail| {
                let mut next = 0;
                for &v in set {
                    tail.extend(next..v);
                    next = v + 1;
                }
                tail.extend(next..n);
            });
        }
    }

    /// Appends the set of every vertex of the universe but `missing` (a
    /// restored snapshot's complement record).
    ///
    /// # Errors
    ///
    /// The violated contract, as text: `missing` must be strictly
    /// ascending, name vertices of the universe, and leave a set the
    /// density rule holds as a complement.
    pub fn push_complement(&mut self, missing: &[Vertex]) -> Result<(), String> {
        let n = self.num_vertices;
        if !missing.windows(2).all(|w| w[0] < w[1]) {
            return Err("missing ids are not strictly ascending".to_string());
        }
        if missing.last().is_some_and(|&max| max >= n) {
            return Err(format!("a missing id is past the {n}-vertex universe"));
        }
        let len = n as usize - missing.len();
        if set_form(len, n) != SetForm::Complement {
            return Err(format!(
                "{} missing ids leave {len} of {n} vertices, not a complement",
                missing.len()
            ));
        }
        self.append_complement(missing.len(), |tail| tail.extend_from_slice(missing));
        Ok(())
    }

    /// Appends one set given as a bitmap of `len` set bits (the fused
    /// sampler's lane bitmaps). A set the density rule keeps as a list is
    /// expanded by word scan, one it keeps as a complement by a scan of the
    /// clear bits.
    pub fn append_bitmap(&mut self, words: &[u64], len: u32) {
        let n = self.num_vertices;
        debug_assert_eq!(words.len(), bitmap_words(n));
        debug_assert_eq!(
            len,
            words.iter().map(|w| w.count_ones()).sum::<u32>(),
            "bitmap cardinality"
        );
        match set_form(len as usize, n) {
            SetForm::List => {
                self.reserve(1, len as usize, 0, false);
                let ahead = self.bound.is_none();
                self.lists
                    .append_with(ahead, |tail| tail.extend(BitmapIter::new(words)));
                self.note_list();
            }
            SetForm::Bitmap => {
                self.reserve(0, 0, 1, true);
                let start = self.bits.len();
                self.grow_bits();
                self.bits[start..].copy_from_slice(words);
                self.note_bitmap(len);
            }
            SetForm::Complement => self.append_complement(n as usize - len as usize, |tail| {
                for (i, &word) in words.iter().enumerate() {
                    let base = (i as Vertex) << 6;
                    let beyond = u64::MAX.checked_shl(n - base).unwrap_or(0);
                    let clear = !(word | beyond);
                    tail.extend(BitmapIter::new(&[clear]).map(|v| base + v));
                }
            }),
        }
    }

    /// Appends one set held in any form over the same vertex universe, so
    /// in the form the density rule gives it here too.
    pub(crate) fn push_set(&mut self, set: RrrSetRef<'_>) {
        match set {
            RrrSetRef::List(list) => self.push(list),
            RrrSetRef::Bitmap { words, len } => self.append_bitmap(words, len),
            RrrSetRef::Complement {
                missing,
                num_vertices,
            } => {
                debug_assert_eq!(num_vertices, self.num_vertices);
                debug_assert_eq!(set_form(set.len(), num_vertices), SetForm::Complement);
                self.append_complement(missing.len(), |tail| tail.extend_from_slice(missing));
            }
        }
    }

    /// Appends the sets of `arena` in order — the merge step of the
    /// streamed samplers. While neither side holds anything but lists this
    /// is a copy of the arena's lists and nothing else.
    pub(crate) fn append_arena(&mut self, arena: &SampleArena) {
        debug_assert_eq!(arena.num_vertices, self.num_vertices);
        self.reserve(
            arena.lists.len(),
            arena.lists.total_entries(),
            arena.bitmap_lens.len(),
            !arena.slots.is_empty(),
        );
        if self.slots.is_empty() && arena.slots.is_empty() {
            self.lists.extend_from(&arena.lists);
            return;
        }
        self.materialize_slots();
        let list_base = self.lists.len() << TAG_BITS;
        let bitmap_base = self.bitmap_lens.len() << TAG_BITS;
        if arena.slots.is_empty() {
            self.slots
                .extend((0..arena.lists.len()).map(|rank| list_base + (rank << TAG_BITS)));
        } else {
            self.slots.extend(arena.slots.iter().map(|&slot| {
                slot + if slot & TAG_MASK == BITMAP_SLOT {
                    bitmap_base
                } else {
                    list_base
                }
            }));
        }
        self.lists.extend_from(&arena.lists);
        self.bits.extend_from_slice(&arena.bits);
        self.bitmap_lens.extend_from_slice(&arena.bitmap_lens);
        self.complements += arena.complements;
        self.missing += arena.missing;
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
        self.complements = 0;
        self.missing = 0;
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

    /// Makes room for `records` more list-arena records (lists and
    /// complements) of `entries` ids in all and `bitmaps` more bitmaps,
    /// `dense` when some of them are not lists. A bounded collection grows
    /// each buffer that lacks room by a quarter of its length, but not past
    /// its bound, and never by less than it lacks; an unbounded one leaves
    /// growth to `Vec`.
    fn reserve(&mut self, records: usize, entries: usize, bitmaps: usize, dense: bool) {
        let Some((most, bytes)) = self.bound else {
            return;
        };
        let tagged = !self.slots.is_empty();
        let untagged = if tagged { 0 } else { self.lists.len() };
        let slots = usize::from(dense || tagged) * (records + bitmaps + untagged);
        let words = bitmaps * bitmap_words(self.num_vertices);
        let mut room = bytes.saturating_sub(self.resident_bytes());
        let lists = self.lists.reserve_toward(records, entries, most, room);
        room -= lists.min(room);
        room -= grow(&mut self.slots, slots, most, room).min(room);
        room -= grow(&mut self.bits, words, usize::MAX, room).min(room);
        grow(&mut self.bitmap_lens, bitmaps, usize::MAX, room);
    }

    /// Tags every list set so far, into the slots' own buffer (a bounded
    /// collection reserved it).
    fn materialize_slots(&mut self) {
        if self.slots.is_empty() {
            self.slots
                .extend((0..self.lists.len()).map(|rank| rank << TAG_BITS | LIST_SLOT));
        }
    }

    /// Records that the newest list set is the newest sample.
    #[inline]
    fn note_list(&mut self) {
        if !self.slots.is_empty() {
            self.slots
                .push((self.lists.len() - 1) << TAG_BITS | LIST_SLOT);
        }
    }

    /// Records a bitmap set of `len` vertices whose words are already in
    /// `bits` as the newest sample.
    fn note_bitmap(&mut self, len: u32) {
        self.materialize_slots();
        self.slots
            .push(self.bitmap_lens.len() << TAG_BITS | BITMAP_SLOT);
        self.bitmap_lens.push(len);
    }

    /// Appends, as the newest sample, the complement whose `missing`
    /// ascending ids `fill` writes onto the tail of the list arena.
    fn append_complement(&mut self, missing: usize, fill: impl FnOnce(&mut Vec<Vertex>)) {
        self.reserve(1, missing, 0, true);
        self.materialize_slots();
        let before = self.lists.total_entries();
        self.lists.append_with(self.bound.is_none(), fill);
        self.slots
            .push((self.lists.len() - 1) << TAG_BITS | COMPLEMENT_SLOT);
        self.complements += 1;
        self.missing += (self.lists.total_entries() - before) as u64;
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
        use SetForm::{Bitmap, Complement, List};
        // n = 64: one word (8 bytes) beats a list from three ids up, and one
        // missing id (4 bytes) beats the word.
        let forms: Vec<SetForm> = (0..=64).map(|len| set_form(len, 64)).collect();
        assert_eq!(&forms[..3], [List; 3]);
        assert!(forms[3..63].iter().all(|&f| f == Bitmap));
        assert_eq!(&forms[63..], [Complement; 2]);
        assert_eq!(set_form(0, 0), List);
        assert_eq!(set_form(1, 1), Complement);
        assert_eq!(set_form(0, 1), List);
        // n = 2000: lists up to 62 = n/32, complements from 1938 = 31n/32
        // up, bitmaps between.
        assert_eq!(set_form(62, 2000), List);
        assert_eq!(set_form(63, 2000), Bitmap);
        assert_eq!(set_form(1937, 2000), Bitmap);
        assert_eq!(set_form(1938, 2000), Complement);
        assert_eq!(set_form(2000, 2000), Complement);
        // A count past n (ids beyond the universe) is never a complement.
        assert_eq!(set_form(2001, 2000), Bitmap);
        assert_eq!(set_form(usize::MAX >> 8, u32::MAX), Bitmap);
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
    fn near_full_sets_become_complements_and_decode_identically() {
        // n = 130: three words, not a multiple of 64; sets missing 0–4 ids
        // (4·missing < 24 bytes) are complements.
        let n = 130u32;
        let all: Vec<Vertex> = (0..n).collect();
        let gaps = |missing: &[Vertex]| -> Vec<Vertex> {
            all.iter()
                .copied()
                .filter(|v| !missing.contains(v))
                .collect()
        };
        let sets = [
            gaps(&[0, 63, 64, 129]),
            all.clone(),
            vec![5, 6],
            gaps(&[127]),
        ];
        let mut c = MixedRrrCollection::new(n);
        for s in &sets {
            c.push(s);
        }
        assert_eq!(c.complement_sets(), 3);
        assert_eq!(c.complement_bytes(), 4 * 5);
        assert_eq!(c.bitmap_sets(), 0);
        assert!(c.as_lists().is_none());
        assert_eq!(
            c.total_entries(),
            sets.iter().map(|s| s.len() as u64).sum::<u64>()
        );
        assert_eq!(decoded(&c), sets.to_vec());
        assert!(matches!(
            c.set(0),
            RrrSetRef::Complement {
                missing: [0, 63, 64, 129],
                num_vertices: 130
            }
        ));
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(c.set(i).len(), s.len());
            for v in 0..n + 70 {
                assert_eq!(c.set(i).contains(v), s.contains(&v), "set {i} vertex {v}");
            }
            for (vl, vh) in [(0, 64), (64, 128), (128, n), (0, Vertex::MAX), (192, 256)] {
                let mut got = Vec::new();
                c.set(i).for_each_in(vl, vh, |v| got.push(v));
                let expect: Vec<Vertex> =
                    s.iter().copied().filter(|&v| vl <= v && v < vh).collect();
                assert_eq!(got, expect, "set {i} in [{vl}, {vh})");
            }
        }
        // The fused sampler's bitmaps reach the same forms.
        let mut from_bits = MixedRrrCollection::new(n);
        for s in &sets {
            let mut words = vec![0u64; bitmap_words(n)];
            s.iter()
                .for_each(|&v| words[(v >> 6) as usize] |= 1 << (v & 63));
            from_bits.append_bitmap(&words, s.len() as u32);
        }
        assert_eq!(decoded(&from_bits), sets.to_vec());
        assert_eq!(from_bits.form_counts(), c.form_counts());
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
        let near_full: Vec<Vertex> = (0..n).filter(|v| ![0, 64, 250].contains(v)).collect();
        let sets: Vec<Vec<Vertex>> = vec![
            vec![1, 5],
            dense.clone(),
            near_full.clone(),
            vec![],
            vec![299],
            dense,
            vec![0, 1, 2],
            near_full,
        ];
        // Arena boundaries at every position, so list-only and mixed arenas
        // of all three forms meet list-only and mixed destinations.
        for split in 0..=sets.len() {
            let mut arenas = [
                SampleArena::with_capacity(n, split),
                SampleArena::with_capacity(n, sets.len() - split),
            ];
            for (i, s) in sets.iter().enumerate() {
                arenas[usize::from(i >= split)].append_set(s);
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
            assert_eq!((merged.bitmap_sets(), merged.complement_sets()), (2, 2));
            assert_eq!(merged.form_counts(), pushed.form_counts());
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
        // 39 of 40 vertices: a complement of one id.
        let near_full: Vec<Vertex> = (0..40).filter(|&v| v != 7).collect();
        let mut lists = sparse.clone();
        lists.push(&near_full);
        let reencoded = MixedRrrCollection::from_lists(40, lists);
        assert_eq!(reencoded.form_counts().sets(), 2);
        assert_eq!(reencoded.complement_bytes(), 4);
        assert_eq!(decoded(&reencoded), vec![vec![1, 2], near_full]);
    }
}
