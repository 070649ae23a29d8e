//! The inverted index (vertex → the samples containing it) that lets seed
//! selection walk one row per chosen seed instead of probing every sample.
//!
//! *"Previous implementations store this information in two directions using
//! the notion of a hypergraph, where each RRR set (or sample) is a hyperedge
//! consisting of a subset of vertices in the input graph. Information for
//! each vertex about the samples that it participates in is also maintained.
//! Thus, each association between a sample and a vertex is stored twice.
//! While this information aids in faster selection of seed set later, the
//! memory footprint can become a limitation."* (§3.1)
//!
//! [`SampleIndex`] keeps the fast selection and drops most of the cost: the
//! second direction is gap-varint coded, 1–2 bytes per association, and a
//! run that selects from the index alone keeps only the rows of the
//! vertices its greedy can still reach ([`SampleIndex::cool_below`]). (The
//! two-direction layout itself, kept as the measured baseline of Tables 2
//! and 3, is `TangStorage` in `ripples-core`.)

use crate::intervals::{fork_owners, owner_intervals};
use crate::spill::SpillFile;
use crate::store::RrrStore;
use ripples_graph::varint::{read_varint, varint_len, write_varint};
use ripples_graph::Vertex;
use std::sync::Arc;

/// One bit per vertex, set for the cold ones, and per 64-vertex word the hot
/// vertices before it; both empty while every vertex is hot.
#[derive(Clone, Debug, Default)]
struct Cold {
    bits: Vec<u64>,
    /// Hot vertices before each word, and after the last; what
    /// [`Cold::recount`] left.
    before_word: Vec<u32>,
}

impl Cold {
    #[inline]
    fn contains(&self, v: usize) -> bool {
        self.bits
            .get(v / 64)
            .is_some_and(|word| word >> (v % 64) & 1 == 1)
    }

    /// Turns `v` cold; [`Cold::recount`] must follow before the next
    /// [`Cold::hot_before`].
    fn insert(&mut self, v: usize, num_vertices: usize) {
        if self.bits.is_empty() {
            self.bits = vec![0; num_vertices.div_ceil(64)];
        }
        self.bits[v / 64] |= 1 << (v % 64);
    }

    /// Counts the hot vertices before each word again, after inserts.
    fn recount(&mut self, num_vertices: usize) {
        let mut hot = 0u32;
        self.before_word = Vec::with_capacity(self.bits.len() + 1);
        for (w, &word) in self.bits.iter().enumerate() {
            self.before_word.push(hot);
            hot += (num_vertices - 64 * w).min(64) as u32 - word.count_ones();
        }
        self.before_word.push(hot);
    }

    /// The hot vertices below `v` (`v` up to the index's vertex count): a
    /// hot vertex's slot in a table over the hot vertices, and `v` itself
    /// while none is cold.
    #[inline]
    fn hot_before(&self, v: usize) -> usize {
        if self.bits.is_empty() {
            return v;
        }
        let (w, b) = (v / 64, v % 64);
        let below = match b {
            0 => 0,
            b => (!self.bits[w] & ((1u64 << b) - 1)).count_ones(),
        };
        self.before_word[w] as usize + below as usize
    }
}

/// The vertices a table has a row for, ascending, each in the slot of its
/// position — the hot ones when the table was built — or `None`, which
/// has a row for every vertex, in slot `v` for vertex `v`.
type Slots = Option<Arc<[Vertex]>>;

/// Vertex `v`'s slot in a table over `slots`; `None` when it has no row.
#[inline]
fn slot_of(slots: &Slots, v: usize) -> Option<usize> {
    match slots {
        None => Some(v),
        Some(hot) => hot.binary_search(&(v as Vertex)).ok(),
    }
}

/// The rows of one run of consecutive samples, in a table over the index's
/// slots.
#[derive(Debug)]
struct Segment {
    /// Id of the run's first sample.
    first: u32,
    /// Byte bounds of each slot's row in `rows`, plus a sentinel.
    offsets: Vec<u32>,
    /// Each slot's ascending sample ids within the run, every id coded as
    /// the varint of its distance past the previous one, minus one; a row's
    /// first id is coded as if `first - 1` preceded it.
    rows: Vec<u8>,
}

impl Segment {
    fn row(&self, slot: usize) -> &[u8] {
        &self.rows[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Bytes of the table.
    fn table_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.offsets.len()
    }

    /// Reserved bytes of the table and the rows.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.offsets.capacity() + self.rows.capacity()
    }

    /// Drops the rows of the `cold` vertices from a table over `slots`,
    /// which becomes a table over `slots` less the cold.
    fn compact(&mut self, slots: &Slots, cold: &Cold) {
        let vertex = |s: usize| slots.as_ref().map_or(s, |hot| hot[s] as usize);
        let hot = || (0..self.offsets.len() - 1).filter(|&s| !cold.contains(vertex(s)));
        let bytes: usize = hot().map(|s| self.row(s).len()).sum();
        let mut rows = Vec::with_capacity(bytes);
        let mut offsets = Vec::with_capacity(hot().count() + 1);
        offsets.push(0);
        for s in hot() {
            rows.extend_from_slice(self.row(s));
            offsets.push(rows.len() as u32);
        }
        (self.offsets, self.rows) = (offsets, rows);
    }
}

/// Where a spilled segment lives: its table's bounds, as little-endian
/// `u32`s, then its rows, from `at` on in the spill file.
#[derive(Debug)]
struct Spilled {
    /// Id of the run's first sample.
    first: u32,
    /// The slots of the table, which stay resident.
    slots: Slots,
    /// Bytes of the bounds before the rows.
    table: u64,
    at: u64,
}

/// Streams the ids of `row`, coded from `prev` on; returns the last one
/// (`prev` itself for an empty row).
#[inline]
fn decode_row(row: &[u8], mut prev: u32, mut f: impl FnMut(u32)) -> u32 {
    let mut pos = 0usize;
    while pos < row.len() {
        prev = prev
            .wrapping_add(read_varint(row, &mut pos))
            .wrapping_add(1);
        f(prev);
    }
    prev
}

/// One interval owner's share of the segment being built: its vertices
/// `vl..vh`, and the slots of its hot ones from `slot` on.
struct Share<'a> {
    vl: Vertex,
    vh: Vertex,
    slot: usize,
    /// Per slot of the interval, the id its row's next gap is coded from.
    tails: &'a mut [u32],
    /// Per slot, its row's byte length in the counting pass and its write
    /// cursor into the segment's rows in the fill pass.
    at: &'a mut [u32],
    /// Per vertex of the interval.
    degrees: &'a mut [u32],
    /// The interval's rows (none yet in the counting pass), which begin
    /// `base` bytes into the segment's.
    rows: &'a mut [u8],
    base: u32,
}

/// What a segment being built holds before its new samples: the rows of a
/// segment folded into it, and their byte bounds, a table over the same
/// slots.
type Kept<'a> = Option<(&'a [u8], &'a [u32])>;

/// One owner's vertex interval and the first slot of it and of the next.
type Span = ((Vertex, Vertex), (usize, usize));

impl<'a> Share<'a> {
    /// Cuts the per-slot arrays at the `spans`' slots, the degrees at their
    /// vertices and `rows` at their `(base, bytes)` regions.
    fn split(
        spans: &[Span],
        regions: &[(u32, usize)],
        mut tails: &'a mut [u32],
        mut at: &'a mut [u32],
        mut degrees: &'a mut [u32],
        mut rows: &'a mut [u8],
    ) -> Vec<Self> {
        fn take<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(rest).split_at_mut(len);
            *rest = tail;
            head
        }
        let share = |(&((vl, vh), (sl, sh)), &(base, bytes)): (&Span, &(u32, usize))| Share {
            vl,
            vh,
            slot: sl,
            tails: take(&mut tails, sh - sl),
            at: take(&mut at, sh - sl),
            degrees: take(&mut degrees, (vh - vl) as usize),
            rows: take(&mut rows, bytes),
            base,
        };
        let mut shares: Vec<Self> = spans.iter().zip(regions).map(share).collect();
        // The last owner also meets any vertex past its interval, and fails
        // on it, rather than leave it out of the index.
        shares.last_mut().expect("an owner").vh = Vertex::MAX;
        shares
    }

    /// One pass of every owner over what the segment will hold of its
    /// interval: `keep` is handed each `kept` row, `code` each gap the
    /// samples with ids `new` add to the row of a vertex that is not `cold`
    /// (rows start coding from the id `before`; id `i` is sample `i - base`
    /// of `sets`), in row order, each by the share's slot. The `counting`
    /// pass also counts every vertex's samples, cold ones included, in its
    /// degree.
    #[allow(clippy::too_many_arguments)]
    fn pass<S: RrrStore + Sync>(
        sets: &S,
        shares: &mut [Self],
        (kept, new, before, base): (Kept<'_>, std::ops::Range<usize>, u32, usize),
        cold: &Cold,
        counting: bool,
        keep: impl Fn(&mut Self, usize, &[u8]) + Sync,
        code: impl Fn(&mut Self, usize, u32) + Sync,
    ) {
        fork_owners(shares, |share| {
            for j in 0..share.tails.len() {
                let s = share.slot + j;
                let row = kept.map_or(&[][..], |(rows, bounds)| {
                    &rows[bounds[s] as usize..bounds[s + 1] as usize]
                });
                keep(share, j, row);
                share.tails[j] = decode_row(row, before, |_| ());
            }
            for i in new.clone() {
                let id = i as u32;
                sets.set(i - base).for_each_in(share.vl, share.vh, |v| {
                    if counting {
                        share.degrees[(v - share.vl) as usize] += 1;
                    }
                    if cold.contains(v as usize) {
                        return;
                    }
                    let j = cold.hot_before(v as usize) - share.slot;
                    code(share, j, id.wrapping_sub(share.tails[j]).wrapping_sub(1));
                    share.tails[j] = id;
                });
            }
        });
    }
}

/// The one inverted index: vertex → the ascending ids of the samples
/// containing it, over an append-only [`RrrStore`].
///
/// IMM's θ-doubling loop selects over the same store every round while the
/// store only grows at the tail, and a serve process selects over a sealed
/// one for every query. [`absorb`] therefore reads only the samples
/// appended since the last call and adds them as one *segment*: a table of
/// `u32` row offsets and one byte buffer holding every row's gap-varint ids
/// for those samples, built by a counting sort (row byte lengths → prefix
/// sum → fill) whose two passes run under Algorithm 4's vertex-interval
/// owners: disjoint writes, no atomics. A segment whose rows are smaller
/// than its own table is folded into the next one instead of staying, so
/// the tables of all segments together never outweigh the rows by more
/// than one table, and a doubling θ schedule does not pay a table per tiny
/// early round. So is the newest segment after a cooling compacted it,
/// whatever its size: a run that stages by its hot rows absorbs in smaller
/// segments, and its rounds' last and first segments then share a table
/// (CI's 60 000-vertex hot-index shape peaks at 2.97 MB with that fold and
/// 3.23 MB without it). [`for_each_sample`] walks the segments in order, which
/// keeps ids ascending: selection over the index is bitwise what a scan of
/// the store gives.
///
/// Hot and cold vertices: every vertex is *hot* until
/// [`SampleIndex::cool_below`] turns those of low degree *cold*, for good.
/// A cold vertex's rows leave the resident segments and later absorbs skip
/// it, but its degree still counts every sample. From the first cooling
/// on, tables cover the hot vertices alone: every resident segment's table
/// has one offset per hot vertex, and the sorted list of the hot vertices,
/// which maps a vertex to its slot, is held once for all of them — so a
/// table costs `4·(h + 1)` bytes for `h` hot vertices rather than
/// `4·(n + 1)`. Reading a cold vertex's row panics: it never streams an
/// empty row. An index with more hot vertices is rebuilt from the same
/// samples drawn again ([`SampleIndex::revived`]).
///
/// Sample ids are the index's only global `u32`. A segment addresses its
/// rows with `u32` byte offsets, and a batch is cut into further segments
/// before one's bytes could pass that.
///
/// Out of core: under a resident limit ([`SampleIndex::limit_resident`],
/// which a store sets from its `--rrr-budget`), the oldest *sealed*
/// segments — every one but a newest that the next absorb may still fold —
/// are written to a spill file, table and rows together, until the index
/// fits. Only the degrees, each spilled segment's first id, file offset
/// and hot list stay in RAM; a spilled row is two positioned reads, its two
/// table bounds and then its bytes. Spilling moves no id and no row, and
/// spilled segments are not compacted (their rows cost no RAM), so
/// whatever reads the index reads the same ids.
///
/// [`absorb`]: SampleIndex::absorb
/// [`for_each_sample`]: SampleIndex::for_each_sample
#[derive(Debug)]
pub struct SampleIndex {
    /// The segments on disk, oldest first; all of them precede `segments`.
    spilled: Vec<Spilled>,
    /// The resident segments, in order, each in a table over `slots`.
    segments: Vec<Segment>,
    /// The hot vertices once any is cold ([`SampleIndex::cool_below`]);
    /// `None` until then.
    slots: Slots,
    /// Per-vertex sample counts.
    degrees: Vec<u32>,
    /// The vertices whose rows are gone.
    cold: Cold,
    /// Vertices not cold.
    hot_rows: usize,
    /// Samples consumed from the store so far; `absorb` resumes here.
    absorbed: usize,
    /// The most bytes a segment's rows may be planned to hold.
    segment_cap: u32,
    /// The most bytes the index may keep resident; `None` keeps every
    /// segment.
    resident_limit: Option<usize>,
    /// Whether a cooling compacted the newest resident segment since the
    /// last absorb, which then folds it whatever its size.
    fold_newest: bool,
    spill: SpillFile,
}

impl SampleIndex {
    /// Creates an empty index over `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: u32) -> Self {
        Self::with_segment_cap(num_vertices, u32::MAX)
    }

    /// [`SampleIndex::new`] with the per-segment byte cap lowered, at least
    /// `num_vertices` so that any one sample fits a segment of its own.
    ///
    /// # Panics
    ///
    /// Panics if `segment_cap < num_vertices`.
    #[must_use]
    pub fn with_segment_cap(num_vertices: u32, segment_cap: u32) -> Self {
        assert!(segment_cap >= num_vertices);
        Self {
            spilled: Vec::new(),
            segments: Vec::new(),
            slots: None,
            degrees: vec![0; num_vertices as usize],
            cold: Cold::default(),
            hot_rows: num_vertices as usize,
            absorbed: 0,
            segment_cap,
            resident_limit: None,
            fold_newest: false,
            spill: SpillFile::new("index segments"),
        }
    }

    /// Bounds [`SampleIndex::resident_bytes`] by `limit` (`None` lifts the
    /// bound) and spills sealed segments, oldest first, until the index
    /// fits; every later absorb does the same. It can stay over by one
    /// segment, a newest one smaller than its table, which stays resident
    /// while the next absorb may fold it, and by the degrees and spilled
    /// segments' offsets, which never leave RAM. After a failed spill-file
    /// write every segment stays resident (see
    /// [`SampleIndex::spill_write_failures`]).
    pub fn limit_resident(&mut self, limit: Option<usize>) {
        self.resident_limit = limit;
        self.spill_sealed();
    }

    /// Writes sealed segments, oldest first, to the spill file while the
    /// index passes its limit.
    fn spill_sealed(&mut self) {
        let Some(limit) = self.resident_limit else {
            return;
        };
        while self.resident_bytes() > limit && self.spill.writable() {
            let Some(oldest) = self.segments.first() else {
                return;
            };
            if self.segments.len() == 1 && oldest.rows.len() < oldest.table_bytes() {
                return;
            }
            let table: Vec<u8> = oldest
                .offsets
                .iter()
                .flat_map(|o| o.to_le_bytes())
                .collect();
            let Some(at) = self.spill.append(&[&table, &oldest.rows]) else {
                return;
            };
            let oldest = self.segments.remove(0);
            self.spilled.push(Spilled {
                first: oldest.first,
                slots: self.slots.clone(),
                table: table.len() as u64,
                at,
            });
        }
    }

    /// Appends every sample `sets` gained since the previous `absorb` (all
    /// of them on the first call), with up to `owners` vertex-interval
    /// owners; with nothing new it returns untouched. It must be the same
    /// append-only store across calls — samples already absorbed are never
    /// re-read.
    ///
    /// # Panics
    ///
    /// Panics if the store holds `u32::MAX` samples or more (selection
    /// dispatch sends such a store down the index-free route instead), or
    /// if a sample references a vertex the index does not cover.
    pub fn absorb<S: RrrStore + Sync>(&mut self, sets: &S, owners: usize) {
        self.absorb_at(sets, 0, owners);
    }

    /// [`SampleIndex::absorb`] from a store whose first sample has the
    /// global id `base`: the store holds samples `base..base + len` and the
    /// index absorbs those it has not yet, so a buffer that is cleared after
    /// each call (`base` = [`SampleIndex::absorbed_samples`]) grows the index
    /// as an ever-growing store would.
    ///
    /// # Panics
    ///
    /// As [`SampleIndex::absorb`], and if `base` is past the samples
    /// absorbed so far (the samples in between would be missing).
    pub fn absorb_at<S: RrrStore + Sync>(&mut self, sets: &S, base: usize, owners: usize) {
        assert!(
            base <= self.absorbed,
            "samples {}..{base} were never absorbed",
            self.absorbed
        );
        let end = base + sets.len();
        assert!(end < u32::MAX as usize, "sample ids must fit a u32");
        let intervals = owner_intervals(self.degrees.len() as u32, owners);
        while self.absorbed < end {
            self.push_segment(sets, base, &intervals, end);
        }
    }

    /// Adds one segment holding the samples from `absorbed` up to `end`, or
    /// up to where the segment's bytes could pass the cap; sample `i` is
    /// sample `i - base` of `sets`. Its counting sort runs over the slots
    /// alone, so an index with `h` hot vertices allocates and walks tables
    /// of `h + 1` offsets, not `n + 1`.
    fn push_segment<S: RrrStore + Sync>(
        &mut self,
        sets: &S,
        base: usize,
        intervals: &[(Vertex, Vertex)],
        end: usize,
    ) {
        let slots = self.hot_rows;
        let start = self.absorbed;
        // No gap code of sample `i` exceeds `i - first`, whatever the rows
        // held before it.
        let bound = |first: u32, i: usize| {
            sets.set(i - base).len() as u64 * u64::from(varint_len(i as u32 - first))
        };
        let cap = u64::from(self.segment_cap);
        let fold = self.segments.last().is_some_and(|prev| {
            (prev.rows.len() < prev.table_bytes() || self.fold_newest)
                && prev.rows.len() as u64 + bound(prev.first, start) <= cap
        });
        self.fold_newest = false;
        let folded = if fold { self.segments.pop() } else { None };
        let kept = (folded.as_ref()).map(|prev| (&prev.rows[..], &prev.offsets[..]));
        let first = folded.as_ref().map_or(start as u32, |prev| prev.first);
        let mut room = cap - folded.as_ref().map_or(0, |prev| prev.rows.len() as u64);
        let mut stop = start;
        while stop < end {
            let bytes = bound(first, stop);
            if bytes > room {
                break;
            }
            room -= bytes;
            stop += 1;
        }
        // Alone in a segment a sample costs one byte per vertex it holds.
        assert!(
            stop > start,
            "one sample's row bytes exceed the segment cap"
        );
        let content = || (kept, start..stop, first.wrapping_sub(1), base);
        let cold = &self.cold;
        let spans: Vec<Span> = (intervals.iter())
            .map(|&(vl, vh)| {
                let slots = (cold.hot_before(vl as usize), cold.hot_before(vh as usize));
                ((vl, vh), slots)
            })
            .collect();

        // Counting pass: `offsets[s + 1]` gathers slot `s`'s row byte length.
        let mut offsets = vec![0u32; slots + 1];
        let mut tails = vec![0u32; slots];
        let mut shares = Share::split(
            &spans,
            &vec![(0, 0); intervals.len()],
            &mut tails,
            &mut offsets[1..],
            &mut self.degrees,
            &mut [],
        );
        Share::pass(
            sets,
            &mut shares,
            content(),
            cold,
            true,
            |share, j, kept| share.at[j] = kept.len() as u32,
            |share, j, gap| share.at[j] += varint_len(gap),
        );
        let mut total = 0u32;
        for slot in &mut offsets[1..] {
            total = total
                .checked_add(*slot)
                .expect("the planned bound keeps a segment's rows within u32 offsets");
            *slot = total;
        }

        // Fill pass: `offsets[s]` is slot `s`'s write cursor, so it ends as
        // the row's end bound, one slot early.
        let mut rows = vec![0u8; total as usize];
        let regions: Vec<(u32, usize)> = (spans.iter())
            .map(|&(_, (sl, sh))| (offsets[sl], offsets[sh]))
            .map(|(lo, hi)| (lo, (hi - lo) as usize))
            .collect();
        let mut shares = Share::split(
            &spans,
            &regions,
            &mut tails,
            &mut offsets[..slots],
            &mut self.degrees,
            &mut rows,
        );
        Share::pass(
            sets,
            &mut shares,
            content(),
            cold,
            false,
            |share, j, kept| {
                let cursor = (share.at[j] - share.base) as usize;
                share.rows[cursor..][..kept.len()].copy_from_slice(kept);
                share.at[j] += kept.len() as u32;
            },
            |share, j, gap| {
                let cursor = (share.at[j] - share.base) as usize;
                share.at[j] += write_varint(&mut share.rows[cursor..], gap);
            },
        );
        offsets.copy_within(0..slots, 1);
        offsets[0] = 0;
        self.segments.push(Segment {
            first,
            offsets,
            rows,
        });
        self.absorbed = stop;
        self.spill_sealed();
    }

    /// The hot vertices, ascending, as the slots of a table over them.
    fn hot_slots(&self) -> Slots {
        let n = self.degrees.len();
        let hot = (0..n as Vertex).filter(|&v| !self.cold.contains(v as usize));
        Some(hot.collect())
    }

    /// Turns every hot vertex whose degree is below `tau` cold, for good:
    /// its rows leave the resident segments, later absorbs skip it, and
    /// reading its row panics; its degree still counts every sample.
    /// Spilled segments keep what they hold. Returns how many turned cold.
    /// From the first vertex that turns cold on, the tables cover the hot
    /// vertices alone.
    pub fn cool_below(&mut self, tau: u64) -> usize {
        let n = self.degrees.len();
        let mut cooled = 0usize;
        for v in 0..n {
            if u64::from(self.degrees[v]) < tau && !self.cold.contains(v) {
                self.cold.insert(v, n);
                cooled += 1;
            }
        }
        if cooled == 0 {
            return 0;
        }
        self.cold.recount(n);
        self.hot_rows -= cooled;
        for segment in &mut self.segments {
            segment.compact(&self.slots, &self.cold);
        }
        self.fold_newest = !self.segments.is_empty();
        self.slots = self.hot_slots();
        cooled
    }

    /// An empty index over the same vertices, segment cap and resident
    /// limit, whose cold vertices are this one's less those whose degree
    /// reaches `key`: what absorbing every sample again turns into this
    /// index with those vertices' rows back.
    #[must_use]
    pub fn revived(&self, key: u64) -> SampleIndex {
        let n = self.degrees.len();
        let mut fresh = Self::with_segment_cap(n as u32, self.segment_cap);
        fresh.resident_limit = self.resident_limit;
        for v in (0..n).filter(|&v| self.cold.contains(v)) {
            if u64::from(self.degrees[v]) < key {
                fresh.cold.insert(v, n);
                fresh.hot_rows -= 1;
            }
        }
        if fresh.hot_rows < n {
            fresh.cold.recount(n);
            fresh.slots = fresh.hot_slots();
        }
        fresh
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

    /// Number of vertices whose rows the index keeps: all of them until
    /// [`SampleIndex::cool_below`] turns some cold.
    #[must_use]
    pub fn hot_rows(&self) -> usize {
        self.hot_rows
    }

    /// Whether vertex `v`'s rows are gone ([`SampleIndex::cool_below`]).
    #[must_use]
    pub fn is_cold(&self, v: Vertex) -> bool {
        self.cold.contains(v as usize)
    }

    /// The entries of the absorbed samples — every degree summed — and
    /// those the hot vertices' rows hold: the two agree while no vertex is
    /// cold.
    #[must_use]
    pub fn entries(&self) -> (u64, u64) {
        let (mut all, mut hot) = (0u64, 0u64);
        for (v, &d) in self.degrees.iter().enumerate() {
            all += u64::from(d);
            if !self.cold.contains(v) {
                hot += u64::from(d);
            }
        }
        (all, hot)
    }

    /// Number of absorbed samples containing vertex `v` — the initial
    /// greedy counter, whether `v` is hot or cold.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: Vertex) -> u32 {
        self.degrees[v as usize]
    }

    /// Every vertex's [`SampleIndex::degree`].
    #[must_use]
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Streams the ascending sample ids containing `v` to `f`: the rows of
    /// the spilled segments, read back, then those of the resident ones.
    ///
    /// # Panics
    ///
    /// Panics if `v` is past the index's vertices, if `v` is cold (its rows
    /// are gone, and an empty row would be a wrong one), or if a spilled
    /// row cannot be read back.
    pub fn for_each_sample(&self, v: Vertex, mut f: impl FnMut(usize)) {
        let n = self.degrees.len();
        assert!(
            (v as usize) < n,
            "vertex {v} is past the index's {n} vertices"
        );
        assert!(
            !self.cold.contains(v as usize),
            "vertex {v} is cold: the index dropped its rows, so it has none to read"
        );
        if !self.spilled.is_empty() {
            self.for_each_spilled_sample(v as usize, &mut f);
        }
        let slot = self.cold.hot_before(v as usize);
        for segment in &self.segments {
            let before = segment.first.wrapping_sub(1);
            decode_row(segment.row(slot), before, |id| f(id as usize));
        }
    }

    /// The spilled segments' part of [`SampleIndex::for_each_sample`], out
    /// of line so that the resident rows' loop stays what it was.
    #[inline(never)]
    fn for_each_spilled_sample(&self, v: usize, f: &mut dyn FnMut(usize)) {
        let mut row = Vec::new();
        for segment in &self.spilled {
            let Some(slot) = slot_of(&segment.slots, v) else {
                continue;
            };
            let mut bounds = [0u8; 8];
            self.spill
                .read_at(segment.at + 4 * slot as u64, &mut bounds);
            let [lo, hi] = [&bounds[..4], &bounds[4..]]
                .map(|b| u32::from_le_bytes(b.try_into().expect("four bytes")));
            row.resize(
                hi.checked_sub(lo).expect("spilled row bounds ascend") as usize,
                0,
            );
            self.spill
                .read_at(segment.at + segment.table + u64::from(lo), &mut row);
            decode_row(&row, segment.first.wrapping_sub(1), |id| f(id as usize));
        }
    }

    /// Reserved bytes of the index: the resident segments' tables and rows,
    /// where the spilled ones are, every hot list once, the degrees and the
    /// cold vertices' bits and per-word counts.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self.segments.iter().map(Segment::resident_bytes).sum();
        let mut lists: Vec<&Arc<[Vertex]>> = Vec::new();
        let all = self.spilled.iter().map(|s| &s.slots).chain([&self.slots]);
        for list in all.flatten() {
            if !lists.iter().any(|seen| Arc::ptr_eq(seen, list)) {
                lists.push(list);
            }
        }
        let listed: usize = lists.iter().map(|list| list.len()).sum();
        segments
            + listed * size_of::<Vertex>()
            + self.segments.capacity() * size_of::<Segment>()
            + self.spilled.capacity() * size_of::<Spilled>()
            + self.degrees.capacity() * size_of::<u32>()
            + self.cold.bits.capacity() * size_of::<u64>()
            + self.cold.before_word.capacity() * size_of::<u32>()
    }

    /// Bytes written to the index's spill file.
    #[must_use]
    pub fn spill_bytes_written(&self) -> u64 {
        self.spill.bytes_written()
    }

    /// Spill-file creations or writes that failed; after one, every segment
    /// stays resident.
    #[must_use]
    pub fn spill_write_failures(&self) -> u64 {
        self.spill.write_failures()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rrr::RrrCollection;

    /// Asserts every hot row of `index` is the list of the samples of `c`
    /// that contain the vertex, and every degree, hot or cold, its length.
    pub(crate) fn assert_matches_the_definition(index: &SampleIndex, c: &RrrCollection) {
        assert_eq!(index.absorbed_samples(), c.len());
        for v in 0..index.num_vertices() as Vertex {
            let expect: Vec<usize> = (0..c.len())
                .filter(|&j| c.get(j).binary_search(&v).is_ok())
                .collect();
            assert_eq!(index.degree(v) as usize, expect.len(), "degree of {v}");
            if index.is_cold(v) {
                continue;
            }
            let mut row = Vec::new();
            index.for_each_sample(v, |j| row.push(j));
            assert_eq!(row, expect, "row of {v}");
        }
    }

    /// `samples` sets over `n` vertices in which vertex `v` appears about
    /// once every `v + 1` samples, so degrees fall with the id.
    fn skewed(n: u32, samples: u32) -> RrrCollection {
        let mut c = RrrCollection::new();
        for j in 0..samples {
            let set: Vec<Vertex> = (0..n).filter(|v| (j * 7 + v) % (v + 1) == 0).collect();
            c.push(&set);
        }
        c
    }

    #[test]
    fn sample_index_matches_the_definition_across_folded_and_kept_segments() {
        // n = 3: a table is 16 bytes, so the two-sample round folds into
        // the next and the twenty-sample round stays a segment of its own.
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(3);
        for (round, samples) in [2usize, 20, 0, 5].into_iter().enumerate() {
            for j in 0..samples {
                c.push(if (j + round) % 2 == 0 { &[0, 2] } else { &[2] });
            }
            index.absorb(&c, 1 + round);
            assert_matches_the_definition(&index, &c);
        }
        assert_eq!(index.segments.len(), 2);
    }

    #[test]
    fn sample_index_rows_are_sorted() {
        // Vertex 1000 is in every sample, vertex 7 in every third: past
        // sample 127 the gaps of both rows take a second byte.
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(1001);
        for j in 0..300usize {
            c.push(if j % 3 == 0 { &[7, 1000] } else { &[1000] });
            if j % 100 == 99 {
                index.absorb(&c, 3);
            }
        }
        assert_matches_the_definition(&index, &c);
    }

    #[test]
    fn a_batch_is_cut_before_a_segment_outgrows_its_cap() {
        // A few hundred samples against a 64-byte cap instead of 4 GiB.
        let n = 40u32;
        let mut c = RrrCollection::new();
        for j in 0..300u32 {
            let set: Vec<Vertex> = (0..n).filter(|v| (v * 7 + j) % 5 < 2).collect();
            c.push(&set);
        }
        let mut index = SampleIndex::with_segment_cap(n, 64);
        index.absorb(&c, 2);
        assert!(index.segments.len() > 1);
        assert!(index.segments.iter().all(|s| s.rows.len() <= 64));
        assert_matches_the_definition(&index, &c);
    }

    #[test]
    fn a_limited_index_spills_all_some_or_none_of_its_segments() {
        // n = 20: an 84-byte table. Six absorbs of 50 samples; each segment
        // holds well over a table of rows, so none is folded.
        let n = 20u32;
        let mut c = RrrCollection::new();
        for j in 0..300u32 {
            let set: Vec<Vertex> = (0..n).filter(|v| (v * 3 + j) % 7 < 3).collect();
            c.push(&set);
        }
        let built = |limit: Option<usize>| {
            let mut index = SampleIndex::new(n);
            index.limit_resident(limit);
            let mut lists = RrrCollection::new();
            for round in 0..6 {
                (lists.len()..50 * (round + 1)).for_each(|j| lists.push(c.get(j)));
                index.absorb(&lists, 1 + round % 2);
            }
            index
        };
        let resident = built(None);
        assert_eq!(resident.segments.len(), 6);
        let one: usize = resident.segments[0].resident_bytes();
        let fixed = resident.resident_bytes() - 6 * one;
        for (limit, spilled) in [(Some(0), 6..7), (Some(fixed + 3 * one), 3..6), (None, 0..1)] {
            let index = built(limit);
            assert!(
                spilled.contains(&index.spilled.len()),
                "{limit:?}: {} spilled",
                index.spilled.len()
            );
            let fixed = index.resident_bytes()
                - index
                    .segments
                    .iter()
                    .map(Segment::resident_bytes)
                    .sum::<usize>();
            assert!(
                index.resident_bytes() <= limit.map_or(usize::MAX, |l| l.max(fixed)),
                "{limit:?}"
            );
            assert_eq!(index.spill_bytes_written() > 0, !index.spilled.is_empty());
            assert_matches_the_definition(&index, &c);
        }
        // Lifting the limit keeps what is on disk there, and a later limit
        // spills more.
        let mut index = built(Some(fixed + 3 * one));
        index.limit_resident(None);
        assert_matches_the_definition(&index, &c);
        index.limit_resident(Some(0));
        assert_eq!(index.spilled.len(), 6);
        assert_matches_the_definition(&index, &c);
    }

    #[test]
    fn a_segment_that_may_still_be_folded_stays_resident() {
        // n = 1000: a 4 004-byte table, far more than three samples' rows.
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(1000);
        index.limit_resident(Some(0));
        for samples in [3usize, 2] {
            (0..samples).for_each(|j| c.push(&[j as Vertex, 999]));
            index.absorb(&c, 2);
            assert_eq!(index.spilled.len(), 0);
            assert_eq!(index.segments.len(), 1, "the second absorb folds");
            assert_matches_the_definition(&index, &c);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sample_index_rejects_out_of_range_vertex_serial() {
        let mut c = RrrCollection::new();
        c.push(&[7]);
        SampleIndex::new(3).absorb(&c, 1);
    }

    /// The last of two owners meets the vertex on its own thread: owners'
    /// intervals are whole 64-vertex words, so two need more than 64.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn sample_index_rejects_out_of_range_vertex_parallel() {
        let mut c = RrrCollection::new();
        c.push(&[200]);
        SampleIndex::new(130).absorb(&c, 2);
    }

    #[test]
    fn sample_index_empty_collection() {
        let mut index = SampleIndex::new(4);
        index.absorb(&RrrCollection::new(), 2);
        assert!(index.segments.is_empty());
        assert_matches_the_definition(&index, &RrrCollection::new());
    }

    #[test]
    fn cold_vertices_lose_their_rows_and_keep_their_degrees() {
        // n = 64: vertex v is in about one sample in v + 1, so a few low
        // ids stay hot and the tables of later segments list them alone.
        let (n, samples) = (64u32, 600u32);
        let all = skewed(n, samples);
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(n);
        (0..200).for_each(|j| c.push(all.get(j)));
        index.absorb(&c, 2);
        let full = index.resident_bytes();
        let cooled = index.cool_below(40);
        assert!(cooled > 0 && cooled < n as usize);
        assert_eq!(index.hot_rows(), n as usize - cooled);
        assert_eq!(index.segments[0].offsets.len(), index.hot_rows() + 1);
        assert!(index.resident_bytes() < full);
        assert_matches_the_definition(&index, &c);
        // Single samples: each new segment's rows are smaller than its
        // table over the hot vertices, so the next absorb folds it.
        for _ in 0..10 {
            c.push(all.get(c.len()));
            index.absorb(&c, 2);
            assert_matches_the_definition(&index, &c);
        }
        assert_eq!(index.segments.len(), 2);
        for round in [300, 600] {
            (c.len()..round).for_each(|j| c.push(all.get(j)));
            index.absorb(&c, 1 + round % 2);
            assert_matches_the_definition(&index, &c);
        }
        // Cooling again only adds cold vertices, and a tau of 0 none.
        let hot = index.hot_rows();
        assert_eq!(index.cool_below(0), 0);
        assert!(index.cool_below(200) > 0 && index.hot_rows() < hot);
        assert_matches_the_definition(&index, &c);
    }

    /// After a cooling every absorb counts and fills over the hot slots
    /// alone: tables of `h + 1` offsets, each owner's share of them cut at
    /// its vertices' slots (n = 150: two owners, the second's last word
    /// partial). The first absorb folds the compacted segment, which holds
    /// more than its table in rows.
    #[test]
    fn absorbs_after_a_cooling_sort_over_the_hot_slots() {
        let (n, samples) = (150u32, 900u32);
        let all = skewed(n, samples);
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(n);
        (0..300).for_each(|j| c.push(all.get(j)));
        index.absorb(&c, 2);
        index.cool_below(12);
        assert!(index.fold_newest, "the cooled segment is folded next");
        let cooled = &index.segments[0];
        assert!(cooled.rows.len() >= cooled.table_bytes());
        let hot = index.slots.clone().expect("a hot list");
        assert!(hot.len() > 1 && hot.len() < 64, "{} hot", hot.len());
        for (slot, &v) in hot.iter().enumerate() {
            assert_eq!(index.cold.hot_before(v as usize), slot);
        }
        assert_eq!(index.cold.hot_before(n as usize), index.hot_rows());
        for (round, owners, segments) in [(450, 2, 1), (451, 1, 2), (900, 2, 2)] {
            (c.len()..round).for_each(|j| c.push(all.get(j)));
            index.absorb(&c, owners);
            assert_eq!(index.segments.len(), segments, "to {round}");
            let last = index.segments.last().expect("a segment");
            assert_eq!(last.offsets.len(), index.hot_rows() + 1);
            assert_matches_the_definition(&index, &c);
        }
    }

    #[test]
    fn a_revived_index_rebuilt_from_the_same_samples_has_their_rows_back() {
        let (n, samples) = (64u32, 400u32);
        let c = skewed(n, samples);
        let mut index = SampleIndex::new(n);
        index.absorb(&c, 2);
        index.cool_below(u64::MAX);
        assert_eq!(index.hot_rows(), 0);
        assert_matches_the_definition(&index, &c);
        // Vertex 0 is in every sample; it alone reaches the key.
        let mut fresh = index.revived(u64::from(samples));
        assert_eq!(fresh.hot_rows(), 1);
        fresh.absorb(&c, 2);
        assert_eq!(fresh.degrees(), index.degrees());
        assert!(!fresh.is_cold(0) && fresh.is_cold(1));
        assert_matches_the_definition(&fresh, &c);
    }

    #[test]
    fn spilled_segments_keep_their_rows_and_packed_tables_read_back() {
        let (n, samples) = (64u32, 600u32);
        let all = skewed(n, samples);
        let mut c = RrrCollection::new();
        let mut index = SampleIndex::new(n);
        index.limit_resident(Some(0));
        for round in [200, 400, 600] {
            (c.len()..round).for_each(|j| c.push(all.get(j)));
            index.absorb(&c, 2);
            index.cool_below(u64::from(index.degree(8)));
            assert_matches_the_definition(&index, &c);
        }
        assert!(index.spilled.len() >= 2);
        assert!(index.spilled.iter().skip(1).all(|s| s.slots.is_some()));
    }

    #[test]
    #[should_panic(expected = "vertex 9 is cold")]
    fn reading_a_cold_row_panics() {
        let c = skewed(16, 50);
        let mut index = SampleIndex::new(16);
        index.absorb(&c, 1);
        index.cool_below(u64::from(index.degree(9)) + 1);
        index.for_each_sample(9, |_| {});
    }
}
