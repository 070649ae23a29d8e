//! The reverse CSR's sources, gap-varint coded.
//!
//! Row `v` holds the sources of `v`'s in-edges, strictly ascending. Its
//! first source `s₀` is coded as [`zigzag`]`(v, s₀)`, its distance from
//! `v` either way, and every later one as its gap to the one before minus
//! one; each code is a [`crate::varint`]. The rows lie back to back in one
//! byte buffer and one `u32` byte offset per vertex locates them, so the
//! coded rows of a graph may take at most 4 GiB
//! ([`GraphError::TooLarge`] at build past that). A row's bytes end where
//! its last varint does, so its degree is the count of its bytes below
//! 0x80.
//! A vertex-cut shard ([`crate::partition`]) holds a contiguous range of
//! them, cut from the graph's by [`Rows::cut`].
//!
//! A sorted edge list's out-rows ([`OutEdges`]) are coded the same way and
//! turned into in-rows by [`Rows::transpose`] on several threads, each
//! over a range of targets; [`Rows::check`] reads ranges of rows on
//! several threads too.

use crate::types::{GraphError, Vertex};
use crate::varint::{push_varint, read_varint, unzigzag, varint_len, write_varint, zigzag};
use std::ops::Range;

/// Threads for `work` units when each should get at least `least` of them:
/// one for each CPU the process may run on (which `taskset` narrows), fewer
/// when the work does not go round.
pub(crate) fn threads_for(work: usize, least: usize) -> usize {
    let most = work / least;
    if most < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(most)
}

/// `work(input)` for every input, each on a scoped thread of its own (the
/// first on the caller's), the results in the inputs' order.
pub(crate) fn in_parallel<I: Send, T: Send>(
    inputs: Vec<I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = inputs
            .map(|input| scope.spawn(move || work(input)))
            .collect();
        let mut results = vec![work(first)];
        for thread in spawned {
            results.push(
                thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

/// `slice` from `bounds[0]` on, cut into the pieces between consecutive
/// `bounds` (ascending indices of `slice`).
fn pieces<'a, T>(slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut rest = &mut slice[bounds[0]..];
    let mut pieces = Vec::with_capacity(bounds.len() - 1);
    for pair in bounds.windows(2) {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(pair[1] - pair[0]);
        pieces.push(piece);
        rest = tail;
    }
    pieces
}

/// At most `parts` ranges of targets that cover `0..n`, each holding about
/// an equal share of the in-edges whose targets `sample` draws (sorted in
/// place).
pub(crate) fn target_ranges(sample: &mut [Vertex], n: u32, parts: usize) -> Vec<Range<Vertex>> {
    sample.sort_unstable();
    let cuts = (1..parts).map(|k| sample.get(sample.len() * k / parts).map_or(n, |&v| v));
    let mut bounds: Vec<Vertex> = std::iter::once(0).chain(cuts).chain([n]).collect();
    bounds.dedup();
    bounds.windows(2).map(|pair| pair[0]..pair[1]).collect()
}

/// The edges of out-rows, `(source, target)` in order, coded as a sorted
/// edge list's reader codes them: for each source with edges, ascending,
/// its distance from the previous such source (from 0 for the first), its
/// edge count, then its targets, strictly ascending, coded as a row codes
/// its sources (the first one zigzagged against the source).
pub(crate) struct OutEdges<'a> {
    bytes: &'a [u8],
    pos: usize,
    source: Vertex,
    target: Vertex,
    /// The edges of the source's row not yet read.
    left: u32,
}

impl<'a> OutEdges<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            source: 0,
            target: 0,
            left: 0,
        }
    }
}

impl Iterator for OutEdges<'_> {
    type Item = (Vertex, Vertex);

    #[inline]
    fn next(&mut self) -> Option<(Vertex, Vertex)> {
        if self.left > 0 {
            self.target += read_varint(self.bytes, &mut self.pos) + 1;
        } else {
            if self.pos == self.bytes.len() {
                return None;
            }
            self.source += read_varint(self.bytes, &mut self.pos);
            self.left = read_varint(self.bytes, &mut self.pos);
            self.target = unzigzag(self.source, read_varint(self.bytes, &mut self.pos));
        }
        self.left -= 1;
        Some((self.source, self.target))
    }
}

/// Calls `visit(i, code, e)` for each edge `u → v` of the out-rows
/// `chunks`, taken in order, whose target is among `targets`: `i` is
/// `v − targets.start`, `code` the edge's code in the in-row of `v`, and
/// `e` the edge's place in the chunks. The sources of an in-row arrive
/// ascending because the chunks' edges ascend by source; `last` (one a
/// target) keeps each row's last one.
#[inline]
fn for_each_in_code(
    chunks: &[&[u8]],
    targets: Range<Vertex>,
    last: &mut [Vertex],
    mut visit: impl FnMut(usize, u32, usize),
) {
    // Before a row's first source: no id below a `u32` vertex count.
    const NONE: Vertex = Vertex::MAX;
    last.fill(NONE);
    let mut e = 0;
    for chunk in chunks {
        for (u, v) in OutEdges::new(chunk) {
            let i = v.wrapping_sub(targets.start) as usize;
            if let Some(last) = last.get_mut(i) {
                let code = if *last == NONE {
                    zigzag(v, u)
                } else {
                    u - *last - 1
                };
                *last = u;
                visit(i, code, e);
            }
            e += 1;
        }
    }
}

/// What [`Rows::transpose`] makes: the in-rows, the in-edge offsets, and
/// the probabilities it was handed, in in-row order.
pub(crate) type Transposed = (Rows, Vec<u32>, Option<Vec<f32>>);

/// The error of coded rows past their `u32` byte offsets.
fn too_large() -> GraphError {
    GraphError::TooLarge("the coded in-rows pass the 4 GiB their u32 byte offsets address".into())
}

/// Every in-row of a graph, coded back to back.
#[derive(Clone, Debug)]
pub(crate) struct Rows {
    /// Byte offset of each row in `bytes`, n + 1 of them.
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    num_edges: usize,
}

/// Calls `code` with the codes of one strictly ascending row of `v`.
#[inline]
fn for_each_code(v: Vertex, row: &[Vertex], mut code: impl FnMut(u32)) {
    if let Some((&first, rest)) = row.split_first() {
        code(zigzag(v, first));
        let mut prev = first;
        for &source in rest {
            code(source - prev - 1);
            prev = source;
        }
    }
}

impl Rows {
    /// Codes a raw reverse CSR whose row `v` is
    /// `sources[edge_offsets[v]..edge_offsets[v + 1]]`, strictly ascending,
    /// in one pass. The buffer is reserved at five bytes a code, the most
    /// one takes; the pages the codes never reach are never touched, and
    /// the buffer is shrunk to what they took.
    pub(crate) fn encode(edge_offsets: &[u32], sources: &[Vertex]) -> Result<Self, GraphError> {
        let n = edge_offsets.len() - 1;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut bytes = Vec::with_capacity(sources.len() * 5);
        for v in 0..n {
            let row = &sources[edge_offsets[v] as usize..edge_offsets[v + 1] as usize];
            for_each_code(v as Vertex, row, |code| push_varint(&mut bytes, code));
            let end = u32::try_from(bytes.len()).map_err(|_| too_large())?;
            offsets.push(end);
        }
        bytes.shrink_to_fit();
        Ok(Self {
            offsets,
            bytes,
            num_edges: sources.len(),
        })
    }

    /// The in-rows of the edges of the out-rows `chunks` ([`OutEdges`]),
    /// whose sources ascend from one chunk to the next, over `num_vertices`
    /// vertices; `probs`, when given, holds each chunk's probabilities in
    /// the order of its edges. `ranges`, ascending and covering every
    /// vertex, split the targets among threads, one a range, and each
    /// thread reads every chunk twice: a sizing pass counts each of its
    /// rows' edges and bytes (a code's length follows from the row's last
    /// source), and after their prefix sums a writing pass codes the rows
    /// into its own slice of the one buffer (and puts the probabilities in
    /// place). Beside the chunks and the result this holds 4 bytes a
    /// vertex, each row's last source, in one table that is freed whole.
    pub(crate) fn transpose(
        num_vertices: u32,
        chunks: &[&[u8]],
        probs: Option<&[&[f32]]>,
        ranges: &[Range<Vertex>],
    ) -> Result<Transposed, GraphError> {
        let n = num_vertices as usize;
        // Row v's edge count and byte length go to v + 1; their exclusive
        // prefix sums leave there where row v starts, which the writing
        // pass moves on to where it ends: the offsets.
        let (mut in_offsets, mut offsets) = (vec![0u32; n + 1], vec![0u32; n + 1]);
        let mut last = vec![0; n];
        let bounds: Vec<usize> = ranges.iter().map(|r| r.start as usize).chain([n]).collect();
        // Row v's counts sit at v + 1 in the tables.
        let table_bounds: Vec<usize> = bounds.iter().map(|b| b + 1).collect();
        let sizing = (pieces(&mut in_offsets, &table_bounds).into_iter())
            .zip(pieces(&mut offsets, &table_bounds))
            .zip(ranges.iter().cloned().zip(pieces(&mut last, &bounds)))
            .collect();
        let fits = in_parallel(sizing, |((degrees, lens), (targets, last))| {
            let mut fits = true;
            for_each_in_code(chunks, targets, last, |i, code, _| {
                degrees[i] += 1;
                let (len, over) = lens[i].overflowing_add(varint_len(code));
                lens[i] = len;
                fits &= !over;
            });
            fits
        });
        let (mut num_edges, mut len) = (0usize, 0u64);
        for (degree, bytes) in in_offsets[1..].iter_mut().zip(&mut offsets[1..]) {
            (num_edges, *degree) = (num_edges + *degree as usize, num_edges as u32);
            (len, *bytes) = (len + u64::from(*bytes), len as u32);
        }
        if fits.contains(&false) || len > u64::from(u32::MAX) {
            return Err(too_large());
        }
        // Where each range's rows start, in edges and in bytes.
        let starts = |table: &[u32], total: usize| {
            let starts = ranges.iter().map(|r| {
                table
                    .get(r.start as usize + 1)
                    .map_or(total, |&s| s as usize)
            });
            starts.chain([total]).collect::<Vec<usize>>()
        };
        let (edge_starts, byte_starts) = (
            starts(&in_offsets, num_edges),
            starts(&offsets, len as usize),
        );
        let mut bytes = vec![0u8; len as usize];
        // Where each chunk's edges start among all of them.
        let chunk_edges: Vec<usize> = probs.map_or(Vec::new(), |probs| {
            let ends = probs.iter().scan(0, |end, probs| {
                *end += probs.len();
                Some(*end)
            });
            std::iter::once(0).chain(ends).collect()
        });
        let mut in_probs = probs.map(|_| vec![0f32; num_edges]);
        let out_probs: Vec<Option<&mut [f32]>> = match &mut in_probs {
            Some(in_probs) => pieces(in_probs, &edge_starts)
                .into_iter()
                .map(Some)
                .collect(),
            None => ranges.iter().map(|_| None).collect(),
        };
        let writing = (pieces(&mut in_offsets, &table_bounds).into_iter())
            .zip(pieces(&mut offsets, &table_bounds))
            .zip(ranges.iter().cloned().zip(pieces(&mut last, &bounds)))
            .zip(pieces(&mut bytes, &byte_starts).into_iter().zip(out_probs))
            .zip(edge_starts.iter().zip(&byte_starts))
            .collect();
        in_parallel(
            writing,
            |(
                (((edge_ends, ends), (targets, last)), (out, mut out_probs)),
                (&edge_base, &byte_base),
            )| {
                for_each_in_code(chunks, targets, last, |i, code, e| {
                    if let (Some(out_probs), Some(probs)) = (&mut out_probs, probs) {
                        let c = chunk_edges.partition_point(|&start| start <= e) - 1;
                        out_probs[edge_ends[i] as usize - edge_base] = probs[c][e - chunk_edges[c]];
                    }
                    edge_ends[i] += 1;
                    let at = ends[i] as usize - byte_base;
                    ends[i] += write_varint(&mut out[at..], code);
                });
            },
        );
        let rows = Self {
            offsets,
            bytes,
            num_edges,
        };
        Ok((rows, in_offsets, in_probs))
    }

    /// Rows as given, checked by nothing: for tests of [`Rows::check`].
    #[cfg(test)]
    pub(crate) fn from_raw_parts(offsets: Vec<u32>, bytes: Vec<u8>, num_edges: usize) -> Self {
        Self {
            offsets,
            bytes,
            num_edges,
        }
    }

    pub(crate) fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of rows held.
    pub(crate) fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn range(&self, v: Vertex) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// The sources of row `v`, decoded as they are read.
    #[inline]
    pub(crate) fn row(&self, v: Vertex) -> InNeighbors<'_> {
        InNeighbors {
            bytes: self.bytes[self.range(v)].iter(),
            prev: v,
            first: true,
        }
    }

    /// The sources of row `i`, its first code keyed to vertex `v`; `None`
    /// past the last row and for an empty one.
    #[inline]
    pub(crate) fn keyed_row(&self, i: usize, v: Vertex) -> Option<InNeighbors<'_>> {
        let (&start, &end) = (self.offsets.get(i)?, self.offsets.get(i + 1)?);
        (start < end).then(|| InNeighbors {
            bytes: self.bytes[start as usize..end as usize].iter(),
            prev: v,
            first: true,
        })
    }

    /// The rows of `vertices` holding `take` edges of the global in-edge
    /// order, from source `skip` of the first row on: that head row is
    /// re-coded from its first kept source, the rows after it are copied
    /// byte for byte, and the last one is cut where the edges run out.
    /// Row `i` of the result is vertex `vertices.start + i`'s.
    pub(crate) fn cut(&self, vertices: std::ops::Range<Vertex>, skip: usize, take: usize) -> Self {
        let mut rows = Self {
            offsets: vec![0],
            bytes: Vec::new(),
            num_edges: take,
        };
        if vertices.is_empty() {
            return rows;
        }
        let head = vertices.start;
        let kept: Vec<Vertex> = self.row(head).skip(skip).take(take).collect();
        for_each_code(head, &kept, |code| push_varint(&mut rows.bytes, code));
        // The later rows lie back to back; the cut falls after the last
        // byte of the `take − kept`-th code among them.
        let from = self.offsets[head as usize + 1];
        let tail = &self.bytes[from as usize..self.offsets[vertices.end as usize] as usize];
        let (mut cut, mut left) = (0, take - kept.len());
        while left > 0 {
            left -= usize::from(tail[cut] < 0x80);
            cut += 1;
        }
        let head_len = rows.bytes.len();
        rows.bytes.extend_from_slice(&tail[..cut]);
        rows.offsets.extend(vertices.map(|v| {
            let end = head_len + ((self.offsets[v as usize + 1] - from) as usize).min(cut);
            // The re-coded head outgrows the bytes it replaces by at most
            // four, so only rows within that of the graph's 4 GiB fail.
            u32::try_from(end).expect("a shard's rows fit u32 byte offsets")
        }));
        rows
    }

    /// The degree of row `v`: the count of its last bytes, O(its bytes).
    #[inline]
    pub(crate) fn degree(&self, v: Vertex) -> usize {
        self.bytes[self.range(v)]
            .iter()
            .filter(|&&b| b < 0x80)
            .count()
    }

    /// Every source, row after row.
    pub(crate) fn sources(&self) -> impl Iterator<Item = Vertex> + '_ {
        let n = (self.offsets.len() - 1) as Vertex;
        (0..n).flat_map(|v| self.row(v))
    }

    /// Row `v` decoded from byte `at` on, `prev` being the last source read
    /// before it (`v` itself at the row's start), while the sources stay
    /// below `below`: calls `visit` with each and returns where it stopped,
    /// `(at, prev)`. What [`crate::Graph`]'s range sweeps keep per row.
    #[inline]
    pub(crate) fn resume(
        &self,
        v: Vertex,
        (mut at, mut prev): (u32, Vertex),
        below: usize,
        mut visit: impl FnMut(Vertex),
    ) -> (u32, Vertex) {
        let (start, end) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        while at < end {
            let mut pos = at as usize;
            let code = read_varint(&self.bytes, &mut pos);
            let source = if at == start {
                unzigzag(v, code)
            } else {
                prev + code + 1
            };
            if source as usize >= below {
                break;
            }
            visit(source);
            (at, prev) = (pos as u32, source);
        }
        (at, prev)
    }

    /// Where row `v` starts, as [`Rows::resume`] takes it.
    pub(crate) fn start(&self, v: Vertex) -> (u32, Vertex) {
        (self.offsets[v as usize], v)
    }

    /// Bytes held: the offsets and the coded rows.
    pub(crate) fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + self.bytes.len()
    }

    /// Checks rows of bytes from anywhere: the offsets are n + 1, monotone
    /// and span the buffer, every row decodes to the end of its byte range
    /// and not past it, its ids are strictly ascending and below `n`, and
    /// the rows hold `num_edges` sources. `degree(v, d)` hears each row's
    /// decoded degree and may refuse it. O(m + n), no allocation but the
    /// threads': the rows are read in vertex ranges of about equal bytes,
    /// one a thread, and the first error by vertex is the one returned.
    pub(crate) fn check(
        &self,
        num_vertices: u32,
        degree: impl Fn(Vertex, usize) -> Result<(), String> + Sync,
    ) -> Result<(), String> {
        /// Bytes of rows a thread reads at the least.
        const CHECK_BYTES: usize = 1 << 18;
        let w = &self.offsets;
        if w.len() != num_vertices as usize + 1 {
            return Err("row offset array must have n+1 entries".into());
        }
        if w[0] != 0 || w[num_vertices as usize] as usize != self.bytes.len() {
            return Err("row offsets must start at 0 and end at the coded bytes".into());
        }
        if w.windows(2).any(|p| p[0] > p[1]) {
            return Err("row offsets must be monotone".into());
        }
        let parts = threads_for(self.bytes.len(), CHECK_BYTES);
        let mut bounds: Vec<Vertex> = (0..parts)
            .map(|t| {
                let from = self.bytes.len() / parts * t;
                w.partition_point(|&at| (at as usize) < from) as Vertex
            })
            .collect();
        bounds.push(num_vertices);
        let ranges = bounds.windows(2).map(|pair| pair[0]..pair[1]).collect();
        let mut edges = 0usize;
        for checked in in_parallel(ranges, |vertices| self.check_rows(vertices, &degree)) {
            edges += checked?;
        }
        if edges != self.num_edges {
            return Err(format!(
                "the rows hold {edges} edges, not the graph's {}",
                self.num_edges
            ));
        }
        Ok(())
    }

    /// [`Rows::check`] over the rows of `vertices`: their edge count.
    fn check_rows(
        &self,
        vertices: Range<Vertex>,
        degree: impl Fn(Vertex, usize) -> Result<(), String>,
    ) -> Result<usize, String> {
        let num_vertices = (self.offsets.len() - 1) as Vertex;
        let mut edges = 0usize;
        for v in vertices {
            let (mut code, mut shift, mut prev, mut count) = (0u64, 0u32, v, 0usize);
            for &byte in &self.bytes[self.range(v)] {
                code |= u64::from(byte & 0x7F) << shift;
                if byte >= 0x80 {
                    shift += 7;
                    if shift > 28 {
                        return Err(format!("in-row of {v} holds a code past u32"));
                    }
                    continue;
                }
                let code = u32::try_from(std::mem::take(&mut code))
                    .map_err(|_| format!("in-row of {v} holds a code past u32"))?;
                shift = 0;
                // A gap code cannot step back; only a sum past `u32`
                // could, and that is past n too.
                prev = if count == 0 {
                    unzigzag(v, code)
                } else {
                    prev.checked_add(code)
                        .and_then(|s| s.checked_add(1))
                        .unwrap_or(Vertex::MAX)
                };
                if prev >= num_vertices {
                    return Err("edge endpoints must be below n".into());
                }
                count += 1;
            }
            if shift > 0 {
                return Err(format!("in-row of {v} decodes past its byte range"));
            }
            degree(v, count)?;
            edges += count;
        }
        Ok(edges)
    }
}

/// Rows are equal when they decode to the same sources.
impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        let n = self.offsets.len() - 1;
        self.num_edges == other.num_edges
            && other.offsets.len() == n + 1
            && (0..n as Vertex).all(|v| self.row(v).eq(other.row(v)))
    }
}

/// The sources of one vertex's in-edges, ascending, decoded from the
/// graph's coded row as they are read ([`crate::Graph::in_neighbors`]).
#[derive(Clone, Debug)]
pub struct InNeighbors<'a> {
    /// The row's codes not yet read.
    bytes: std::slice::Iter<'a, u8>,
    /// The last source decoded; the row's own vertex before the first.
    prev: Vertex,
    first: bool,
}

impl Iterator for InNeighbors<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        let &byte = self.bytes.next()?;
        let mut code = u32::from(byte & 0x7F);
        if byte >= 0x80 {
            // Bits past `u32`, or a varint cut by the row's end, are of no
            // valid row; they decode to some id and never panic.
            let mut shift = 7u32;
            for &byte in self.bytes.by_ref() {
                code |= u32::from(byte & 0x7F).wrapping_shl(shift);
                if byte < 0x80 {
                    break;
                }
                shift += 7;
            }
        }
        self.prev = if self.first {
            self.first = false;
            unzigzag(self.prev, code)
        } else {
            self.prev.wrapping_add(code).wrapping_add(1)
        };
        Some(self.prev)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.bytes.len();
        (left.div_ceil(5), Some(left))
    }
}

impl std::iter::FusedIterator for InNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(n: usize, lists: &[&[Vertex]]) -> (Vec<u32>, Vec<Vertex>) {
        let mut offsets = vec![0u32];
        let mut sources = Vec::new();
        for v in 0..n {
            sources.extend_from_slice(lists.get(v).copied().unwrap_or(&[]));
            offsets.push(sources.len() as u32);
        }
        (offsets, sources)
    }

    #[test]
    fn rows_decode_to_what_was_coded() {
        let lists: [&[Vertex]; 5] = [&[1, 4], &[], &[0, 1, 3, 4], &[4], &[0]];
        let (offsets, sources) = rows_of(5, &lists);
        let rows = Rows::encode(&offsets, &sources).unwrap();
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(rows.row(v as Vertex).collect::<Vec<_>>(), *list);
            assert_eq!(rows.degree(v as Vertex), list.len());
        }
        assert_eq!(rows.sources().collect::<Vec<_>>(), sources);
        rows.check(5, |_, _| Ok(())).unwrap();
        // Row 2's first source is 0, two below it: zigzag 3, one byte.
        assert_eq!(rows.bytes[rows.range(2)], [3, 0, 1, 0]);
    }

    #[test]
    fn varints_of_every_length_decode_across_word_boundaries() {
        // Gaps whose codes take 1 to 5 bytes, in an order that puts varint
        // ends at every offset of the decoder's eight-byte words.
        let gaps = [
            0u32,
            200,
            1,
            20_000,
            3_000_000,
            5,
            300_000_000,
            127,
            128,
            16_383,
        ];
        let mut lists: Vec<Vec<Vertex>> = Vec::new();
        for row in 0..40usize {
            let mut next: Vertex = (row as u32 * 7919) % 1000;
            let list = (0..row % 13)
                .map(|i| {
                    let id = next;
                    next = next.saturating_add(gaps[(row + i) % gaps.len()] + 1);
                    id
                })
                .take_while(|&id| id < Vertex::MAX)
                .collect();
            lists.push(list);
        }
        let views: Vec<&[Vertex]> = lists.iter().map(Vec::as_slice).collect();
        let (offsets, sources) = rows_of(views.len(), &views);
        let rows = Rows::encode(&offsets, &sources).unwrap();
        for (v, list) in views.iter().enumerate() {
            let decoded: Vec<Vertex> = rows.row(v as Vertex).collect();
            assert_eq!(decoded, *list, "row {v}");
        }
        assert_eq!(rows.sources().count(), sources.len());
    }

    #[test]
    fn ids_at_the_top_of_the_id_space_decode() {
        let top = u32::MAX;
        let lists: [&[Vertex]; 2] = [&[top - 1, top], &[0, top]];
        let (offsets, sources) = rows_of(2, &lists);
        let rows = Rows::encode(&offsets, &sources).unwrap();
        assert_eq!(rows.row(0).collect::<Vec<_>>(), lists[0]);
        assert_eq!(rows.row(1).collect::<Vec<_>>(), lists[1]);
        // Row 0 starts two steps back across zero, a one-byte code; row 1's
        // gap of 2³² − 2 takes five.
        assert_eq!(rows.bytes[rows.range(0)], [3, 0]);
        assert_eq!(rows.bytes[rows.range(1)].len(), 1 + 5);
    }

    #[test]
    fn the_check_refuses_every_broken_row() {
        let (offsets, sources) = rows_of(3, &[&[1, 2], &[0], &[]]);
        let good = Rows::encode(&offsets, &sources).unwrap();
        good.check(3, |_, _| Ok(())).unwrap();
        let broken = |offsets: Vec<u32>, bytes: Vec<u8>, m: usize| {
            Rows::from_raw_parts(offsets, bytes, m)
                .check(3, |_, _| Ok(()))
                .unwrap_err()
        };
        let (o, b) = (good.offsets.clone(), good.bytes.clone());
        // A varint cut by its row's end.
        let mut cut = b.clone();
        cut[1] |= 0x80;
        assert!(broken(o.clone(), cut, 3).contains("past its byte range"));
        // An id past n, and a gap that wraps past `u32` to a smaller id.
        let mut far = b.clone();
        far[1] = 5;
        assert!(broken(o.clone(), far, 3).contains("below n"));
        let wraps = [2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1].to_vec();
        assert!(broken(vec![0, 6, 7, 7], wraps, 3).contains("below n"));
        // Codes past `u32`: a fifth byte above 0x0F, or a sixth byte.
        let wide = [2, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 1].to_vec();
        assert!(broken(vec![0, 6, 7, 7], wide, 3).contains("past u32"));
        let long = [2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 1].to_vec();
        assert!(broken(vec![0, 7, 8, 8], long, 3).contains("past u32"));
        // Offsets that do not span the bytes, or run backwards.
        assert!(broken(vec![0, 2, 3], b.clone(), 3).contains("n+1"));
        assert!(broken(vec![0, 2, 3, 2], b.clone(), 3).contains("end at"));
        assert!(broken(vec![0, 3, 2, 3], b.clone(), 3).contains("monotone"));
        // Rows that hold other than the graph's edge count.
        assert!(broken(o.clone(), b.clone(), 4).contains("rows hold 3"));
        // The degrees are handed out for the caller to check.
        let refused = good.check(3, |v, d| {
            if v == 0 && d != 3 {
                Err(format!("row {v} has {d}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(refused.unwrap_err(), "row 0 has 2");
    }
}
