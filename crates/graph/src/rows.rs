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

use crate::types::{GraphError, Vertex};
use crate::varint::{push_varint, read_varint, unzigzag, zigzag};

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
            let end = u32::try_from(bytes.len()).map_err(|_| {
                GraphError::TooLarge(
                    "the coded in-rows pass the 4 GiB their u32 byte offsets address".into(),
                )
            })?;
            offsets.push(end);
        }
        bytes.shrink_to_fit();
        Ok(Self {
            offsets,
            bytes,
            num_edges: sources.len(),
        })
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
    /// decoded degree and may refuse it. O(m + n), no allocation.
    pub(crate) fn check(
        &self,
        num_vertices: u32,
        mut degree: impl FnMut(Vertex, usize) -> Result<(), String>,
    ) -> Result<(), String> {
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
        let mut edges = 0usize;
        for v in 0..num_vertices {
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
        if edges != self.num_edges {
            return Err(format!(
                "the rows hold {edges} edges, not the graph's {}",
                self.num_edges
            ));
        }
        Ok(())
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
