//! Graph I/O: SNAP-style edge-list text and a compact binary format.
//!
//! The text format is line-oriented: `source<ws>target[<ws>probability]`,
//! with `#`-prefixed comment lines, exactly what the SNAP collection ships.
//! Vertex ids are remapped densely in first-appearance order when
//! `read_edge_list` is given `VertexIds::Remap` (SNAP files have gaps), or
//! taken literally with `VertexIds::Literal`.

use crate::builder::{check_probability, graph_from_reverse, GraphBuilder, Weights};
use crate::csr::Graph;
use crate::types::{GraphError, Vertex};
use crate::varint::{push_varint, read_varint, unzigzag, zigzag};
use crate::weights::WeightModel;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// How textual vertex ids map to internal ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexIds {
    /// Ids in the file are used as-is; the vertex count is `max id + 1`.
    Literal,
    /// Ids are remapped densely in first-appearance order (SNAP files have
    /// sparse id spaces).
    Remap,
}

/// Options for reading an edge list.
#[derive(Clone, Copy, Debug)]
pub struct EdgeListOptions {
    /// Id handling (default: remap).
    pub vertex_ids: VertexIds,
    /// Treat each line as an undirected edge (insert both directions).
    pub undirected: bool,
    /// Probability assigned to edges without an explicit third column.
    pub default_prob: f32,
    /// Weight model applied after loading; `None` keeps file probabilities.
    pub weights: Option<WeightModel>,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        Self {
            vertex_ids: VertexIds::Remap,
            undirected: false,
            default_prob: 1.0,
            weights: None,
        }
    }
}

/// Reads an edge list from any reader.
///
/// Lines are parsed where they sit in the reader's 64 KiB buffer. A line of
/// the common shape, `digits [ \t]+ digits ([ \t]+ token)? [ \t\r]* \n`
/// with ids of at most 19 digits, is read in one forward scan that folds
/// the ids as it goes; every other line (comments, blanks, bytes past
/// ASCII, signs, longer ids, other separators, missing or extra fields)
/// is tokenised as bytes by the general parser, on the same line number,
/// so what is accepted and refused does not depend on the path. Only a
/// line that straddles a refill of the buffer is copied, into one reused
/// byte buffer. When `options.weights` will overwrite the third column, a
/// token of digits with at most one `.` is checked without being
/// converted. An edge is stored on the line where it appears, with its ids
/// already narrowed ([`VertexIds::Literal`]) or assigned
/// ([`VertexIds::Remap`]). Nothing else of the file's size is held.
///
/// While the edges strictly ascend by (source, target), as
/// [`write_edge_list`] writes them, each source's targets are gap-coded as
/// they arrive, and the graph is built from them by counting the targets
/// and scattering the sources into rows that come out sorted: ~6.2 bytes an
/// edge at the peak (the coded edges beside the raw reverse sources), plus
/// 8 a vertex and, when the file's probabilities are kept, 8 an edge more.
/// At the first edge that does not ascend, what has been read goes into a
/// [`GraphBuilder`] and the load peaks where [`GraphBuilder::build`] does.
/// Either way the graph is the same.
///
/// Errors are reported in this order: the first line that does not parse
/// (or is not UTF-8), then an id space past `u32`, then the first
/// probability outside `[0, 1]`.
pub fn read_edge_list<R: Read>(reader: R, options: EdgeListOptions) -> Result<Graph, GraphError> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut edges = Edges::Sorted(SortedEdges::new(options.weights.is_none()));
    let mut ids = IdSpace::new(options.vertex_ids);
    let mut bad_probability = None;
    let mut line_no = 0usize;
    // Reads the line at the start of `bytes` and returns its length with
    // its `\n`; `None`, reading nothing, when `bytes` holds no `\n`.
    let mut line = |bytes: &[u8]| -> Result<Option<usize>, GraphError> {
        let (edge, len) = match scan_edge(bytes, options.weights.is_none()) {
            Some((u, v, p, len)) => (Some((u, v, p)), len),
            None => {
                let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
                    return Ok(None);
                };
                (parse_line(&bytes[..=end], line_no + 1)?, end + 1)
            }
        };
        line_no += 1;
        if let Some((u, v, p)) = edge {
            let (u, v) = (ids.id_of(u)?, ids.id_of(v)?);
            let p = p.unwrap_or(options.default_prob);
            if options.weights.is_none() && bad_probability.is_none() {
                bad_probability = check_probability(p).err();
            }
            edges.push(u, v, p);
            if options.undirected {
                edges.push(v, u, p);
            }
        }
        Ok(Some(len))
    };
    // The part of a line that the last buffer ended inside.
    let mut carry = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = buf;
        if !carry.is_empty() {
            let end = buf
                .iter()
                .position(|&b| b == b'\n')
                .map_or(buf.len(), |i| i + 1);
            carry.extend_from_slice(&buf[..end]);
            rest = &buf[end..];
            if carry.ends_with(b"\n") {
                line(&carry)?;
                carry.clear();
            }
        }
        while let Some(len) = line(rest)? {
            rest = &rest[len..];
        }
        carry.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
    if !carry.is_empty() {
        // The last line has no `\n`; as a separator it changes nothing.
        carry.push(b'\n');
        line(&carry)?;
    }
    let num_vertices = ids.num_vertices()?;
    if let Some(error) = bad_probability {
        return Err(error);
    }
    match edges {
        Edges::Sorted(sorted) => sorted.build(num_vertices, options.weights),
        Edges::Records(mut builder) => {
            builder.set_num_vertices(num_vertices);
            match options.weights {
                Some(model) => builder.assign_weights(model).build(),
                None => builder.build(),
            }
        }
    }
}

/// The edges read so far.
enum Edges {
    /// All of them ascend.
    Sorted(SortedEdges),
    /// Some edge did not: records for the builder.
    Records(GraphBuilder),
}

impl Edges {
    /// Stores an edge; self-loops are dropped, as the builder drops them.
    fn push(&mut self, u: Vertex, v: Vertex, p: f32) {
        if let Edges::Sorted(sorted) = self {
            if sorted.push(u, v, p) {
                return;
            }
            *self = Edges::Records(std::mem::take(sorted).into_builder());
        }
        if let Edges::Records(builder) = self {
            builder.push(u, v, p);
        }
    }
}

/// The edges of a file while they strictly ascend by (source, target),
/// self-loops left out, coded as they arrive, one row per source that has
/// edges: the row's source as its distance from the previous row's (from 0
/// for the first), its edge count, then its targets coded as a graph row
/// codes its sources ([`crate::rows`]), the first one zigzagged against the
/// source. Nothing here is sized by the id space, which is refused only at
/// the end of the file when it passes `u32`.
#[derive(Clone, Default)]
struct SortedEdges {
    /// The finished rows.
    bytes: Vec<u8>,
    /// The codes of the row being read, `row_len` of them, of `source`.
    row: Vec<u8>,
    row_len: u32,
    source: Vertex,
    /// The source of the last finished row.
    base: Vertex,
    /// The file's probabilities, in file order, when they are kept.
    probs: Option<Vec<f32>>,
    /// The least `(source, target)`, packed as `source << 32 | target`,
    /// that the next edge may have: one past the last edge's.
    next: u64,
    num_edges: usize,
}

impl SortedEdges {
    fn new(keep_probs: bool) -> Self {
        Self {
            probs: keep_probs.then(Vec::new),
            ..Self::default()
        }
    }

    /// Codes the edge; false, storing nothing, if it does not ascend or
    /// would take the graph past its edge count.
    #[inline]
    fn push(&mut self, u: Vertex, v: Vertex, p: f32) -> bool {
        if u == v {
            return true;
        }
        let key = (u64::from(u) << 32) | u64::from(v);
        if key < self.next || self.num_edges + 1 >= u32::MAX as usize {
            return false;
        }
        let code = if self.row_len > 0 && u == self.source {
            // The last target plus one is the low half of `next`.
            v - self.next as u32
        } else {
            self.finish_row();
            self.source = u;
            zigzag(u, v)
        };
        push_varint(&mut self.row, code);
        self.row_len += 1;
        if let Some(probs) = &mut self.probs {
            probs.push(p);
        }
        self.next = key + 1;
        self.num_edges += 1;
        true
    }

    /// Moves the row being read, if any, to the finished ones.
    fn finish_row(&mut self) {
        if self.row_len > 0 {
            push_varint(&mut self.bytes, self.source - self.base);
            push_varint(&mut self.bytes, self.row_len);
            self.bytes.append(&mut self.row);
            (self.base, self.row_len) = (self.source, 0);
        }
    }

    /// Calls `visit(e, u, v)` for each edge `u → v` of the finished rows,
    /// the `e`-th read.
    fn for_each(&self, mut visit: impl FnMut(usize, Vertex, Vertex)) {
        let (mut pos, mut u, mut e) = (0, 0, 0);
        while pos < self.bytes.len() {
            u += read_varint(&self.bytes, &mut pos);
            let count = read_varint(&self.bytes, &mut pos);
            let mut v = unzigzag(u, read_varint(&self.bytes, &mut pos));
            visit(e, u, v);
            for _ in 1..count {
                v += read_varint(&self.bytes, &mut pos) + 1;
                e += 1;
                visit(e, u, v);
            }
            e += 1;
        }
    }

    /// What has been read, in file order, as the builder's records.
    fn into_builder(mut self) -> GraphBuilder {
        self.finish_row();
        let mut builder = GraphBuilder::new(0);
        if self.probs.is_none() {
            builder.discard_probs();
        }
        builder.reserve(self.num_edges);
        let probs = self.probs.as_deref();
        self.for_each(|e, u, v| builder.push(u, v, probs.map_or(1.0, |probs| probs[e])));
        builder
    }

    /// The graph over `num_vertices`, which exceeds every id read. One
    /// decoding pass counts the targets, a second scatters each source
    /// into its target's row at that row's cursor; sources are visited in
    /// ascending order, so every row comes out sorted.
    fn build(mut self, num_vertices: u32, model: Option<WeightModel>) -> Result<Graph, GraphError> {
        self.finish_row();
        self.row = Vec::new();
        let n = num_vertices as usize;
        // Row v's count goes to v + 2, so that after the prefix sum
        // `in_offsets[v + 1]` is where row v starts: the scatter's cursor
        // for v, which it leaves where row v ends and row v + 1 starts.
        let mut in_offsets = vec![0u32; n + 1];
        self.for_each(|_, _, v| {
            if let Some(count) = in_offsets.get_mut(v as usize + 2) {
                *count += 1;
            }
        });
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut sources = vec![0; self.num_edges];
        let mut in_probs = self.probs.as_ref().map(|_| vec![0.0; self.num_edges]);
        self.for_each(|e, u, v| {
            let slot = &mut in_offsets[v as usize + 1];
            sources[*slot as usize] = u;
            if let (Some(in_probs), Some(probs)) = (&mut in_probs, &self.probs) {
                in_probs[*slot as usize] = probs[e];
            }
            *slot += 1;
        });
        drop(self);
        let weights = match (model, in_probs) {
            (Some(model), _) => Weights::Model(model),
            (None, probs) => Weights::Kept(probs.unwrap_or_default()),
        };
        graph_from_reverse(num_vertices, in_offsets, sources, weights)
    }
}

/// The internal ids handed out so far.
enum IdSpace {
    /// The largest id seen, if any; ids are kept as they are.
    Literal(Option<u64>),
    /// File id → dense id, in order of first appearance.
    Remap(HashMap<u64, Vertex>),
}

impl IdSpace {
    fn new(vertex_ids: VertexIds) -> Self {
        match vertex_ids {
            VertexIds::Literal => IdSpace::Literal(None),
            VertexIds::Remap => IdSpace::Remap(HashMap::new()),
        }
    }

    fn id_of(&mut self, raw: u64) -> Result<Vertex, GraphError> {
        match self {
            IdSpace::Literal(max) => {
                *max = Some(max.map_or(raw, |m| m.max(raw)));
                // An id past `u32` is cut short here and refused by
                // `num_vertices`, after any parse error further down.
                Ok(raw as Vertex)
            }
            IdSpace::Remap(map) => {
                let next = map.len() as u64;
                if let Some(&id) = map.get(&raw) {
                    return Ok(id);
                }
                if next >= u64::from(u32::MAX) {
                    return Err(GraphError::TooLarge(
                        "more than u32::MAX distinct vertices".into(),
                    ));
                }
                map.insert(raw, next as Vertex);
                Ok(next as Vertex)
            }
        }
    }

    fn num_vertices(&self) -> Result<u32, GraphError> {
        match self {
            IdSpace::Literal(None) => Ok(0),
            IdSpace::Literal(Some(max)) if *max >= u64::from(u32::MAX) => Err(
                GraphError::TooLarge(format!("literal vertex id {max} exceeds u32 range")),
            ),
            IdSpace::Literal(Some(max)) => Ok(*max as u32 + 1),
            IdSpace::Remap(map) => Ok(map.len() as u32),
        }
    }
}

/// What `char::is_whitespace` accepts below 0x80 (`u8::is_ascii_whitespace`
/// leaves out the vertical tab).
fn is_space(byte: u8) -> bool {
    matches!(byte, b'\t'..=b'\r' | b' ')
}

/// The common edge line at the start of `bytes`, `digits [ \t]+ digits
/// ([ \t]+ token)? [ \t\r]* \n` with ids of 1 to 19 digits, in one forward
/// scan: source, target, the third column and the line's length with its
/// `\n`. The third column is converted, or left `None` when `convert` is
/// false and it is a plain decimal, which `str::parse` always accepts (the
/// weight model will overwrite it). `None` for any other line, one whose
/// third column does not parse, or one that `bytes` does not hold to its
/// `\n`: those are [`parse_line`]'s to read or refuse.
#[inline]
fn scan_edge(bytes: &[u8], convert: bool) -> Option<(u64, u64, Option<f32>, usize)> {
    let is_blank = |b: u8| b == b' ' || b == b'\t';
    let (source, i) = scan_id(bytes, 0)?;
    let j = skip(bytes, i, is_blank);
    if j == i {
        return None;
    }
    let (target, i) = scan_id(bytes, j)?;
    let mut j = skip(bytes, i, is_blank);
    let mut prob = None;
    if j > i && bytes.get(j).is_some_and(u8::is_ascii_graphic) {
        let token = j;
        j = skip(bytes, j, |b| b.is_ascii_graphic());
        let token = &bytes[token..j];
        if convert || !is_plain_decimal(token) {
            prob = Some(parse_number(token)?);
        }
    }
    let j = skip(bytes, j, |b| is_blank(b) || b == b'\r');
    (bytes.get(j) == Some(&b'\n')).then_some((source, target, prob, j + 1))
}

/// The run of 1 to 19 ASCII digits at `start`, which cannot overflow a
/// `u64`, and the index past it.
#[inline]
fn scan_id(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let (mut id, mut i) = (0u64, start);
    while let Some(digit) = bytes
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        id = id.wrapping_mul(10).wrapping_add(u64::from(digit));
        i += 1;
    }
    (1..=19).contains(&(i - start)).then_some((id, i))
}

/// The index of the first byte from `i` on that `keep` refuses, or the
/// length of `bytes`.
#[inline]
fn skip(bytes: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && keep(bytes[i]) {
        i += 1;
    }
    i
}

/// ASCII digits with at most one `.`, and at least one digit.
fn is_plain_decimal(token: &[u8]) -> bool {
    let dots = token.iter().filter(|&&b| b == b'.').count();
    dots <= 1 && dots < token.len() && token.iter().all(|&b| b == b'.' || b.is_ascii_digit())
}

/// One line, its terminator included: `None` for a blank or comment line,
/// else source, target and the third column if there is one.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<(u64, u64, Option<f32>)>, GraphError> {
    if line.is_ascii() {
        let tokens = line.split(|&b| is_space(b)).filter(|t| !t.is_empty());
        return parse_fields(tokens, line_no);
    }
    // Beyond ASCII the separators are Unicode's, and a line that is not
    // UTF-8 is an I/O error, worded as `BufRead::lines` words it.
    let text = std::str::from_utf8(line)
        .map_err(|_| GraphError::Io("stream did not contain valid UTF-8".into()))?;
    parse_fields(text.split_whitespace().map(str::as_bytes), line_no)
}

fn parse_fields<'a>(
    mut tokens: impl Iterator<Item = &'a [u8]>,
    line: usize,
) -> Result<Option<(u64, u64, Option<f32>)>, GraphError> {
    let source = match tokens.next() {
        None => return Ok(None),
        Some(tok) if tok[0] == b'#' || tok[0] == b'%' => return Ok(None),
        Some(tok) => parse_id(Some(tok), line, "source")?,
    };
    let target = parse_id(tokens.next(), line, "target")?;
    let prob = match tokens.next() {
        Some(tok) => Some(parse_number(tok).ok_or_else(|| GraphError::Parse {
            line,
            message: format!("invalid probability `{}`", String::from_utf8_lossy(tok)),
        })?),
        None => None,
    };
    if tokens.next().is_some() {
        return Err(GraphError::Parse {
            line,
            message: "too many fields (expected 2 or 3)".into(),
        });
    }
    Ok(Some((source, target, prob)))
}

/// `str::parse` on a token of a line already known to be UTF-8.
fn parse_number<T: std::str::FromStr>(tok: &[u8]) -> Option<T> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn parse_id(tok: Option<&[u8]>, line: usize, what: &str) -> Result<u64, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what} field"),
    })?;
    // A sign, a 20th digit or any other byte is `str::parse`'s to accept or
    // refuse.
    if let Some((id, end)) = scan_id(tok, 0) {
        if end == tok.len() {
            return Ok(id);
        }
    }
    parse_number(tok).ok_or_else(|| GraphError::Parse {
        line,
        message: format!("invalid {what} `{}`", String::from_utf8_lossy(tok)),
    })
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: EdgeListOptions,
) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Writes the graph as a `source target probability` edge list.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# ripples-rs edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v, p) in graph.edges() {
        writeln!(w, "{u}\t{v}\t{p}")?;
    }
    w.flush()?;
    Ok(())
}

const BINARY_MAGIC: &[u8; 8] = b"RIPGRPH1";

/// Serializes the graph to a compact little-endian binary stream.
///
/// Layout: magic, n (u32), m (u64), then per-edge (source u32, target u32,
/// prob f32) in forward CSR order. The reverse CSR is rebuilt on load.
pub fn write_binary<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&graph.num_vertices().to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for (u, v, p) in graph.edges() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
        w.write_all(&p.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Deserializes a graph written by [`write_binary`].
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| GraphError::Corrupt(format!("missing magic: {e}")))?;
    if &magic != BINARY_MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let mut buf4 = [0u8; 4];
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf4)?;
    let n = u32::from_le_bytes(buf4);
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8);
    if m > u64::from(u32::MAX) {
        return Err(GraphError::Corrupt("edge count exceeds u32 limit".into()));
    }
    let mut builder = GraphBuilder::new(n);
    // `m` is a claim until the edges have been read: room for a bounded
    // number up front, the rest grows as they arrive.
    builder.reserve(m.min(1 << 20) as usize);
    for i in 0..m {
        let mut edge = [0u8; 12];
        r.read_exact(&mut edge)
            .map_err(|_| GraphError::Corrupt(format!("truncated at edge {i} of {m}")))?;
        let u = u32::from_le_bytes(edge[0..4].try_into().unwrap());
        let v = u32::from_le_bytes(edge[4..8].try_into().unwrap());
        let p = f32::from_le_bytes(edge[8..12].try_into().unwrap());
        builder
            .add_edge(u, v, p)
            .map_err(|e| GraphError::Corrupt(format!("invalid edge {i}: {e}")))?;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        b.add_edge(2, 3, 0.125).unwrap();
        b.add_edge(3, 0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(
            buf.as_slice(),
            EdgeListOptions {
                vertex_ids: VertexIds::Literal,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTAGRPH\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(GraphError::Corrupt(_))
        ));
    }

    #[test]
    fn parses_comments_and_default_probs() {
        let text = "# a comment\n% another\n0 1\n1 2 0.5\n\n";
        let g = read_edge_list(
            text.as_bytes(),
            EdgeListOptions {
                vertex_ids: VertexIds::Literal,
                default_prob: 0.75,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_prob(0, 1), Some(0.75));
        assert_eq!(g.edge_prob(1, 2), Some(0.5));
    }

    #[test]
    fn remap_compacts_sparse_ids() {
        let text = "100 200\n200 4000\n";
        let g = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn undirected_doubles_edges() {
        let text = "0 1\n";
        let g = read_edge_list(
            text.as_bytes(),
            EdgeListOptions {
                vertex_ids: VertexIds::Literal,
                undirected: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["0\n", "a b\n", "0 1 x\n", "0 1 0.5 9\n"] {
            let err = read_edge_list(bad.as_bytes(), EdgeListOptions::default()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { .. }), "input {bad:?}");
        }
    }

    #[test]
    fn weight_model_overrides_file_probs() {
        let text = "0 1 0.9\n1 2 0.9\n";
        let g = read_edge_list(
            text.as_bytes(),
            EdgeListOptions {
                vertex_ids: VertexIds::Literal,
                weights: Some(WeightModel::Constant(0.1)),
                ..Default::default()
            },
        )
        .unwrap();
        for (_, _, p) in g.edges() {
            assert!((p - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn ascending_edges_stay_coded_until_one_does_not() {
        for keep_probs in [false, true] {
            let mut edges = Edges::Sorted(SortedEdges::new(keep_probs));
            for (u, v) in [(0, 1), (0, 3), (2, 2), (2, 0), (7, 1), (7, 6)] {
                edges.push(u, v, 0.5);
            }
            let Edges::Sorted(sorted) = &edges else {
                panic!("ascending edges and a self-loop go on the sorted path");
            };
            let mut read = Vec::new();
            let mut coded = sorted.clone();
            coded.finish_row();
            coded.for_each(|e, u, v| read.push((e, u, v)));
            assert_eq!(
                read,
                [(0, 0, 1), (1, 0, 3), (2, 2, 0), (3, 7, 1), (4, 7, 6)]
            );
            // A duplicate does not ascend.
            edges.push(7, 6, 0.25);
            let Edges::Records(builder) = &edges else {
                panic!("a duplicate goes to the record path");
            };
            assert_eq!(builder.pending_edges(), 6);
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes(), EdgeListOptions::default()).unwrap();
        assert!(g.is_empty());
    }
}
