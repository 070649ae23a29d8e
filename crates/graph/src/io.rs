//! Graph I/O: SNAP-style edge-list text.
//!
//! The text format is line-oriented: `source<ws>target[<ws>probability]`,
//! with `#`-prefixed comment lines, exactly what the SNAP collection ships.
//! Vertex ids are remapped densely in first-appearance order when
//! `read_edge_list` is given `VertexIds::Remap` (SNAP files have gaps), or
//! taken literally with `VertexIds::Literal`.

use crate::builder::{check_probability, offsets_by_key, GraphBuilder, Weights};
use crate::csr::Graph;
use crate::rows::{in_parallel, target_ranges, threads_for, OutEdges, Rows};
use crate::types::{GraphError, Vertex};
use crate::varint::{push_varint, zigzag};
use crate::weights::WeightModel;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

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
/// they arrive (~2.2 bytes an edge), and the in-rows are coded straight
/// from those out-rows, on one thread per CPU for a large graph: at the
/// peak both codes beside 12 bytes a vertex, then the in-rows beside the
/// probabilities; when the file's probabilities are kept, 8 bytes an edge
/// more (in file order and in row order). At the first edge that does not
/// ascend, what has been read goes into a [`GraphBuilder`] and the load
/// peaks where [`GraphBuilder::build`] does. Either way the graph is the
/// same.
///
/// Errors are reported in this order: the first line that does not parse
/// (or is not UTF-8), then an id space past `u32`, then the first
/// probability outside `[0, 1]`.
pub fn read_edge_list<R: Read>(reader: R, options: EdgeListOptions) -> Result<Graph, GraphError> {
    read_buffered(BufReader::with_capacity(READ_BYTES, reader), options)
}

/// [`read_edge_list`] through the reader's own buffer.
fn read_buffered(reader: impl BufRead, options: EdgeListOptions) -> Result<Graph, GraphError> {
    let mut edges = Edges::Sorted(SortedEdges::new(options.weights.is_none()));
    let mut ids = IdSpace::new(options.vertex_ids);
    let lines = read_lines(reader, options, &mut ids, |u, v, p| {
        edges.push(u, v, p);
        true
    })?;
    let num_vertices = ids.num_vertices()?;
    if let Some(error) = lines.bad_probability {
        return Err(error);
    }
    match edges {
        Edges::Sorted(sorted) => build_sorted(vec![sorted], num_vertices, options.weights),
        Edges::Records(mut builder) => {
            builder.set_num_vertices(num_vertices);
            match options.weights {
                Some(model) => builder.assign_weights(model).build(),
                None => builder.build(),
            }
        }
    }
}

/// The reader's buffer, in which lines are parsed.
const READ_BYTES: usize = 1 << 16;

/// What [`read_lines`] found besides the edges it handed on.
struct Lines {
    /// Lines read; a last one without its `\n` counts.
    count: usize,
    /// The first probability outside `[0, 1]`, when they are kept.
    bad_probability: Option<GraphError>,
    /// Whether an edge was refused, which ended the reading there.
    stopped: bool,
}

/// Reads the lines of `reader` as [`read_edge_list`] does and hands each
/// edge to `push` (both ways when `options.undirected`), its ids from
/// `ids`, until `push` refuses one. The first line that does not parse is
/// an error, numbered from the reader's start.
fn read_lines(
    mut reader: impl BufRead,
    options: EdgeListOptions,
    ids: &mut IdSpace,
    mut push: impl FnMut(Vertex, Vertex, f32) -> bool,
) -> Result<Lines, GraphError> {
    let mut bad_probability = None;
    let mut line_no = 0usize;
    let stopped = Cell::new(false);
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
            if !(push(u, v, p) && (!options.undirected || push(v, u, p))) {
                stopped.set(true);
            }
        }
        Ok(Some(len))
    };
    // The part of a line that the last buffer ended inside.
    let mut carry = Vec::new();
    while !stopped.get() {
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
        while !stopped.get() {
            let Some(len) = line(rest)? else { break };
            rest = &rest[len..];
        }
        carry.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
    if !carry.is_empty() && !stopped.get() {
        // The last line has no `\n`; as a separator it changes nothing.
        carry.push(b'\n');
        line(&carry)?;
    }
    Ok(Lines {
        count: line_no,
        bad_probability,
        stopped: stopped.get(),
    })
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

/// The edges of a file, or of a chunk of one, while they strictly ascend
/// by (source, target), self-loops left out, coded as they arrive as
/// out-rows ([`OutEdges`]), and every [`SAMPLE`]-th edge's target. Nothing
/// here is sized by the id space, which is refused only at the end of the
/// file when it passes `u32`.
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
    /// The first edge, packed as `next` is.
    first: u64,
    /// The least `(source, target)`, packed as `source << 32 | target`,
    /// that the next edge may have: one past the last edge's.
    next: u64,
    num_edges: usize,
    /// Every [`SAMPLE`]-th edge's target, which the in-rows' target ranges
    /// are balanced by.
    sample: Vec<Vertex>,
}

/// One edge in this many has its target sampled.
const SAMPLE: usize = 64;

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
        if self.num_edges == 0 {
            self.first = key;
        }
        if self.num_edges.is_multiple_of(SAMPLE) {
            self.sample.push(v);
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

    /// What has been read, in file order, as the builder's records.
    fn into_builder(mut self) -> GraphBuilder {
        self.finish_row();
        let mut builder = GraphBuilder::new(0);
        if self.probs.is_none() {
            builder.discard_probs();
        }
        builder.reserve(self.num_edges);
        let probs = self.probs.as_deref();
        for (e, (u, v)) in OutEdges::new(&self.bytes).enumerate() {
            builder.push(u, v, probs.map_or(1.0, |probs| probs[e]));
        }
        builder
    }
}

/// Edges a thread of [`Rows::transpose`] codes at the least.
const RANGE_EDGES: usize = 1 << 16;

/// The graph over `num_vertices`, which exceeds every id read, of `chunks`
/// whose edges ascend from each to the next: its in-rows coded from their
/// out-rows ([`Rows::transpose`]) over target ranges balanced by their
/// in-edges, one a thread, then its probabilities kept or drawn. The
/// chunks are freed before a model draws.
fn build_sorted(
    mut chunks: Vec<SortedEdges>,
    num_vertices: u32,
    model: Option<WeightModel>,
) -> Result<Graph, GraphError> {
    chunks.iter_mut().for_each(SortedEdges::finish_row);
    let num_edges = chunks.iter().map(|chunk| chunk.num_edges).sum();
    let mut sample: Vec<Vertex> = chunks
        .iter()
        .flat_map(|chunk| &chunk.sample)
        .copied()
        .collect();
    let ranges = target_ranges(
        &mut sample,
        num_vertices,
        threads_for(num_edges, RANGE_EDGES),
    );
    let out_rows: Vec<&[u8]> = chunks.iter().map(|chunk| chunk.bytes.as_slice()).collect();
    let probs: Option<Vec<&[f32]>> = model.is_none().then(|| {
        let probs = chunks.iter().map(|chunk| chunk.probs.as_deref());
        probs.map(Option::unwrap_or_default).collect()
    });
    let (rows, in_offsets, in_probs) =
        Rows::transpose(num_vertices, &out_rows, probs.as_deref(), &ranges)?;
    // A model that draws per edge needs each source's out-offset.
    let out_offsets = model.filter(|model| model.draws_per_edge()).map(|_| {
        let sources = out_rows.iter().flat_map(|rows| OutEdges::new(rows));
        offsets_by_key(num_vertices as usize, sources.map(|(u, _)| u))
    });
    drop(chunks);
    let weights = match model {
        Some(model) => Weights::Model(model),
        None => Weights::Kept(in_probs.unwrap_or_default()),
    };
    Ok(weights.graph(num_vertices, rows, in_offsets, out_offsets))
}

/// Bytes of a file a thread parses at the least.
const CHUNK_BYTES: usize = 1 << 18;

/// Bytes read from an offset, by any number of threads at once.
trait ReadAt: Sync {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize>;
}

#[cfg(unix)]
impl ReadAt for std::fs::File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }
}

#[cfg(test)]
impl ReadAt for [u8] {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        let rest = self.get(offset as usize..).unwrap_or_default();
        let len = rest.len().min(buf.len());
        buf[..len].copy_from_slice(&rest[..len]);
        Ok(len)
    }
}

/// The bytes `range` of a source, read in order through `buf`.
struct Span<'a, S: ?Sized> {
    source: &'a S,
    range: Range<u64>,
    buf: &'a mut [u8],
    /// What of `buf` has been read from the source and not yet consumed.
    filled: Range<usize>,
}

impl<'a, S: ReadAt + ?Sized> Span<'a, S> {
    fn new(source: &'a S, range: Range<u64>, buf: &'a mut [u8]) -> Self {
        Self {
            source,
            range,
            buf,
            filled: 0..0,
        }
    }
}

impl<S: ReadAt + ?Sized> BufRead for Span<'_, S> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.filled.is_empty() {
            let left = self.range.end - self.range.start;
            let len = self
                .buf
                .len()
                .min(usize::try_from(left).unwrap_or(usize::MAX));
            let read = self
                .source
                .read_at(&mut self.buf[..len], self.range.start)?;
            self.range.start += read as u64;
            self.filled = 0..read;
        }
        Ok(&self.buf[self.filled.clone()])
    }

    fn consume(&mut self, amount: usize) {
        self.filled.start += amount;
    }
}

impl<S: ReadAt + ?Sized> Read for Span<'_, S> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let bytes = self.fill_buf()?;
        let len = bytes.len().min(out.len());
        out[..len].copy_from_slice(&bytes[..len]);
        self.consume(len);
        Ok(len)
    }
}

/// The first line start of `source`'s `len` bytes at or past `at`: `at`
/// when the byte before it is a `\n` (or it is 0), else one past the next
/// `\n`, else `len`.
fn line_start<S: ReadAt + ?Sized>(source: &S, at: u64, len: u64) -> Result<u64, GraphError> {
    if at == 0 {
        return Ok(0);
    }
    let (mut block, mut from) = ([0u8; 4096], at - 1);
    while from < len {
        let want = block
            .len()
            .min(usize::try_from(len - from).unwrap_or(usize::MAX));
        let read = source.read_at(&mut block[..want], from)?;
        if read == 0 {
            break;
        }
        if let Some(i) = block[..read].iter().position(|&b| b == b'\n') {
            return Ok(from + i as u64 + 1);
        }
        from += read as u64;
    }
    Ok(len)
}

/// One chunk of a file, read by [`read_chunks`].
struct Chunk {
    edges: SortedEdges,
    ids: IdSpace,
    lines: Lines,
}

/// [`read_edge_list`] over the first `len` bytes of `source`, read as one
/// chunk per range between the line starts at or past `cuts` (ascending),
/// each on a thread of its own. When every chunk ascends, each past the
/// one before, their out-rows make the graph; when one does not (the
/// others stop at their next edge), or with [`VertexIds::Remap`], whose ids
/// follow the order of the whole file, or when one range is all there is,
/// the bytes are read again as one chunk. The first error is the first
/// chunk's, its line counted from the start of `source`.
fn read_chunks<S: ReadAt + ?Sized>(
    source: &S,
    len: u64,
    cuts: &[u64],
    options: EdgeListOptions,
) -> Result<Graph, GraphError> {
    let whole = |buf: &mut [u8]| read_buffered(Span::new(source, 0..len, buf), options);
    let mut starts = vec![0];
    for &cut in cuts {
        starts.push(line_start(source, cut, len)?);
    }
    starts.push(len);
    starts.dedup();
    // Every chunk's buffer in one block, which is handed back whole.
    let mut buffers = vec![0; READ_BYTES * starts.len().saturating_sub(1).max(1)];
    if starts.len() < 3 || options.vertex_ids == VertexIds::Remap {
        return whole(&mut buffers);
    }
    // Room for the codes of an edge every 8 bytes, made here rather than
    // grown on the chunk's thread: a large chunk takes it in pages as it
    // writes them.
    let chunks = starts
        .windows(2)
        .zip(buffers.chunks_mut(READ_BYTES))
        .map(|(pair, buf)| {
            let mut edges = SortedEdges::new(options.weights.is_none());
            let bytes = usize::try_from(pair[1] - pair[0]).unwrap_or(usize::MAX);
            edges.bytes.reserve(bytes / 4);
            if let Some(probs) = &mut edges.probs {
                probs.reserve(bytes / 8);
            }
            (Span::new(source, pair[0]..pair[1], buf), edges)
        });
    let stop = AtomicBool::new(false);
    let read = in_parallel(
        chunks.collect(),
        |(reader, mut edges)| -> Result<Chunk, GraphError> {
            let mut ids = IdSpace::new(VertexIds::Literal);
            let lines = read_lines(reader, options, &mut ids, |u, v, p| {
                let pushed = !stop.load(Ordering::Relaxed) && edges.push(u, v, p);
                if !pushed {
                    stop.store(true, Ordering::Relaxed);
                }
                pushed
            })?;
            Ok(Chunk { edges, ids, lines })
        },
    );
    let (mut chunks, mut lines_before) = (Vec::with_capacity(read.len()), 0);
    let (mut max_id, mut bad_probability, mut next) = (None, None, 0);
    for chunk in read {
        let chunk = chunk.map_err(|error| match error {
            GraphError::Parse { line, message } => GraphError::Parse {
                line: lines_before + line,
                message,
            },
            error => error,
        })?;
        let edges = &chunk.edges;
        if chunk.lines.stopped || (edges.num_edges > 0 && edges.first < next) {
            return whole(&mut buffers);
        }
        if edges.num_edges > 0 {
            next = edges.next;
        }
        lines_before += chunk.lines.count;
        max_id = max_id.max(chunk.ids.max());
        bad_probability = bad_probability.or(chunk.lines.bad_probability);
        chunks.push(chunk.edges);
    }
    if chunks.iter().map(|chunk| chunk.num_edges).sum::<usize>() + 1 >= u32::MAX as usize {
        return whole(&mut buffers);
    }
    drop(buffers);
    let num_vertices = IdSpace::Literal(max_id).num_vertices()?;
    if let Some(error) = bad_probability {
        return Err(error);
    }
    build_sorted(chunks, num_vertices, options.weights)
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

    /// The largest literal id read, if any.
    fn max(&self) -> Option<u64> {
        match self {
            IdSpace::Literal(max) => *max,
            IdSpace::Remap(_) => None,
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

/// Reads an edge list from a file path, as [`read_edge_list`] does.
///
/// A regular file read with [`VertexIds::Literal`] is parsed on one thread
/// per CPU the process may run on, fewer for a file of less than 256 KiB a
/// thread: cut into byte ranges at line starts, each parsed into its own
/// out-rows. When the chunks ascend, one after the other, as a file that
/// [`write_edge_list`] wrote does, the graph is built from them; otherwise
/// the file is read again on one thread. Either way the graph, or the
/// error, is the one [`read_edge_list`] gives.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: EdgeListOptions,
) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path)?;
    #[cfg(unix)]
    {
        let meta = file.metadata()?;
        let len = meta.len();
        let chunks = if meta.is_file() && options.vertex_ids == VertexIds::Literal {
            threads_for(usize::try_from(len).unwrap_or(usize::MAX), CHUNK_BYTES)
        } else {
            1
        };
        if chunks > 1 {
            let cuts: Vec<u64> = (1..chunks as u64)
                .map(|k| len / chunks as u64 * k)
                .collect();
            return read_chunks(&file, len, &cuts, options);
        }
    }
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
            let mut coded = sorted.clone();
            coded.finish_row();
            let read: Vec<_> = OutEdges::new(&coded.bytes).collect();
            assert_eq!(read, [(0, 1), (0, 3), (2, 0), (7, 1), (7, 6)]);
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

    /// An edge list that mostly ascends, drawn from `seed`, and where its
    /// lines start: LF or CRLF ends, comment and blank lines, a third
    /// column on some lines, on some draws no final newline, and on some
    /// one flaw: an edge that does not ascend, an id past `u32`, a kept
    /// probability outside `[0, 1]` or a line that does not parse.
    fn chunk_text(seed: u64) -> (Vec<u8>, Vec<usize>) {
        let mut rng = ripples_rng::SplitMix64::for_stream(seed, 0x4355_5453);
        let mut below = |bound: u64| rng.bounded_u64(bound) as usize;
        let lines = below(40);
        let crlf = below(3);
        let mut edges: Vec<(usize, usize)> = (0..lines).map(|_| (below(30), below(30))).collect();
        edges.sort_unstable();
        let flaw = below(8);
        let at = below(lines.max(1) as u64);
        let (mut text, mut starts) = (Vec::new(), Vec::new());
        for (i, &(u, v)) in edges.iter().enumerate() {
            starts.push(text.len());
            let mut line = match below(10) {
                0 => "# a comment".to_string(),
                1 => String::new(),
                2 => format!("{u} {v} 0.5"),
                _ => format!("{u}\t{v}"),
            };
            if i == at {
                line = match flaw {
                    0 => format!("{} {}", u + 1, v), // a step back on the next line
                    1 => format!("{v} {u}"),
                    2 => format!("4294967296 {v}"),
                    3 => format!("{u} {v} 1.5"),
                    4 => format!("{u} x"),
                    _ => line,
                };
            }
            text.extend_from_slice(line.as_bytes());
            let last = i + 1 == lines;
            if !last || below(4) > 0 {
                let crlf = crlf == 1 || (crlf == 2 && below(2) == 0);
                text.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
        }
        (text, starts)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any cut of a text into 1 to 8 ranges reads as the one range
        /// does: the same graph, or the same first error on the same line,
        /// under every option. Some cuts fall at a line's start, one with
        /// a flaw on some draws, or between a `\r` and its `\n`.
        #[test]
        fn chunk_cuts_read_as_one_range(seed in proptest::prelude::any::<u64>()) {
            let (text, starts) = chunk_text(seed);
            let mut rng = ripples_rng::SplitMix64::for_stream(seed, 0x4355_5432);
            let mut below = |bound: usize| rng.bounded_u64(bound as u64) as usize;
            let mut cuts: Vec<u64> = (0..below(8)).map(|_| below(text.len() + 1) as u64).collect();
            if let Some(&start) = starts.get(below(starts.len() + 1)) {
                cuts.push(start as u64);
            }
            if let Some(cr) = text.windows(2).position(|pair| pair == b"\r\n") {
                cuts.push(cr as u64 + 1);
            }
            cuts.sort_unstable();
            let mut all = Vec::new();
            for vertex_ids in [VertexIds::Literal, VertexIds::Remap] {
                for undirected in [false, true] {
                    for weights in [None, Some(WeightModel::WeightedCascade), Some(WeightModel::UniformRandom { seed: 3 })] {
                        all.push(EdgeListOptions { vertex_ids, undirected, default_prob: 0.75, weights });
                    }
                }
            }
            for options in all {
                let one = read_edge_list(text.as_slice(), options);
                let cut = read_chunks(text.as_slice(), text.len() as u64, &cuts, options);
                let same = match (&one, &cut) {
                    (Ok(one), Ok(cut)) => one == cut && one.fingerprint() == cut.fingerprint(),
                    (Err(one), Err(cut)) => format!("{one:?}") == format!("{cut:?}"),
                    _ => false,
                };
                proptest::prop_assert!(
                    same,
                    "cuts {cuts:?} of {:?} with {options:?}:\n one range {one:?}\n  cut {cut:?}",
                    String::from_utf8_lossy(&text)
                );
            }
        }
    }
}
