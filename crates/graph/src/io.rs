//! Graph I/O: SNAP-style edge-list text and a compact binary format.
//!
//! The text format is line-oriented: `source<ws>target[<ws>probability]`,
//! with `#`-prefixed comment lines, exactly what the SNAP collection ships.
//! Vertex ids are remapped densely in first-appearance order when
//! `read_edge_list` is given `VertexIds::Remap` (SNAP files have gaps), or
//! taken literally with `VertexIds::Literal`.

use crate::builder::{check_probability, GraphBuilder};
use crate::csr::Graph;
use crate::types::{GraphError, Vertex};
use crate::weights::WeightModel;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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
/// Lines are read into one reused byte buffer and tokenised as bytes; an
/// edge goes into the [`GraphBuilder`]'s id vectors on the line where it
/// appears, with its ids already narrowed ([`VertexIds::Literal`]) or
/// assigned ([`VertexIds::Remap`]), and its third column is checked but not
/// stored when `options.weights` will overwrite it. Nothing else of the
/// file's size is held, so the load peaks where [`GraphBuilder::build`]
/// does.
///
/// Errors are reported in this order: the first line that does not parse
/// (or is not UTF-8), then an id space past `u32`, then the first
/// probability outside `[0, 1]`.
pub fn read_edge_list<R: Read>(reader: R, options: EdgeListOptions) -> Result<Graph, GraphError> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut builder = GraphBuilder::new(0);
    if options.weights.is_some() {
        builder.discard_probs();
    }
    let mut ids = IdSpace::new(options.vertex_ids);
    let mut bad_probability = None;
    let mut line = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        line_no += 1;
        let Some((u, v, p)) = parse_line(&line, line_no)? else {
            continue;
        };
        let (u, v) = (ids.id_of(u)?, ids.id_of(v)?);
        let p = p.unwrap_or(options.default_prob);
        if options.weights.is_none() && bad_probability.is_none() {
            bad_probability = check_probability(p).err();
        }
        builder.push(u, v, p);
        if options.undirected {
            builder.push(v, u, p);
        }
    }
    builder.set_num_vertices(ids.num_vertices()?);
    if let Some(error) = bad_probability {
        return Err(error);
    }
    match options.weights {
        Some(model) => builder.assign_weights(model).build(),
        None => builder.build(),
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
    // Up to 19 digits cannot overflow a u64. A sign, a 20th digit or any
    // other byte is `str::parse`'s to accept or refuse.
    if tok.len() <= 19 {
        let digits = tok.iter().try_fold(0u64, |id, &byte| {
            let digit = byte.wrapping_sub(b'0');
            (digit <= 9).then(|| id * 10 + u64::from(digit))
        });
        if let Some(id) = digits {
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
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes(), EdgeListOptions::default()).unwrap();
        assert!(g.is_empty());
    }
}
