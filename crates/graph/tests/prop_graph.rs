//! Property-based tests for graph construction and I/O.
//!
//! The second half holds the loader and the builder to references: the
//! `lines()` / `split_whitespace` reader and the sort + dedup + naive CSR
//! build this crate used before its load path was rewritten around a byte
//! tokeniser and a counting sort, and to the rule that no input, however
//! hostile, panics or aborts.

use proptest::prelude::*;
use ripples_graph::generators::barabasi_albert;
use ripples_graph::io::{
    read_edge_list, read_edge_list_file, write_edge_list, EdgeListOptions, VertexIds,
};
use ripples_graph::{Graph, GraphBuilder, GraphError, RowProbs, Vertex, WeightModel};
use ripples_rng::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Strategy: a vertex count and an arbitrary edge list over it.
fn edges_strategy() -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (2u32..80).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.0f32..=1.0f32);
        (Just(n), prop::collection::vec(edge, 0..300))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever we feed the builder, the result passes full validation.
    #[test]
    fn built_graphs_validate((n, edges) in edges_strategy()) {
        let mut b = GraphBuilder::new(n);
        for (u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        prop_assert!(g.validate().is_ok());
    }

    /// Insertion order never changes the built graph of distinct edges (of
    /// an edge added twice the builder keeps the first one added).
    #[test]
    fn order_independence((n, edges) in edges_strategy()) {
        let mut seen = HashSet::new();
        let edges: Vec<_> = edges.into_iter().filter(|&(u, v, _)| seen.insert((u, v))).collect();
        let mut fwd = GraphBuilder::new(n);
        let mut rev = GraphBuilder::new(n);
        for &(u, v, p) in &edges {
            fwd.add_edge(u, v, p).unwrap();
        }
        for &(u, v, p) in edges.iter().rev() {
            rev.add_edge(u, v, p).unwrap();
        }
        prop_assert_eq!(fwd.build().unwrap(), rev.build().unwrap());
    }

    /// Both CSR directions always contain the same edge multiset.
    #[test]
    fn directions_agree((n, edges) in edges_strategy()) {
        let mut b = GraphBuilder::new(n);
        for (u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let out_sum: usize = (0..n).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..n).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        for v in 0..n {
            for (u, p) in g.in_edges(v) {
                prop_assert_eq!(g.edge_prob(u, v), Some(p));
            }
        }
    }

    /// Text serialization round-trips structurally (probabilities via
    /// shortest-float printing are exact for f32).
    #[test]
    fn text_roundtrip((n, edges) in edges_strategy()) {
        let mut b = GraphBuilder::new(n);
        for (u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(
            buf.as_slice(),
            EdgeListOptions { vertex_ids: VertexIds::Literal, ..Default::default() },
        )
        .unwrap();
        // Literal ids keep vertices that have at least one edge; isolated
        // trailing vertices are dropped by the text format, so compare edges.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }

    /// LT normalization caps every vertex's in-weight at one and never
    /// increases a weight.
    #[test]
    fn lt_normalization_caps((n, edges) in edges_strategy()) {
        let mut plain = GraphBuilder::new(n).assign_weights(WeightModel::UniformRandom { seed: 5 });
        let mut normed = GraphBuilder::new(n).assign_weights(WeightModel::UniformRandom { seed: 5 });
        for &(u, v, _) in &edges {
            plain.add_arc(u, v).unwrap();
            normed.add_arc(u, v).unwrap();
        }
        let plain = plain.build().unwrap();
        let normed = normed.normalize_for_lt().build().unwrap();
        for v in 0..n {
            prop_assert!(normed.in_weight_sum(v) <= 1.0 + 1e-5);
            for ((_, p_n), (_, p_p)) in normed.in_edges(v).zip(plain.in_edges(v)) {
                prop_assert!(p_n <= p_p + 1e-6);
            }
        }
    }

    /// Weighted-cascade gives every non-source vertex in-weight exactly 1.
    #[test]
    fn weighted_cascade_sums((n, edges) in edges_strategy()) {
        let mut b = GraphBuilder::new(n).assign_weights(WeightModel::WeightedCascade);
        for &(u, v, _) in &edges {
            b.add_arc(u, v).unwrap();
        }
        let g = b.build().unwrap();
        for v in 0..n {
            if g.in_degree(v) > 0 {
                prop_assert!((g.in_weight_sum(v) - 1.0).abs() < 1e-4);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded input generation. The vendored proptest has ranges, tuples and
// vectors but no weighted choice, so each case draws one seed and rolls its
// own dice from it.
// ---------------------------------------------------------------------------

struct Dice(SplitMix64);

impl Dice {
    fn new(seed: u64) -> Self {
        Dice(SplitMix64::for_stream(seed, 0xD1CE))
    }

    fn below(&mut self, bound: usize) -> usize {
        self.0.bounded_u64(bound as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Every combination the reader distinguishes: id handling, direction,
/// and whether the third column is kept or overwritten.
fn all_options() -> Vec<EdgeListOptions> {
    let mut all = Vec::new();
    for vertex_ids in [VertexIds::Literal, VertexIds::Remap] {
        for undirected in [false, true] {
            for weights in [
                None,
                Some(WeightModel::WeightedCascade),
                Some(WeightModel::UniformRandom { seed: 3 }),
            ] {
                all.push(EdgeListOptions {
                    vertex_ids,
                    undirected,
                    default_prob: 0.75,
                    weights,
                });
            }
        }
    }
    all
}

// ---------------------------------------------------------------------------
// (b) The reader against its predecessor.
// ---------------------------------------------------------------------------

/// The edge-list reader as it was before the byte-level one: every line a
/// `String`, every edge stored three times before the builder saw it. Kept
/// verbatim as the reference for what is accepted, what is refused, and on
/// which line.
fn reference_read_edge_list(bytes: &[u8], options: EdgeListOptions) -> Result<Graph, GraphError> {
    fn parse_field(tok: Option<&str>, line: usize, what: &str) -> Result<u64, GraphError> {
        let tok = tok.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {what} field"),
        })?;
        tok.parse().map_err(|_| GraphError::Parse {
            line,
            message: format!("invalid {what} `{tok}`"),
        })
    }

    let reader = BufReader::new(bytes);
    let mut raw_edges: Vec<(u64, u64, f32)> = Vec::new();
    let mut max_id = 0u64;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u64 = parse_field(parts.next(), line_no, "source")?;
        let v: u64 = parse_field(parts.next(), line_no, "target")?;
        let p: f32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid probability `{tok}`"),
            })?,
            None => options.default_prob,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "too many fields (expected 2 or 3)".into(),
            });
        }
        max_id = max_id.max(u).max(v);
        raw_edges.push((u, v, p));
    }

    let (num_vertices, edges) = match options.vertex_ids {
        VertexIds::Literal => {
            if !raw_edges.is_empty() && max_id >= u64::from(u32::MAX) {
                return Err(GraphError::TooLarge(format!(
                    "literal vertex id {max_id} exceeds u32 range"
                )));
            }
            let n = if raw_edges.is_empty() {
                0
            } else {
                (max_id + 1) as u32
            };
            let edges: Vec<(Vertex, Vertex, f32)> = raw_edges
                .into_iter()
                .map(|(u, v, p)| (u as Vertex, v as Vertex, p))
                .collect();
            (n, edges)
        }
        VertexIds::Remap => {
            let mut map: HashMap<u64, Vertex> = HashMap::new();
            let mut next: Vertex = 0;
            let mut edges = Vec::with_capacity(raw_edges.len());
            for (u, v, p) in raw_edges {
                let mut id_of = |x: u64| -> Result<Vertex, GraphError> {
                    if let Some(&id) = map.get(&x) {
                        return Ok(id);
                    }
                    if next == u32::MAX {
                        return Err(GraphError::TooLarge(
                            "more than u32::MAX distinct vertices".into(),
                        ));
                    }
                    let id = next;
                    map.insert(x, id);
                    next += 1;
                    Ok(id)
                };
                let iu = id_of(u)?;
                let iv = id_of(v)?;
                edges.push((iu, iv, p));
            }
            (next, edges)
        }
    };

    let mut builder = GraphBuilder::new(num_vertices);
    builder.reserve(edges.len() * if options.undirected { 2 } else { 1 });
    if let Some(model) = options.weights {
        let mut wb = builder.assign_weights(model);
        for (u, v, _) in edges {
            if options.undirected {
                wb.add_undirected(u, v)?;
            } else {
                wb.add_arc(u, v)?;
            }
        }
        wb.build()
    } else {
        for (u, v, p) in edges {
            if options.undirected {
                builder.add_undirected(u, v, p)?;
            } else {
                builder.add_edge(u, v, p)?;
            }
        }
        builder.build()
    }
}

/// `Err` with a description unless both readers make the same of `text`:
/// the same graph, or the same error (compared as `Debug` text, because an
/// `InvalidProbability` may carry a NaN).
fn same_outcome(text: &[u8], options: EdgeListOptions) -> Result<(), String> {
    same_outcome_through(text, options, text)
}

/// [`same_outcome`], with the reader under test reading `text` from
/// `reader`.
fn same_outcome_through(
    text: &[u8],
    options: EdgeListOptions,
    reader: impl Read,
) -> Result<(), String> {
    let expected = reference_read_edge_list(text, options);
    let actual = read_edge_list(reader, options);
    let same = match (&expected, &actual) {
        (Ok(e), Ok(a)) => e == a && e.fingerprint() == a.fingerprint() && a.validate().is_ok(),
        (Err(e), Err(a)) => format!("{e:?}") == format!("{a:?}"),
        _ => false,
    };
    if same {
        return Ok(());
    }
    Err(format!(
        "readers disagree on {:?} with {options:?}:\n reference {expected:?}\n    actual {actual:?}",
        String::from_utf8_lossy(text)
    ))
}

/// Ids a file may hold. In a `Literal` file the largest id sizes the graph,
/// so those that parse are either small or past `u32` (refused before
/// anything is allocated for them).
const IDS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "12",
    "40",
    "+7",
    "007",
    "0000000000000000000000012",
    "4294967295",
    "4294967296",
    "9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "+",
    "1.0",
    "1e2",
    "x",
    "0x1f",
    "1_0",
    "\u{663}",
    "\u{ff11}",
];
const GOOD_IDS: usize = 9;

const PROBS: &[&str] = &[
    "0.5", "1", "0", "0.25", "1e-3", "+0.5", "-0.0", ".5", "5.", "1e-400", "inf", "+inf", "-inf",
    "infinity", "NaN", "nan", "-nan", "1.5", "-0.1", "1e400", "0x1p-2", "abc", "0,5", "0.5f", ".",
    "\u{ff11}",
];
const GOOD_PROBS: usize = 8;

/// Field separators: blanks, tabs, the ASCII controls `char::is_whitespace`
/// counts (a bare carriage return among them), and three beyond ASCII.
const SEPARATORS: &[&str] = &[
    " ", "\t", "  ", " \t ", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2003}", "\u{85}",
];
const PADS: &[&str] = &["", "", "", " ", "\t", " \t  ", "\u{a0}"];
const ENDINGS: &[&str] = &["\n", "\n", "\r\n", "\r\r\n"];
const COMMENTS: &[&str] = &[
    "# comment",
    "% comment",
    "#",
    "%",
    "#0 1",
    "  # indented",
    "\t% indented",
    "# caf\u{e9}",
    "\u{a0}# after a no-break space",
];
const BLANKS: &[&str] = &["", " ", "\t", "\r", " \t ", "\u{a0}", "\x0b"];
/// Lines that are not UTF-8 (`GraphError::Io`, wherever on the line).
const NOT_UTF8: &[&[u8]] = &[
    b"\xff",
    b"0 1 \xff",
    b"# \xff\xfe",
    b"0\xc3 1",
    b"0 1 0.5 \x80",
];

fn edge_line(dice: &mut Dice, ids: &[&str], probs: &[&str], fields: usize) -> String {
    let mut line = dice.pick(PADS).to_string();
    for field in 0..fields {
        if field > 0 {
            line.push_str(dice.pick(SEPARATORS));
        }
        line.push_str(if field == 2 {
            dice.pick(probs)
        } else {
            dice.pick(ids)
        });
    }
    line.push_str(dice.pick(PADS));
    line
}

/// A file of up to ten lines, mostly well-formed edges so that the odd
/// lines are reached, its last line with or without a terminator.
fn edge_list_text(seed: u64) -> Vec<u8> {
    let mut dice = Dice::new(seed);
    let mut text = Vec::new();
    let lines = 1 + dice.below(10);
    for i in 0..lines {
        match dice.below(100) {
            0..=59 => {
                let fields = 2 + dice.below(2);
                let line = edge_line(&mut dice, &IDS[..GOOD_IDS], &PROBS[..GOOD_PROBS], fields);
                text.extend_from_slice(line.as_bytes());
            }
            60..=74 => {
                let fields = 1 + dice.below(4);
                text.extend_from_slice(edge_line(&mut dice, IDS, PROBS, fields).as_bytes());
            }
            75..=86 => text.extend_from_slice(dice.pick(COMMENTS).as_bytes()),
            87..=96 => text.extend_from_slice(dice.pick(BLANKS).as_bytes()),
            _ => text.extend_from_slice(dice.pick(NOT_UTF8)),
        }
        if i + 1 < lines || dice.chance(70) {
            text.extend_from_slice(dice.pick(ENDINGS).as_bytes());
        }
    }
    text
}

/// Every entry of the tables above once, on its own line between a good
/// line and a bad one (so that what is skipped, what is counted and which
/// error comes first all show), under every option.
#[test]
fn corner_lines_parse_as_before() {
    let mut cases: Vec<Vec<u8>> = Vec::new();
    for id in IDS {
        cases.push(format!("{id} 1").into_bytes());
        cases.push(format!("1 {id} 0.5").into_bytes());
    }
    for prob in PROBS {
        cases.push(format!("0 1 {prob}").into_bytes());
    }
    for sep in SEPARATORS {
        cases.push(format!("0{sep}1{sep}0.5").into_bytes());
        cases.push(format!("{sep}0{sep}{sep}1{sep}").into_bytes());
    }
    for line in COMMENTS.iter().chain(BLANKS) {
        cases.push(line.as_bytes().to_vec());
    }
    cases.extend(NOT_UTF8.iter().map(|line| line.to_vec()));
    for line in [
        "0",
        "0 1 0.5 9",
        "0 1 0.5 # no trailing comments",
        "5 5",
        "3 2 2.0",
    ] {
        cases.push(line.as_bytes().to_vec());
    }
    for options in all_options() {
        for case in &cases {
            for ending in ["\n", "\r\n", ""] {
                for tail in ["", "2 3\n", "2 three\n"] {
                    let mut text = b"0 1 0.5\n".to_vec();
                    text.extend_from_slice(case);
                    text.extend_from_slice(ending.as_bytes());
                    text.extend_from_slice(tail.as_bytes());
                    if let Err(message) = same_outcome(&text, options) {
                        panic!("{message}");
                    }
                    if let Err(message) = same_outcome(&text[8..], options) {
                        panic!("{message}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (a) Hostile input: an error or a valid graph, never a panic or an abort.
// ---------------------------------------------------------------------------

const HOSTILE: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"6",
    b"7",
    b"8",
    b"9",
    b"0",
    b"1",
    b" ",
    b" ",
    b"\t",
    b"\n",
    b"\n",
    b"\r\n",
    b"#",
    b"%",
    b".",
    b"-",
    b"+",
    b"e",
    b"inf",
    b"nan",
    b"\x00",
    b"\x0b",
    b"\xff",
    b"\xc2\xa0",
    b"\xe2\x80",
    b"18446744073709551616",
];

/// A `Literal` file's largest id sizes the graph (`n = max id + 1` is the
/// format's meaning, and 2³² − 2 would be 64 GB of offsets), so for that
/// mode digit runs are broken after four digits. `Remap` takes the bytes as
/// they come.
fn break_digit_runs(bytes: &mut [u8]) {
    let mut run = 0;
    for byte in bytes {
        run = if byte.is_ascii_digit() { run + 1 } else { 0 };
        if run > 4 {
            *byte = b' ';
            run = 0;
        }
    }
}

/// One to four small edits.
fn mutate(dice: &mut Dice, bytes: &mut Vec<u8>) {
    for _ in 0..1 + dice.below(4) {
        if bytes.is_empty() {
            return;
        }
        let at = dice.below(bytes.len());
        match dice.below(5) {
            0 => bytes[at] = dice.0.next_u64() as u8,
            1 => {
                bytes.remove(at);
            }
            2 => {
                let piece = dice.pick(HOSTILE);
                bytes.splice(at..at, piece.iter().copied());
            }
            3 => {
                let other = dice.below(bytes.len());
                bytes.swap(at, other);
            }
            _ => bytes.truncate(at),
        }
    }
}

fn small_graph(dice: &mut Dice) -> Graph {
    let n = 2 + dice.below(40) as u32;
    let mut b = GraphBuilder::new(n);
    for _ in 0..dice.below(60) {
        let (u, v) = (dice.below(n as usize) as u32, dice.below(n as usize) as u32);
        b.add_edge(u, v, dice.0.unit_f64() as f32).unwrap();
    }
    b.build().unwrap()
}

fn text_reader_survives(mut text: Vec<u8>) -> Result<(), String> {
    let as_given = text.clone();
    break_digit_runs(&mut text);
    for options in all_options() {
        let input = match options.vertex_ids {
            VertexIds::Literal => &text,
            VertexIds::Remap => &as_given,
        };
        if let Ok(graph) = read_edge_list(input.as_slice(), options) {
            graph.validate().map_err(|why| {
                format!(
                    "{why} after reading {:?} with {options:?}",
                    String::from_utf8_lossy(input)
                )
            })?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (c) The builder against sort + dedup + naive CSR.
// ---------------------------------------------------------------------------

/// Adjacency lists: `out[u]` holds `(v, p)`, `inc[v]` holds `(u, p)`.
struct NaiveCsr {
    out: Vec<Vec<(Vertex, f32)>>,
    inc: Vec<Vec<(Vertex, f32)>>,
}

/// What `build` has to produce from edges inserted in this order: sort
/// them by endpoints without disturbing the order of duplicates, keep the
/// first of each edge's duplicates, weigh the survivors in sorted order, readjust for LT, and
/// read both adjacency directions off the sorted list.
fn reference_build(
    n: u32,
    inserted: &[(Vertex, Vertex, f32)],
    model: Option<WeightModel>,
    lt_normalize: bool,
) -> NaiveCsr {
    let mut edges = inserted.to_vec();
    edges.sort_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    match model {
        None => {}
        Some(WeightModel::UniformRandom { seed }) => {
            let mut rng = SplitMix64::for_stream(seed, 0x5745_4947);
            for e in &mut edges {
                e.2 = rng.unit_f64() as f32;
            }
        }
        Some(WeightModel::Constant(p)) => {
            for e in &mut edges {
                e.2 = p.clamp(0.0, 1.0);
            }
        }
        Some(WeightModel::WeightedCascade) => {
            let mut in_degree = vec![0u32; n as usize];
            for e in &edges {
                in_degree[e.1 as usize] += 1;
            }
            for e in &mut edges {
                e.2 = 1.0 / in_degree[e.1 as usize] as f32;
            }
        }
        Some(WeightModel::Trivalency { seed }) => {
            let mut rng = SplitMix64::for_stream(seed, 0x5452_4956);
            for e in &mut edges {
                e.2 = [0.1f32, 0.01, 0.001][rng.bounded_u64(3) as usize];
            }
        }
    }
    if lt_normalize {
        let mut sums = vec![0.0f64; n as usize];
        for &(_, v, p) in &edges {
            sums[v as usize] += f64::from(p);
        }
        for e in &mut edges {
            let sum = sums[e.1 as usize];
            if sum > 1.0 {
                e.2 = (f64::from(e.2) / sum) as f32;
            }
        }
    }
    let mut csr = NaiveCsr {
        out: vec![Vec::new(); n as usize],
        inc: vec![Vec::new(); n as usize],
    };
    for &(u, v, p) in &edges {
        csr.out[u as usize].push((v, p));
        csr.inc[v as usize].push((u, p));
    }
    csr
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Builds `edges` the way the case says and holds the result to the
/// reference, array by array and bit by bit.
fn build_matches_reference(
    n: u32,
    edges: &[(Vertex, Vertex, f32)],
    case: &BuildCase,
) -> Result<(), String> {
    let BuildCase {
        model,
        lt_normalize,
        lt_in_place,
        undirected,
        keep_self_loops,
    } = *case;
    let mut builder = GraphBuilder::new(n);
    if keep_self_loops {
        builder = builder.keep_self_loops();
    }
    let mut inserted = Vec::new();
    let mut insert = |u: Vertex, v: Vertex, p: f32| {
        if keep_self_loops || u != v {
            inserted.push((u, v, p));
        }
    };
    let graph = match model {
        None => {
            for &(u, v, p) in edges {
                if undirected {
                    builder.add_undirected(u, v, p).unwrap();
                    insert(u, v, p);
                    insert(v, u, p);
                } else {
                    builder.add_edge(u, v, p).unwrap();
                    insert(u, v, p);
                }
            }
            // Probabilities read from a file are readjusted on the graph.
            let mut graph = builder.build().unwrap();
            if lt_normalize {
                graph.normalize_for_lt();
            }
            graph
        }
        Some(model) => {
            let mut builder = builder.assign_weights(model);
            for &(u, v, p) in edges {
                if undirected {
                    builder.add_undirected(u, v).unwrap();
                    insert(u, v, p);
                    insert(v, u, p);
                } else {
                    builder.add_arc(u, v).unwrap();
                    insert(u, v, p);
                }
            }
            if lt_normalize && !lt_in_place {
                builder = builder.normalize_for_lt();
            }
            let mut graph = builder.build().unwrap();
            if lt_normalize && lt_in_place {
                graph.normalize_for_lt();
            }
            graph
        }
    };
    let reference = reference_build(n, &inserted, model, lt_normalize);

    graph.validate()?;
    let mut canonical = GraphBuilder::new(n).keep_self_loops();
    let mut uniform = true;
    for v in 0..n {
        let inc = &reference.inc[v as usize];
        let in_ids: Vec<Vertex> = inc.iter().map(|e| e.0).collect();
        let in_probs: Vec<f32> = inc.iter().map(|e| e.1).collect();
        let built: Vec<f32> = graph.in_edges(v).map(|(_, p)| p).collect();
        // The sequential f64 sum, not d·p, also over a per-vertex row.
        let sum: f64 = in_probs.iter().map(|&p| f64::from(p)).sum();
        let built_ids: Vec<Vertex> = graph.in_neighbors(v).collect();
        if built_ids != in_ids
            || bits(&built) != bits(&in_probs)
            || graph.in_weight_sum(v).to_bits() != sum.to_bits()
        {
            return Err(format!(
                "vertex {v} of {edges:?} under {case:?}: built in {built_ids:?} {built:?} (sum {}), \
                 reference in {inc:?}",
                graph.in_weight_sum(v),
            ));
        }
        uniform &= in_probs
            .iter()
            .all(|p| p.to_bits() == in_probs[0].to_bits());
        for &(t, p) in &reference.out[v as usize] {
            canonical.add_edge(v, t, p).map_err(|e| e.to_string())?;
        }
    }
    // One probability per vertex exactly when every row is bitwise uniform.
    let same_rows = (0..n)
        .filter(|&v| matches!(graph.in_probs(v), RowProbs::Same(_)))
        .count();
    if same_rows != if uniform { n as usize } else { 0 } {
        return Err(format!(
            "{edges:?} under {case:?}: {same_rows} per-vertex rows, every row uniform: {uniform}"
        ));
    }
    // The forward view, built from the reverse rows, lists the reference's
    // edges in forward order.
    let forward: Vec<(Vertex, Vertex, u32)> =
        graph.edges().map(|(u, v, p)| (u, v, p.to_bits())).collect();
    let expected: Vec<(Vertex, Vertex, u32)> = (0..n)
        .flat_map(|u| {
            reference.out[u as usize]
                .iter()
                .map(move |&(v, p)| (u, v, p.to_bits()))
        })
        .collect();
    if forward != expected {
        return Err(format!(
            "{edges:?} under {case:?}: forward view {forward:?}, reference {expected:?}"
        ));
    }
    // The same graph as one built from the reference's finished edges.
    let canonical = canonical.build().unwrap();
    if graph != canonical || graph.fingerprint() != canonical.fingerprint() {
        return Err(format!(
            "{edges:?} under {case:?} differs from its canonical rebuild"
        ));
    }
    Ok(())
}

#[derive(Clone, Copy, Debug)]
struct BuildCase {
    model: Option<WeightModel>,
    lt_normalize: bool,
    /// LT readjustment on the built graph rather than in the builder (file
    /// probabilities are always readjusted on the graph).
    lt_in_place: bool,
    undirected: bool,
    keep_self_loops: bool,
}

impl BuildCase {
    fn from_seed(seed: u64) -> Self {
        let mut dice = Dice::new(seed);
        BuildCase {
            model: dice.pick(&[
                None,
                None,
                Some(WeightModel::UniformRandom { seed: 11 }),
                Some(WeightModel::Constant(0.4)),
                Some(WeightModel::WeightedCascade),
                Some(WeightModel::Trivalency { seed: 13 }),
            ]),
            lt_normalize: dice.chance(50),
            lt_in_place: dice.chance(50),
            undirected: dice.chance(30),
            keep_self_loops: dice.chance(30),
        }
    }
}

/// Few vertices and many edges: duplicates of differing probability and
/// self-loops in every case, in no particular order.
fn crowded_edges_strategy() -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (1u32..12).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.0f32..=1.0f32);
        (Just(n), prop::collection::vec(edge, 0..120))
    })
}

type EdgeList = Vec<(Vertex, Vertex, f32)>;

/// Fixed inputs for the in-place grouping by target: every edge into
/// vertex 0 and every edge into vertex n − 1 (one bucket holds the whole
/// buffer), one pair added again and again with differing probabilities,
/// trailing isolated vertices, no edges, and n = 1 with a kept self-loop.
fn corner_shapes() -> Vec<(u32, EdgeList)> {
    let star = |hub: Vertex| -> EdgeList {
        [4, 1, 6, 2, 4, 5, 3, 1]
            .iter()
            .map(|&u| ((u + hub) % 7, hub, 0.125 * u as f32))
            .filter(|&(u, v, _)| u != v)
            .collect()
    };
    let pair = vec![
        (0, 1, 0.25),
        (0, 1, 0.75),
        (1, 0, 0.0),
        (0, 1, 0.5),
        (1, 0, -0.0),
    ];
    let trailing = vec![(2, 0, 0.5), (0, 1, 0.25), (1, 2, 1.0), (2, 0, 0.75)];
    vec![
        (7, star(0)),
        (7, star(6)),
        (2, pair),
        (9, trailing),
        (4, Vec::new()),
        (1, vec![(0, 0, 0.5), (0, 0, 0.25)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The byte-level reader accepts, refuses and builds what the
    /// `lines()` reader did, down to the line number of the error.
    #[test]
    fn reader_matches_its_predecessor(seed in any::<u64>()) {
        let text = edge_list_text(seed);
        for options in all_options() {
            let outcome = same_outcome(&text, options);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// Bytes from a hostile alphabet.
    #[test]
    fn text_reader_survives_arbitrary_bytes(seed in any::<u64>(), raw in prop::collection::vec(any::<u8>(), 0..40)) {
        let outcome = text_reader_survives(raw);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        let mut dice = Dice::new(seed);
        let mut text = Vec::new();
        for _ in 0..dice.below(120) {
            text.extend_from_slice(dice.pick(HOSTILE));
        }
        let outcome = text_reader_survives(text);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// A written file with a few bytes replaced, dropped, inserted,
    /// swapped, or its tail cut off.
    #[test]
    fn text_reader_survives_mutated_files(seed in any::<u64>()) {
        let mut dice = Dice::new(seed);
        let mut text = Vec::new();
        write_edge_list(&small_graph(&mut dice), &mut text).unwrap();
        mutate(&mut dice, &mut text);
        let outcome = text_reader_survives(text);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// `build` against the reference under every weight model, LT
    /// readjustment (in the builder and in place), `add_undirected` and kept
    /// self-loops, with the edges in the order drawn and in the reverse of
    /// it: reverse rows, forward view, in-weight sums and the probability
    /// layout. Both keep the first *inserted* of an edge's duplicates. The
    /// [`corner_shapes`] ride along.
    #[test]
    fn build_matches_sort_dedup_naive_csr((n, edges) in crowded_edges_strategy(), seed in any::<u64>()) {
        let case = BuildCase::from_seed(seed);
        let outcome = build_matches_reference(n, &edges, &case);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        let reversed: Vec<_> = edges.iter().rev().copied().collect();
        let outcome = build_matches_reference(n, &reversed, &case);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        // The corner shapes under this case's model and readjustment,
        // directed, self-loops kept.
        for (n, edges) in corner_shapes() {
            let case = BuildCase { undirected: false, keep_self_loops: true, ..case };
            let outcome = build_matches_reference(n, &edges, &case);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

// ---------------------------------------------------------------------------
// (d) The sorted-file load against the record path.
// ---------------------------------------------------------------------------

/// A file ascending by (source, target), the order [`write_edge_list`]
/// writes, over up to 20 000 `Literal` ids, most of them isolated: a hub
/// with many edges in and out, sources near n whose first target is near 0
/// and the reverse (zigzag codes near 2n), and on some draws adjacent
/// duplicates (with other probabilities), self-loops, a probability column
/// on some lines, and a tail that turns unsorted.
fn ascending_edge_list(dice: &mut Dice) -> Vec<u8> {
    let n = dice.pick(&[1usize, 2, 5, 100, 3000, 20_000]);
    let hub = dice.below(n);
    let mut edges: Vec<(usize, usize)> = (0..dice.below(300))
        .map(|_| match dice.below(5) {
            0 => (hub, dice.below(n)),
            1 => (dice.below(n), hub),
            2 => (n - 1 - dice.below(n.min(3)), dice.below(n.min(3))),
            3 => (dice.below(n.min(3)), n - 1 - dice.below(n.min(3))),
            _ => (dice.below(n), dice.below(n)),
        })
        .collect();
    edges.sort_unstable();
    if !dice.chance(30) {
        edges.dedup();
    }
    if !dice.chance(30) {
        edges.retain(|&(u, v)| u != v);
    }
    if dice.chance(30) {
        let from = dice.below(edges.len() + 1);
        edges[from..].reverse();
    }
    let probs = dice.below(3);
    let mut text = b"# an ascending edge list\n".to_vec();
    for (u, v) in edges {
        let line = match probs {
            0 => format!("{u}\t{v}\n"),
            1 => format!("{u}\t{v}\t{}\n", dice.below(5) as f32 / 4.0),
            _ if dice.chance(50) => format!("{u} {v} {}\n", dice.0.unit_f64() as f32),
            _ => format!("{u} {v}\n"),
        };
        text.extend_from_slice(line.as_bytes());
    }
    text
}

/// Each row's decoded sources and probability bits.
fn decoded_rows(graph: &Graph) -> Vec<(Vec<Vertex>, Vec<u32>)> {
    (0..graph.num_vertices())
        .map(|v| {
            let sources = graph.in_neighbors(v).collect();
            let probs = graph.in_edges(v).map(|(_, p)| p.to_bits()).collect();
            (sources, probs)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A file whose edges ascend loads into the graph the record path
    /// builds from the same lines (the `lines()` reader above feeds a
    /// `GraphBuilder`), under every option: equal under `PartialEq` and
    /// `fingerprint`, row by decoded row and probability by probability,
    /// and valid. Duplicates and an unsorted tail send the sorted load to
    /// the record path midway; undirected lines do at their first edge
    /// back.
    #[test]
    fn sorted_load_matches_the_record_path(seed in any::<u64>()) {
        let text = ascending_edge_list(&mut Dice::new(seed));
        for options in all_options() {
            let loaded = read_edge_list(text.as_slice(), options).unwrap();
            let built = reference_read_edge_list(&text, options).unwrap();
            prop_assert!(loaded == built, "{options:?}");
            prop_assert_eq!(loaded.fingerprint(), built.fingerprint());
            prop_assert!(decoded_rows(&loaded) == decoded_rows(&built), "{options:?}");
            prop_assert!(loaded.validate().is_ok());
        }
    }
}

// ---------------------------------------------------------------------------
// (e) Lines across the reader's refills.
// ---------------------------------------------------------------------------

/// Hands out 1 to `most` bytes a read, drawn, so that lines straddle the
/// reader's refills of its buffer.
struct Trickle<'a> {
    bytes: &'a [u8],
    dice: Dice,
    most: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let len = (1 + self.dice.below(self.most))
            .min(out.len())
            .min(self.bytes.len());
        out[..len].copy_from_slice(&self.bytes[..len]);
        self.bytes = &self.bytes[len..];
        Ok(len)
    }
}

/// Ids the seam texts draw: small ones, the common shape's longest, ids
/// the in-place scan leaves to the general parser (a sign, a 20-digit id,
/// one of 23 digits that is small) and two that are refused in one mode or
/// both.
const SEAM_IDS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "12",
    "40",
    "007",
    "0000000000000000040",
    "+7",
    "00000000000000000000012",
    "18446744073709551615",
    "99999999999999999999",
];
const GOOD_SEAM_IDS: usize = 10;
/// Third columns: plain decimals, which an overwriting model leaves
/// unconverted, and tokens that must still be converted or refused.
const SEAM_PROBS: &[&str] = &[
    "1", "0.25", ".5", "0.5", "5.", "1e-3", "inf", "NaN", "-0.1", "1.2.3", ".",
];
const GOOD_SEAM_PROBS: usize = 4;
const SEAM_SEPARATORS: &[&str] = &[" ", "\t", "  ", " \t", "\t\t", "\x0b", "\x0c"];
const SEAM_PADS: &[&str] = &["", "", "", "", " ", "\t", " \t", "\x0c"];
/// Lines the in-place scan never takes.
const SEAM_OTHERS: &[&str] = &[
    "# comment",
    "% comment",
    "",
    "\r",
    " \t",
    "\u{a0}0 1",
    "0\u{3000}1",
    "\u{3000}",
    "3\r2",
];

/// An edge line, all but one in a hundred (`rare`) made of the common
/// tables' entries.
fn seam_line(dice: &mut Dice, rare: usize) -> String {
    if dice.below(100) < 8 {
        return dice.pick(SEAM_OTHERS).to_string();
    }
    let odd = dice.below(100) < rare;
    let (ids, probs) = if odd {
        (SEAM_IDS, SEAM_PROBS)
    } else {
        (&SEAM_IDS[..GOOD_SEAM_IDS], &SEAM_PROBS[..GOOD_SEAM_PROBS])
    };
    let separator = |dice: &mut Dice| {
        if odd {
            dice.pick(SEAM_SEPARATORS)
        } else {
            dice.pick(&SEAM_SEPARATORS[..5])
        }
    };
    let mut line = dice.pick(SEAM_PADS).to_string();
    line.push_str(dice.pick(ids));
    line.push_str(separator(dice));
    line.push_str(dice.pick(ids));
    if dice.chance(50) {
        line.push_str(separator(dice));
        line.push_str(dice.pick(probs));
    }
    line.push_str(dice.pick(SEAM_PADS));
    line
}

/// `lines` lines, each ended by LF or CRLF but the last, which on some
/// draws has no ending.
fn seam_text(dice: &mut Dice, lines: usize, rare: usize) -> Vec<u8> {
    let mut text = Vec::new();
    for i in 0..lines {
        text.extend_from_slice(seam_line(dice, rare).as_bytes());
        if i + 1 < lines || dice.chance(70) {
            text.extend_from_slice(dice.pick(&["\n", "\r\n"]).as_bytes());
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lines cut across refills at every byte read as they read whole:
    /// the same graph and fingerprint, or the same error, as the `lines()`
    /// reader, under every option.
    #[test]
    fn lines_across_refills_read_as_whole(seed in any::<u64>()) {
        let mut dice = Dice::new(seed);
        let lines = 1 + dice.below(40);
        let text = seam_text(&mut dice, lines, 10);
        let most = 1 + dice.below(16);
        for options in all_options() {
            let outcome = same_outcome(&text, options);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            let trickle = Trickle { bytes: &text, dice: Dice::new(seed ^ 1), most };
            let outcome = same_outcome_through(&text, options, trickle);
            prop_assert!(outcome.is_ok(), "1 to {most} bytes a read: {}", outcome.unwrap_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A text past the reader's 64 KiB buffer, read from one slice, so that
    /// a line straddles each of its own refills.
    #[test]
    fn texts_past_one_buffer_read_as_whole(seed in any::<u64>()) {
        let mut dice = Dice::new(seed);
        let lines = 6000 + dice.below(6000);
        let text = seam_text(&mut dice, lines, 0);
        prop_assert!(text.len() > 1 << 16);
        for options in all_options() {
            let outcome = same_outcome(&text, options);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

// ---------------------------------------------------------------------------
// (f) A file read in chunks, one a thread.
// ---------------------------------------------------------------------------

/// A file of about 1 MiB, read by `read_edge_list_file` in chunks on as
/// many threads as the process may run on (one under `taskset -c 0`),
/// loads as `read_edge_list` loads its bytes in one, under every literal
/// option: as `write_edge_list` wrote it, with a line that does not parse
/// and with a probability past 1 near its end, with its tail out of order,
/// and with a line repeated at its middle.
#[test]
fn files_read_in_chunks_read_as_one() {
    let graph = barabasi_albert(4000, 8, WeightModel::UniformRandom { seed: 5 }, false, 2);
    let mut written = Vec::new();
    write_edge_list(&graph, &mut written).expect("write to memory");
    assert!(written.len() > 1 << 20);
    let lines: Vec<&[u8]> = written.split_inclusive(|&b| b == b'\n').collect();
    let (middle, end) = (lines.len() / 2, lines.len() - 10);
    let edited = |edit: &dyn Fn(&mut Vec<&[u8]>)| {
        let mut lines = lines.clone();
        edit(&mut lines);
        lines.concat()
    };
    let files = [
        ("as written", written.clone()),
        ("a bad line", edited(&|lines| lines[end] = b"1 x\n")),
        (
            "a probability past 1",
            edited(&|lines| lines[end] = b"1 2 1.5\n"),
        ),
        (
            "an unsorted tail",
            edited(&|lines| lines[end - 500..].reverse()),
        ),
        (
            "a repeated line",
            edited(&|lines| lines.insert(middle, lines[middle])),
        ),
    ];
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("prop_graph_chunks.txt");
    for (what, text) in files {
        std::fs::write(&path, &text).expect("write the file");
        for options in all_options() {
            if options.vertex_ids == VertexIds::Remap {
                continue;
            }
            let whole = read_edge_list(text.as_slice(), options);
            let chunked = read_edge_list_file(&path, options);
            let same = match (&whole, &chunked) {
                (Ok(w), Ok(c)) => w == c && w.fingerprint() == c.fingerprint(),
                (Err(w), Err(c)) => format!("{w:?}") == format!("{c:?}"),
                _ => false,
            };
            assert!(
                same,
                "{what} with {options:?}: {whole:?} against {chunked:?}"
            );
        }
    }
    std::fs::remove_file(&path).expect("remove the file");
}
