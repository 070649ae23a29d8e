//! Edge accumulation and CSR construction.
//!
//! Pending edges live in one buffer of fixed-width records, target first:
//! `(target, source)`, 8 bytes an edge, when a [`WeightModel`] will assign
//! the probabilities, `(target, source, probability, insertion index)`, 16
//! bytes, while the added ones are kept ([`GraphBuilder::assign_weights`]
//! narrows the records it finds). `build` sorts them by counting, in place,
//! in O(m + n + Σ d·log d) for in-rows of d edges:
//!
//! 1. count the targets and prefix-sum them into the reverse offsets (`u32`:
//!    a graph holds fewer than 2³² − 1 edges);
//! 2. permute the records into one bucket per target: one American-flag
//!    pass, with a cursor per target;
//! 3. sort each bucket by source, ties by insertion index, and keep the
//!    first added of each edge's duplicates; pack the kept sources (and
//!    probabilities) to the front of the buffer, which then shrinks to the
//!    raw sources, so no second array of m vertices exists;
//! 4. code the rows (the gap varints [`crate::InNeighbors`] decodes) and
//!    free the raw sources;
//! 5. let the weight model, if any, give the probabilities: one per vertex
//!    from the in-degrees (weighted cascade, a constant), or one per edge,
//!    the draw at its position in forward order (source, then target — the
//!    order a sorted edge list would have); kept probabilities become one
//!    per vertex if every in-row is bitwise uniform.
//!
//! The high-water mark is steps 2 and 3: the records beside the offsets and
//! the cursors, 8 bytes an edge and 8 a vertex (16 an edge with
//! probabilities). Step 4 holds the raw sources and the coded rows, ~6.2
//! bytes an edge; step 5 the coded rows and one probability an edge, ~6.2
//! (~10.2 while `Trivalency` draws). [`crate::io::read_edge_list`] skips
//! steps 1–4 for a file whose edges ascend: it codes the rows straight
//! from the edges' out-rows.

use crate::csr::{Graph, ProbStore};
use crate::rows::Rows;
use crate::types::{GraphError, Vertex};
use crate::weights::WeightModel;
use std::ops::Range;

/// Accumulates edges and produces a validated [`Graph`].
///
/// Construction is O(m + n + Σ d·log d) over in-rows of d edges (no sort of
/// the whole list) and its transient memory peaks at 8 bytes an edge and 8
/// a vertex (16 an edge when probabilities are kept, ~10 while
/// `Trivalency` draws); see the module documentation.
///
/// ```
/// use ripples_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 0.5).unwrap();
/// b.add_undirected(1, 2, 0.25).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.edge_prob(0, 1), Some(0.5));
/// assert!(g.has_edge(2, 1));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: u32,
    /// The pending edges, `width` words a record.
    records: Vec<u32>,
    /// 4 while the records carry probabilities and insertion indices, 2
    /// once a weight model is going to assign the probabilities.
    width: usize,
    drop_self_loops: bool,
}

/// `Ok` for a finite probability in `[0, 1]`.
pub(crate) fn check_probability(prob: f32) -> Result<(), GraphError> {
    if prob.is_finite() && (0.0..=1.0).contains(&prob) {
        Ok(())
    } else {
        Err(GraphError::InvalidProbability { value: prob })
    }
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            records: Vec::new(),
            width: 4,
            drop_self_loops: true,
        }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional * self.width);
    }

    /// Sets whether self-loops are silently dropped (default: true).
    /// Self-loops never affect influence spread — a vertex cannot
    /// re-activate itself — so dropping them is semantics-preserving.
    #[must_use]
    pub fn keep_self_loops(mut self) -> Self {
        self.drop_self_loops = false;
        self
    }

    /// Number of edges currently buffered (before dedup).
    #[must_use]
    pub fn pending_edges(&self) -> usize {
        self.records.len() / self.width
    }

    /// Adds a directed edge with an explicit activation probability.
    pub fn add_edge(
        &mut self,
        source: Vertex,
        target: Vertex,
        prob: f32,
    ) -> Result<(), GraphError> {
        for vertex in [source, target] {
            if vertex >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex,
                    num_vertices: self.num_vertices,
                });
            }
        }
        check_probability(prob)?;
        self.push(source, target, prob);
        Ok(())
    }

    /// [`GraphBuilder::add_edge`] for a caller that has made its checks
    /// already: the edge-list reader, which learns the vertex count only at
    /// the end of the file and then calls [`GraphBuilder::set_num_vertices`].
    pub(crate) fn push(&mut self, source: Vertex, target: Vertex, prob: f32) {
        if self.drop_self_loops && source == target {
            return;
        }
        if self.width == 4 {
            let index = self.pending_edges() as u32;
            self.records
                .extend_from_slice(&[target, source, prob.to_bits(), index]);
        } else {
            self.records.extend_from_slice(&[target, source]);
        }
    }

    /// Declares the vertex count after the fact; it must exceed every
    /// endpoint pushed.
    pub(crate) fn set_num_vertices(&mut self, num_vertices: u32) {
        self.num_vertices = num_vertices;
    }

    /// Stops storing probabilities (those buffered too): a weight model
    /// will assign them.
    pub(crate) fn discard_probs(&mut self) {
        if self.width == 4 {
            let pending = self.pending_edges();
            pack(&mut self.records, 4, 0..2, pending);
            self.width = 2;
        }
    }

    /// Adds a directed edge with a placeholder probability of 1.0, to be
    /// overwritten later by [`GraphBuilder::assign_weights`].
    pub fn add_arc(&mut self, source: Vertex, target: Vertex) -> Result<(), GraphError> {
        self.add_edge(source, target, 1.0)
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected(&mut self, a: Vertex, b: Vertex, prob: f32) -> Result<(), GraphError> {
        self.add_edge(a, b, prob)?;
        self.add_edge(b, a, prob)
    }

    /// Overwrites every buffered probability according to `model`.
    ///
    /// Weight assignment is deterministic given the model (and its seed) and
    /// the *forward CSR order* of the deduplicated edges (source, then
    /// target), so identical edge sets produce identical weights regardless
    /// of insertion order; it therefore runs inside
    /// [`WeightedBuilder::build`]. Calling this method records the model to
    /// apply and frees the probabilities buffered so far.
    #[must_use]
    pub fn assign_weights(mut self, model: WeightModel) -> WeightedBuilder {
        self.discard_probs();
        WeightedBuilder {
            inner: self,
            model,
            lt_normalize: false,
        }
    }

    /// Deduplicates and freezes the edges into CSR form.
    pub fn build(self) -> Result<Graph, GraphError> {
        self.freeze(None)
    }

    /// The one build path; `model` is `Some` exactly when the probabilities
    /// were discarded for it. The steps are those of the module
    /// documentation.
    fn freeze(self, model: Option<WeightModel>) -> Result<Graph, GraphError> {
        let pending = self.pending_edges();
        if pending >= u32::MAX as usize {
            return Err(GraphError::TooLarge(format!(
                "{pending} edges exceeds the u32 edge-count limit"
            )));
        }
        assert_eq!(model.is_none(), self.width == 4);
        let mut words = self.records;
        let targets = words.iter().step_by(self.width).copied();
        let mut in_offsets = offsets_by_key(self.num_vertices as usize, targets);
        let weights = match model {
            Some(model) => {
                let records = words.as_chunks_mut::<2>().0;
                let kept = bucket_and_dedup(records, &mut in_offsets);
                pack(&mut words, 2, 1..2, kept);
                Weights::Model(model)
            }
            None => {
                let records = words.as_chunks_mut::<4>().0;
                let kept = bucket_and_dedup(records, &mut in_offsets);
                // Sources and probabilities in pairs, then the sources alone.
                pack(&mut words, 4, 1..3, kept);
                let pairs = words.chunks_exact(2);
                let probs = pairs.map(|pair| f32::from_bits(pair[1])).collect();
                pack(&mut words, 2, 0..1, kept);
                Weights::Kept(probs)
            }
        };
        graph_from_reverse(self.num_vertices, in_offsets, words, weights)
    }
}

/// Where the probabilities of a raw reverse CSR come from.
pub(crate) enum Weights {
    /// A model draws them (step 5).
    Model(WeightModel),
    /// One per edge, in in-row order, kept from the input.
    Kept(Vec<f32>),
}

/// The last steps of both load paths: codes a raw reverse CSR (row `v` is
/// `sources[in_offsets[v]..in_offsets[v + 1]]`, strictly ascending), frees
/// the raw sources, and gives the rows their probabilities.
pub(crate) fn graph_from_reverse(
    num_vertices: u32,
    in_offsets: Vec<u32>,
    sources: Vec<Vertex>,
    weights: Weights,
) -> Result<Graph, GraphError> {
    // A model that draws per edge needs each source's out-offset, counted
    // here from the raw sources more cheaply than from the coded rows.
    let out_offsets = match &weights {
        Weights::Model(model) if model.draws_per_edge() => Some(offsets_by_key(
            in_offsets.len() - 1,
            sources.iter().copied(),
        )),
        _ => None,
    };
    let rows = Rows::encode(&in_offsets, &sources)?;
    drop(sources);
    Ok(weights.graph(num_vertices, rows, in_offsets, out_offsets))
}

impl Weights {
    /// The graph of coded `rows` whose in-edges start at `in_offsets`, its
    /// probabilities drawn (a model that draws per edge is handed
    /// `out_offsets`, where each source's out-edges start) or kept.
    pub(crate) fn graph(
        self,
        num_vertices: u32,
        rows: Rows,
        in_offsets: Vec<u32>,
        out_offsets: Option<Vec<u32>>,
    ) -> Graph {
        let in_probs = match self {
            Weights::Model(model) => model.assign(&rows, in_offsets, out_offsets),
            Weights::Kept(probs) => ProbStore::new(in_offsets, probs),
        };
        Graph::from_rows(num_vertices, rows, in_probs)
    }
}

/// Steps 2 and 3 over records of `W` words: target, source and, when `W`
/// is 4, the probability's bits and the insertion index. `offsets` comes
/// in as the buckets' starts and leaves as the reverse offsets of the kept
/// records, whose number is returned. Of the records of one edge the first
/// added is kept.
fn bucket_and_dedup<const W: usize>(records: &mut [[u32; W]], offsets: &mut [u32]) -> usize {
    // Bucket `v` is settled from its cursor `next[v]` on: records there are
    // taken up, `CHAINS` at a time, leaving holes. Each goes to the cursor
    // slot of its own bucket and takes up the record there, until one of
    // `v` fills the first hole. Chains taken in turn fetch slots together.
    const CHAINS: usize = 16;
    let n = offsets.len() - 1;
    let mut next = offsets[..n].to_vec();
    let (mut taken, mut len) = ([[0; W]; CHAINS], 0);
    for v in 0..n {
        while next[v] < offsets[v + 1] {
            while len < CHAINS && next[v] + (len as u32) < offsets[v + 1] {
                taken[len] = records[(next[v] as usize) + len];
                len += 1;
            }
            let mut i = 0;
            while i < len {
                let home = taken[i][0] as usize;
                let slot = next[home] as usize;
                next[home] += 1;
                if home == v {
                    records[slot] = taken[i];
                    len -= 1;
                    taken[i] = taken[len];
                } else {
                    taken[i] = std::mem::replace(&mut records[slot], taken[i]);
                    i += 1;
                }
            }
        }
    }

    // Within a bucket: by source, then by the last word, the insertion index
    // if there is one. `kept` trails the reads, so packing overwrites read records.
    let rank = |r: &[u32; W]| (u64::from(r[1]) << 32) | u64::from(r[W - 1]);
    let (mut start, mut kept) = (0, 0);
    for v in 0..n {
        let (end, row_start) = (offsets[v + 1] as usize, kept);
        offsets[v] = row_start as u32;
        records[start..end].sort_unstable_by_key(rank);
        for i in start..end {
            let record = records[i];
            if kept == row_start || records[kept - 1][1] != record[1] {
                records[kept] = record;
                kept += 1;
            }
        }
        start = end;
    }
    offsets[n] = kept as u32;
    kept
}

/// Packs words `picked` of the first `count` records of `width` words to the
/// front and frees the rest; no word moves up, so none is overwritten unread.
fn pack(words: &mut Vec<u32>, width: usize, picked: Range<usize>, count: usize) {
    let narrow = picked.len();
    for i in 0..count {
        for j in 0..narrow {
            words[narrow * i + j] = words[width * i + picked.start + j];
        }
    }
    words.truncate(narrow * count);
    words.shrink_to_fit();
}

/// Where each key's group starts once the elements are sorted by key:
/// `offsets[k]` for key `k < n`, and the element count, below `u32::MAX`,
/// at `offsets[n]`.
pub(crate) fn offsets_by_key(n: usize, keys: impl IntoIterator<Item = Vertex>) -> Vec<u32> {
    let mut offsets = vec![0u32; n + 1];
    keys.into_iter().for_each(|k| offsets[k as usize + 1] += 1);
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

/// A [`GraphBuilder`] with a recorded weight model; see
/// [`GraphBuilder::assign_weights`].
#[derive(Clone, Debug)]
pub struct WeightedBuilder {
    inner: GraphBuilder,
    model: WeightModel,
    lt_normalize: bool,
}

impl WeightedBuilder {
    /// Enables the paper's linear-threshold weight readjustment: after the
    /// model assigns raw weights, each vertex's incoming weights are scaled
    /// so they sum to at most one (weights already summing below one are
    /// left untouched, preserving a nonzero "no activation" probability).
    /// The finished graph is what [`Graph::normalize_for_lt`] makes of the
    /// un-normalized one.
    #[must_use]
    pub fn normalize_for_lt(mut self) -> Self {
        self.lt_normalize = true;
        self
    }

    /// Pre-allocates room for `additional` more arcs.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Adds a directed arc (probability comes from the model).
    pub fn add_arc(&mut self, source: Vertex, target: Vertex) -> Result<(), GraphError> {
        self.inner.add_arc(source, target)
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected(&mut self, a: Vertex, b: Vertex) -> Result<(), GraphError> {
        self.inner.add_arc(a, b)?;
        self.inner.add_arc(b, a)
    }

    /// Deduplicates, weights, optionally LT-normalizes, and freezes.
    pub fn build(self) -> Result<Graph, GraphError> {
        let mut graph = self.inner.freeze(Some(self.model))?;
        if self.lt_normalize {
            graph.normalize_for_lt();
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::RowProbs;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(3, 0, 0.5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_edge(0, 7, 0.5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new(3);
        for p in [f32::NAN, f32::INFINITY, -0.1, 1.5] {
            assert!(matches!(
                b.add_edge(0, 1, p),
                Err(GraphError::InvalidProbability { .. })
            ));
        }
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 0.4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn keeps_self_loops_on_request() {
        let mut b = GraphBuilder::new(2).keep_self_loops();
        b.add_edge(1, 1, 0.4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn dedup_keep_first() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.2).unwrap();
        b.add_edge(0, 1, 0.9).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_prob(0, 1), Some(0.2));
    }

    #[test]
    fn insertion_order_irrelevant() {
        let mut b1 = GraphBuilder::new(4);
        let mut b2 = GraphBuilder::new(4);
        let edges = [(0u32, 1u32, 0.1f32), (2, 3, 0.2), (1, 2, 0.3), (0, 3, 0.4)];
        for &(u, v, p) in &edges {
            b1.add_edge(u, v, p).unwrap();
        }
        for &(u, v, p) in edges.iter().rev() {
            b2.add_edge(u, v, p).unwrap();
        }
        assert_eq!(b1.build().unwrap(), b2.build().unwrap());
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1, 0.3).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn lt_normalization_caps_in_weight() {
        let mut b = GraphBuilder::new(4).assign_weights(WeightModel::Constant(0.9));
        // Vertex 3 has three in-edges of 0.9 → sum 2.7 → scaled to 1.0.
        for u in 0..3 {
            b.add_arc(u, 3).unwrap();
        }
        // Vertex 0 has a single in-edge, sum 0.9 ≤ 1 → untouched.
        b.add_arc(1, 0).unwrap();
        let g = b.normalize_for_lt().build().unwrap();
        assert!((g.in_weight_sum(3) - 1.0).abs() < 1e-6);
        assert!((g.in_weight_sum(0) - 0.9).abs() < 1e-6);
        g.validate().unwrap();
    }

    #[test]
    fn reverse_csr_mirrors_forward() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4, 0.5).unwrap();
        b.add_edge(3, 4, 0.25).unwrap();
        b.add_edge(1, 4, 0.75).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.in_neighbors(4).collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(g.in_probs(4), RowProbs::Each(&[0.5, 0.75, 0.25]));
        g.validate().unwrap();
    }
}
