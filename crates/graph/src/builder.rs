//! Edge accumulation and CSR construction.
//!
//! Pending edges live in parallel `sources` / `targets` vectors (4 + 4 bytes
//! an edge) plus a `probs` vector (4 more) only while the probabilities
//! will be kept: [`GraphBuilder::assign_weights`] drops it, because a
//! [`WeightModel`] overwrites every value.
//!
//! `build` never sorts the whole list. It is a counting sort with a per-row
//! clean-up, O(m + n + Σ d·log d) for rows of d edges:
//!
//! 1. count the sources and prefix-sum them into the forward offsets;
//! 2. scatter targets (and kept probabilities) into the forward arrays in
//!    insertion order, then drop the input;
//! 3. stable-sort each row by target and fold duplicates into the first
//!    occurrence, compacting the arrays in place;
//! 4. let the weight model, if any, fill the probabilities in forward order
//!    (source, then target — the order a sorted edge list would have);
//! 5. counting-sort the probabilities by target into the reverse order and
//!    drop the forward ones; keep one per vertex if every in-row is bitwise
//!    uniform;
//! 6. counting-sort the sources by target the same way, and drop the
//!    forward arrays. Sources come out ascending within a destination
//!    because rows are visited in order.
//!
//! The [`Graph`] keeps only the reverse arrays; its forward view is built
//! again from them on first use. The high-water mark is step 2 (input plus
//! forward arrays: 12 bytes an edge, 20 when probabilities are kept); steps
//! 5 and 6 hold 12 bytes an edge, and nothing else of size m is allocated.
//! The steps are the same whether or not the edges arrive sorted.

use crate::csr::{Graph, ProbStore};
use crate::types::{GraphError, Vertex};
use crate::weights::WeightModel;

/// What to do when the same `(source, target)` pair is added twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep the occurrence that was *added first* (default; matches SNAP
    /// loader behaviour). Rows are sorted stably, so this is the first one
    /// inserted also among duplicates of differing probability.
    #[default]
    KeepFirst,
    /// Keep the occurrence with the largest probability.
    KeepMax,
    /// Combine as independent chances: `1 − (1−p₁)(1−p₂)`, folded in the
    /// order the duplicates were added.
    NoisyOr,
}

impl DuplicatePolicy {
    fn combine(self, kept: f32, next: f32) -> f32 {
        match self {
            DuplicatePolicy::KeepFirst => kept,
            DuplicatePolicy::KeepMax => kept.max(next),
            DuplicatePolicy::NoisyOr => 1.0 - (1.0 - kept) * (1.0 - next),
        }
    }
}

/// Accumulates edges and produces a validated [`Graph`].
///
/// Construction is O(m + n + Σ d·log d) over rows of d edges (no sort of
/// the whole list) and its transient memory peaks at 12 bytes an edge, 20
/// when probabilities are kept; see the module documentation.
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
    sources: Vec<Vertex>,
    targets: Vec<Vertex>,
    /// Aligned with `sources` while probabilities are kept; `None` once a
    /// weight model is going to overwrite them.
    probs: Option<Vec<f32>>,
    duplicate_policy: DuplicatePolicy,
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
            sources: Vec::new(),
            targets: Vec::new(),
            probs: Some(Vec::new()),
            duplicate_policy: DuplicatePolicy::default(),
            drop_self_loops: true,
        }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.sources.reserve(additional);
        self.targets.reserve(additional);
        if let Some(probs) = &mut self.probs {
            probs.reserve(additional);
        }
    }

    /// Sets the duplicate-edge policy (default: keep first).
    #[must_use]
    pub fn duplicate_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.duplicate_policy = policy;
        self
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
        self.sources.len()
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
        self.sources.push(source);
        self.targets.push(target);
        if let Some(probs) = &mut self.probs {
            probs.push(prob);
        }
    }

    /// Declares the vertex count after the fact; it must exceed every
    /// endpoint pushed.
    pub(crate) fn set_num_vertices(&mut self, num_vertices: u32) {
        self.num_vertices = num_vertices;
    }

    /// Stops storing probabilities: a weight model will assign them.
    pub(crate) fn discard_probs(&mut self) {
        self.probs = None;
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
        if self.sources.len() >= u32::MAX as usize {
            return Err(GraphError::TooLarge(format!(
                "{} edges exceeds the u32 edge-count limit",
                self.sources.len()
            )));
        }
        let num_vertices = self.num_vertices;
        let n = num_vertices as usize;
        let mut rows = Rows::scatter(n, self.sources, self.targets, self.probs);
        rows.sort_and_fold(self.duplicate_policy);
        let Rows {
            offsets: out_offsets,
            targets: out_targets,
            probs: kept_probs,
        } = rows;
        let out_probs = match model {
            Some(model) => model.assign(num_vertices, &out_targets),
            None => kept_probs.expect("probabilities are kept until a weight model replaces them"),
        };

        // Steps 5 and 6, one array at a time so that no more than three
        // m-length arrays are alive at once.
        let mut in_offsets = offsets_by_key(n, &out_targets);
        let in_probs = transpose(&out_offsets, &out_targets, &mut in_offsets, |_, e| {
            out_probs[e]
        });
        drop(out_probs);
        let in_probs = ProbStore::new(&in_offsets, in_probs);
        let in_sources = transpose(&out_offsets, &out_targets, &mut in_offsets, |u, _| {
            u as Vertex
        });
        Ok(Graph::from_reverse(
            num_vertices,
            in_offsets,
            in_sources,
            in_probs,
        ))
    }
}

/// The forward arrays while they are being made: row `u` is
/// `targets[offsets[u]..offsets[u + 1]]`, with `probs` aligned to it while
/// probabilities are kept.
struct Rows {
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
    probs: Option<Vec<f32>>,
}

impl Rows {
    /// Steps 1 and 2: a counting sort by source that keeps each row in
    /// insertion order, and the end of the input vectors.
    fn scatter(
        n: usize,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        probs: Option<Vec<f32>>,
    ) -> Self {
        let mut rows = Rows {
            offsets: offsets_by_key(n, &sources),
            targets: vec![0; targets.len()],
            probs: probs.as_ref().map(|probs| vec![0.0; probs.len()]),
        };
        for (i, (&u, &v)) in sources.iter().zip(&targets).enumerate() {
            let slot = &mut rows.offsets[u as usize];
            rows.targets[*slot] = v;
            if let (Some(row_probs), Some(probs)) = (&mut rows.probs, &probs) {
                row_probs[*slot] = probs[i];
            }
            *slot += 1;
        }
        rewind_offsets(&mut rows.offsets);
        rows
    }

    /// Step 3: sorts every row by target and folds its duplicates into the
    /// first one added, closing the gaps. `write` trails `read`, so a row is
    /// compacted over space that has been read already.
    fn sort_and_fold(&mut self, policy: DuplicatePolicy) {
        let n = self.offsets.len() - 1;
        let targets = &mut self.targets;
        let (mut read, mut write) = (0usize, 0usize);
        let mut row: Vec<(Vertex, f32)> = Vec::new();
        for u in 0..n {
            let (end, row_start) = (self.offsets[u + 1], write);
            self.offsets[u] = row_start;
            match &mut self.probs {
                None => {
                    targets[read..end].sort_unstable();
                    for i in read..end {
                        let v = targets[i];
                        if write == row_start || targets[write - 1] != v {
                            targets[write] = v;
                            write += 1;
                        }
                    }
                }
                Some(probs) => {
                    row.clear();
                    let row_probs = probs[read..end].iter().copied();
                    row.extend(targets[read..end].iter().copied().zip(row_probs));
                    // Stable: duplicates stay in the order they were added.
                    row.sort_by_key(|&(v, _)| v);
                    for &(v, p) in &row {
                        if write > row_start && targets[write - 1] == v {
                            probs[write - 1] = policy.combine(probs[write - 1], p);
                        } else {
                            targets[write] = v;
                            probs[write] = p;
                            write += 1;
                        }
                    }
                }
            }
            read = end;
        }
        self.offsets[n] = write;
        targets.truncate(write);
        targets.shrink_to_fit();
        if let Some(probs) = &mut self.probs {
            probs.truncate(write);
            probs.shrink_to_fit();
        }
    }
}

/// Where each key's group starts once the elements are sorted by key:
/// `offsets[k]` for key `k < n`, and the element count at `offsets[n]`.
pub(crate) fn offsets_by_key(n: usize, keys: &[Vertex]) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for &k in keys {
        offsets[k as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

/// Undoes a scatter that used `offsets[k]` as key `k`'s write cursor: every
/// entry now holds the start of the next group, so they move up by one.
/// This is what saves a second n-length cursor array.
fn rewind_offsets(offsets: &mut [usize]) {
    let n = offsets.len() - 1;
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
}

/// One value per edge of a CSR (rows by `offsets`, the other endpoint of
/// edge `e` in `keys[e]`), computed by `value(row, e)` and placed in the
/// transposed order: grouped by key, by ascending row within a group.
/// `cursor` holds the transposed offsets ([`offsets_by_key`] over `keys`)
/// and is left holding them again.
pub(crate) fn transpose<T: Copy + Default>(
    offsets: &[usize],
    keys: &[Vertex],
    cursor: &mut [usize],
    mut value: impl FnMut(usize, usize) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); keys.len()];
    for row in 0..offsets.len() - 1 {
        for e in offsets[row]..offsets[row + 1] {
            let slot = &mut cursor[keys[e] as usize];
            out[*slot] = value(row, e);
            *slot += 1;
        }
    }
    rewind_offsets(cursor);
    out
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
    fn dedup_keep_max() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::KeepMax);
        b.add_edge(0, 1, 0.2).unwrap();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_prob(0, 1), Some(0.9));
    }

    #[test]
    fn dedup_noisy_or() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::NoisyOr);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let p = g.edge_prob(0, 1).unwrap();
        assert!((p - 0.75).abs() < 1e-6);
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
        assert_eq!(g.in_neighbors(4), &[0, 1, 3]);
        assert_eq!(g.in_probs(4), RowProbs::Each(&[0.5, 0.75, 0.25]));
        g.validate().unwrap();
    }
}
