//! Immutable CSR graph storage: the reverse CSR the samplers read, its rows
//! gap-varint coded (decoded by [`crate::InNeighbors`]), and a forward view
//! built on first use.

use crate::builder::{check_probability, offsets_by_key};
use crate::rows::{InNeighbors, Rows};
use crate::types::Vertex;
use std::sync::OnceLock;

/// A directed graph with per-edge activation probabilities, stored as one
/// compressed-sparse-row structure over in-edges (reverse-reachability
/// sampling, selection and serve read nothing else). Each in-row is
/// gap-varint coded, about 2 bytes an edge on the benchmark's inputs, and
/// [`Graph::in_neighbors`] decodes it as it is read.
///
/// The probabilities live in one of two layouts, chosen once per graph from
/// its content: one `f32` per vertex when every in-row is bitwise uniform
/// (weighted cascade, a constant probability, LT over either), one per
/// in-edge, with a `u32` edge offset per vertex, otherwise.
/// [`Graph::in_probs`] hands a row out as a [`RowProbs`], which the reverse
/// BFS in `ripples-diffusion` — the hottest loop in the whole system —
/// matches once per vertex.
///
/// The out-edge accessors ([`Graph::out_neighbors`], [`Graph::edges`], …)
/// read a forward CSR that the first of them builds from the reverse one
/// and the graph then keeps: forward Monte-Carlo, CELF, the heuristics, IO
/// writes and relabeling use it; no sampler or selector does.
///
/// The topology is immutable after construction (the one in-place operation,
/// [`Graph::normalize_for_lt`], rescales probabilities); build instances
/// through [`crate::GraphBuilder`], the generators or [`crate::io`].
#[derive(Clone, Debug)]
pub struct Graph {
    pub(crate) num_vertices: u32,
    // Reverse CSR: edges grouped by destination, sources sorted in a group.
    pub(crate) rows: Rows,
    pub(crate) in_probs: ProbStore,
    forward: OnceLock<Forward>,
    fingerprint: OnceLock<u64>,
}

/// Two graphs are equal when their decoded edges and probability bits are;
/// whether either has built its forward view does not matter.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.in_probs == other.in_probs
            && self.rows == other.rows
    }
}

/// The activation probabilities of one vertex's in-edges, aligned with
/// [`Graph::in_neighbors`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowProbs<'a> {
    /// Every in-edge of the row carries this probability.
    Same(f32),
    /// One probability per in-edge.
    Each(&'a [f32]),
}

impl RowProbs<'_> {
    /// The probability of the row's `i`-th in-edge.
    #[inline]
    #[must_use]
    pub(crate) fn get(self, i: usize) -> f32 {
        match self {
            RowProbs::Same(p) => p,
            RowProbs::Each(probs) => probs[i],
        }
    }

    /// Sum of the first `len` probabilities of the row, added one by one in
    /// `f64` in row order (also for [`RowProbs::Same`], so the bits are
    /// those of the per-edge sum, not of `len · p`).
    #[must_use]
    pub(crate) fn sum(self, len: usize) -> f64 {
        (0..len).map(|i| f64::from(self.get(i))).sum()
    }
}

/// Where the in-edge probabilities live.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ProbStore {
    /// One per vertex: every in-row is bitwise uniform. A vertex with no
    /// in-edges holds 0.0.
    PerVertex(Vec<f32>),
    /// One per in-edge, in in-row order; row `v`'s are
    /// `probs[offsets[v]..offsets[v + 1]]`.
    PerEdge { offsets: Vec<u32>, probs: Vec<f32> },
}

impl ProbStore {
    /// The store for per-in-edge `probs` over rows bounded by `offsets`:
    /// one value per vertex when every row is bitwise uniform (and the
    /// offsets are dropped), else both.
    pub(crate) fn new(offsets: Vec<u32>, probs: Vec<f32>) -> Self {
        let rows = || {
            offsets
                .windows(2)
                .map(|w| &probs[w[0] as usize..w[1] as usize])
        };
        let uniform = rows().all(|row| row.iter().all(|p| p.to_bits() == row[0].to_bits()));
        if uniform {
            ProbStore::PerVertex(rows().map(|row| row.first().map_or(0.0, |&p| p)).collect())
        } else {
            ProbStore::PerEdge { offsets, probs }
        }
    }

    fn values(&self) -> &[f32] {
        match self {
            ProbStore::PerVertex(probs) | ProbStore::PerEdge { probs, .. } => probs,
        }
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        match self {
            ProbStore::PerVertex(probs) => size_of_val(&probs[..]),
            ProbStore::PerEdge { offsets, probs } => {
                size_of_val(&offsets[..]) + size_of_val(&probs[..])
            }
        }
    }
}

/// The forward CSR: edges grouped by source, targets sorted within a group,
/// one probability per edge.
#[derive(Clone, Debug)]
struct Forward {
    offsets: Vec<u32>,
    targets: Vec<Vertex>,
    probs: Vec<f32>,
}

impl Graph {
    /// The graph over coded reverse rows and their probabilities.
    pub(crate) fn from_rows(num_vertices: u32, rows: Rows, in_probs: ProbStore) -> Self {
        Self {
            num_vertices,
            rows,
            in_probs,
            forward: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    #[must_use]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges `m`.
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.rows.num_edges()
    }

    /// True if the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// Where each source's out-edges start in forward order, and `m` last:
    /// the out-degrees, counted over the decoded rows, prefix-summed.
    pub(crate) fn out_offsets(&self) -> Vec<u32> {
        offsets_by_key(self.num_vertices as usize, self.rows.sources())
    }

    /// The forward view, built from the reverse CSR on first use: a
    /// counting sort by source that visits destinations in order, so every
    /// row comes out sorted by target.
    fn forward(&self) -> &Forward {
        self.forward.get_or_init(|| {
            let mut offsets = self.out_offsets();
            let m = self.num_edges();
            let (mut targets, mut probs) = (vec![0; m], vec![0.0; m]);
            for v in 0..self.num_vertices {
                let row_probs = self.in_probs(v);
                for (i, u) in self.in_neighbors(v).enumerate() {
                    let slot = &mut offsets[u as usize];
                    targets[*slot as usize] = v;
                    probs[*slot as usize] = row_probs.get(i);
                    *slot += 1;
                }
            }
            // Each cursor stopped at the start of the next group.
            let n = self.num_vertices as usize;
            offsets.copy_within(..n, 1);
            offsets[0] = 0;
            Forward {
                offsets,
                targets,
                probs,
            }
        })
    }

    /// The forward view's range of `v`'s out-edges.
    fn out_range(&self, v: Vertex) -> (&Forward, std::ops::Range<usize>) {
        let (v, forward) = (v as usize, self.forward());
        let range = forward.offsets[v] as usize..forward.offsets[v + 1] as usize;
        (forward, range)
    }

    /// Out-degree of `v`.
    #[inline]
    #[must_use]
    pub fn out_degree(&self, v: Vertex) -> usize {
        self.out_range(v).1.len()
    }

    /// In-degree of `v`: read off the edge offsets of a per-edge graph,
    /// counted over the coded row (O(its bytes)) of a per-vertex one.
    #[inline]
    #[must_use]
    pub fn in_degree(&self, v: Vertex) -> usize {
        match &self.in_probs {
            ProbStore::PerEdge { offsets, .. } => {
                (offsets[v as usize + 1] - offsets[v as usize]) as usize
            }
            ProbStore::PerVertex(_) => self.rows.degree(v),
        }
    }

    /// Targets of the out-edges of `v`, sorted ascending.
    #[inline]
    #[must_use]
    pub fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        let (forward, range) = self.out_range(v);
        &forward.targets[range]
    }

    /// Activation probabilities aligned with [`Graph::out_neighbors`].
    #[inline]
    #[must_use]
    pub fn out_probs(&self, v: Vertex) -> &[f32] {
        let (forward, range) = self.out_range(v);
        &forward.probs[range]
    }

    /// Sources of the in-edges of `v`, ascending, decoded from its coded
    /// row as they are read.
    #[inline]
    pub fn in_neighbors(&self, v: Vertex) -> InNeighbors<'_> {
        self.rows.row(v)
    }

    /// Activation probabilities aligned with [`Graph::in_neighbors`].
    #[inline]
    #[must_use]
    pub fn in_probs(&self, v: Vertex) -> RowProbs<'_> {
        let v = v as usize;
        match &self.in_probs {
            ProbStore::PerVertex(probs) => RowProbs::Same(probs[v]),
            ProbStore::PerEdge { offsets, probs } => {
                RowProbs::Each(&probs[offsets[v] as usize..offsets[v + 1] as usize])
            }
        }
    }

    /// Iterates `(target, probability)` pairs of the out-edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, f32)> + '_ {
        self.out_neighbors(v)
            .iter()
            .copied()
            .zip(self.out_probs(v).iter().copied())
    }

    /// Iterates `(source, probability)` pairs of the in-edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, f32)> + '_ {
        let probs = self.in_probs(v);
        self.in_neighbors(v)
            .enumerate()
            .map(move |(i, u)| (u, probs.get(i)))
    }

    /// Iterates every edge as `(source, target, probability)` in forward CSR
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex, f32)> + '_ {
        (0..self.num_vertices).flat_map(move |u| self.out_edges(u).map(move |(v, p)| (u, v, p)))
    }

    /// True if the directed edge `(u, v)` exists (a scan of the in-row of
    /// `v` up to `u`).
    #[must_use]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_prob(u, v).is_some()
    }

    /// The probability of edge `(u, v)`, if present.
    #[must_use]
    pub fn edge_prob(&self, u: Vertex, v: Vertex) -> Option<f32> {
        let (i, s) = self.in_neighbors(v).enumerate().find(|&(_, s)| s >= u)?;
        (s == u).then(|| self.in_probs(v).get(i))
    }

    /// Sum of in-edge probabilities of `v` (the LT "total incoming weight"),
    /// added in `f64` by ascending source.
    #[must_use]
    pub fn in_weight_sum(&self, v: Vertex) -> f64 {
        self.in_probs(v).sum(self.in_degree(v))
    }

    /// Resident bytes of the CSR arrays (used by the memory experiments):
    /// the coded reverse rows and their byte offsets, the probabilities
    /// (with their edge offsets when there is one per edge), plus the
    /// forward view once a forward reader has built it.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let forward = self.forward.get().map_or(0, |f| {
            size_of_val(&f.offsets[..]) + size_of_val(&f.targets[..]) + size_of_val(&f.probs[..])
        });
        self.rows.resident_bytes() + self.in_probs.resident_bytes() + forward
    }

    /// Content fingerprint of the graph: an FNV-1a fold over `n`, `m`, the
    /// forward CSR offsets, targets and the bit patterns of the edge
    /// probabilities, in forward order. Two graphs fingerprint equal iff
    /// their edges and probability bits are identical, so the serve mode's
    /// sketch snapshots can refuse restoration against a different graph
    /// without storing the graph itself.
    ///
    /// Computed once per graph and kept. The forward order is produced a
    /// range of sources at a time (about m/8 edges each), so the fold holds
    /// O(n + m/8) transient memory and never builds the forward view.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            fn fold(h: &mut u64, x: u64) {
                for shift in (0..64).step_by(8) {
                    *h ^= (x >> shift) & 0xFF;
                    *h = h.wrapping_mul(FNV_PRIME);
                }
            }
            let mut h = FNV_OFFSET;
            fold(&mut h, u64::from(self.num_vertices));
            fold(&mut h, self.num_edges() as u64);
            let out_offsets = self.out_offsets();
            for &o in &out_offsets {
                fold(&mut h, u64::from(o));
            }
            self.forward_by_ranges(&out_offsets, |v, _| fold(&mut h, u64::from(v)));
            self.forward_by_ranges(&out_offsets, |_, p| fold(&mut h, u64::from(p.to_bits())));
            h
        })
    }

    /// Calls `visit(target, probability)` for every edge in forward order,
    /// transposing sources `u0..u1` at a time: each range holds at most m/8
    /// edges, or one source's out-edges if it has more. Each in-row keeps a
    /// cursor — the byte it resumes at, the last source it decoded and its
    /// count of edges read — and its sources ascend, so a range decodes
    /// only its own edges and peeks at one more a row: a sweep is O(m) plus
    /// O(n) a range, and there are at most 17 ranges (any two adjacent ones
    /// hold more than m/8 edges).
    fn forward_by_ranges(&self, out_offsets: &[u32], mut visit: impl FnMut(Vertex, f32)) {
        let n = self.num_vertices as usize;
        let cap = self.num_edges().div_ceil(8).max(1);
        let mut cursor: Vec<((u32, Vertex), u32)> = (0..self.num_vertices)
            .map(|v| (self.rows.start(v), 0))
            .collect();
        let mut range: Vec<(Vertex, f32)> = Vec::new();
        let mut u0 = 0;
        while u0 < n {
            let mut u1 = u0 + 1;
            while u1 < n && (out_offsets[u1 + 1] - out_offsets[u0]) as usize <= cap {
                u1 += 1;
            }
            let base = out_offsets[u0];
            let mut slots = out_offsets[u0..u1].to_vec();
            range.clear();
            range.resize((out_offsets[u1] - base) as usize, (0, 0.0));
            for (v, (at, read)) in cursor.iter_mut().enumerate() {
                let probs = self.in_probs(v as Vertex);
                *at = self.rows.resume(v as Vertex, *at, u1, |u| {
                    let slot = &mut slots[u as usize - u0];
                    range[(*slot - base) as usize] = (v as Vertex, probs.get(*read as usize));
                    *slot += 1;
                    *read += 1;
                });
            }
            for &(v, p) in &range {
                visit(v, p);
            }
            u0 = u1;
        }
    }

    /// The paper's linear-threshold readjustment, in place: the incoming
    /// probabilities of every vertex whose in-weight exceeds one are divided
    /// by that sum; the others are left alone, keeping their nonzero chance
    /// of no activation. A per-edge store whose rows all come out bitwise
    /// uniform becomes a per-vertex one, and a built forward view and the
    /// kept fingerprint are dropped.
    ///
    /// A vertex's sum is [`Graph::in_weight_sum`]: f64, over its in-edges
    /// by ascending source, so the result does not depend on when in a
    /// graph's construction this runs:
    /// [`crate::builder::WeightedBuilder::normalize_for_lt`] is this call on
    /// the freshly built graph.
    pub fn normalize_for_lt(&mut self) {
        let readjust = |prob: &mut f32, sum: f64| {
            if sum > 1.0 {
                *prob = (f64::from(*prob) / sum) as f32;
            }
        };
        match &mut self.in_probs {
            ProbStore::PerVertex(probs) => {
                for (v, prob) in probs.iter_mut().enumerate() {
                    let sum = RowProbs::Same(*prob).sum(self.rows.degree(v as Vertex));
                    readjust(prob, sum);
                }
            }
            ProbStore::PerEdge { offsets, probs } => {
                for w in offsets.windows(2) {
                    let row = &mut probs[w[0] as usize..w[1] as usize];
                    let sum = RowProbs::Each(row).sum(row.len());
                    row.iter_mut().for_each(|prob| readjust(prob, sum));
                }
                let (offsets, probs) = (std::mem::take(offsets), std::mem::take(probs));
                self.in_probs = ProbStore::new(offsets, probs);
            }
        }
        self.forward.take();
        self.fingerprint.take();
    }

    /// Checks the internal invariants; used by tests and after IO.
    ///
    /// Invariants: the row offsets are monotone and span the coded rows;
    /// every row decodes to the end of its byte range and not past it, into
    /// strictly ascending sources below `n`, and the rows hold `m` edges;
    /// probabilities are finite and in `[0, 1]`; a per-vertex store holds
    /// 0.0 for a vertex without in-edges, and a per-edge store's offsets
    /// agree with the decoded degrees and it has a row that is not bitwise
    /// uniform. O(m + n) time, no allocation, and the forward view is not
    /// built. Rows that pass decode without a panic.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices as usize;
        let m = self.num_edges();
        let edge_offsets = match &self.in_probs {
            ProbStore::PerEdge { offsets, .. } => Some(offsets),
            ProbStore::PerVertex(_) => None,
        };
        if let Some(offsets) = edge_offsets {
            if offsets.len() != n + 1 || offsets[0] != 0 || offsets[n] as usize != m {
                return Err("per-edge offsets must be n+1, from 0 to m".into());
            }
        }
        self.rows.check(self.num_vertices, |v, degree| {
            let Some(offsets) = edge_offsets else {
                return Ok(());
            };
            let v = v as usize;
            if offsets[v + 1].checked_sub(offsets[v]) == Some(degree as u32) {
                Ok(())
            } else {
                Err(format!(
                    "per-edge offsets disagree with the decoded degree {degree} of {v}"
                ))
            }
        })?;
        let probs = self.in_probs.values();
        if probs.iter().any(|&p| check_probability(p).is_err()) {
            return Err("probabilities must be finite in [0,1]".into());
        }
        match &self.in_probs {
            ProbStore::PerVertex(probs) => {
                if probs.len() != n {
                    return Err("a per-vertex store must have n entries".into());
                }
                if (0..self.num_vertices)
                    .any(|v| probs[v as usize] != 0.0 && self.in_neighbors(v).next().is_none())
                {
                    return Err("a vertex without in-edges must hold probability 0".into());
                }
            }
            ProbStore::PerEdge { offsets, probs } => {
                if probs.len() != m {
                    return Err("a per-edge store must have m entries".into());
                }
                let uniform = offsets.windows(2).all(|w| {
                    let row = &probs[w[0] as usize..w[1] as usize];
                    row.iter().all(|p| p.to_bits() == row[0].to_bits())
                });
                if uniform {
                    return Err("a per-edge store must have a non-uniform row".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::RowProbs;
    use crate::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.25).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 0.75).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn adjacency_contents() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_probs(0), &[0.5, 0.25]);
        assert_eq!(g.in_neighbors(3).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(g.in_probs(3), RowProbs::Each(&[1.0, 0.75]));
    }

    #[test]
    fn edge_queries() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_prob(2, 3), Some(0.75));
        assert_eq!(g.edge_prob(3, 2), None);
    }

    #[test]
    fn edge_iterator_covers_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(0, 1, 0.5)));
        assert!(edges.contains(&(2, 3, 0.75)));
    }

    #[test]
    fn validates() {
        diamond().validate().unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let g = diamond();
        assert_eq!(g.fingerprint(), diamond().fingerprint(), "deterministic");
        // Different probability: different fingerprint.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.25).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let other = b.build().unwrap();
        assert_ne!(g.fingerprint(), other.fingerprint());
        // Different topology: different fingerprint.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        let sparse = b.build().unwrap();
        assert_ne!(g.fingerprint(), sparse.fingerprint());
        // Vertex count matters even with no edges.
        let e3 = GraphBuilder::new(3).build().unwrap();
        let e4 = GraphBuilder::new(4).build().unwrap();
        assert_ne!(e3.fingerprint(), e4.fingerprint());
    }

    /// The fingerprint serve snapshots embed, pinned at the values of the
    /// two-CSR graph whose forward arrays it used to fold, so that a
    /// snapshot written then still restores.
    #[test]
    fn fingerprint_golden_values() {
        use crate::generators::barabasi_albert;
        use crate::io::{read_edge_list, EdgeListOptions, VertexIds};
        use crate::WeightModel;

        let text = "0 1 0.9\n2 1 0.8\n3 1 0.5\n1 2 0.3\n3 2 0.3\n0 3 0.7\n2 0 0.6\n";
        let options = EdgeListOptions {
            vertex_ids: VertexIds::Literal,
            ..Default::default()
        };
        let mut lt = read_edge_list(text.as_bytes(), options).unwrap();
        lt.normalize_for_lt();
        let cases = [
            (diamond(), 0x3960_3c13_d282_a124u64),
            (
                barabasi_albert(500, 4, WeightModel::WeightedCascade, false, 3),
                0xc423_8c76_13cf_84f5,
            ),
            (
                barabasi_albert(500, 4, WeightModel::UniformRandom { seed: 11 }, false, 5),
                0xaf59_b514_1c95_55b1,
            ),
            (lt, 0x0934_b8a4_29b1_1d85),
        ];
        for (g, pinned) in cases {
            let before = g.resident_bytes();
            assert_eq!(
                g.fingerprint(),
                pinned,
                "n {} m {}",
                g.num_vertices(),
                g.num_edges()
            );
            assert_eq!(
                g.resident_bytes(),
                before,
                "the fold builds no forward view"
            );
            // Kept, and what the forward view would give.
            assert_eq!(g.fingerprint(), pinned);
            let edges: Vec<_> = g.edges().collect();
            assert_eq!(edges.len(), g.num_edges());
        }
    }

    #[test]
    fn normalize_drops_a_kept_fingerprint() {
        let mut g = diamond();
        let before = g.fingerprint();
        let _ = g.out_degree(0);
        g.normalize_for_lt();
        assert_ne!(g.fingerprint(), before);
        assert_eq!(g.out_probs(2), &[0.75 / 1.75f32]);
        // Vertex 3's row was not uniform and still is not; a uniform result
        // collapses to one probability per vertex.
        assert!(matches!(g.in_probs(3), RowProbs::Each(_)));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.75).unwrap();
        b.add_edge(1, 2, 0.7500001).unwrap();
        let mut g = b.build().unwrap();
        assert!(matches!(g.in_probs(2), RowProbs::Each(_)));
        g.normalize_for_lt();
        g.validate().unwrap();
    }

    #[test]
    fn in_weight_sum() {
        let g = diamond();
        assert!((g.in_weight_sum(3) - 1.75).abs() < 1e-9);
        assert_eq!(g.in_weight_sum(0), 0.0);
    }

    #[test]
    fn resident_bytes_positive() {
        assert!(diamond().resident_bytes() > 0);
    }

    #[test]
    fn forward_view_is_built_on_first_use() {
        let g = diamond();
        // Byte offsets of n + 1 rows, 4 one-byte codes, and 4 probabilities
        // with their n + 1 edge offsets.
        let reverse = 5 * 4 + 4 + (4 * 4 + 5 * 4);
        assert_eq!(g.resident_bytes(), reverse);
        assert_eq!(g.out_degree(0), 2);
        // Offsets, targets and probabilities in forward order.
        let forward = 5 * 4 + 4 * 4 + 4 * 4;
        assert_eq!(g.resident_bytes(), reverse + forward);
        // A clone keeps it, equality ignores it.
        assert_eq!(g.clone().resident_bytes(), reverse + forward);
        assert_eq!(g, diamond());
    }

    #[test]
    fn validate_refuses_corrupt_rows_and_offsets() {
        use super::{Graph, ProbStore};
        use crate::rows::Rows;
        // Rows 1 and 2 are [0]: zigzag codes 1 and 3. Row 3 is [1, 2]:
        // zigzag(3, 1) = 3, then gap code 0.
        let g = diamond();
        let codes = vec![1, 3, 3, 0];
        let offsets = vec![0, 0, 1, 2, 4];
        let rebuilt = |codes: Vec<u8>, offsets: Vec<u32>, probs: ProbStore| {
            Graph::from_rows(4, Rows::from_raw_parts(offsets, codes, 4), probs)
        };
        let probs = g.in_probs.clone();
        let same = rebuilt(codes.clone(), offsets.clone(), probs.clone());
        same.validate().unwrap();
        assert_eq!(same, g);
        assert_eq!(same.fingerprint(), g.fingerprint());

        let refused = |codes: Vec<u8>, offsets: Vec<u32>, probs: ProbStore| {
            rebuilt(codes, offsets, probs).validate().unwrap_err()
        };
        // A row that runs past its range, one that decodes to an id past n.
        let err = refused(vec![1, 3, 3, 0x80], offsets.clone(), probs.clone());
        assert!(err.contains("past its byte range"), "{err}");
        let err = refused(vec![1, 3, 3, 7], offsets.clone(), probs.clone());
        assert!(err.contains("below n"), "{err}");
        // Rows that decode cleanly to [0], [0, 1] and [1]: four edges, but
        // not the degrees the per-edge offsets give.
        let err = refused(vec![1, 3, 0, 3], vec![0, 0, 1, 3, 4], probs.clone());
        assert!(err.contains("disagree"), "{err}");
        // Per-edge offsets that do not span the probabilities.
        let ProbStore::PerEdge { probs: values, .. } = probs.clone() else {
            panic!("the diamond keeps one probability per edge");
        };
        let short = ProbStore::PerEdge {
            offsets: vec![0, 0, 1, 2, 3],
            probs: values,
        };
        let err = refused(codes, offsets, short);
        assert!(err.contains("from 0 to m"), "{err}");
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build().unwrap();
        for v in 0..5 {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
        g.validate().unwrap();
    }
}
