//! Immutable bidirectional CSR graph storage.

use crate::builder::check_probability;
use crate::types::Vertex;

/// A directed graph with per-edge activation probabilities, stored as two
/// compressed-sparse-row structures: one over out-edges (forward diffusion)
/// and one over in-edges (reverse-reachability sampling).
///
/// The topology is immutable after construction (the one in-place operation,
/// [`Graph::normalize_for_lt`], rescales probabilities); build instances
/// through [`crate::GraphBuilder`], the generators or [`crate::io`].
/// Probabilities are stored twice
/// (once per direction) so both traversal directions stream contiguously —
/// the reverse BFS in `ripples-diffusion` is the hottest loop in the whole
/// system and must not chase an edge-id indirection per neighbor.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub(crate) num_vertices: u32,
    // Forward CSR: edges grouped by source, targets sorted within a group.
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_targets: Vec<Vertex>,
    pub(crate) out_probs: Vec<f32>,
    // Reverse CSR: edges grouped by destination, sources sorted in a group.
    pub(crate) in_offsets: Vec<usize>,
    pub(crate) in_sources: Vec<Vertex>,
    pub(crate) in_probs: Vec<f32>,
}

impl Graph {
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
        self.out_targets.len()
    }

    /// True if the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// Out-degree of `v`.
    #[inline]
    #[must_use]
    pub fn out_degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    #[must_use]
    pub fn in_degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Targets of the out-edges of `v`, sorted ascending.
    #[inline]
    #[must_use]
    pub fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Activation probabilities aligned with [`Graph::out_neighbors`].
    #[inline]
    #[must_use]
    pub fn out_probs(&self, v: Vertex) -> &[f32] {
        let v = v as usize;
        &self.out_probs[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Sources of the in-edges of `v`, sorted ascending.
    #[inline]
    #[must_use]
    pub fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Activation probabilities aligned with [`Graph::in_neighbors`].
    #[inline]
    #[must_use]
    pub fn in_probs(&self, v: Vertex) -> &[f32] {
        let v = v as usize;
        &self.in_probs[self.in_offsets[v]..self.in_offsets[v + 1]]
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
        self.in_neighbors(v)
            .iter()
            .copied()
            .zip(self.in_probs(v).iter().copied())
    }

    /// Iterates every edge as `(source, target, probability)` in forward CSR
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex, f32)> + '_ {
        (0..self.num_vertices).flat_map(move |u| self.out_edges(u).map(move |(v, p)| (u, v, p)))
    }

    /// True if the directed edge `(u, v)` exists (binary search on the
    /// sorted adjacency of `u`).
    #[must_use]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The probability of edge `(u, v)`, if present.
    #[must_use]
    pub fn edge_prob(&self, u: Vertex, v: Vertex) -> Option<f32> {
        self.out_neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.out_probs(u)[i])
    }

    /// Sum of in-edge probabilities of `v` (the LT "total incoming weight").
    #[must_use]
    pub fn in_weight_sum(&self, v: Vertex) -> f64 {
        self.in_probs(v).iter().map(|&p| f64::from(p)).sum()
    }

    /// Resident bytes of the CSR arrays (used by the memory experiments).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_offsets.len() + self.in_offsets.len()) * size_of::<usize>()
            + (self.out_targets.len() + self.in_sources.len()) * size_of::<Vertex>()
            + (self.out_probs.len() + self.in_probs.len()) * size_of::<f32>()
    }

    /// Content fingerprint of the graph: an FNV-1a fold over `n`, `m`, the
    /// forward CSR arrays, and the bit patterns of the edge probabilities.
    /// Two graphs fingerprint equal iff their forward CSR content is
    /// byte-identical (the reverse CSR is derived from the same edges), so
    /// the serve mode's sketch snapshots can refuse restoration against a
    /// different graph without storing the graph itself.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn fold(h: &mut u64, x: u64) {
            for shift in (0..64).step_by(8) {
                *h ^= (x >> shift) & 0xFF;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        let mut h = FNV_OFFSET;
        fold(&mut h, u64::from(self.num_vertices));
        fold(&mut h, self.out_targets.len() as u64);
        for &o in &self.out_offsets {
            fold(&mut h, o as u64);
        }
        for &t in &self.out_targets {
            fold(&mut h, u64::from(t));
        }
        for &p in &self.out_probs {
            fold(&mut h, u64::from(p.to_bits()));
        }
        h
    }

    /// The paper's linear-threshold readjustment, in place: the incoming
    /// probabilities of every vertex whose in-weight exceeds one are divided
    /// by that sum, in both directions' arrays; the others are left alone,
    /// keeping their nonzero chance of no activation.
    ///
    /// A vertex's sum is [`Graph::in_weight_sum`]: f64, over its in-edges
    /// by ascending source, the order a pass over the forward arrays meets
    /// them in, so the result does not depend on when in a graph's
    /// construction this runs:
    /// [`crate::builder::WeightedBuilder::normalize_for_lt`] is this call on
    /// the freshly built graph.
    pub fn normalize_for_lt(&mut self) {
        let sums: Vec<f64> = (0..self.num_vertices)
            .map(|v| self.in_weight_sum(v))
            .collect();
        let readjust = |prob: &mut f32, sum: f64| {
            if sum > 1.0 {
                *prob = (f64::from(*prob) / sum) as f32;
            }
        };
        for (v, &sum) in sums.iter().enumerate() {
            for prob in &mut self.in_probs[self.in_offsets[v]..self.in_offsets[v + 1]] {
                readjust(prob, sum);
            }
        }
        for (&v, prob) in self.out_targets.iter().zip(&mut self.out_probs) {
            readjust(prob, sums[v as usize]);
        }
    }

    /// Checks the internal invariants; used by tests and after IO.
    ///
    /// Invariants: offset arrays are monotone and span the edge arrays;
    /// every endpoint is below `n`; adjacency lists are strictly sorted;
    /// probabilities are finite and in `[0, 1]`; both directions contain
    /// the same edge multiset with the same probability bits. O(m + n) time
    /// and one n-length cursor array.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices as usize;
        let m = self.out_targets.len();
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return Err("offset arrays must have n+1 entries".into());
        }
        if self.out_probs.len() != m || self.in_sources.len() != m || self.in_probs.len() != m {
            return Err("edge arrays must have equal lengths".into());
        }
        for w in [&self.out_offsets, &self.in_offsets] {
            if w[0] != 0 || w[n] != m {
                return Err("offsets must start at 0 and end at m".into());
            }
            if w.windows(2).any(|p| p[0] > p[1]) {
                return Err("offsets must be monotone".into());
            }
        }
        if self
            .out_targets
            .iter()
            .chain(&self.in_sources)
            .any(|&v| v >= self.num_vertices)
        {
            return Err("edge endpoints must be below n".into());
        }
        for v in 0..self.num_vertices {
            if self.out_neighbors(v).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("out-adjacency of {v} not strictly sorted"));
            }
            if self.in_neighbors(v).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("in-adjacency of {v} not strictly sorted"));
            }
        }
        if self
            .out_probs
            .iter()
            .chain(&self.in_probs)
            .any(|&p| check_probability(p).is_err())
        {
            return Err("probabilities must be finite in [0,1]".into());
        }
        // Directions agree. Out-edges are walked by ascending source, and a
        // source meets each target at most once (rows are strictly sorted),
        // so the sources arriving at one target strictly ascend — as its
        // in-list, strictly sorted, does. Each out-edge must therefore be
        // the next unread entry of its target's in-list; both sides hold m
        // edges, so when every out-edge has matched, every in-edge has been
        // read exactly once.
        let mut next_in = self.in_offsets[..n].to_vec();
        for u in 0..n {
            for e in self.out_offsets[u]..self.out_offsets[u + 1] {
                let v = self.out_targets[e] as usize;
                let slot = next_in[v];
                if slot == self.in_offsets[v + 1]
                    || self.in_sources[slot] as usize != u
                    || self.in_probs[slot].to_bits() != self.out_probs[e].to_bits()
                {
                    return Err("forward and reverse CSR disagree".into());
                }
                next_in[v] = slot + 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_probs(3), &[1.0, 0.75]);
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
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
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
