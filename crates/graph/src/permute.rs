//! Vertex relabeling (permutation) of a graph.
//!
//! The correctness oracle (`ripples-oracle`) uses permutations for its
//! metamorphic relabeling check: influence maximization is equivariant under
//! renaming vertices — permute the input, and the (appropriately
//! tie-broken) output comes back permuted. This module provides the
//! permutation object and the graph-relabeling helper those checks build on.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::types::Vertex;
use ripples_rng::SplitMix64;

/// A bijection on `0..len`, stored with its inverse for O(1) mapping in both
/// directions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<Vertex>,
    inverse: Vec<Vertex>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    #[must_use]
    pub fn identity(n: u32) -> Self {
        let forward: Vec<Vertex> = (0..n).collect();
        Self {
            inverse: forward.clone(),
            forward,
        }
    }

    /// A uniformly random permutation on `0..n` (Fisher–Yates, seeded).
    #[must_use]
    pub fn random(n: u32, seed: u64) -> Self {
        let mut forward: Vec<Vertex> = (0..n).collect();
        let mut rng = SplitMix64::for_stream(seed, 0x5045_524d); // "PERM"
        for i in (1..forward.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            forward.swap(i, j);
        }
        Self::from_mapping(forward).expect("shuffled identity is a bijection")
    }

    /// Builds a permutation from `forward[old_id] = new_id`.
    ///
    /// Returns `None` unless `forward` is a bijection on `0..forward.len()`.
    #[must_use]
    pub fn from_mapping(forward: Vec<Vertex>) -> Option<Self> {
        let n = forward.len();
        let mut inverse = vec![Vertex::MAX; n];
        for (old_id, &new_id) in forward.iter().enumerate() {
            if (new_id as usize) >= n || inverse[new_id as usize] != Vertex::MAX {
                return None;
            }
            inverse[new_id as usize] = old_id as Vertex;
        }
        Some(Self { forward, inverse })
    }

    /// Domain size.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.forward.len() as u32
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Maps an old id to its new id.
    #[must_use]
    pub fn apply(&self, v: Vertex) -> Vertex {
        self.forward[v as usize]
    }

    /// Maps a new id back to its old id.
    #[must_use]
    pub fn invert(&self, v: Vertex) -> Vertex {
        self.inverse[v as usize]
    }

    /// Maps a slice of old ids to new ids, preserving order.
    #[must_use]
    pub fn apply_all(&self, vs: &[Vertex]) -> Vec<Vertex> {
        vs.iter().map(|&v| self.apply(v)).collect()
    }

    /// The inverse permutation as its own object.
    #[must_use]
    pub fn inverted(&self) -> Self {
        Self {
            forward: self.inverse.clone(),
            inverse: self.forward.clone(),
        }
    }
}

/// Relabels `graph` through `perm`: edge `u → v` becomes
/// `perm(u) → perm(v)` with its probability preserved.
///
/// # Panics
///
/// Panics if `perm.len() != graph.num_vertices()`.
#[must_use]
pub fn permute_graph(graph: &Graph, perm: &Permutation) -> Graph {
    assert_eq!(
        perm.len(),
        graph.num_vertices(),
        "permutation domain must match the vertex count"
    );
    let mut builder = GraphBuilder::new(graph.num_vertices()).keep_self_loops();
    builder.reserve(graph.num_edges());
    for (u, v, p) in graph.edges() {
        builder
            .add_edge(perm.apply(u), perm.apply(v), p)
            .expect("relabeled edge must be valid");
    }
    builder.build().expect("relabeled graph must build")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(5);
        for &(u, v, p) in &[
            (0u32, 1u32, 0.3f32),
            (1, 2, 0.7),
            (2, 0, 0.5),
            (3, 4, 0.9),
            (0, 3, 0.2),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn identity_roundtrip() {
        let g = sample();
        let id = Permutation::identity(g.num_vertices());
        assert_eq!(permute_graph(&g, &id), g);
    }

    #[test]
    fn apply_invert_roundtrip() {
        let p = Permutation::random(64, 9);
        for v in 0..64 {
            assert_eq!(p.invert(p.apply(v)), v);
            assert_eq!(p.apply(p.invert(v)), v);
        }
        assert_eq!(p.inverted().inverted(), p);
    }

    #[test]
    fn random_is_deterministic_and_varies_by_seed() {
        let a = Permutation::random(32, 1);
        let b = Permutation::random(32, 1);
        let c = Permutation::random(32, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn permuted_graph_preserves_structure() {
        let g = sample();
        let perm = Permutation::random(g.num_vertices(), 7);
        let pg = permute_graph(&g, &perm);
        assert_eq!(pg.num_vertices(), g.num_vertices());
        assert_eq!(pg.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            assert_eq!(
                pg.edge_prob(perm.apply(u), perm.apply(v)),
                Some(p),
                "edge {u}→{v} lost"
            );
        }
        for v in 0..g.num_vertices() {
            assert_eq!(pg.out_degree(perm.apply(v)), g.out_degree(v));
            assert_eq!(pg.in_degree(perm.apply(v)), g.in_degree(v));
        }
        pg.validate().unwrap();
    }

    #[test]
    fn permute_then_inverse_restores() {
        let g = sample();
        let perm = Permutation::random(g.num_vertices(), 3);
        let back = permute_graph(&permute_graph(&g, &perm), &perm.inverted());
        assert_eq!(back, g);
    }

    #[test]
    fn from_mapping_rejects_non_bijections() {
        assert!(Permutation::from_mapping(vec![0, 0]).is_none());
        assert!(Permutation::from_mapping(vec![0, 2]).is_none());
        assert!(Permutation::from_mapping(vec![1, 0, 2]).is_some());
    }

    #[test]
    #[should_panic(expected = "domain must match")]
    fn size_mismatch_panics() {
        let g = sample();
        let _ = permute_graph(&g, &Permutation::identity(3));
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert_eq!(p.apply_all(&[]), Vec::<Vertex>::new());
    }
}
