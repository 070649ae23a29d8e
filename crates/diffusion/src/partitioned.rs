//! Graph-partitioned RRR sampling — the paper's future-work item (i):
//! *"extension to settings where the input graph is also partitioned (in
//! addition to R)"*.
//!
//! The published system replicates the whole graph on every rank, capping
//! input size at single-node memory. Here the vertex space is split into
//! `p` intervals and each rank stores **only the in-edges of its owned
//! vertices** (~`m/p` edges). One RRR set then no longer lives on one rank:
//! its reverse BFS hops across owners, driven by a bulk-synchronous
//! frontier exchange.
//!
//! **Randomness keying.** Replicated sampling draws a sample's coin flips
//! from a per-sample stream in traversal order, which is meaningless when
//! the traversal is distributed. Instead, the coin flips consumed while
//! expanding vertex `v` of sample `s` come from a stream keyed by `(s, v)`
//! ([`vertex_keyed_rrr`] is the sequential reference). Expansion of `(s,v)`
//! happens exactly once — at `v`'s owner — so a partitioned run over any
//! rank count reproduces the reference **bitwise** (tested in
//! `ripples-core`).

use crate::model::DiffusionModel;
use crate::rrr::{RrrCollection, RrrScratch};
use ripples_graph::partition::ChunkView;
use ripples_graph::{Graph, RowProbs, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};

/// The in-edges owned by one rank: vertex interval `[vl, vh)` of the parent
/// graph, with full-id sources.
#[derive(Clone, Debug)]
pub struct GraphPartition {
    /// Total vertex count of the parent graph.
    pub num_vertices: u32,
    /// First owned vertex.
    pub vl: Vertex,
    /// One past the last owned vertex.
    pub vh: Vertex,
    in_offsets: Vec<usize>,
    in_sources: Vec<Vertex>,
    in_probs: Vec<f32>,
}

impl GraphPartition {
    /// Extracts rank `rank` of `size`'s partition from a full graph.
    ///
    /// In a real deployment each rank would *load* only its slice; this
    /// constructor exists because the experiments hold the full graph
    /// anyway.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `rank >= size`.
    #[must_use]
    pub fn extract(graph: &Graph, rank: u32, size: u32) -> Self {
        assert!(size > 0, "need at least one rank");
        assert!(rank < size, "rank out of range");
        let n = graph.num_vertices();
        let vl = ((u64::from(n) * u64::from(rank)) / u64::from(size)) as Vertex;
        let vh = ((u64::from(n) * (u64::from(rank) + 1)) / u64::from(size)) as Vertex;
        let mut in_offsets = Vec::with_capacity((vh - vl) as usize + 1);
        let mut in_sources = Vec::new();
        let mut in_probs = Vec::new();
        in_offsets.push(0);
        // One probability per edge whatever the graph's layout.
        for v in vl..vh {
            in_sources.extend_from_slice(graph.in_neighbors(v));
            in_probs.extend(graph.in_edges(v).map(|(_, p)| p));
            in_offsets.push(in_sources.len());
        }
        Self {
            num_vertices: n,
            vl,
            vh,
            in_offsets,
            in_sources,
            in_probs,
        }
    }

    /// True if this rank owns vertex `v`.
    #[inline]
    #[must_use]
    pub fn owns(&self, v: Vertex) -> bool {
        (self.vl..self.vh).contains(&v)
    }

    /// The owner rank of vertex `v` under the same equal-interval split.
    #[inline]
    #[must_use]
    pub fn owner_of(v: Vertex, n: u32, size: u32) -> u32 {
        // Inverse of the interval formula; linear scan-free.
        (((u64::from(v) + 1) * u64::from(size)).div_ceil(u64::from(n)) as u32 - 1).min(size - 1)
    }

    /// In-neighbors of owned vertex `v`.
    #[inline]
    #[must_use]
    pub fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        debug_assert!(self.owns(v));
        let i = (v - self.vl) as usize;
        &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Probabilities aligned with [`GraphPartition::in_neighbors`].
    #[inline]
    #[must_use]
    pub fn in_probs(&self, v: Vertex) -> &[f32] {
        debug_assert!(self.owns(v));
        let i = (v - self.vl) as usize;
        &self.in_probs[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Number of edges stored on this rank.
    #[must_use]
    pub fn local_edges(&self) -> usize {
        self.in_sources.len()
    }

    /// Resident bytes of this rank's slice.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_offsets.len() * size_of::<usize>()
            + self.in_sources.len() * size_of::<Vertex>()
            + self.in_probs.len() * size_of::<f32>()
    }

    /// Expands owned vertex `v` for sample stream `sample_seed`: returns the
    /// in-neighbors whose edges are live, drawing coins from the `(sample,
    /// vertex)`-keyed stream. `out` is extended, not cleared.
    pub fn expand(
        &self,
        model: DiffusionModel,
        sample_seed: u64,
        v: Vertex,
        out: &mut Vec<Vertex>,
    ) -> u64 {
        let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
        let sources = self.in_neighbors(v);
        let probs = RowProbs::Each(self.in_probs(v));
        expand_with(model, &mut rng, sources, probs, out)
    }
}

/// Shared live-edge logic for one vertex expansion; returns edges examined.
fn expand_with(
    model: DiffusionModel,
    rng: &mut SplitMix64,
    sources: &[Vertex],
    probs: RowProbs<'_>,
    out: &mut Vec<Vertex>,
) -> u64 {
    match probs {
        RowProbs::Same(p) => expand_edges(model, rng, sources.iter().map(|&u| (u, p)), out),
        RowProbs::Each(probs) => expand_edges(
            model,
            rng,
            sources.iter().copied().zip(probs.iter().copied()),
            out,
        ),
    }
}

/// [`expand_with`] once per probability layout.
fn expand_edges(
    model: DiffusionModel,
    rng: &mut SplitMix64,
    edges: impl Iterator<Item = (Vertex, f32)>,
    out: &mut Vec<Vertex>,
) -> u64 {
    let mut examined = 0u64;
    match model {
        DiffusionModel::IndependentCascade => {
            for (u, p) in edges {
                examined += 1;
                if rng.unit_f64() < f64::from(p) {
                    out.push(u);
                }
            }
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            let mut acc = 0.0f64;
            for (u, p) in edges {
                examined += 1;
                acc += f64::from(p);
                if draw < acc {
                    out.push(u);
                    break;
                }
            }
        }
    }
    examined
}

/// Expands one vertex-cut chunk of `v`'s in-list for sample stream
/// `sample_seed`, flipping exactly the coins the sequential reference flips
/// for that slice of the in-edge order; returns edges examined.
///
/// The `(sample, vertex)` stream is a counter (SplitMix64), so a chunk that
/// starts at in-edge `edge_start` lands on its coins with one O(1)
/// [`SplitMix64::skip`] — under independent cascade the union of the chunks'
/// live edges is bitwise the full expansion. Under linear threshold all
/// chunks share the *first* draw and the chunk's stored `lt_prefix` (the
/// exact sequential accumulator value at the chunk boundary) decides locally
/// whether the threshold falls before, inside, or after the chunk, so at
/// most one chunk across all ranks emits the (single) live edge.
pub fn expand_shard_chunk(
    model: DiffusionModel,
    sample_seed: u64,
    v: Vertex,
    chunk: ChunkView<'_>,
    out: &mut Vec<Vertex>,
) -> u64 {
    let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
    match model {
        DiffusionModel::IndependentCascade => {
            rng.skip(u64::from(chunk.edge_start));
            for (&u, &p) in chunk.sources.iter().zip(chunk.probs) {
                if rng.unit_f64() < f64::from(p) {
                    out.push(u);
                }
            }
            chunk.sources.len() as u64
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            if draw < chunk.lt_prefix {
                // The threshold fell in an earlier chunk; its owner emits
                // the live edge. (Probabilities are non-negative, so the
                // accumulator is monotone and this test is exact.)
                return 0;
            }
            let mut acc = chunk.lt_prefix;
            let mut examined = 0u64;
            for (&u, &p) in chunk.sources.iter().zip(chunk.probs) {
                examined += 1;
                acc += f64::from(p);
                if draw < acc {
                    out.push(u);
                    break;
                }
            }
            examined
        }
    }
}

/// Sequential reference for the `(sample, vertex)`-keyed RRR generation:
/// semantically identical to `generate_rrr` (same live-edge distribution),
/// but with coin flips keyed so that a partitioned traversal can reproduce
/// it exactly.
#[must_use]
pub fn vertex_keyed_rrr(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    sample_index: u64,
    scratch: &mut RrrScratch,
) -> Vec<Vertex> {
    let mut root_rng = factory.sample_stream(sample_index);
    let root = root_rng.bounded_u64(u64::from(graph.num_vertices())) as Vertex;
    let sample_seed = sample_stream_seed(factory, sample_index);
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut visited = scratch_visited(scratch, graph.num_vertices());
    visited[root as usize] = true;
    let mut members = vec![root];
    while !frontier.is_empty() {
        next.clear();
        for &v in &frontier {
            let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
            let _ = expand_with(
                model,
                &mut rng,
                graph.in_neighbors(v),
                graph.in_probs(v),
                &mut next,
            );
        }
        frontier.clear();
        for &u in &next {
            if !visited[u as usize] {
                visited[u as usize] = true;
                members.push(u);
                frontier.push(u);
            }
        }
    }
    members.sort_unstable();
    members
}

/// Derives the per-sample seed used for `(sample, vertex)` coin-flip
/// streams (shared by the reference and the partitioned engine).
#[must_use]
pub fn sample_stream_seed(factory: &StreamFactory, sample_index: u64) -> u64 {
    // One draw off the sample's own stream, domain-separated from the root
    // draw by position (root is the first draw).
    let mut rng = factory.sample_stream(sample_index);
    let _root = rng.next_u64();
    rng.next_u64()
}

/// Draws sample `index`'s root exactly as the replicated engines do.
#[must_use]
pub fn sample_root(factory: &StreamFactory, index: u64, n: u32) -> Vertex {
    let mut rng = factory.sample_stream(index);
    rng.bounded_u64(u64::from(n)) as Vertex
}

// Plain boolean visited buffer; RrrScratch's epoch array is private to the
// rrr module, so partitioned traversal keeps its own simple state.
fn scratch_visited(_scratch: &mut RrrScratch, n: u32) -> Vec<bool> {
    vec![false; n as usize]
}

/// Collects the union of per-rank member fragments of one sample into a
/// sorted vertex list (helper for gathering cooperative samples to their
/// home rank).
#[must_use]
pub fn merge_fragments(fragments: &[Vec<Vertex>]) -> Vec<Vertex> {
    let mut all: Vec<Vertex> = fragments.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Builds a [`RrrCollection`] from per-sample merged fragment lists.
#[must_use]
pub fn collection_from_samples(samples: Vec<Vec<Vertex>>) -> RrrCollection {
    let mut c = RrrCollection::new();
    for s in samples {
        c.push(&s);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::{GraphBuilder, WeightModel};

    fn graph() -> Graph {
        erdos_renyi(120, 900, WeightModel::UniformRandom { seed: 5 }, false, 31)
    }

    #[test]
    fn partitions_cover_all_edges() {
        let g = graph();
        for size in [1u32, 2, 3, 5] {
            let total: usize = (0..size)
                .map(|r| GraphPartition::extract(&g, r, size).local_edges())
                .sum();
            assert_eq!(total, g.num_edges(), "size {size}");
        }
    }

    #[test]
    fn ownership_is_consistent() {
        let g = graph();
        let size = 4;
        let parts: Vec<GraphPartition> = (0..size)
            .map(|r| GraphPartition::extract(&g, r, size))
            .collect();
        for v in 0..g.num_vertices() {
            let owner = GraphPartition::owner_of(v, g.num_vertices(), size);
            assert!(parts[owner as usize].owns(v), "vertex {v} owner {owner}");
            let owning: Vec<u32> = (0..size).filter(|&r| parts[r as usize].owns(v)).collect();
            assert_eq!(owning, vec![owner], "vertex {v} owned by {owning:?}");
        }
    }

    #[test]
    fn partition_adjacency_matches_graph() {
        let g = graph();
        let part = GraphPartition::extract(&g, 1, 3);
        for v in part.vl..part.vh {
            assert_eq!(part.in_neighbors(v), g.in_neighbors(v));
            let probs: Vec<f32> = g.in_edges(v).map(|(_, p)| p).collect();
            assert_eq!(part.in_probs(v), probs.as_slice());
        }
    }

    #[test]
    fn vertex_keyed_reference_contains_root_and_is_sorted() {
        let g = graph();
        let f = StreamFactory::new(77);
        let mut scratch = RrrScratch::new(g.num_vertices());
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for idx in 0..50u64 {
                let root = sample_root(&f, idx, g.num_vertices());
                let s = vertex_keyed_rrr(&g, model, &f, idx, &mut scratch);
                assert!(s.binary_search(&root).is_ok());
                assert!(s.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn vertex_keyed_matches_expand_per_partition() {
        // Expanding through a partition must flip the same coins as the
        // reference (same (sample, vertex) stream).
        let g = graph();
        let f = StreamFactory::new(13);
        let seed = sample_stream_seed(&f, 9);
        let part = GraphPartition::extract(&g, 0, 1);
        for v in 0..g.num_vertices() {
            let mut from_part = Vec::new();
            part.expand(DiffusionModel::IndependentCascade, seed, v, &mut from_part);
            let mut rng = SplitMix64::for_stream(seed, u64::from(v));
            let mut reference = Vec::new();
            expand_with(
                DiffusionModel::IndependentCascade,
                &mut rng,
                g.in_neighbors(v),
                g.in_probs(v),
                &mut reference,
            );
            assert_eq!(from_part, reference, "vertex {v}");
        }
    }

    #[test]
    fn shard_chunks_reproduce_expansion_bitwise() {
        // The union (in rank order) of per-chunk expansions must equal the
        // full-graph expansion exactly, for both models, at every cut width.
        use ripples_graph::partition::VertexCutShard;
        let g = graph();
        let f = StreamFactory::new(21);
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for size in [1u32, 2, 3, 4] {
                let shards: Vec<VertexCutShard> = (0..size)
                    .map(|r| VertexCutShard::extract(&g, r, size))
                    .collect();
                for idx in 0..20u64 {
                    let seed = sample_stream_seed(&f, idx);
                    for v in 0..g.num_vertices() {
                        let mut reference = Vec::new();
                        let mut rng = SplitMix64::for_stream(seed, u64::from(v));
                        let ref_examined = expand_with(
                            model,
                            &mut rng,
                            g.in_neighbors(v),
                            g.in_probs(v),
                            &mut reference,
                        );
                        let mut union = Vec::new();
                        let mut examined = 0u64;
                        for shard in &shards {
                            if let Some(chunk) = shard.chunk(v) {
                                examined += expand_shard_chunk(model, seed, v, chunk, &mut union);
                            }
                        }
                        assert_eq!(union, reference, "model {model:?} size {size} v {v}");
                        if model == DiffusionModel::IndependentCascade {
                            assert_eq!(examined, ref_examined, "IC examines every edge");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_fragments_dedups_and_sorts() {
        let merged = merge_fragments(&[vec![5, 1], vec![3, 1], vec![]]);
        assert_eq!(merged, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let g = GraphBuilder::new(4).build().unwrap();
        let _ = GraphPartition::extract(&g, 2, 2);
    }
}
