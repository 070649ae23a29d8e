//! Deterministic edge-balanced vertex-cut partitioning with ghost-vertex
//! (mirror) tables.
//!
//! The sample-partitioned distributed engine still replicates the whole
//! graph on every rank; this module is the substrate for the *graph*-sharded
//! engine (`imm_sharded` in `ripples-core`), where each rank holds only
//! `~m/p` in-edges. The cut is over **edges**, not vertices: the reverse CSR
//! is flattened into one global edge order (grouped by destination, sources
//! sorted within a group — the same order [`Graph`] stores) and split into
//! `p` contiguous, equal-size ranges. A vertex whose in-edges straddle a
//! range boundary is *mirrored*: several ranks each own a contiguous chunk
//! of its in-list, and the ghost table records, for every vertex, the
//! contiguous rank interval holding its chunks so a frontier crossing can be
//! routed without any lookup communication.
//!
//! Everything is a pure function of `(graph, rank, size)` — two ranks never
//! disagree about ownership, and a shard can in principle be *loaded*
//! directly from an edge sub-list without materializing the full graph
//! (the constructor here reads the full graph only because the experiments
//! hold it anyway).
//!
//! The per-chunk `lt_prefix` field carries the exact sequential `f64` prefix
//! sum of the in-probabilities before the chunk, so a linear-threshold draw
//! can be resolved chunk-locally while staying bitwise identical to the
//! sequential reference accumulation (see `ripples-diffusion`'s
//! vertex-keyed sampler).

use crate::csr::Graph;
use crate::types::Vertex;

/// Sentinel in the vertex→chunk map: this rank holds no in-edges of v.
const NO_CHUNK: u32 = u32::MAX;

/// One rank's shard of an edge-balanced vertex-cut: a contiguous range of
/// the global in-edge order, stored as per-vertex chunks, plus the
/// full ghost (mirror) table for frontier routing.
#[derive(Clone, Debug)]
pub struct VertexCutShard {
    num_vertices: u32,
    rank: u32,
    size: u32,
    /// Destination vertex of chunk `i`.
    chunk_vertex: Vec<Vertex>,
    /// Offset of chunk `i`'s first edge within its vertex's full in-list.
    chunk_edge_start: Vec<u32>,
    /// Exact sequential `f64` sum of the in-probabilities preceding the
    /// chunk (the LT accumulator value at the chunk boundary).
    chunk_lt_prefix: Vec<f64>,
    /// CSR offsets of the chunks into `sources`/`probs`.
    chunk_offsets: Vec<usize>,
    sources: Vec<Vertex>,
    probs: Vec<f32>,
    /// Vertex → local chunk index, or [`NO_CHUNK`].
    chunk_of: Vec<u32>,
    /// Ghost table: vertex → packed `(first_rank << 32) | end_rank`
    /// (half-open rank interval holding the vertex's in-edge chunks;
    /// `0` for in-degree-0 vertices — the empty interval).
    mirrors: Vec<u64>,
}

/// A borrowed view of one vertex's local in-edge chunk.
#[derive(Clone, Copy, Debug)]
pub struct ChunkView<'a> {
    /// Offset of the chunk's first edge within the vertex's full in-list.
    pub edge_start: u32,
    /// LT accumulator value at the chunk boundary (sum of the probabilities
    /// of the preceding edges, accumulated sequentially in `f64`).
    pub lt_prefix: f64,
    /// Sources of the chunk's edges.
    pub sources: &'a [Vertex],
    /// Probabilities aligned with `sources`.
    pub probs: &'a [f32],
}

/// The rank owning global in-edge position `e` when `m` edges are split
/// into `size` contiguous equal ranges (`rank r` owns
/// `[r*m/size, (r+1)*m/size)`).
#[inline]
#[must_use]
pub fn edge_owner(e: usize, m: usize, size: u32) -> u32 {
    debug_assert!(e < m);
    ((((e as u64 + 1) * u64::from(size)).div_ceil(m as u64)) as u32 - 1).min(size - 1)
}

impl VertexCutShard {
    /// Extracts rank `rank` of `size`'s shard from a full graph.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `rank >= size`.
    #[must_use]
    pub fn extract(graph: &Graph, rank: u32, size: u32) -> Self {
        assert!(size > 0, "need at least one rank");
        assert!(rank < size, "rank out of range");
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let lo = (m as u64 * u64::from(rank) / u64::from(size)) as usize;
        let hi = (m as u64 * (u64::from(rank) + 1) / u64::from(size)) as usize;

        let mut chunk_vertex = Vec::new();
        let mut chunk_edge_start = Vec::new();
        let mut chunk_lt_prefix = Vec::new();
        let mut chunk_offsets = vec![0];
        let mut sources = Vec::new();
        let mut probs = Vec::new();
        let mut chunk_of = vec![NO_CHUNK; n as usize];
        let mut mirrors = vec![0u64; n as usize];

        let mut goff = 0usize; // global offset of v's first in-edge
        for v in 0..n {
            let full_sources = graph.in_neighbors(v);
            let full_probs = graph.in_probs(v);
            let deg = full_sources.len();
            if deg > 0 {
                let first = edge_owner(goff, m, size);
                let last = edge_owner(goff + deg - 1, m, size);
                mirrors[v as usize] = (u64::from(first) << 32) | u64::from(last + 1);
                let start = lo.max(goff);
                let end = hi.min(goff + deg);
                if start < end {
                    let within = start - goff;
                    // The exact accumulator value the sequential LT loop
                    // holds after the preceding edges: same adds, same order.
                    let mut prefix = 0.0f64;
                    for i in 0..within {
                        prefix += f64::from(full_probs.get(i));
                    }
                    chunk_of[v as usize] = chunk_vertex.len() as u32;
                    chunk_vertex.push(v);
                    chunk_edge_start.push(within as u32);
                    chunk_lt_prefix.push(prefix);
                    sources.extend_from_slice(&full_sources[within..end - goff]);
                    // A chunk holds one probability per edge whatever the
                    // graph's layout.
                    probs.extend((within..end - goff).map(|i| full_probs.get(i)));
                    chunk_offsets.push(sources.len());
                }
            }
            goff += deg;
        }
        Self {
            num_vertices: n,
            rank,
            size,
            chunk_vertex,
            chunk_edge_start,
            chunk_lt_prefix,
            chunk_offsets,
            sources,
            probs,
            chunk_of,
            mirrors,
        }
    }

    /// Total vertex count of the parent graph.
    #[inline]
    #[must_use]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// This shard's rank.
    #[inline]
    #[must_use]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size the cut was computed for.
    #[inline]
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of in-edges stored on this rank.
    #[must_use]
    pub fn local_edges(&self) -> usize {
        self.sources.len()
    }

    /// Number of vertex chunks stored on this rank.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.chunk_vertex.len()
    }

    /// The local in-edge chunk of vertex `v`, if this rank holds one.
    #[inline]
    #[must_use]
    pub fn chunk(&self, v: Vertex) -> Option<ChunkView<'_>> {
        let i = self.chunk_of[v as usize];
        if i == NO_CHUNK {
            return None;
        }
        let i = i as usize;
        let (s, e) = (self.chunk_offsets[i], self.chunk_offsets[i + 1]);
        Some(ChunkView {
            edge_start: self.chunk_edge_start[i],
            lt_prefix: self.chunk_lt_prefix[i],
            sources: &self.sources[s..e],
            probs: &self.probs[s..e],
        })
    }

    /// The half-open rank interval holding `v`'s in-edge chunks (the ghost
    /// table lookup). Empty for in-degree-0 vertices.
    #[inline]
    #[must_use]
    pub fn mirror_ranks(&self, v: Vertex) -> std::ops::Range<u32> {
        let packed = self.mirrors[v as usize];
        (packed >> 32) as u32..(packed & 0xFFFF_FFFF) as u32
    }

    /// Iterates the destination vertices of the locally-held chunks.
    pub fn chunk_vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.chunk_vertex.iter().copied()
    }

    /// Resident bytes of this shard: edge chunks plus the two O(n) routing
    /// tables (vertex→chunk and the ghost table).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sources.len() * size_of::<Vertex>()
            + self.probs.len() * size_of::<f32>()
            + self.chunk_vertex.len() * (size_of::<Vertex>() + size_of::<u32>() + size_of::<f64>())
            + self.chunk_offsets.len() * size_of::<usize>()
            + self.chunk_of.len() * size_of::<u32>()
            + self.mirrors.len() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::{GraphBuilder, WeightModel};

    fn graph() -> Graph {
        erdos_renyi(150, 1200, WeightModel::UniformRandom { seed: 9 }, false, 61)
    }

    #[test]
    fn shards_cover_every_edge_exactly_once() {
        let g = graph();
        for size in [1u32, 2, 3, 4, 7] {
            let shards: Vec<VertexCutShard> = (0..size)
                .map(|r| VertexCutShard::extract(&g, r, size))
                .collect();
            let total: usize = shards.iter().map(VertexCutShard::local_edges).sum();
            assert_eq!(total, g.num_edges(), "size {size}");
            // Per-vertex: concatenating the chunks in rank order rebuilds
            // the full in-list, with consistent edge_start offsets.
            for v in 0..g.num_vertices() {
                let mut rebuilt: Vec<Vertex> = Vec::new();
                for shard in &shards {
                    if let Some(c) = shard.chunk(v) {
                        assert_eq!(c.edge_start as usize, rebuilt.len(), "vertex {v}");
                        rebuilt.extend_from_slice(c.sources);
                    }
                }
                assert_eq!(rebuilt, g.in_neighbors(v), "vertex {v} size {size}");
            }
        }
    }

    #[test]
    fn edge_balance_is_tight() {
        let g = graph();
        let size = 5u32;
        let quota = g.num_edges().div_ceil(size as usize);
        for r in 0..size {
            let shard = VertexCutShard::extract(&g, r, size);
            assert!(
                shard.local_edges() <= quota,
                "rank {r}: {} edges exceeds quota {quota}",
                shard.local_edges()
            );
        }
    }

    #[test]
    fn mirror_table_matches_chunk_placement() {
        let g = graph();
        let size = 4u32;
        let shards: Vec<VertexCutShard> = (0..size)
            .map(|r| VertexCutShard::extract(&g, r, size))
            .collect();
        for v in 0..g.num_vertices() {
            let interval = shards[0].mirror_ranks(v);
            // Every shard agrees on the ghost table.
            for shard in &shards {
                assert_eq!(shard.mirror_ranks(v), interval, "vertex {v}");
            }
            let holders: Vec<u32> = (0..size)
                .filter(|&r| shards[r as usize].chunk(v).is_some())
                .collect();
            let expected: Vec<u32> = interval.collect();
            assert_eq!(holders, expected, "vertex {v}");
            if g.in_degree(v) == 0 {
                assert!(holders.is_empty(), "vertex {v} has no in-edges");
            }
        }
    }

    #[test]
    fn lt_prefix_matches_sequential_accumulation() {
        let g = graph();
        let size = 3u32;
        for r in 0..size {
            let shard = VertexCutShard::extract(&g, r, size);
            for v in shard.chunk_vertices().collect::<Vec<_>>() {
                let c = shard.chunk(v).unwrap();
                let mut acc = 0.0f64;
                for (_, p) in g.in_edges(v).take(c.edge_start as usize) {
                    acc += f64::from(p);
                }
                assert_eq!(c.lt_prefix.to_bits(), acc.to_bits(), "vertex {v} rank {r}");
            }
        }
    }

    #[test]
    fn single_rank_shard_is_the_whole_graph() {
        let g = graph();
        let shard = VertexCutShard::extract(&g, 0, 1);
        assert_eq!(shard.local_edges(), g.num_edges());
        for v in 0..g.num_vertices() {
            match shard.chunk(v) {
                Some(c) => {
                    assert_eq!(c.edge_start, 0);
                    assert_eq!(c.sources, g.in_neighbors(v));
                    assert_eq!(c.lt_prefix, 0.0);
                }
                None => assert_eq!(g.in_degree(v), 0),
            }
        }
    }

    #[test]
    fn sharding_shrinks_resident_bytes() {
        // Edge storage dominates for m >> n; four shards must each hold
        // well under the full graph's edge footprint.
        let g = erdos_renyi(200, 4000, WeightModel::UniformRandom { seed: 2 }, false, 8);
        let full = g.resident_bytes();
        for r in 0..4 {
            let shard = VertexCutShard::extract(&g, r, 4);
            assert!(
                shard.resident_bytes() * 2 < full,
                "rank {r}: shard {} bytes vs full {full}",
                shard.resident_bytes()
            );
        }
    }

    #[test]
    fn empty_graph_shards() {
        let g = GraphBuilder::new(3).build().unwrap();
        let shard = VertexCutShard::extract(&g, 1, 2);
        assert_eq!(shard.local_edges(), 0);
        assert_eq!(shard.num_chunks(), 0);
        assert!(shard.mirror_ranks(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let g = GraphBuilder::new(4).build().unwrap();
        let _ = VertexCutShard::extract(&g, 2, 2);
    }
}
