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
//! routed without any lookup communication. (With fewer edges than ranks,
//! some ranks hold no edge; [`VertexCutShard::mirror_ranks`] skips them.)
//!
//! Everything is a pure function of `(graph, rank, size)` — two ranks never
//! disagree about ownership, and a shard can in principle be *loaded*
//! directly from an edge sub-list without materializing the full graph
//! (the constructor here reads the full graph only because the experiments
//! hold it anyway).
//!
//! A shard holds its edges in the graph's own layout: the gap-varint rows
//! that [`Graph::in_neighbors`] decodes and the graph's probability store,
//! over its own contiguous vertex range. Whole rows are the graph's bytes;
//! only the *head* row, the one the shard's first edge cuts into, starts
//! mid-row, and it is re-coded from its first kept source. Its head record
//! carries where in the full in-list that row starts and the exact
//! sequential `f64` prefix sum of the in-probabilities before it, so a
//! linear-threshold draw can be resolved chunk-locally while staying
//! bitwise identical to the sequential reference accumulation (see
//! `ripples-diffusion`'s vertex-keyed sampler).

use crate::csr::{Graph, ProbStore, RowProbs};
use crate::rows::{InNeighbors, Rows};
use crate::types::Vertex;

/// One rank's shard of an edge-balanced vertex-cut: a contiguous range of
/// the global in-edge order, stored as the coded in-rows of a contiguous
/// vertex range, plus the full ghost (mirror) table for frontier routing.
#[derive(Clone, Debug)]
pub struct VertexCutShard {
    num_vertices: u32,
    /// Edge count of the parent graph.
    graph_edges: usize,
    rank: u32,
    size: u32,
    head: Head,
    /// Row `i` is vertex `head.vertex + i`'s local in-edges.
    rows: Rows,
    probs: ProbStore,
    /// Ghost table: vertex → packed `(first_rank << 32) | end_rank`
    /// (half-open rank interval holding the vertex's in-edge chunks;
    /// `0` for in-degree-0 vertices — the empty interval).
    mirrors: Vec<u64>,
}

/// The head row: the first vertex of the shard's range, the first of its
/// in-edges the shard holds, and the LT accumulator before that edge.
#[derive(Clone, Copy, Debug, Default)]
struct Head {
    vertex: Vertex,
    edge_start: u32,
    /// Exact sequential `f64` sum of the in-probabilities before
    /// `edge_start`.
    lt_prefix: f64,
}

/// A borrowed view of one vertex's local in-edge chunk: its sources and
/// probabilities as [`Graph::in_neighbors`] and [`Graph::in_probs`] hand
/// out a whole row.
#[derive(Clone, Debug)]
pub struct ChunkView<'a> {
    /// Offset of the chunk's first edge within the vertex's full in-list.
    pub edge_start: u32,
    /// LT accumulator value at the chunk boundary (sum of the probabilities
    /// of the preceding edges, accumulated sequentially in `f64`).
    pub lt_prefix: f64,
    /// Sources of the chunk's edges.
    pub sources: InNeighbors<'a>,
    /// Probabilities aligned with `sources`.
    pub probs: RowProbs<'a>,
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

/// The global in-edge positions rank `rank` of `size` owns.
fn edge_range(rank: u32, m: usize, size: u32) -> std::ops::Range<usize> {
    let bound = |r: u32| (m as u64 * u64::from(r) / u64::from(size)) as usize;
    bound(rank)..bound(rank + 1)
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
        let std::ops::Range { start: lo, end: hi } = edge_range(rank, m, size);

        let mut mirrors = vec![0u64; n as usize];
        let mut head: Option<Head> = None;
        let mut end = 0;
        let mut goff = 0usize; // global offset of v's first in-edge
        for v in 0..n {
            let deg = graph.in_degree(v);
            if deg > 0 {
                let first = edge_owner(goff, m, size);
                let last = edge_owner(goff + deg - 1, m, size);
                mirrors[v as usize] = (u64::from(first) << 32) | u64::from(last + 1);
                if lo < goff + deg && goff < hi {
                    end = v + 1;
                    head.get_or_insert_with(|| {
                        let within = lo.saturating_sub(goff);
                        // The exact accumulator value the sequential LT loop
                        // holds after the preceding edges: same adds, same
                        // order.
                        let probs = graph.in_probs(v);
                        let lt_prefix =
                            (0..within).fold(0.0f64, |acc, i| acc + f64::from(probs.get(i)));
                        Head {
                            vertex: v,
                            edge_start: within as u32,
                            lt_prefix,
                        }
                    });
                }
            }
            goff += deg;
        }
        let head = head.unwrap_or_default();
        Self {
            num_vertices: n,
            graph_edges: m,
            rank,
            size,
            head,
            rows: graph
                .rows
                .cut(head.vertex..end, head.edge_start as usize, hi - lo),
            probs: graph
                .in_probs
                .cut(head.vertex as usize..end as usize, lo..hi),
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

    /// Number of in-edges stored on this rank.
    #[must_use]
    pub fn local_edges(&self) -> usize {
        self.rows.num_edges()
    }

    /// The local in-edge chunk of vertex `v`, if this rank holds one.
    #[inline]
    #[must_use]
    pub fn chunk(&self, v: Vertex) -> Option<ChunkView<'_>> {
        let i = v.checked_sub(self.head.vertex)? as usize;
        let sources = self.rows.keyed_row(i, v)?;
        // Every row but the head starts at its vertex's first in-edge.
        let head = if i == 0 { self.head } else { Head::default() };
        Some(ChunkView {
            edge_start: head.edge_start,
            lt_prefix: head.lt_prefix,
            sources,
            probs: self.probs.row(i),
        })
    }

    /// The ranks holding `v`'s in-edge chunks, ascending (the ghost table
    /// lookup). None for in-degree-0 vertices. They are the ranks of an
    /// interval that hold any edge: with fewer edges than ranks, some hold
    /// none.
    #[inline]
    pub fn mirror_ranks(&self, v: Vertex) -> impl Iterator<Item = u32> + '_ {
        let packed = self.mirrors[v as usize];
        ((packed >> 32) as u32..(packed & 0xFFFF_FFFF) as u32)
            .filter(|&r| !edge_range(r, self.graph_edges, self.size).is_empty())
    }

    /// Iterates the destination vertices of the locally-held chunks.
    pub fn chunk_vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        let end = self.head.vertex + self.rows.num_rows() as Vertex;
        (self.head.vertex..end).filter(|&v| self.chunk(v).is_some())
    }

    /// Resident bytes of this shard: the coded rows and their offsets, the
    /// probabilities, and the ghost table, the one table sized by n.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.rows.resident_bytes()
            + self.probs.resident_bytes()
            + std::mem::size_of_val(&self.mirrors[..])
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
                        rebuilt.extend(c.sources);
                    }
                }
                let row: Vec<Vertex> = g.in_neighbors(v).collect();
                assert_eq!(rebuilt, row, "vertex {v} size {size}");
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
            let interval: Vec<u32> = shards[0].mirror_ranks(v).collect();
            // Every shard agrees on the ghost table.
            for shard in &shards {
                assert!(shard.mirror_ranks(v).eq(interval.clone()), "vertex {v}");
            }
            let holders: Vec<u32> = (0..size)
                .filter(|&r| shards[r as usize].chunk(v).is_some())
                .collect();
            assert_eq!(holders, interval, "vertex {v}");
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
                    assert!(c.sources.eq(g.in_neighbors(v)));
                    assert_eq!(c.lt_prefix, 0.0);
                }
                None => assert_eq!(g.in_degree(v), 0),
            }
        }
    }

    #[test]
    fn sharding_shrinks_resident_bytes() {
        // Edge storage dominates for m >> n; four shards must each hold
        // well under the footprint of one shard of the whole graph (the
        // graph's layout: coded rows at about a byte an edge here, one
        // probability per edge, plus the 8-byte-a-vertex ghost table).
        let g = erdos_renyi(200, 4000, WeightModel::UniformRandom { seed: 2 }, false, 8);
        let full = VertexCutShard::extract(&g, 0, 1).resident_bytes();
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
        assert_eq!(shard.chunk_vertices().count(), 0);
        assert_eq!(shard.mirror_ranks(0).next(), None);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let g = GraphBuilder::new(4).build().unwrap();
        let _ = VertexCutShard::extract(&g, 2, 2);
    }
}
