//! Vertex-keyed RRR sampling for a graph that is partitioned as well as R —
//! the paper's future-work item (i): *"extension to settings where the input
//! graph is also partitioned (in addition to R)"*.
//!
//! The published system replicates the whole graph on every rank, capping
//! input size at single-node memory. The sharded engine
//! (`ripples_core::dist_sharded`) instead splits the global in-edge order
//! into `p` contiguous ranges (a vertex cut,
//! [`ripples_graph::partition::VertexCutShard`]), so one vertex's in-list
//! may span several ranks and one RRR set's reverse BFS hops across them.
//!
//! **Randomness keying.** Replicated sampling draws a sample's coin flips
//! from a per-sample stream in traversal order, which is meaningless when
//! the traversal is distributed. Instead, the coin flips consumed while
//! expanding vertex `v` of sample `s` come from a stream keyed by `(s, v)`
//! ([`vertex_keyed_rrr`] is the sequential reference), and
//! [`expand_shard_chunk`] replays exactly the coins of one chunk of `v`'s
//! in-list, so a sharded run over any rank count reproduces the reference
//! **bitwise** (tested in `ripples-core`).
//!
//! A chunk is read like a whole row: the shard hands out its sources and
//! probabilities as the graph does, and both functions here expand a row
//! through the reference sampler's one IC/LT row body, the chunk with its
//! IC coins skipped to its first edge and its LT accumulator started at the
//! sum of the edges before it.

use crate::model::DiffusionModel;
use crate::rrr::{expand_with, RrrScratch};
use ripples_graph::partition::ChunkView;
use ripples_graph::{Graph, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};

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
    if model == DiffusionModel::IndependentCascade {
        rng.skip(u64::from(chunk.edge_start));
    }
    expand_with(
        model,
        &mut rng,
        chunk.sources,
        chunk.probs,
        chunk.lt_prefix,
        |u| out.push(u),
    )
}

/// Sequential reference for the `(sample, vertex)`-keyed RRR generation:
/// semantically identical to `generate_rrr` (same live-edge distribution),
/// but with coin flips keyed so that a sharded traversal can reproduce it
/// exactly.
#[must_use]
pub fn vertex_keyed_rrr(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    sample_index: u64,
    scratch: &mut RrrScratch,
) -> Vec<Vertex> {
    let root = sample_root(factory, sample_index, graph.num_vertices());
    let sample_seed = sample_stream_seed(factory, sample_index);
    scratch.begin();
    scratch.visit(root);
    // The coins are keyed by vertex, so the order the BFS expands the
    // members in changes nothing about which are reached.
    let mut members = vec![root];
    let mut head = 0;
    while let Some(&v) = members.get(head) {
        head += 1;
        let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
        let (sources, probs) = (graph.in_neighbors(v), graph.in_probs(v));
        expand_with(model, &mut rng, sources, probs, 0.0, |u| {
            if scratch.visit(u) {
                members.push(u);
            }
        });
    }
    members.sort_unstable();
    members
}

/// Derives the per-sample seed used for `(sample, vertex)` coin-flip
/// streams (shared by the reference and the sharded engine).
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

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::partition::VertexCutShard;
    use ripples_graph::{RowProbs, WeightModel};

    fn graph() -> Graph {
        erdos_renyi(120, 900, WeightModel::UniformRandom { seed: 5 }, false, 31)
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

    fn shards(g: &Graph, size: u32) -> Vec<VertexCutShard> {
        (0..size)
            .map(|r| VertexCutShard::extract(g, r, size))
            .collect()
    }

    #[test]
    fn partitions_cover_all_edges() {
        // One IC sample expanded through every chunk of every shard examines
        // each edge exactly once, and each shard exactly its own edges.
        let g = graph();
        let seed = sample_stream_seed(&StreamFactory::new(3), 0);
        for size in [1u32, 2, 3, 5] {
            let mut total = 0u64;
            for shard in shards(&g, size) {
                let mut examined = 0u64;
                let mut out = Vec::new();
                for v in shard.chunk_vertices() {
                    let chunk = shard.chunk(v).expect("listed chunk");
                    examined += expand_shard_chunk(
                        DiffusionModel::IndependentCascade,
                        seed,
                        v,
                        chunk,
                        &mut out,
                    );
                }
                assert_eq!(examined, shard.local_edges() as u64, "size {size}");
                total += examined;
            }
            assert_eq!(total, g.num_edges() as u64, "size {size}");
        }
    }

    #[test]
    fn ownership_is_consistent() {
        // The shard that holds in-edge `e` of the global order is
        // `edge_owner(e)`, and no other shard holds it.
        use ripples_graph::partition::edge_owner;
        let g = graph();
        let m = g.num_edges();
        for size in [1u32, 2, 3, 4, 7] {
            let parts = shards(&g, size);
            let mut e = 0usize;
            for v in 0..g.num_vertices() {
                for i in 0..g.in_degree(v) {
                    let holders: Vec<u32> = parts
                        .iter()
                        .filter(|s| {
                            s.chunk(v).is_some_and(|c| {
                                let start = c.edge_start as usize;
                                (start..start + c.sources.count()).contains(&i)
                            })
                        })
                        .map(VertexCutShard::rank)
                        .collect();
                    assert_eq!(holders, vec![edge_owner(e, m, size)], "size {size} v {v}");
                    e += 1;
                }
            }
            assert_eq!(e, m);
        }
    }

    #[test]
    fn partition_adjacency_matches_graph() {
        // A chunk is its slice of the vertex's in-row, probabilities
        // included, whether the graph keeps one probability per edge or
        // one per vertex.
        let uniform = graph();
        let cascade = erdos_renyi(120, 900, WeightModel::WeightedCascade, false, 31);
        for g in [&uniform, &cascade] {
            let part = VertexCutShard::extract(g, 1, 3);
            assert!(part.chunk_vertices().next().is_some());
            let per_edge = |probs: RowProbs<'_>, len: usize| match probs {
                RowProbs::Same(p) => vec![p; len],
                RowProbs::Each(probs) => probs.to_vec(),
            };
            for v in part.chunk_vertices() {
                let chunk = part.chunk(v).expect("listed chunk");
                let start = chunk.edge_start as usize;
                let sources: Vec<Vertex> = chunk.sources.collect();
                let range = start..start + sources.len();
                let row: Vec<Vertex> = g.in_neighbors(v).collect();
                assert_eq!(sources, &row[range.clone()], "vertex {v}");
                let probs = per_edge(g.in_probs(v), row.len());
                assert_eq!(
                    per_edge(chunk.probs, range.len()),
                    &probs[range],
                    "vertex {v}"
                );
            }
        }
    }

    #[test]
    fn vertex_keyed_matches_expand_per_partition() {
        // A reverse BFS that expands each frontier vertex through every
        // shard's chunk reproduces the sequential reference set.
        let g = graph();
        let f = StreamFactory::new(13);
        let n = g.num_vertices();
        let mut scratch = RrrScratch::new(n);
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for size in [1u32, 2, 3, 4] {
                let parts = shards(&g, size);
                for idx in 0..30u64 {
                    let seed = sample_stream_seed(&f, idx);
                    let root = sample_root(&f, idx, n);
                    let mut visited = vec![false; n as usize];
                    visited[root as usize] = true;
                    let mut members = vec![root];
                    let mut frontier = vec![root];
                    while let Some(v) = frontier.pop() {
                        let mut live = Vec::new();
                        for part in &parts {
                            if let Some(chunk) = part.chunk(v) {
                                let _ = expand_shard_chunk(model, seed, v, chunk, &mut live);
                            }
                        }
                        for u in live {
                            if !std::mem::replace(&mut visited[u as usize], true) {
                                members.push(u);
                                frontier.push(u);
                            }
                        }
                    }
                    members.sort_unstable();
                    let reference = vertex_keyed_rrr(&g, model, &f, idx, &mut scratch);
                    assert_eq!(members, reference, "{model}: size {size}, sample {idx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let _ = VertexCutShard::extract(&graph(), 3, 3);
    }

    #[test]
    fn shard_chunks_reproduce_expansion_bitwise() {
        // The union (in rank order) of per-chunk expansions must equal the
        // full-graph expansion exactly, for both models, at every cut width.
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
                            0.0,
                            |u| reference.push(u),
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
}
