//! Property-based tests for vertex-cut shards: a shard holds its range of
//! the global in-edge order in the graph's own coded rows and probability
//! layout, with only the head row re-coded, and expanding its chunks must
//! flip exactly the coins the whole rows flip.
//!
//! The graphs carry a hub whose in-list spans several shards (so that a
//! shard can lie inside one row, and a head row can start below its own
//! vertex: a negative first gap), isolated vertices inside the shards'
//! vertex ranges, and, when sparse, fewer edges than ranks.

use proptest::prelude::*;
use ripples_diffusion::partitioned::{
    expand_shard_chunk, sample_root, sample_stream_seed, vertex_keyed_rrr,
};
use ripples_diffusion::{DiffusionModel, RrrScratch};
use ripples_graph::partition::VertexCutShard;
use ripples_graph::{Graph, GraphBuilder, RowProbs, Vertex, WeightModel};
use ripples_rng::{SplitMix64, StreamFactory};

const MODELS: [DiffusionModel; 2] = [
    DiffusionModel::IndependentCascade,
    DiffusionModel::LinearThreshold,
];

/// The two probability layouts: one per vertex (weighted cascade) and one
/// per edge (uniform random).
const WEIGHTS: [WeightModel; 2] = [
    WeightModel::WeightedCascade,
    WeightModel::UniformRandom { seed: 5 },
];

/// A graph on `n` vertices: hub `hub` with an in-edge from every source in
/// `hub_sources`, plus `arcs`; no edge touches a vertex `v % 5 == 1` other
/// than the hub. With `lt`, in-weights are normalized for linear threshold.
fn build(
    n: u32,
    hub: Vertex,
    hub_sources: &[Vertex],
    arcs: &[(Vertex, Vertex)],
    weights: WeightModel,
    lt: bool,
) -> Graph {
    let isolated = |v: Vertex| v % 5 == 1 && v != hub;
    let mut b = GraphBuilder::new(n).assign_weights(weights);
    let hub_arcs = hub_sources.iter().map(|&u| (u, hub));
    for (u, v) in hub_arcs.chain(arcs.iter().copied()) {
        if u != v && !isolated(u) && !isolated(v) {
            b.add_arc(u, v).unwrap();
        }
    }
    if lt {
        b = b.normalize_for_lt();
    }
    b.build().unwrap()
}

fn per_edge(probs: RowProbs<'_>, len: usize) -> Vec<u32> {
    match probs {
        RowProbs::Same(p) => vec![p.to_bits(); len],
        RowProbs::Each(probs) => probs.iter().map(|p| p.to_bits()).collect(),
    }
}

/// The live in-edges of `v` under `(sample, vertex)` stream `seed`, drawn
/// straight from the definition over the whole row.
fn live_edges(g: &Graph, model: DiffusionModel, seed: u64, v: Vertex) -> (Vec<Vertex>, u64) {
    let mut rng = SplitMix64::for_stream(seed, u64::from(v));
    let mut live = Vec::new();
    let edges: Vec<(Vertex, f32)> = g.in_edges(v).collect();
    match model {
        DiffusionModel::IndependentCascade => {
            for &(u, p) in &edges {
                if rng.unit_f64() < f64::from(p) {
                    live.push(u);
                }
            }
            (live, edges.len() as u64)
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            let mut acc = 0.0f64;
            for (i, &(u, p)) in edges.iter().enumerate() {
                acc += f64::from(p);
                if draw < acc {
                    live.push(u);
                    return (live, i as u64 + 1);
                }
            }
            (live, edges.len() as u64)
        }
    }
}

/// Checks every rank count from 1 to 7 on `g`, expanding under `model`.
fn check_shards(g: &Graph, model: DiffusionModel) -> Result<(), TestCaseError> {
    let n = g.num_vertices();
    let factory = StreamFactory::new(17);
    let mut scratch = RrrScratch::new(n);
    for size in 1..=7u32 {
        let shards: Vec<VertexCutShard> = (0..size)
            .map(|r| VertexCutShard::extract(g, r, size))
            .collect();
        let held: usize = shards.iter().map(VertexCutShard::local_edges).sum();
        prop_assert_eq!(held, g.num_edges(), "size {}", size);
        for v in 0..n {
            let row: Vec<Vertex> = g.in_neighbors(v).collect();
            let row_probs = per_edge(g.in_probs(v), row.len());
            let (mut sources, mut probs) = (Vec::new(), Vec::new());
            for shard in &shards {
                let holds = shard.mirror_ranks(v).any(|r| r == shard.rank());
                let Some(chunk) = shard.chunk(v) else {
                    prop_assert!(
                        !holds,
                        "size {} v {}: rank {} is a mirror",
                        size,
                        v,
                        shard.rank()
                    );
                    continue;
                };
                prop_assert!(
                    holds,
                    "size {} v {}: rank {} not a mirror",
                    size,
                    v,
                    shard.rank()
                );
                prop_assert_eq!(
                    chunk.edge_start as usize,
                    sources.len(),
                    "size {} v {}",
                    size,
                    v
                );
                let prefix = row_probs[..sources.len()]
                    .iter()
                    .fold(0.0f64, |acc, &p| acc + f64::from(f32::from_bits(p)));
                prop_assert_eq!(
                    chunk.lt_prefix.to_bits(),
                    prefix.to_bits(),
                    "size {} v {}",
                    size,
                    v
                );
                let chunk_sources: Vec<Vertex> = chunk.sources.collect();
                probs.extend(per_edge(chunk.probs, chunk_sources.len()));
                sources.extend(chunk_sources);
            }
            prop_assert_eq!(&sources, &row, "size {} v {}", size, v);
            prop_assert_eq!(&probs, &row_probs, "size {} v {}", size, v);
        }
        for index in 0..8u64 {
            let seed = sample_stream_seed(&factory, index);
            // Every vertex's chunks, in rank order, emit its live edges.
            for v in 0..n {
                let (mut live, mut examined) = (Vec::new(), 0u64);
                for shard in &shards {
                    if let Some(chunk) = shard.chunk(v) {
                        examined += expand_shard_chunk(model, seed, v, chunk, &mut live);
                    }
                }
                let (reference, whole) = live_edges(g, model, seed, v);
                prop_assert_eq!(&live, &reference, "size {} v {} sample {}", size, v, index);
                if model == DiffusionModel::IndependentCascade {
                    prop_assert_eq!(examined, whole);
                }
            }
            // A reverse BFS over the chunks is the vertex-keyed reference.
            let root = sample_root(&factory, index, n);
            let mut members = vec![root];
            let mut frontier = vec![root];
            while let Some(v) = frontier.pop() {
                let mut live = Vec::new();
                for shard in &shards {
                    if let Some(chunk) = shard.chunk(v) {
                        expand_shard_chunk(model, seed, v, chunk, &mut live);
                    }
                }
                for u in live {
                    if !members.contains(&u) {
                        members.push(u);
                        frontier.push(u);
                    }
                }
            }
            members.sort_unstable();
            let reference = vertex_keyed_rrr(g, model, &factory, index, &mut scratch);
            prop_assert_eq!(members, reference, "size {} sample {}", size, index);
        }
    }
    Ok(())
}

/// Strategy: `n`, the hub, its in-sources, the other arcs, and whether to
/// keep only the first three edges (fewer edges than ranks).
#[allow(clippy::type_complexity)]
fn graph_strategy() -> impl Strategy<Value = (u32, Vertex, Vec<Vertex>, Vec<(Vertex, Vertex)>, bool)>
{
    (2u32..48).prop_flat_map(|n| {
        (
            Just(n),
            0..n,
            prop::collection::vec(0..n, 0..2 * n as usize),
            prop::collection::vec((0..n, 0..n), 0..60),
            any::<bool>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn shards_are_byte_ranges_of_the_graphs_rows(
        (n, hub, hub_sources, arcs, sparse) in graph_strategy()
    ) {
        let (hub_sources, arcs) = if sparse {
            (&hub_sources[..hub_sources.len().min(2)], &arcs[..arcs.len().min(1)])
        } else {
            (&hub_sources[..], &arcs[..])
        };
        for weights in WEIGHTS {
            for model in MODELS {
                let lt = model == DiffusionModel::LinearThreshold;
                let g = build(n, hub, hub_sources, arcs, weights, lt);
                check_shards(&g, model)?;
            }
        }
    }
}

/// The cases the strategy draws only sometimes, pinned: a hub in-list over
/// every shard whose cuts fall below and above the hub's own id, isolated
/// vertices between the shards' rows, and a graph of two edges over seven
/// ranks.
#[test]
fn pinned_hub_isolated_and_empty_shards() {
    let hub = 30;
    let below_and_above: Vec<Vertex> = (0..40).collect();
    let ring: Vec<(Vertex, Vertex)> = (0..40).map(|v| (v, (v + 7) % 40)).collect();
    for weights in WEIGHTS {
        for model in MODELS {
            let lt = model == DiffusionModel::LinearThreshold;
            let g = build(40, hub, &below_and_above, &ring, weights, lt);
            assert!(g.in_degree(hub) >= 30);
            assert!((0..40).any(|v| g.in_degree(v) == 0));
            // Some rank of three starts inside the hub's row, below the hub,
            // and some rank of seven lies inside it.
            let head_below = (1..3).any(|r| {
                let shard = VertexCutShard::extract(&g, r, 3);
                shard
                    .chunk(hub)
                    .is_some_and(|mut c| c.edge_start > 0 && c.sources.next() < Some(hub))
            });
            assert!(head_below);
            let inside = (0..7).any(|r| {
                let shard = VertexCutShard::extract(&g, r, 7);
                shard.chunk_vertices().eq([hub]) && shard.chunk(hub).unwrap().edge_start > 0
            });
            assert!(inside);
            check_shards(&g, model).unwrap();
            let tiny = build(40, hub, &[3, 9], &[], weights, lt);
            assert_eq!(tiny.num_edges(), 2);
            check_shards(&tiny, model).unwrap();
        }
    }
}
