//! End-to-end checks of the graph-partitioned engine
//! ([`ripples_core::dist_sharded`], the paper's future-work item (i)) on the
//! inputs its unit tests leave out: weighted-cascade rows, which the graph
//! and its shards store as one probability per vertex, Barabási–Albert hubs
//! whose in-lists span several shards (so a shard's head row starts
//! mid-row), and sample batches that start mid-stream.

use ripples_comm::{Communicator, SelfComm, ThreadWorld};
use ripples_core::dist_sharded::{
    imm_sharded, imm_sharded_with_storage, sample_batch_sharded, ExchangeStats,
};
use ripples_core::ImmParams;
use ripples_diffusion::partitioned::vertex_keyed_rrr;
use ripples_diffusion::rrr::RrrScratch;
use ripples_diffusion::{DiffusionModel, RrrCollection, RrrStoreKind, StorageConfig};
use ripples_graph::generators::barabasi_albert;
use ripples_graph::partition::VertexCutShard;
use ripples_graph::{Graph, RowProbs, Vertex, WeightModel};
use ripples_rng::StreamFactory;

const MODELS: [DiffusionModel; 2] = [
    DiffusionModel::IndependentCascade,
    DiffusionModel::LinearThreshold,
];

/// A weighted-cascade Barabási–Albert graph; LT runs take the in-weight
/// normalization pass the samplers require.
fn graph(n: u32, attach: u32, model: DiffusionModel) -> Graph {
    let lt = model == DiffusionModel::LinearThreshold;
    barabasi_albert(n, attach, WeightModel::WeightedCascade, lt, 19)
}

#[test]
fn cooperative_sampling_matches_reference_bitwise() {
    let factory = StreamFactory::new(404);
    let (first, count) = (37u64, 60usize);
    for model in MODELS {
        let g = graph(300, 4, model);
        if model == DiffusionModel::IndependentCascade {
            assert!(
                (0..g.num_vertices()).all(|v| matches!(g.in_probs(v), RowProbs::Same(_))),
                "weighted cascade keeps one probability per vertex"
            );
        }
        let mut scratch = RrrScratch::new(g.num_vertices());
        let reference: Vec<Vec<Vertex>> = (first..first + count as u64)
            .map(|i| vertex_keyed_rrr(&g, model, &factory, i, &mut scratch))
            .collect();
        for size in [1u32, 2, 3, 4] {
            let world = ThreadWorld::new(size);
            let per_rank = world.run(|comm| {
                let shard = VertexCutShard::extract(&g, comm.rank(), comm.size());
                let mut out = RrrCollection::new();
                let mut stats = ExchangeStats::default();
                sample_batch_sharded(
                    comm, &shard, model, &factory, first, count, &mut out, &mut stats,
                );
                (comm.rank(), out)
            });
            // A batch is homed by global index, not by its offset in the
            // batch.
            for (rank, collection) in per_rank {
                let mine: Vec<u64> = (first..first + count as u64)
                    .filter(|i| i % u64::from(size) == u64::from(rank))
                    .collect();
                assert_eq!(collection.len(), mine.len());
                for (slot, &index) in mine.iter().enumerate() {
                    assert_eq!(
                        collection.get(slot),
                        reference[(index - first) as usize].as_slice(),
                        "{model}: size {size}, sample {index}"
                    );
                }
            }
        }
    }
}

#[test]
fn partitioned_imm_seed_set_independent_of_rank_count() {
    for model in MODELS {
        let g = graph(300, 4, model);
        let p = ImmParams::new(5, 0.5, model, 23);
        let single = imm_sharded(&SelfComm::new(), &g, &p);
        assert_eq!(single.seeds.len(), 5, "{model}");
        for size in [2u32, 3, 4] {
            let world = ThreadWorld::new(size);
            let results = world.run(|comm| imm_sharded(comm, &g, &p));
            for r in &results {
                assert_eq!(r.seeds, single.seeds, "{model} world {size}");
                assert_eq!(r.theta, single.theta, "{model} world {size}");
            }
        }
    }
}

#[test]
fn storage_backends_match_flat_at_any_rank_count() {
    let model = DiffusionModel::LinearThreshold;
    let g = graph(300, 4, model);
    let p = ImmParams::new(5, 0.5, model, 23);
    let flat = imm_sharded(&SelfComm::new(), &g, &p);
    // The spill kind under its default budget and a tiny one.
    for budget in [None, Some(4096)] {
        let storage = StorageConfig {
            kind: RrrStoreKind::Spill,
            budget,
        };
        let single = imm_sharded_with_storage(&SelfComm::new(), &g, &p, storage);
        assert_eq!(single.seeds, flat.seeds, "{budget:?} single rank");
        assert_eq!(single.theta, flat.theta, "{budget:?} single rank");
        let world = ThreadWorld::new(3);
        let results = world.run(|comm| imm_sharded_with_storage(comm, &g, &p, storage));
        for r in &results {
            assert_eq!(r.seeds, flat.seeds, "{budget:?} world 3");
            assert_eq!(r.theta, flat.theta, "{budget:?} world 3");
        }
    }
}

#[test]
fn per_rank_graph_memory_shrinks_with_ranks() {
    let model = DiffusionModel::IndependentCascade;
    let g = graph(500, 8, model);
    let full = VertexCutShard::extract(&g, 0, 1).resident_bytes();
    let p = ImmParams::new(3, 0.5, model, 2);
    let mut previous = usize::MAX;
    for size in [1u32, 2, 4] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        let largest = results.iter().map(|r| r.memory.graph_bytes).max().unwrap();
        assert!(
            largest < previous,
            "{size} ranks: largest shard {largest} did not shrink from {previous}"
        );
        previous = largest;
    }
    assert!(
        previous * 2 < full,
        "4 ranks: largest shard {previous} of full {full}"
    );
}
