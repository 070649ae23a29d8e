//! Distributed IMM over a **partitioned input graph** — the paper's future
//! work item (i), implemented: *"extension to settings where the input
//! graph is also partitioned (in addition to R)"*.
//!
//! The published system replicates `G` on every rank; memory per rank is
//! `O(m + θ/p · s̄)`, so the graph itself caps scalability (the paper's
//! OOM-killed Table 2 entries). Here rank `r` stores only the in-edges of
//! its owned vertex interval (`≈ m/p` edges, see
//! [`ripples_diffusion::GraphPartition`]) and RRR sets are generated
//! *cooperatively*:
//!
//! 1. Every sample's root is routed to its owner.
//! 2. Bulk-synchronous rounds: each rank expands the frontier vertices it
//!    owns (coin flips keyed by `(sample, vertex)`, so results are
//!    independent of the partitioning), then exchanges the discovered
//!    vertices with their owners.
//! 3. When the global frontier drains, each sample's fragments are gathered
//!    to its home rank (`sample mod p`), yielding exactly the layout the
//!    replicated distributed engine uses — so seed selection proceeds
//!    unchanged (the batched lazy recount of `dist.rs`).
//!
//! Correctness anchor: for any rank count, the generated collection is
//! **bitwise identical** to the sequential
//! [`ripples_diffusion::partitioned::vertex_keyed_rrr`] reference, and so is
//! the seed set (tested below).

use crate::dist::{run_imm_ranked, RankSampler};
use crate::params::ImmParams;
use crate::result::ImmResult;
use ripples_comm::Communicator;
use ripples_diffusion::partitioned::{sample_root, sample_stream_seed};
use ripples_diffusion::{
    BatchOutcome, DiffusionModel, DynRrrStore, GraphPartition, RrrStore, StorageConfig,
};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::collections::HashSet;

/// Encodes a `(sample offset, vertex)` routing pair.
#[inline]
fn encode(sample: usize, v: Vertex) -> u64 {
    ((sample as u64) << 32) | u64::from(v)
}

#[inline]
fn decode(x: u64) -> (usize, Vertex) {
    ((x >> 32) as usize, (x & 0xFFFF_FFFF) as Vertex)
}

/// Cooperatively generates samples `first .. first+count`, appending this
/// rank's *home* samples (those with `index % size == rank`) to `out` in
/// index order; the outcome holds those samples and the edges examined
/// locally.
pub fn sample_batch_cooperative<C: Communicator, S: RrrStore>(
    comm: &C,
    partition: &GraphPartition,
    model: DiffusionModel,
    factory: &StreamFactory,
    first: u64,
    count: usize,
    out: &mut S,
) -> BatchOutcome {
    let size = comm.size();
    let rank = comm.rank();
    let n = partition.num_vertices;
    // Per-sample state on this rank: owned visited vertices.
    let mut visited: Vec<HashSet<Vertex>> = vec![HashSet::new(); count];
    let mut members: Vec<Vec<Vertex>> = vec![Vec::new(); count];
    let mut seeds: Vec<u64> = Vec::with_capacity(count);
    for offset in 0..count {
        seeds.push(sample_stream_seed(factory, first + offset as u64));
    }

    // Round 0: roots to their owners.
    let mut incoming: Vec<u64> = Vec::new();
    for offset in 0..count {
        let root = sample_root(factory, first + offset as u64, n);
        if partition.owns(root) {
            incoming.push(encode(offset, root));
        }
    }

    let mut local_work = 0u64;
    let mut outbox: Vec<u64> = Vec::new();
    let mut expansion: Vec<Vertex> = Vec::new();
    loop {
        outbox.clear();
        for &enc in &incoming {
            let (offset, v) = decode(enc);
            debug_assert!(partition.owns(v));
            if !visited[offset].insert(v) {
                continue; // already expanded for this sample
            }
            members[offset].push(v);
            expansion.clear();
            local_work += partition.expand(model, seeds[offset], v, &mut expansion);
            // Tag the newly discovered vertices with the sample offset.
            for &u in &expansion {
                outbox.push(encode(offset, u));
            }
        }
        // Global termination check + exchange in one collective.
        let gathered = comm.all_gather_u64_list(&outbox);
        let total: usize = gathered.iter().map(Vec::len).sum();
        if total == 0 {
            break;
        }
        incoming.clear();
        for list in gathered {
            for enc in list {
                let (_, v) = decode(enc);
                if partition.owns(v) {
                    incoming.push(enc);
                }
            }
        }
    }

    // Gather fragments to home ranks.
    let mut fragments: Vec<u64> = Vec::new();
    for (offset, mine) in members.iter().enumerate() {
        for &v in mine {
            fragments.push(encode(offset, v));
        }
    }
    let gathered = comm.all_gather_u64_list(&fragments);
    let mut home_samples: Vec<Vec<Vertex>> = vec![Vec::new(); count];
    for list in gathered {
        for enc in list {
            let (offset, v) = decode(enc);
            if (first + offset as u64) % u64::from(size) == u64::from(rank) {
                home_samples[offset].push(v);
            }
        }
    }
    // Home ranks count their samples, so the ranks' outcomes sum to the
    // batch; edge work is charged where it was examined.
    let mut sizes = Vec::new();
    for (offset, mut sample) in home_samples.into_iter().enumerate() {
        if (first + offset as u64) % u64::from(size) != u64::from(rank) {
            continue;
        }
        sample.sort_unstable();
        sample.dedup();
        out.push(&sample);
        sizes.push(sample.len());
    }
    let mut outcome = BatchOutcome::default();
    outcome.add(sizes, local_work);
    outcome
}

/// The interval-partitioned sampler: [`sample_batch_cooperative`] over this
/// rank's [`GraphPartition`].
struct CooperativeSampler {
    partition: GraphPartition,
    model: DiffusionModel,
    factory: StreamFactory,
}

impl RankSampler for CooperativeSampler {
    fn sample<C: Communicator>(
        &mut self,
        comm: &C,
        first: u64,
        count: usize,
        out: &mut DynRrrStore,
    ) -> BatchOutcome {
        sample_batch_cooperative(
            comm,
            &self.partition,
            self.model,
            &self.factory,
            first,
            count,
            out,
        )
    }

    fn graph_bytes(&self) -> usize {
        self.partition.resident_bytes()
    }
}

/// Full IMM over a partitioned graph: cooperative sampling + the standard
/// distributed (batched recount) seed selection over home samples.
///
/// Each rank needs only `graph`'s slice for sampling; the full `graph`
/// argument exists because the experiments hold it anyway (a production
/// deployment would construct [`GraphPartition`] from per-rank input
/// shards).
#[must_use]
pub fn imm_partitioned<C: Communicator>(comm: &C, graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_partitioned_with_storage(comm, graph, params, StorageConfig::default())
}

/// [`imm_partitioned`] over an explicit RRR storage backend (CLI
/// `--rrr-store` / `--rrr-budget`). Compressed backends store each rank's
/// home samples gap-encoded (or spilled) and select through the
/// decode-on-touch distributed path, so the seed set is identical at every
/// rank count and for every backend.
#[must_use]
pub fn imm_partitioned_with_storage<C: Communicator>(
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    storage: StorageConfig,
) -> ImmResult {
    let sampler = CooperativeSampler {
        partition: GraphPartition::extract(graph, comm.rank(), comm.size()),
        model: params.model,
        factory: StreamFactory::new(params.seed),
    };
    run_imm_ranked("partitioned", comm, graph, params, storage, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_comm::{SelfComm, ThreadWorld};
    use ripples_diffusion::partitioned::vertex_keyed_rrr;
    use ripples_diffusion::rrr::RrrScratch;
    use ripples_diffusion::{RrrCollection, RrrStoreKind};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn graph() -> Graph {
        erdos_renyi(200, 1600, WeightModel::UniformRandom { seed: 7 }, false, 61)
    }

    #[test]
    fn cooperative_sampling_matches_reference_bitwise() {
        let g = graph();
        let factory = StreamFactory::new(404);
        let count = 60usize;
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            // Sequential reference.
            let mut scratch = RrrScratch::new(g.num_vertices());
            let reference: Vec<Vec<Vertex>> = (0..count as u64)
                .map(|i| vertex_keyed_rrr(&g, model, &factory, i, &mut scratch))
                .collect();
            for size in [1u32, 2, 3, 4] {
                let world = ThreadWorld::new(size);
                let per_rank = world.run(|comm| {
                    let partition = GraphPartition::extract(&g, comm.rank(), comm.size());
                    let mut out = RrrCollection::new();
                    sample_batch_cooperative(comm, &partition, model, &factory, 0, count, &mut out);
                    (comm.rank(), out)
                });
                // Reassemble by home-rank ownership (index % size == rank,
                // in index order per rank).
                for (rank, collection) in per_rank {
                    let mine: Vec<usize> = (0..count)
                        .filter(|i| i % size as usize == rank as usize)
                        .collect();
                    assert_eq!(collection.len(), mine.len());
                    for (slot, &index) in mine.iter().enumerate() {
                        assert_eq!(
                            collection.get(slot),
                            reference[index].as_slice(),
                            "{model}: size {size}, sample {index}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_imm_seed_set_independent_of_rank_count() {
        let g = graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 23);
        let single = imm_partitioned(&SelfComm::new(), &g, &p);
        assert_eq!(single.seeds.len(), 5);
        for size in [2u32, 3] {
            let world = ThreadWorld::new(size);
            let results = world.run(|comm| imm_partitioned(comm, &g, &p));
            for r in &results {
                assert_eq!(r.seeds, single.seeds, "world {size}");
                assert_eq!(r.theta, single.theta);
            }
        }
    }

    #[test]
    fn storage_backends_match_flat_at_any_rank_count() {
        let g = graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 23);
        let flat = imm_partitioned(&SelfComm::new(), &g, &p);
        // The one compressed store, resident and forced to disk.
        for budget in [None, Some(4096)] {
            let storage = StorageConfig {
                kind: RrrStoreKind::Spill,
                budget,
            };
            let single = imm_partitioned_with_storage(&SelfComm::new(), &g, &p, storage);
            assert_eq!(single.seeds, flat.seeds, "{budget:?} single rank");
            assert_eq!(single.theta, flat.theta, "{budget:?} single rank");
            let world = ThreadWorld::new(2);
            let results = world.run(|comm| imm_partitioned_with_storage(comm, &g, &p, storage));
            for r in &results {
                assert_eq!(r.seeds, flat.seeds, "{budget:?} world 2");
                assert_eq!(r.theta, flat.theta, "{budget:?} world 2");
            }
        }
    }

    #[test]
    fn per_rank_graph_memory_shrinks_with_ranks() {
        let g = graph();
        let full = GraphPartition::extract(&g, 0, 1).resident_bytes();
        let world = ThreadWorld::new(4);
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 2);
        let results = world.run(|comm| imm_partitioned(comm, &g, &p));
        for r in results {
            assert!(
                r.memory.graph_bytes * 2 < full,
                "rank holds {} of full {}",
                r.memory.graph_bytes,
                full
            );
        }
    }

    #[test]
    fn quality_parity_with_replicated_engine() {
        use ripples_diffusion::estimate_spread;
        let g = graph();
        let model = DiffusionModel::IndependentCascade;
        let p = ImmParams::new(5, 0.5, model, 9);
        let world = ThreadWorld::new(2);
        let part = world
            .run(|comm| imm_partitioned(comm, &g, &p))
            .pop()
            .unwrap();
        let repl = crate::seq::immopt_sequential(&g, &p);
        let factory = StreamFactory::new(31337);
        let s_part = estimate_spread(&g, model, &part.seeds, 800, &factory);
        let s_repl = estimate_spread(&g, model, &repl.seeds, 800, &factory);
        let ratio = s_part / s_repl.max(1.0);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "partitioned quality diverged: {s_part} vs {s_repl}"
        );
    }
}
