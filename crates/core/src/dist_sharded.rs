//! Distributed IMM over a **vertex-cut sharded graph** with batched
//! asynchronous frontier exchange — the paper's future-work item (i), a
//! graph that is partitioned as well as R.
//!
//! [`crate::dist`] replicates the whole graph on every rank, so the graph
//! caps the input size. This engine shards it by *edge*
//! ([`ripples_graph::partition::VertexCutShard`]), so that no hub vertex
//! pins its whole in-list to one rank: the global in-edge order
//! is split into `p` equal contiguous ranges, a vertex whose in-list
//! straddles a boundary is mirrored on the (contiguous) interval of ranks
//! holding its chunks, and the ghost table routes frontier crossings
//! without any lookup traffic.
//!
//! Sampling runs in **blocks** of [`BLOCK_SAMPLES`] cascades:
//!
//! 1. Within a block, RRR walks expand chunk-locally; vertices whose
//!    remaining in-edges live elsewhere are exchanged with their mirror
//!    ranks in one batched `alltoallv` per BFS round (a header element per
//!    sender carries the round's global discovery count, so termination
//!    needs no extra collective).
//! 2. Discovered members are *not* gathered synchronously: each block's
//!    member records are posted as a nonblocking exchange
//!    ([`Communicator::post_exchange_u64`]) routed to the sample's home
//!    rank, and the engine samples the **next** block while the previous
//!    block's records are in flight, draining them one block later. The
//!    hidden latency is surfaced as `overlap_nanos`.
//!
//! Coin flips are keyed by `(sample, vertex)` and chunk expansion replays
//! the exact per-edge draw sequence of the sequential reference
//! ([`ripples_diffusion::partitioned::expand_shard_chunk`]), so the
//! generated collection — and therefore the seed set — is **bitwise
//! identical** to the sequential vertex-keyed reference
//! ([`ripples_diffusion::partitioned::vertex_keyed_rrr`]) at every rank
//! count (tested below).

use crate::dist::{globalize_max, run_imm_ranked, RankSampler};
use crate::obs::{Metric, RunReport};
use crate::params::ImmParams;
use crate::result::ImmResult;
use ripples_comm::Communicator;
use ripples_diffusion::partitioned::{expand_shard_chunk, sample_root, sample_stream_seed};
use ripples_diffusion::{BatchOutcome, DiffusionModel, DynRrrStore, RrrStore, StorageConfig};
use ripples_graph::partition::VertexCutShard;
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::collections::HashSet;
use std::time::Instant;

/// Cascades sampled per pipeline block: large enough to amortize the
/// per-round collective, small enough that two blocks of member records
/// stay cheap to hold while one exchange is in flight.
pub const BLOCK_SAMPLES: usize = 256;

/// Per-rank tallies of the sharded engine's exchange pipeline. The batched
/// `alltoallv` exchanges it issues (frontier rounds + posted member
/// routings) are sampling counters, so [`BatchOutcome::frontier_exchanges`]
/// counts them: identical on every rank, since the collective sequence is
/// lockstep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Nanoseconds between posting a block's member exchange and waiting on
    /// it — latency hidden behind the next block's local sampling.
    pub overlap_nanos: u64,
}

/// Encodes a `(block-relative sample offset, vertex)` routing pair.
#[inline]
fn encode(offset: usize, v: Vertex) -> u64 {
    ((offset as u64) << 32) | u64::from(v)
}

#[inline]
fn decode(x: u64) -> (usize, Vertex) {
    ((x >> 32) as usize, (x & 0xFFFF_FFFF) as Vertex)
}

/// One block whose member-routing exchange has been posted but not drained.
struct PendingBlock {
    /// Offset of the block's first sample within the batch.
    block_first: usize,
    /// Per-sample member accumulators (pre-seeded with the root for samples
    /// homed on this rank; empty for the rest).
    buckets: Vec<Vec<Vertex>>,
    /// In-edges this rank examined expanding the block.
    work: u64,
    handle: ripples_comm::ExchangeHandle,
    posted: Instant,
}

/// Expands one block of cascades chunk-locally, exchanging frontier
/// crossings with mirror ranks each round, each counted in `outcome`.
/// Returns the member records routed per home rank, the home-sample
/// accumulators, and the local edge work.
#[allow(clippy::too_many_arguments)]
fn expand_block<C: Communicator>(
    comm: &C,
    shard: &VertexCutShard,
    model: DiffusionModel,
    factory: &StreamFactory,
    batch_first: u64,
    block_first: usize,
    block_len: usize,
    outcome: &mut BatchOutcome,
) -> (Vec<Vec<u64>>, Vec<Vec<Vertex>>, u64) {
    let size = comm.size() as usize;
    let rank = u64::from(comm.rank());
    let n = shard.num_vertices();
    // Per-sample state on this rank: chunks already expanded, vertices
    // already routed (membership + frontier), and the home accumulators.
    let mut visited: Vec<HashSet<Vertex>> = vec![HashSet::new(); block_len];
    let mut announced: Vec<HashSet<Vertex>> = vec![HashSet::new(); block_len];
    let mut buckets: Vec<Vec<Vertex>> = vec![Vec::new(); block_len];
    let mut member_sends: Vec<Vec<u64>> = vec![Vec::new(); size];
    let mut seeds: Vec<u64> = Vec::with_capacity(block_len);

    // Round 0: roots are a pure function of the sample index, so every rank
    // derives them locally — the home rank records membership, the chunk
    // holders seed their frontier. No communication.
    let mut incoming: Vec<u64> = Vec::new();
    for offset in 0..block_len {
        let index = batch_first + (block_first + offset) as u64;
        seeds.push(sample_stream_seed(factory, index));
        let root = sample_root(factory, index, n);
        if index % size as u64 == rank {
            buckets[offset].push(root);
        }
        announced[offset].insert(root);
        if shard.chunk(root).is_some() {
            incoming.push(encode(offset, root));
        }
    }

    let mut work = 0u64;
    let mut expansion: Vec<Vertex> = Vec::new();
    loop {
        // Element 0 of every outgoing list is this rank's total frontier
        // entries this round (replicated per peer): receivers sum the
        // headers to agree on global termination without a second
        // collective.
        let mut sends: Vec<Vec<u64>> = vec![vec![0u64]; size];
        let mut outgoing = 0u64;
        for &enc in &incoming {
            let (offset, v) = decode(enc);
            if !visited[offset].insert(v) {
                continue; // chunk already expanded for this sample
            }
            expansion.clear();
            let chunk = shard
                .chunk(v)
                .expect("frontier routed to a rank holding no chunk");
            work += expand_shard_chunk(model, seeds[offset], v, chunk, &mut expansion);
            for &u in &expansion {
                if !announced[offset].insert(u) {
                    continue; // this rank already routed u for this sample
                }
                let enc_u = encode(offset, u);
                let index = batch_first + (block_first + offset) as u64;
                member_sends[(index % size as u64) as usize].push(enc_u);
                for r in shard.mirror_ranks(u) {
                    sends[r as usize].push(enc_u);
                    outgoing += 1;
                }
            }
        }
        for list in &mut sends {
            list[0] = outgoing;
        }
        let received = comm.alltoallv_u64(&sends);
        outcome.add_frontier_exchange();
        // A rank declared dead is neutralized into empty send lists by the
        // fault layer — read its header as 0 so the survivors' sum still
        // terminates the round loop.
        let total: u64 = received
            .iter()
            .map(|list| list.first().copied().unwrap_or(0))
            .sum();
        if total == 0 {
            break;
        }
        incoming.clear();
        for list in &received {
            if let Some(entries) = list.get(1..) {
                incoming.extend_from_slice(entries);
            }
        }
    }
    (member_sends, buckets, work)
}

/// Drains a posted member exchange into its block's home accumulators,
/// pushes the finished samples (sorted, deduplicated) in index order, and
/// adds them and the block's edge work to `outcome`.
fn drain_block<C: Communicator, S: RrrStore>(
    comm: &C,
    block: PendingBlock,
    batch_first: u64,
    stats: &mut ExchangeStats,
    out: &mut S,
    outcome: &mut BatchOutcome,
) {
    let size = u64::from(comm.size());
    let rank = u64::from(comm.rank());
    stats.overlap_nanos += u64::try_from(block.posted.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let received = comm.wait_exchange(block.handle);
    let mut buckets = block.buckets;
    for list in received {
        for enc in list {
            let (offset, v) = decode(enc);
            buckets[offset].push(v);
        }
    }
    let mut sizes = Vec::new();
    for (offset, mut members) in buckets.into_iter().enumerate() {
        let index = batch_first + (block.block_first + offset) as u64;
        if index % size != rank {
            continue;
        }
        members.sort_unstable();
        members.dedup();
        out.push(&members);
        sizes.push(members.len());
    }
    outcome.add(sizes, block.work);
}

/// Generates samples `first .. first+count` over the sharded graph,
/// pipelining each block's member routing behind the next block's
/// sampling. This rank's *home* samples (`index % size == rank`) land in
/// `out` in index order — the exact layout the replicated engine
/// produces — and the outcome holds them, the local edge work and the
/// frontier exchanges.
#[allow(clippy::too_many_arguments)]
pub fn sample_batch_sharded<C: Communicator, S: RrrStore>(
    comm: &C,
    shard: &VertexCutShard,
    model: DiffusionModel,
    factory: &StreamFactory,
    first: u64,
    count: usize,
    out: &mut S,
    stats: &mut ExchangeStats,
) -> BatchOutcome {
    let mut outcome = BatchOutcome::default();
    let mut inflight: Option<PendingBlock> = None;
    let mut block_first = 0usize;
    while block_first < count {
        let block_len = BLOCK_SAMPLES.min(count - block_first);
        let (member_sends, buckets, work) = expand_block(
            comm,
            shard,
            model,
            factory,
            first,
            block_first,
            block_len,
            &mut outcome,
        );
        // Post this block's member routing, then drain the previous
        // block's — which has been in flight for the whole expansion above.
        if let Some(prev) = inflight.take() {
            drain_block(comm, prev, first, stats, out, &mut outcome);
        }
        let posted = Instant::now();
        let handle = comm.post_exchange_u64(&member_sends);
        outcome.add_frontier_exchange();
        inflight = Some(PendingBlock {
            block_first,
            buckets,
            work,
            handle,
            posted,
        });
        block_first += block_len;
    }
    if let Some(last) = inflight {
        drain_block(comm, last, first, stats, out, &mut outcome);
    }
    outcome
}

/// The vertex-cut sampler: [`sample_batch_sharded`] over this rank's
/// [`VertexCutShard`], tallying the exchange machinery as it goes.
struct ShardedSampler {
    shard: VertexCutShard,
    model: DiffusionModel,
    factory: StreamFactory,
    stats: ExchangeStats,
}

impl RankSampler for ShardedSampler {
    fn sample<C: Communicator>(
        &mut self,
        comm: &C,
        first: u64,
        count: usize,
        out: &mut DynRrrStore,
    ) -> BatchOutcome {
        sample_batch_sharded(
            comm,
            &self.shard,
            self.model,
            &self.factory,
            first,
            count,
            out,
            &mut self.stats,
        )
    }

    fn graph_bytes(&self) -> usize {
        self.shard.resident_bytes()
    }

    /// Sharding headline counters: max-reduce both agrees across ranks
    /// (the exchange sequence is lockstep) and neutralizes zombie ranks.
    fn finish<C: Communicator>(&self, comm: &C, report: &mut RunReport) {
        let exchanges = report.counters.frontier_exchanges;
        let mut max = |metric, local| globalize_max(comm, report, metric, local);
        max(Metric::GraphBytesPeak, self.shard.resident_bytes() as u64);
        max(Metric::FrontierExchanges, exchanges);
        max(Metric::OverlapNanos, self.stats.overlap_nanos);
    }
}

/// Full IMM over a vertex-cut sharded graph: block-pipelined cooperative
/// sampling + the standard distributed (batched recount) seed selection
/// over home samples.
///
/// Each rank needs only its shard for sampling; the full `graph` argument
/// exists because the experiments hold it anyway (a production deployment
/// would load per-rank edge sub-lists directly).
#[must_use]
pub fn imm_sharded<C: Communicator>(comm: &C, graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_sharded_with_storage(comm, graph, params, StorageConfig::default())
}

/// [`imm_sharded`] over an explicit RRR storage backend (CLI
/// `--rrr-budget`); the seed set is identical at every rank count and for
/// every backend.
#[must_use]
pub fn imm_sharded_with_storage<C: Communicator>(
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    storage: StorageConfig,
) -> ImmResult {
    let shard = VertexCutShard::extract(graph, comm.rank(), comm.size());
    let sampler = ShardedSampler {
        shard,
        model: params.model,
        factory: StreamFactory::new(params.seed),
        stats: ExchangeStats::default(),
    };
    run_imm_ranked("sharded", comm, graph, params, storage, sampler)
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
    fn sharded_sampling_matches_reference_bitwise() {
        let g = graph();
        let factory = StreamFactory::new(404);
        let count = 60usize;
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let mut scratch = RrrScratch::new(g.num_vertices());
            let reference: Vec<Vec<Vertex>> = (0..count as u64)
                .map(|i| vertex_keyed_rrr(&g, model, &factory, i, &mut scratch))
                .collect();
            for size in [1u32, 2, 3, 4] {
                let world = ThreadWorld::new(size);
                let per_rank = world.run(|comm| {
                    let shard = VertexCutShard::extract(&g, comm.rank(), comm.size());
                    let mut out = RrrCollection::new();
                    let mut stats = ExchangeStats::default();
                    sample_batch_sharded(
                        comm, &shard, model, &factory, 0, count, &mut out, &mut stats,
                    );
                    (comm.rank(), out)
                });
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
    fn sharded_pipelines_across_blocks() {
        // More samples than one block forces the post → sample-next →
        // drain pipeline through its steady state.
        let g = graph();
        let factory = StreamFactory::new(11);
        let count = BLOCK_SAMPLES * 2 + 17;
        let model = DiffusionModel::IndependentCascade;
        let mut scratch = RrrScratch::new(g.num_vertices());
        let reference: Vec<Vec<Vertex>> = (0..count as u64)
            .map(|i| vertex_keyed_rrr(&g, model, &factory, i, &mut scratch))
            .collect();
        let world = ThreadWorld::new(2);
        let per_rank = world.run(|comm| {
            let shard = VertexCutShard::extract(&g, comm.rank(), comm.size());
            let mut out = RrrCollection::new();
            let mut stats = ExchangeStats::default();
            let outcome = sample_batch_sharded(
                comm, &shard, model, &factory, 0, count, &mut out, &mut stats,
            );
            assert!(outcome.frontier_exchanges > 3, "pipeline never exchanged");
            (comm.rank(), out)
        });
        for (rank, collection) in per_rank {
            let mine: Vec<usize> = (0..count).filter(|i| i % 2 == rank as usize).collect();
            assert_eq!(collection.len(), mine.len());
            for (slot, &index) in mine.iter().enumerate() {
                assert_eq!(collection.get(slot), reference[index].as_slice());
            }
        }
    }

    #[test]
    fn sharded_imm_seed_set_independent_of_rank_count() {
        // Every rank count flips the same (sample, vertex) coins, so seeds
        // and θ agree exactly with the single-rank run.
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let lt = model == DiffusionModel::LinearThreshold;
            let g = erdos_renyi(200, 1600, WeightModel::UniformRandom { seed: 7 }, lt, 61);
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

    /// Draws each home sample (`index % size == rank`) with the sequential
    /// partitioned-sampling reference, [`vertex_keyed_rrr`], over the whole
    /// graph: the anchor the sharded traversal must reproduce.
    struct ReferenceSampler<'a> {
        graph: &'a Graph,
        model: DiffusionModel,
        factory: StreamFactory,
        scratch: RrrScratch,
    }

    impl RankSampler for ReferenceSampler<'_> {
        fn sample<C: Communicator>(
            &mut self,
            comm: &C,
            first: u64,
            count: usize,
            out: &mut DynRrrStore,
        ) -> BatchOutcome {
            let (rank, size) = (u64::from(comm.rank()), u64::from(comm.size()));
            let mut outcome = BatchOutcome::default();
            for index in (first..first + count as u64).filter(|i| i % size == rank) {
                let s = vertex_keyed_rrr(
                    self.graph,
                    self.model,
                    &self.factory,
                    index,
                    &mut self.scratch,
                );
                outcome.add([s.len()], 0);
                out.push(&s);
            }
            outcome
        }

        fn graph_bytes(&self) -> usize {
            self.graph.resident_bytes()
        }
    }

    #[test]
    fn sharded_imm_matches_partitioned_bitwise() {
        // IMM over the partitioned-sampling reference flips the same
        // (sample, vertex) coins as the sharded traversal, so seeds and θ
        // agree exactly at every rank count.
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let lt = model == DiffusionModel::LinearThreshold;
            let g = erdos_renyi(200, 1600, WeightModel::UniformRandom { seed: 7 }, lt, 61);
            let p = ImmParams::new(5, 0.5, model, 23);
            let reference = ReferenceSampler {
                graph: &g,
                model,
                factory: StreamFactory::new(p.seed),
                scratch: RrrScratch::new(g.num_vertices()),
            };
            let anchor = run_imm_ranked(
                "reference",
                &SelfComm::new(),
                &g,
                &p,
                StorageConfig::default(),
                reference,
            );
            assert_eq!(anchor.seeds.len(), 5, "{model}");
            for size in [1u32, 2, 3] {
                let world = ThreadWorld::new(size);
                let results = world.run(|comm| imm_sharded(comm, &g, &p));
                for r in &results {
                    assert_eq!(r.seeds, anchor.seeds, "{model} world {size}");
                    assert_eq!(r.theta, anchor.theta, "{model} world {size}");
                }
            }
        }
    }

    #[test]
    fn storage_backends_match_flat_at_any_rank_count() {
        let g = graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 23);
        let flat = imm_sharded(&SelfComm::new(), &g, &p);
        // The spill kind under its default budget and a tiny one.
        for budget in [None, Some(4096)] {
            let storage = StorageConfig {
                kind: RrrStoreKind::Spill,
                budget,
            };
            let single = imm_sharded_with_storage(&SelfComm::new(), &g, &p, storage);
            assert_eq!(single.seeds, flat.seeds, "{budget:?} single rank");
            let world = ThreadWorld::new(2);
            let results = world.run(|comm| imm_sharded_with_storage(comm, &g, &p, storage));
            for r in &results {
                assert_eq!(r.seeds, flat.seeds, "{budget:?} world 2");
                assert_eq!(r.theta, flat.theta, "{budget:?} world 2");
            }
        }
    }

    #[test]
    fn fewer_edges_than_ranks_skips_the_empty_ranks() {
        // Three edges over seven ranks: vertex 1's in-edges sit on ranks 2
        // and 4, and rank 3 between them holds nothing, so a frontier
        // crossing into 1 must not be routed there.
        let mut b = ripples_graph::GraphBuilder::new(4);
        for (u, v) in [(0, 1), (2, 1), (1, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade, 3);
        let single = imm_sharded(&SelfComm::new(), &g, &p);
        for r in ThreadWorld::new(7).run(|comm| imm_sharded(comm, &g, &p)) {
            assert_eq!(r.seeds, single.seeds);
            assert_eq!(r.theta, single.theta);
        }
    }

    #[test]
    fn per_rank_graph_memory_shrinks_with_ranks() {
        let g = erdos_renyi(200, 4000, WeightModel::UniformRandom { seed: 2 }, false, 8);
        let full = VertexCutShard::extract(&g, 0, 1).resident_bytes();
        let world = ThreadWorld::new(4);
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 2);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        for r in results {
            assert!(
                r.memory.graph_bytes * 2 < full,
                "rank holds {} of full {}",
                r.memory.graph_bytes,
                full
            );
            assert!(
                (r.report.counters.graph_bytes_peak as usize) * 2 < full,
                "reported peak {} vs full {}",
                r.report.counters.graph_bytes_peak,
                full
            );
        }
    }

    #[test]
    fn exchange_counters_are_published() {
        let g = graph();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 5);
        let world = ThreadWorld::new(2);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        let first = &results[0];
        assert!(first.report.counters.frontier_exchanges > 0);
        assert!(first.report.counters.graph_bytes_peak > 0);
        let comm = first.report.comm.as_ref().unwrap();
        assert!(comm.exchange_calls > 0, "no exchanges recorded in comm");
        for r in &results {
            assert_eq!(
                r.report.counters.frontier_exchanges, first.report.counters.frontier_exchanges,
                "exchange count diverged across ranks"
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
        let sharded = world.run(|comm| imm_sharded(comm, &g, &p)).pop().unwrap();
        let repl = crate::seq::immopt_sequential(&g, &p);
        let factory = StreamFactory::new(31337);
        let s_sharded = estimate_spread(&g, model, &sharded.seeds, 800, &factory);
        let s_repl = estimate_spread(&g, model, &repl.seeds, 800, &factory);
        let ratio = s_sharded / s_repl.max(1.0);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "sharded quality diverged: {s_sharded} vs {s_repl}"
        );
    }
}
