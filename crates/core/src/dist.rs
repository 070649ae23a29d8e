//! The distributed-memory IMM implementation — "IMMdist" in Table 3, the
//! subject of Figures 7 and 8 — written against the
//! [`ripples_comm::Communicator`] abstraction (§3.2 of the paper).
//!
//! Design:
//!
//! * Every rank holds the **entire input graph** and generates a distinct
//!   batch of `θ/p` samples ("evenly partitioning the samples to be
//!   generated among the p ranks"), as the paper does.
//! * Seed selection is the lazy greedy of shared memory, run in lockstep:
//!   every rank holds the same heap of bounds, built from one
//!   **All-Reduce** of the `n` local degrees; each round recounts the heap's
//!   top 32 entries against each rank's own samples and All-Reduces the 32
//!   sums. The paper instead All-Reduces all `n` counters after every seed,
//!   `O(k · n · lg p)` communication; the recount moves `n` counters once
//!   per pass and 32 per round, about 190× fewer bytes at k = 200
//!   (EXPERIMENTS.md § "Distributed selection by batched recount").
//!   Figures 7 and 8 still price the paper's dense term (`scaling.rs`):
//!   that is the reproduced object, while this module executes the recount.
//! * Sample indices are global, so the union of all ranks' samples is
//!   *identical* to a sequential run's collection, and therefore so is the
//!   seed set — the cross-implementation equivalence the test suite checks.
//!
//! Everything the two communicator engines share lives here as
//! `RankEngine`: the per-rank store, the distributed selection and the
//! report's cross-rank reductions. An engine supplies only a
//! `RankSampler` — how one rank produces its share of a batch.
//!
//! The engines call their collectives on the communicator they are handed
//! and wrap nothing around it. Robustness is the caller's choice of
//! communicator: over a [`ripples_comm::FaultComm`] a transient fault is
//! retried before the collective returns, and a rank declared dead shows up
//! here only as [`ripples_comm::CommHealth::dead_ranks`], which selection
//! reads to judge coverage against the samples the survivors hold.

use crate::driver::{record_batch, record_store_counters, run_imm, Engine};
use crate::memory::MemoryStats;
use crate::obs::metrics::{Metric, Reduce};
use crate::obs::{Histogram, RunReport};
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::select::{
    coverage_of, lazy_greedy, nanos_since, uses_index, with_index, IndexCover, LocalCover, Peers,
    SelectEngine, SelectStats, Selection,
};
use ripples_comm::{CommStats, Communicator};
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{BatchOutcome, DiffusionModel, DynRrrStore, RrrStore, StorageConfig};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::time::Instant;

/// Global sample indices owned by `rank` within `[0, total)`: the strided
/// (round-robin) partition `{ i : i ≡ rank (mod size) }`.
///
/// Strided ownership is *append-only under growth*: when θ grows from `t` to
/// `t′`, a rank's new indices are exactly its stride within `[t, t′)`, so
/// the estimation loop's repeated top-ups never invalidate earlier local
/// samples — the same reason the paper leap-frogs its RNG streams.
fn strided_indices(total: usize, rank: u32, size: u32) -> impl Iterator<Item = u64> {
    let size = u64::from(size);
    let rank = u64::from(rank);
    (0..total as u64).filter(move |i| i % size == rank)
}

/// Heap entries every rank recounts per selection round, and so `u64`s per
/// all-reduce. One constant for every world size, so the collective
/// sequence — its calls and their lengths — is a property of the algorithm,
/// not of the placement. 32 keeps rounds at 1.0–2.2 per seed on sparse
/// sets at k = 200 and on dense ones at k = 20; dense sets at k = 8 take
/// 6.8 (EXPERIMENTS.md § "Distributed selection by batched recount").
const RECOUNT_BATCH: usize = 32;

/// Distributed greedy seed selection over each rank's local samples: the
/// lazy greedy of shared memory (`select::lazy_greedy`), with the heap's
/// initial bounds and every round's batch of recounts summed by one
/// All-Reduce each.
///
/// The seeds and coverage of the returned [`Selection`] are identical on
/// every rank, and bitwise a sequential run's over the union of the
/// samples; the [`SelectStats`] are this rank's. A rank recounts from its
/// inverted index when the cost model says its O(E) construction amortizes
/// over the pass, and from local counters, decremented as the seeds cover
/// its samples, otherwise. A recount is the same number either way, so
/// ranks may disagree on the choice (the model reads per-rank sizes)
/// without diverging — the collective sequence does not depend on it.
pub(crate) fn select_seeds_distributed<C: Communicator, S: RrrStore>(
    comm: &C,
    local: &S,
    theta_global: usize,
    n: u32,
    k: u32,
) -> (Selection, SelectStats) {
    // A heap key holds a count in 32 bits, and a count is at most θ.
    assert!(
        theta_global < u32::MAX as usize,
        "{theta_global} samples are past the selection heap's 32-bit counts"
    );
    let banned = vec![false; n as usize];
    let greedy = |cover: &mut dyn LocalCover, bounds| {
        let peers = Peers {
            batch: RECOUNT_BATCH,
            reduce: |buf: &mut [u64]| comm.all_reduce_sum_u64(buf),
            counts_steps: comm.rank() == 0,
        };
        lazy_greedy(cover, bounds, k as usize, &banned, peers)
    };
    let (seeds, gains, stats) = if uses_index(SelectEngine::Auto, local, k) {
        // `DynRrrStore` keeps the index across θ rounds, whatever its layout.
        with_index(local, n, 1, |index, build| {
            let mut cover = IndexCover::new(index);
            let bounds = cover.degrees();
            let (seeds, gains, mut stats) = greedy(&mut cover, bounds);
            stats.absorb(build);
            (seeds, gains, stats)
        })
    } else {
        let mut cover = CounterCover::new(local, n);
        let bounds = cover.counts.clone();
        let (seeds, gains, mut stats) = greedy(&mut cover, bounds);
        // Flat slices need no decoding.
        if local.as_flat().is_none() {
            stats.decode_nanos = cover.decode_nanos;
        }
        (seeds, gains, stats)
    };
    // Degraded runs: dead ranks' samples are gone from every collective, so
    // coverage must be judged against the samples the surviving ranks
    // actually hold, not the nominal θ — and counted on them too, since a
    // gain summed before a rank died counted its samples. The dead-rank set
    // is identical on every rank (lockstep fault decisions), so this extra
    // collective is taken — or skipped — uniformly. Fault-free, every rank
    // summed each gain over every rank's samples, so coverage is their sum.
    let (covered, theta_eff) = if comm.health().dead_ranks.is_empty() {
        (gains.iter().sum::<u64>() as usize, theta_global)
    } else {
        let mut held = [coverage_of(local, &seeds) as u64, local.len() as u64];
        comm.all_reduce_sum_u64(&mut held);
        (held[0] as usize, held[1] as usize)
    };
    (Selection::finish(seeds, gains, covered, theta_eff), stats)
}

/// A rank's [`LocalCover`] without an index: one counter per vertex of the
/// held samples no seed covers yet, and one covered flag per sample. A
/// recount reads its counter; covering probes every alive sample and
/// decrements the counters of each one it covers, whose entries are the
/// entries it reads.
struct CounterCover<'a, S> {
    store: &'a S,
    counts: Vec<u64>,
    covered: Vec<bool>,
    decode_nanos: u64,
}

impl<'a, S: RrrStore> CounterCover<'a, S> {
    /// Counts every vertex over the held samples: one sweep.
    fn new(store: &'a S, n: u32) -> Self {
        let t0 = Instant::now();
        let mut counts = vec![0u64; n as usize];
        for j in 0..store.len() {
            store.for_each_vertex(j, |u| counts[u as usize] += 1);
        }
        let covered = vec![false; store.len()];
        let decode_nanos = nanos_since(t0);
        CounterCover {
            store,
            counts,
            covered,
            decode_nanos,
        }
    }
}

impl<S: RrrStore> LocalCover for CounterCover<'_, S> {
    fn recount(&mut self, v: Vertex) -> (u64, u64) {
        (self.counts[v as usize], 0)
    }

    fn cover(&mut self, v: Vertex) -> u64 {
        let t0 = Instant::now();
        let (store, counts) = (self.store, &mut self.counts);
        let mut read = 0u64;
        for (j, cov) in self.covered.iter_mut().enumerate() {
            if !*cov && store.contains(j, v) {
                *cov = true;
                read += store.sample_len(j) as u64;
                store.for_each_vertex(j, |u| counts[u as usize] -= 1);
            }
        }
        self.decode_nanos += nanos_since(t0);
        read
    }
}

/// Merges one rank's local histogram into the identical global histogram on
/// every rank: the summable state travels in one All-Reduce, the maximum in
/// one max-reduce. Must be called collectively.
pub(crate) fn globalize_histogram<C: Communicator>(comm: &C, hist: &mut Histogram) {
    let mut flat = hist.to_flat();
    comm.all_reduce_sum_u64(&mut flat);
    let max = comm.all_reduce_max_f64(hist.max() as f64) as u64;
    hist.set_from_flat(&flat, max);
}

/// Replaces this rank's local value of every report row the catalog
/// declares `Reduce::Sum` with the global sum — one All-Reduce, the rows in
/// table order — and merges the RRR-size histogram, so every rank, at every
/// world size, reports the same values. Must be called collectively.
pub(crate) fn globalize_counters<C: Communicator>(comm: &C, report: &mut RunReport) {
    let summed = || {
        Metric::ALL
            .into_iter()
            .filter(|m| m.row().reduce == Reduce::Sum)
    };
    let mut buf: Vec<u64> = summed().filter_map(|m| report.counters.get(m)).collect();
    comm.all_reduce_sum_u64(&mut buf);
    for (metric, total) in summed().zip(buf) {
        *report.counters.get_mut(metric).expect("a report row") = total;
    }
    globalize_histogram(comm, &mut report.rrr_sizes);
}

/// Max-reduces `local` over the ranks into the report's `metric`, a row the
/// catalog declares `Reduce::Max`: a value that lockstep makes identical on
/// every live rank, or a true per-rank maximum. Either way the reduction
/// agrees across ranks and neutralizes zombie (dead-rank) contributions,
/// which arrive as `NEG_INFINITY`. Must be called collectively.
pub(crate) fn globalize_max<C: Communicator>(
    comm: &C,
    report: &mut RunReport,
    metric: Metric,
    local: u64,
) {
    debug_assert_eq!(metric.row().reduce, Reduce::Max, "{}", metric.name());
    *report.counters.get_mut(metric).expect("a report row") =
        comm.all_reduce_max_f64(local as f64).max(0.0) as u64;
}

/// Publishes the comm stack's fault/retry health into the report's global
/// counters. Must be called collectively — including on reliable fabrics,
/// where it reduces zeros — so every engine issues the same collective
/// sequence at every fault rate.
pub(crate) fn globalize_health<C: Communicator>(comm: &C, report: &mut RunReport) {
    let health = comm.health();
    let mut max = |metric, local| globalize_max(comm, report, metric, local);
    max(Metric::Retries, health.retries);
    max(Metric::DroppedOps, health.dropped_ops);
    max(Metric::DegradedRanks, health.dead_ranks.len() as u64);
}

/// How one rank of a communicator engine produces its share of a batch.
pub(crate) trait RankSampler {
    /// Generates global samples `first .. first + count` together with the
    /// other ranks and appends this rank's share to `out` in index order;
    /// returns what this rank added and examined.
    fn sample<C: Communicator>(
        &mut self,
        comm: &C,
        first: u64,
        count: usize,
        out: &mut DynRrrStore,
    ) -> BatchOutcome;

    /// Resident bytes of the graph (or graph share) this rank samples from.
    fn graph_bytes(&self) -> usize;

    /// Engine-specific report counters; a collective, called on every rank
    /// after the shared reductions.
    fn finish<C: Communicator>(&self, _comm: &C, _report: &mut RunReport) {}
}

/// One rank of a communicator engine: its share of the population in a
/// [`DynRrrStore`], [`select_seeds_distributed`] over it, and the report's
/// cross-rank reductions.
struct RankEngine<'a, C: Communicator, P> {
    comm: &'a C,
    sampler: P,
    store: DynRrrStore,
    /// Global population size (the sum of every rank's share).
    held: usize,
    n: u32,
    comm_before: CommStats,
}

impl<C: Communicator, P: RankSampler> Engine for RankEngine<'_, C, P> {
    fn grow_to(&mut self, total: usize, report: &mut RunReport) {
        let mut outcome = self.sampler.sample(
            self.comm,
            self.held as u64,
            total - self.held,
            &mut self.store,
        );
        // The samplers push one sample at a time; the batch's end gives the
        // store's growth slack back and lets its index absorb the batch.
        self.store.finish_batch();
        self.held = total;
        // One "worker" per rank: the batch lands wholly on this rank.
        outcome.per_worker_samples = vec![outcome.set_sizes.count()];
        // Local counters; `finish` globalizes them once at the end.
        record_batch(report, &outcome);
    }

    fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    fn graph_bytes(&self) -> usize {
        self.sampler.graph_bytes()
    }

    fn select(&mut self, k: u32) -> (Selection, SelectStats) {
        select_seeds_distributed(self.comm, &self.store, self.held, self.n, k)
    }

    fn finish(&mut self, report: &mut RunReport) {
        record_store_counters(report, &self.store);
        globalize_counters(self.comm, report);
        globalize_health(self.comm, report);
        self.sampler.finish(self.comm, report);
        report.comm = Some(CommStats::delta(&self.comm_before, &self.comm.stats()));
        if crate::obs::trace::enabled() {
            // Collective: every rank contributes its timeline and every rank
            // receives the same rank-tagged merge.
            report.trace = Some(crate::obs::trace::gather_trace(self.comm));
        }
    }
}

/// Runs IMM on this rank of a communicator engine; must be called
/// collectively with identical `graph`, `params` and `storage`.
pub(crate) fn run_imm_ranked<C: Communicator, P: RankSampler>(
    label: &str,
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    storage: StorageConfig,
    sampler: P,
) -> ImmResult {
    // Tag this rank thread's event ring so the merged trace shows one
    // process track per rank.
    crate::obs::trace::set_thread_rank(comm.rank());
    let n = graph.num_vertices();
    let footprint = MemoryStats {
        // The selection heap: one `u64` per vertex.
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        ..MemoryStats::default()
    };
    let mut engine = RankEngine {
        comm,
        sampler,
        store: DynRrrStore::new(storage, n),
        held: 0,
        n,
        comm_before: comm.stats(),
    };
    run_imm(label, graph, params, footprint, &mut engine)
}

/// The replicated-graph sampler: this rank's stride of every batch, one
/// sample at a time through `generate_rrr`.
struct ReplicatedSampler<'a> {
    graph: &'a Graph,
    model: DiffusionModel,
    factory: StreamFactory,
    scratch: RrrScratch,
}

impl RankSampler for ReplicatedSampler<'_> {
    fn sample<C: Communicator>(
        &mut self,
        comm: &C,
        first: u64,
        count: usize,
        out: &mut DynRrrStore,
    ) -> BatchOutcome {
        let n = u64::from(self.graph.num_vertices());
        let mut outcome = BatchOutcome::default();
        for index in strided_indices(first as usize + count, comm.rank(), comm.size())
            .skip_while(|&i| i < first)
        {
            let mut rng = self.factory.sample_stream(index);
            let root = rng.bounded_u64(n) as Vertex;
            let s = generate_rrr(self.graph, self.model, root, &mut rng, &mut self.scratch);
            outcome.add([s.vertices.len()], s.edges_examined);
            out.push(&s.vertices);
        }
        outcome
    }

    fn graph_bytes(&self) -> usize {
        self.graph.resident_bytes()
    }
}

/// Runs distributed IMM on this rank. Must be called collectively by every
/// rank of `comm` with identical `graph` and `params`.
///
/// Uses flat storage; see [`imm_distributed_with_storage`] for the
/// others. Sample `i` draws
/// from the stream keyed by `i` whichever rank owns it, so the seeds equal
/// the sequential run's at every world size.
///
/// Returns the (identical) result on every rank.
#[must_use]
pub fn imm_distributed<C: Communicator>(comm: &C, graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_distributed_with_storage(comm, graph, params, StorageConfig::default())
}

/// The distributed entry point with a per-rank RRR storage backend (CLI
/// `--rrr-store` / `--rrr-budget`). Each rank holds its local sample
/// stride in the chosen backend; the selection protocol's recount sums
/// are storage-independent, so seeds match the flat run at every world
/// size.
#[must_use]
pub fn imm_distributed_with_storage<C: Communicator>(
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    storage: StorageConfig,
) -> ImmResult {
    let sampler = ReplicatedSampler {
        graph,
        model: params.model,
        factory: StreamFactory::new(params.seed),
        scratch: RrrScratch::new(graph.num_vertices()),
    };
    run_imm_ranked("dist", comm, graph, params, storage, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_seeds_sequential;
    use crate::seq::immopt_sequential;
    use ripples_comm::{SelfComm, ThreadWorld};
    use ripples_diffusion::RrrCollection;
    use ripples_graph::generators::{erdos_renyi, standin};
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(
            250,
            2000,
            WeightModel::UniformRandom { seed: 14 },
            false,
            77,
        )
    }

    #[test]
    fn strided_indices_partition_the_range() {
        for total in [0usize, 1, 7, 100, 101] {
            for size in [1u32, 2, 3, 8] {
                let mut covered = Vec::new();
                for rank in 0..size {
                    covered.extend(strided_indices(total, rank, size));
                }
                covered.sort_unstable();
                let expect: Vec<u64> = (0..total as u64).collect();
                assert_eq!(covered, expect, "total {total} size {size}");
            }
        }
    }

    #[test]
    fn strided_growth_is_append_only() {
        // A rank's indices for a smaller total are a prefix of its indices
        // for any larger total.
        let small: Vec<u64> = strided_indices(50, 2, 4).collect();
        let large: Vec<u64> = strided_indices(90, 2, 4).collect();
        assert_eq!(&large[..small.len()], &small[..]);
    }

    #[test]
    fn single_rank_matches_sequential() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 9);
        let comm = SelfComm::new();
        let dist = imm_distributed(&comm, &g, &p);
        let seq = immopt_sequential(&g, &p);
        assert_eq!(dist.seeds, seq.seeds);
        assert_eq!(dist.theta, seq.theta);
        assert!((dist.coverage_fraction - seq.coverage_fraction).abs() < 1e-12);
    }

    #[test]
    fn multi_rank_matches_sequential_and_each_other() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            // LT runs require the normalized in-weight contract the
            // engines now enforce.
            let lt = model == DiffusionModel::LinearThreshold;
            let g = erdos_renyi(250, 2000, WeightModel::UniformRandom { seed: 14 }, lt, 77);
            let p = ImmParams::new(5, 0.5, model, 13);
            let seq = immopt_sequential(&g, &p);
            for world_size in [2u32, 3, 5] {
                let world = ThreadWorld::new(world_size);
                let results = world.run(|comm| imm_distributed(comm, &g, &p));
                for (r, res) in results.iter().enumerate() {
                    assert_eq!(
                        res.seeds, seq.seeds,
                        "{model}: rank {r} of {world_size} diverged from sequential"
                    );
                    assert_eq!(res.theta, seq.theta);
                }
            }
        }
    }

    #[test]
    fn communication_is_accounted() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 3);
        let world = ThreadWorld::new(2);
        let stats = world.run(|comm| {
            let _ = imm_distributed(comm, &g, &p);
            comm.stats()
        });
        for s in stats {
            assert!(s.allreduce_calls > 0, "no all-reduce recorded");
            assert!(s.bytes_moved > 0);
        }
    }

    #[test]
    fn ranks_that_disagree_on_the_index_select_as_their_union() {
        // Rank 0 holds small sets, which the cost model indexes; rank 1
        // holds sets spanning half the graph, which it counts.
        let (n, k) = (1100u32, 6u32);
        let small: RrrCollection = (0..300u32).map(|j| vec![j % 50, 50 + j % 97]).collect();
        let large: RrrCollection = (0..8u32)
            .map(|j| (0..n).filter(|v| (v * 3 + j) % 7 < 4).collect::<Vec<_>>())
            .collect();
        assert!(uses_index(SelectEngine::Auto, &small, k));
        assert!(!uses_index(SelectEngine::Auto, &large, k));
        let union: RrrCollection = small
            .iter()
            .chain(large.iter())
            .map(<[_]>::to_vec)
            .collect();
        let expect = select_seeds_sequential(&union, n, k);
        let results = ThreadWorld::new(2).run(|comm| {
            let local = if comm.rank() == 0 { &small } else { &large };
            select_seeds_distributed(comm, local, union.len(), n, k)
        });
        for (rank, (selection, stats)) in results.iter().enumerate() {
            assert_eq!(selection, &expect, "rank {rank}");
            assert!(stats.entries_touched > 0, "rank {rank}");
        }
        assert!(results[0].1.index_bytes > 0);
        assert_eq!(results[1].1.index_bytes, 0);
    }

    #[test]
    fn recount_moves_far_fewer_bytes_than_the_dense_term() {
        // The dense term is the paper's § 3.2 protocol as `scaling.rs`
        // prices it for Figures 7 and 8: per selection pass, k + 1
        // all-reduces of the n counters, which at two ranks charge n·8
        // bytes each. The floors are the measured ratios (5.12× and 8.76×)
        // rounded down; the second case is the figure EXPERIMENTS.md
        // § "Beyond the paper" quotes.
        let ic = DiffusionModel::IndependentCascade;
        let hep_th = standin("cit-HepTh").unwrap();
        let world = ThreadWorld::new(2);
        for (g, p, min_ratio) in [
            (
                erdos_renyi(
                    2000,
                    8000,
                    WeightModel::UniformRandom { seed: 9 },
                    false,
                    77,
                ),
                ImmParams::new(10, 0.5, ic, 3),
                5.0,
            ),
            (
                hep_th.build(32, WeightModel::UniformRandom { seed: 6 }, false),
                ImmParams::new(20, 0.5, ic, 4),
                8.0,
            ),
        ] {
            // Every rank moves the same bytes (tests/comm_parity.rs).
            let r = world.run(|comm| imm_distributed(comm, &g, &p)).remove(0);
            let bytes = r.report.comm.expect("comm stats").bytes_moved;
            let passes = r.report.counters.select_iterations / u64::from(p.k);
            let dense = passes * (u64::from(p.k) + 1) * u64::from(g.num_vertices()) * 8;
            assert!(
                bytes as f64 * min_ratio <= dense as f64,
                "recount {bytes} not {min_ratio}× below the dense term {dense}"
            );
        }
    }
}
