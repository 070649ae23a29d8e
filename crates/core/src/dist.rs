//! The distributed-memory IMM implementation — "IMMdist" in Table 3, the
//! subject of Figures 7 and 8 — written against the
//! [`ripples_comm::Communicator`] abstraction (§3.2 of the paper).
//!
//! Design, following the paper exactly:
//!
//! * Every rank holds the **entire input graph** and generates a distinct
//!   batch of `θ/p` samples ("evenly partitioning the samples to be
//!   generated among the p ranks").
//! * Seed selection keeps an `n`-counter array per rank: local counts are
//!   aggregated with **All-Reduce**; each greedy iteration then identifies
//!   the next seed locally (every rank has the global counts), purges its
//!   local samples, and All-Reduces the decrements — `O(k · n · lg p)`
//!   communication.
//! * Sample indices are global, so the union of all ranks' samples is
//!   *identical* to a sequential run's collection, and therefore so is the
//!   seed set — the cross-implementation equivalence the test suite checks.
//!
//! Everything the three communicator engines share lives here as
//! `RankEngine`: the per-rank store, the distributed selection protocol
//! and the report's cross-rank reductions. An engine supplies only a
//! `RankSampler` — how one rank produces its share of a batch.
//!
//! The engines call their collectives on the communicator they are handed
//! and wrap nothing around it. Robustness is the caller's choice of
//! communicator: over a [`ripples_comm::FaultComm`] a transient fault is
//! retried before the collective returns, and a rank declared dead shows up
//! here only as [`ripples_comm::CommHealth::dead_ranks`], which selection
//! reads to judge coverage against the samples the survivors hold.

use crate::driver::{record_store_counters, run_imm, Engine};
use crate::memory::MemoryStats;
use crate::obs::metrics::{Metric, Reduce};
use crate::obs::{CommCounters, Histogram, RunReport};
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::select::{
    argmax, nanos_since, uses_index, with_index, SelectEngine, SelectStats, Selection,
};
use ripples_comm::{CommStats, Communicator};
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{DiffusionModel, DynRrrStore, RrrStore, SampleIndex, StorageConfig};
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

/// How per-round counter updates travel between ranks during distributed
/// seed selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DistSelectMode {
    /// The paper's §3.2 design: one dense All-Reduce of all `n` counters
    /// per greedy iteration — `O(k·n·lg p)` communication regardless of how
    /// few counters actually changed.
    #[default]
    DenseAllReduce,
    /// Sparse aggregation (an "optimizing communication" extension, §6):
    /// each rank gathers only its nonzero `(vertex, decrement)` pairs via
    /// `MPI_Allgatherv`. Volume is proportional to the vertices actually
    /// touched by the purged samples, which collapses for the late greedy
    /// rounds where few samples remain uncovered.
    SparseAllGather,
}

/// Distributed greedy seed selection over each rank's local samples: local
/// counting → All-Reduce → local argmax → purge → dense or sparse decrement
/// aggregation → coverage reduce.
///
/// The seeds and coverage of the returned [`Selection`] are identical on
/// every rank; the [`SelectStats`] are this rank's. A per-rank inverted
/// index drives the purge step when the cost model says its O(E)
/// construction amortizes over the `k` purge passes; the decrement sums are
/// identical either way, so ranks may disagree on the choice (the model
/// reads per-rank sizes) without diverging — the collective sequence does
/// not depend on it.
pub(crate) fn select_seeds_distributed<C: Communicator, S: RrrStore>(
    comm: &C,
    local: &S,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
) -> (Selection, SelectStats) {
    let k = k.min(n);
    let indexed = uses_index(SelectEngine::Auto, local, k);
    let rounds = GreedyRounds {
        comm,
        theta_global,
        n,
        k,
        select_mode,
    };
    // `DynRrrStore` keeps the index across θ rounds, whatever its layout.
    if indexed {
        with_index(local, n, 1, |index, stats| {
            rounds.run(local, Some(index), stats)
        })
    } else {
        rounds.run(local, None, SelectStats::default())
    }
}

/// The collectively identical inputs of one distributed selection pass.
struct GreedyRounds<'a, C> {
    comm: &'a C,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
}

impl<C: Communicator> GreedyRounds<'_, C> {
    /// The collective greedy rounds of [`select_seeds_distributed`], one
    /// body for both storage sides and both purge strategies. `stats`
    /// carries the index build cost in; decode time is charged only on
    /// compressed stores (flat slices need no decoding).
    fn run<S: RrrStore>(
        &self,
        local: &S,
        index: Option<&SampleIndex>,
        mut stats: SelectStats,
    ) -> (Selection, SelectStats) {
        let GreedyRounds {
            comm,
            theta_global,
            n,
            k,
            select_mode,
        } = *self;
        let n_us = n as usize;
        let mut decode_nanos = 0u64;

        // Local counting pass (the index's vertex degrees, or one direct sweep
        // over the local samples), then one All-Reduce for the global counts.
        let mut counters: Vec<u64> = match index {
            Some(index) => (0..n).map(|v| u64::from(index.degree(v))).collect(),
            None => {
                let t0 = Instant::now();
                let mut counts = vec![0u64; n_us];
                for j in 0..local.len() {
                    local.for_each_vertex(j, |u| counts[u as usize] += 1);
                }
                decode_nanos += nanos_since(t0);
                counts
            }
        };
        comm.all_reduce_sum_u64(&mut counters);

        let mut covered = vec![false; local.len()];
        let mut selected = vec![false; n_us];
        let mut seeds = Vec::with_capacity(k as usize);
        let mut gains = Vec::with_capacity(k as usize);
        let mut covered_local = 0usize;
        let mut decrements = vec![0u64; n_us];
        for _ in 0..k {
            // Global argmax is a local operation: all ranks hold the counts and
            // the tie-break (lowest id) is deterministic.
            let Some(v) = argmax(&counters, &selected) else {
                break;
            };
            let gain = counters[v as usize];
            selected[v as usize] = true;
            if crate::obs::trace::enabled() {
                crate::obs::trace::mark(
                    crate::obs::trace::TraceName::SelectStep,
                    u64::from(v),
                    gain,
                );
            }
            seeds.push(v);
            gains.push(gain);

            // Purge local samples containing v; accumulate counter decrements.
            decrements.fill(0);
            let t0 = Instant::now();
            match index {
                Some(index) => index.for_each_sample(v, |j| {
                    if covered[j] {
                        return;
                    }
                    covered[j] = true;
                    covered_local += 1;
                    stats.entries_touched += local.sample_len(j) as u64;
                    local.for_each_vertex(j, |u| decrements[u as usize] += 1);
                }),
                None => {
                    for (j, cov) in covered.iter_mut().enumerate() {
                        if !*cov && local.contains(j, v) {
                            *cov = true;
                            covered_local += 1;
                            stats.entries_touched += local.sample_len(j) as u64;
                            local.for_each_vertex(j, |u| decrements[u as usize] += 1);
                        }
                    }
                }
            }
            decode_nanos += nanos_since(t0);
            match select_mode {
                DistSelectMode::DenseAllReduce => {
                    // The O(k·n·lg p) step: one All-Reduce per greedy iteration.
                    comm.all_reduce_sum_u64(&mut decrements);
                    for (c, &d) in counters.iter_mut().zip(&decrements) {
                        *c -= d;
                    }
                }
                DistSelectMode::SparseAllGather => {
                    // Encode only nonzero decrements as (vertex << 32 | count).
                    let sparse: Vec<u64> = decrements
                        .iter()
                        .enumerate()
                        .filter(|(_, &d)| d > 0)
                        .map(|(u, &d)| {
                            debug_assert!(d < (1 << 32), "decrement overflow");
                            ((u as u64) << 32) | d
                        })
                        .collect();
                    for rank_list in comm.all_gather_u64_list(&sparse) {
                        for enc in rank_list {
                            let u = (enc >> 32) as usize;
                            let d = enc & 0xFFFF_FFFF;
                            counters[u] -= d;
                        }
                    }
                }
            }
        }
        if local.as_flat().is_none() {
            stats.decode_nanos += decode_nanos;
        }
        let covered_global = all_reduce_sum_scalar(comm, covered_local as u64) as usize;
        // Degraded runs: dead ranks' samples are gone from every collective, so
        // coverage must be judged against the samples the surviving ranks
        // actually hold, not the nominal θ. The dead-rank set is identical on
        // every rank (lockstep fault decisions), so this extra collective is
        // taken — or skipped — uniformly; the fault-free path is unchanged.
        let theta_eff = if comm.health().dead_ranks.is_empty() {
            theta_global
        } else {
            all_reduce_sum_scalar(comm, local.len() as u64) as usize
        };
        (
            Selection::finish(seeds, gains, covered_global, theta_eff),
            stats,
        )
    }
}

/// Scalar convenience over the slice All-Reduce.
fn all_reduce_sum_scalar<C: Communicator>(comm: &C, x: u64) -> u64 {
    let mut buf = [x];
    comm.all_reduce_sum_u64(&mut buf);
    buf[0]
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
    /// returns the edges examined locally.
    fn sample<C: Communicator>(
        &mut self,
        comm: &C,
        first: u64,
        count: usize,
        out: &mut DynRrrStore,
    ) -> u64;

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
    select_mode: DistSelectMode,
    comm_before: CommStats,
}

impl<C: Communicator, P: RankSampler> Engine for RankEngine<'_, C, P> {
    fn grow_to(&mut self, total: usize, report: &mut RunReport) {
        let old_len = self.store.len();
        let work = self.sampler.sample(
            self.comm,
            self.held as u64,
            total - self.held,
            &mut self.store,
        );
        self.held = total;
        // Local counters; `finish` globalizes them once at the end.
        let new_samples = (self.store.len() - old_len) as u64;
        report.counters.samples_generated += new_samples;
        report.counters.edges_examined += work;
        for slot in old_len..self.store.len() {
            report.rrr_sizes.record(self.store.sample_len(slot) as u64);
        }
        // One "worker" per rank: the batch lands wholly on this rank.
        report.thread_samples.record(new_samples);
    }

    fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    fn select(&mut self, k: u32) -> (Selection, SelectStats) {
        select_seeds_distributed(
            self.comm,
            &self.store,
            self.held,
            self.n,
            k,
            self.select_mode,
        )
    }

    fn finish(&mut self, report: &mut RunReport) {
        record_store_counters(report, &self.store);
        globalize_counters(self.comm, report);
        globalize_health(self.comm, report);
        self.sampler.finish(self.comm, report);
        report.comm = Some(CommCounters::delta(&self.comm_before, &self.comm.stats()));
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
    select_mode: DistSelectMode,
    sampler: P,
) -> ImmResult {
    // Tag this rank thread's event ring so the merged trace shows one
    // process track per rank.
    crate::obs::trace::set_thread_rank(comm.rank());
    let n = graph.num_vertices();
    let footprint = MemoryStats {
        counter_bytes: 2 * n as usize * std::mem::size_of::<u64>(),
        // The honest headline: per-rank graph bytes are the sampler's share.
        graph_bytes: sampler.graph_bytes(),
        ..MemoryStats::default()
    };
    let mut engine = RankEngine {
        comm,
        sampler,
        store: DynRrrStore::new(storage, n),
        held: 0,
        n,
        select_mode,
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
    ) -> u64 {
        let n = u64::from(self.graph.num_vertices());
        let mut work = 0u64;
        for index in strided_indices(first as usize + count, comm.rank(), comm.size())
            .skip_while(|&i| i < first)
        {
            let mut rng = self.factory.sample_stream(index);
            let root = rng.bounded_u64(n) as Vertex;
            let s = generate_rrr(self.graph, self.model, root, &mut rng, &mut self.scratch);
            work += s.edges_examined;
            out.push(&s.vertices);
        }
        work
    }

    fn graph_bytes(&self) -> usize {
        self.graph.resident_bytes()
    }
}

/// Runs distributed IMM on this rank. Must be called collectively by every
/// rank of `comm` with identical `graph` and `params`.
///
/// Uses the paper's dense All-Reduce selection and flat storage; see
/// [`imm_distributed_with_storage`] for the other knobs. Sample `i` draws
/// from the stream keyed by `i` whichever rank owns it, so the seeds equal
/// the sequential run's at every world size.
///
/// Returns the (identical) result on every rank.
#[must_use]
pub fn imm_distributed<C: Communicator>(comm: &C, graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_distributed_with_storage(
        comm,
        graph,
        params,
        DistSelectMode::DenseAllReduce,
        StorageConfig::default(),
    )
}

/// The fully-parameterized distributed entry point: counter-aggregation
/// strategy × per-rank RRR storage backend (CLI `--rrr-store` /
/// `--rrr-budget`). Each rank holds its local sample
/// stride in the chosen backend; the selection protocol's decrement sums
/// are storage-independent, so seeds match the flat run at every world
/// size.
#[must_use]
pub fn imm_distributed_with_storage<C: Communicator>(
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    select_mode: DistSelectMode,
    storage: StorageConfig,
) -> ImmResult {
    let sampler = ReplicatedSampler {
        graph,
        model: params.model,
        factory: StreamFactory::new(params.seed),
        scratch: RrrScratch::new(graph.num_vertices()),
    };
    run_imm_ranked("dist", comm, graph, params, storage, select_mode, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::immopt_sequential;
    use ripples_comm::{SelfComm, ThreadWorld};
    use ripples_diffusion::RrrCollection;
    use ripples_graph::generators::erdos_renyi;
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
    fn purge_counts_entries_touched_with_and_without_an_index() {
        // Σ |covered sample| either way: ranks may disagree on `uses_index`.
        let mut local = RrrCollection::new();
        for base in 0..60u32 {
            let set: Vec<Vertex> = (0..5).map(|i| (base * 11 + i * 7) % 40).collect();
            local.push(&set);
        }
        let comm = SelfComm::new();
        let rounds = GreedyRounds {
            comm: &comm,
            theta_global: local.len(),
            n: 40,
            k: 6,
            select_mode: DistSelectMode::DenseAllReduce,
        };
        let (with_index, indexed) = local.with_sample_index(40, 1, |index| {
            rounds.run(&local, Some(index), SelectStats::default())
        });
        let (index_free, scanned) = rounds.run(&local, None, SelectStats::default());
        assert_eq!(with_index, index_free);
        assert!(indexed.entries_touched > 0);
        assert_eq!(indexed.entries_touched, scanned.entries_touched);
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
}

#[cfg(test)]
mod sparse_select_tests {
    use super::*;
    use ripples_comm::ThreadWorld;
    use ripples_graph::generators::{erdos_renyi, standin};
    use ripples_graph::WeightModel;

    #[test]
    fn sparse_mode_returns_identical_seeds() {
        let g = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 5 }, false, 44);
        let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 12);
        for size in [1u32, 2, 4] {
            let world = ThreadWorld::new(size);
            let dense = world.run(|comm| {
                imm_distributed_with_storage(
                    comm,
                    &g,
                    &p,
                    DistSelectMode::DenseAllReduce,
                    StorageConfig::default(),
                )
            });
            let sparse = world.run(|comm| {
                imm_distributed_with_storage(
                    comm,
                    &g,
                    &p,
                    DistSelectMode::SparseAllGather,
                    StorageConfig::default(),
                )
            });
            for (d, s) in dense.iter().zip(&sparse) {
                assert_eq!(d.seeds, s.seeds, "world {size}");
                assert_eq!(d.theta, s.theta);
                assert!((d.coverage_fraction - s.coverage_fraction).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_mode_moves_fewer_bytes() {
        // The second case is the figure EXPERIMENTS.md § "Beyond the paper"
        // quotes: on the cit-HepTh stand-in the dense All-Reduce moves
        // 344 448 bytes per rank and the sparse gathers 30 104 (11.4×).
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
                2.0,
            ),
            (
                hep_th.build(32, WeightModel::UniformRandom { seed: 6 }, false),
                ImmParams::new(20, 0.5, ic, 4),
                11.4,
            ),
        ] {
            let bytes_per_rank = |mode| {
                world
                    .run(|comm| {
                        let _ = imm_distributed_with_storage(
                            comm,
                            &g,
                            &p,
                            mode,
                            StorageConfig::default(),
                        );
                        comm.stats().bytes_moved
                    })
                    .into_iter()
                    .max()
                    .unwrap()
            };
            let dense_bytes = bytes_per_rank(DistSelectMode::DenseAllReduce);
            let sparse_bytes = bytes_per_rank(DistSelectMode::SparseAllGather);
            assert!(
                sparse_bytes as f64 * min_ratio < dense_bytes as f64,
                "sparse {sparse_bytes} not {min_ratio}× below dense {dense_bytes}"
            );
        }
    }
}
