//! Strong-scaling replay model.
//!
//! This reproduction's build host has two cores, so Figures 5–8 (20-thread
//! and 16/1024-node strong scaling) cannot be *timed* directly. Instead,
//! [`WorkTrace::replay`] recomputes a run's exact work — per-sample work
//! units and selection volume — from its seed and θ, and this module replays
//! that trace under a parallel execution model:
//!
//! * **Sampling** is a bag of independent tasks (one per RRR set): its
//!   parallel runtime is the LPT (longest-processing-time) makespan of the
//!   per-sample work over `p` workers. This captures both the ideal `W/p`
//!   regime and the straggler regime where one giant RRR set bounds the
//!   runtime — the effect that caps LT scaling in Figure 8. The code
//!   schedules the same way: `ripples_diffusion::sample_batch` hands blocks
//!   of up to 4 096 consecutive samples to whichever worker is free, from an
//!   atomic cursor — list scheduling at block granularity, of which the
//!   model's per-sample LPT is the fine-grained limit.
//! * **Selection** follows Algorithm 4's cost structure: a counting scan of
//!   all sample entries (splits perfectly), plus `k` greedy rounds in which
//!   every thread binary-searches every (local) sample — the non-scaling
//!   term that dominates small inputs (§4.2: "for the small inputs … the
//!   greedy strategy of seed selection starts to dominate").
//! * **Communication** (distributed only) is `(k + 1)` recursive-doubling
//!   all-reduces of the `n`-counter array per selection pass, priced by the
//!   α–β model of [`ripples_comm::costmodel`]. That is the paper's §3.2
//!   protocol, the reproduced object; the engines in `dist.rs` execute a
//!   batched lazy recount that moves far fewer bytes.
//!
//! Absolute seconds depend on the calibrated work rate; the deliverable is
//! the *shape* of the curves, which depends only on work ratios.

use crate::params::ImmParams;
use rayon::prelude::*;
use ripples_comm::ClusterSpec;
use ripples_diffusion::{generate_rrr, RrrScratch};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;

/// The work profile of one IMM run, replayed by [`WorkTrace::replay`].
#[derive(Clone, Debug)]
pub struct WorkTrace {
    /// Vertex count of the input.
    pub n: u32,
    /// Seed-set size.
    pub k: u32,
    /// Final sample count θ.
    pub theta: usize,
    /// Per-sample work units (in-edges examined), one entry per sample.
    pub sample_work: Vec<u64>,
    /// Total vertex entries across the stored RRR sets.
    pub rrr_entries: u64,
    /// Number of `n`-counter all-reduces one full run performs (selection
    /// passes × (k+1)); used only by the distributed predictor.
    pub allreduce_calls: u64,
}

impl WorkTrace {
    /// The work profile of a run of `params` on `graph` that selected over
    /// `theta` samples: regenerates samples `0..theta` under the run's
    /// master seed with the reference sampler and records each one's
    /// in-edges examined and entries, in parallel on the caller's pool.
    /// Every engine that keys a sample's stream by its global index (`opt`,
    /// `mt` on the reference kernel, `dist` with indexed streams) holds
    /// exactly these samples, so the trace is that run's per-sample work,
    /// recomputed rather than carried through it.
    ///
    /// `selection_passes` is the number of times seed selection ran (one
    /// per estimation round plus the final pass); the distributed
    /// communication volume scales with it.
    #[must_use]
    pub fn replay(graph: &Graph, params: &ImmParams, theta: usize, selection_passes: u32) -> Self {
        let n = graph.num_vertices();
        let factory = StreamFactory::new(params.seed);
        let samples: Vec<(u64, u64)> = (0..theta as u64)
            .into_par_iter()
            .map_init(
                || RrrScratch::new(n),
                |scratch, index| {
                    let mut rng = factory.sample_stream(index);
                    let root = rng.bounded_u64(u64::from(n)) as Vertex;
                    let s = generate_rrr(graph, params.model, root, &mut rng, scratch);
                    (s.edges_examined, s.vertices.len() as u64)
                },
            )
            .collect();
        WorkTrace {
            n,
            k: params.k,
            theta,
            rrr_entries: samples.iter().map(|&(_, entries)| entries).sum(),
            sample_work: samples.into_iter().map(|(work, _)| work).collect(),
            allreduce_calls: u64::from(selection_passes) * (u64::from(params.k) + 1),
        }
    }

    /// Total sampling work units.
    #[must_use]
    pub fn total_sample_work(&self) -> u64 {
        self.sample_work.iter().sum()
    }

    /// Mean RRR-set size (entries per sample).
    #[must_use]
    pub fn mean_rrr_size(&self) -> f64 {
        if self.theta == 0 {
            0.0
        } else {
            self.rrr_entries as f64 / self.theta as f64
        }
    }

    /// Work units of one full selection pass executed by one thread that
    /// owns a vertex interval, over `local_theta` samples with the trace's
    /// mean sample size: the k-round binary-search term of Algorithm 4.
    fn selection_scan_units(&self, local_theta: f64) -> f64 {
        let avg = self.mean_rrr_size().max(1.0);
        f64::from(self.k) * local_theta * avg.log2().max(1.0)
    }
}

/// LPT (greedy longest-first) makespan of `work` over `workers` identical
/// workers, in work units.
#[must_use]
pub fn lpt_makespan(work: &[u64], workers: u32) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if work.is_empty() || workers == 0 {
        return 0;
    }
    let mut sorted: Vec<u64> = work.to_vec();
    sorted.sort_unstable_by_key(|&w| Reverse(w));
    // Min-heap of worker loads.
    let mut loads: BinaryHeap<Reverse<u64>> = (0..workers.min(sorted.len() as u32))
        .map(|_| Reverse(0u64))
        .collect();
    for w in sorted {
        let Reverse(least) = loads.pop().expect("at least one worker");
        loads.push(Reverse(least + w));
    }
    loads.into_iter().map(|Reverse(l)| l).max().unwrap_or(0)
}

/// One predicted point of a strong-scaling curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Scaling unit (threads for Figures 5–6, nodes for Figures 7–8).
    pub units: u32,
    /// Predicted sampling (+ estimation) seconds.
    pub sample_s: f64,
    /// Predicted seed-selection seconds.
    pub select_s: f64,
    /// Predicted communication seconds (0 for shared memory).
    pub comm_s: f64,
}

impl ScalingPoint {
    /// Total predicted seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.sample_s + self.select_s + self.comm_s
    }
}

/// Calibrates a work rate (units/second) from a measured run.
///
/// # Panics
///
/// Panics if `seconds` is not positive.
#[must_use]
pub fn calibrate_rate(total_work_units: u64, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "calibration time must be positive");
    total_work_units as f64 / seconds
}

/// Predicts the shared-memory strong-scaling curve (Figures 5–6) at the
/// given thread counts, with `rate` work units per second per thread.
#[must_use]
pub fn predict_multithreaded(trace: &WorkTrace, threads: &[u32], rate: f64) -> Vec<ScalingPoint> {
    threads
        .iter()
        .map(|&p| {
            let p_eff = p.max(1);
            let sample_units = lpt_makespan(&trace.sample_work, p_eff) as f64;
            // Counting scan splits across threads; the k-round search term
            // is per-thread constant (every owner visits every sample).
            let select_units = trace.rrr_entries as f64 / f64::from(p_eff)
                + trace.selection_scan_units(trace.theta as f64);
            ScalingPoint {
                units: p,
                sample_s: sample_units / rate,
                select_s: select_units / rate,
                comm_s: 0.0,
            }
        })
        .collect()
}

/// Predicts the distributed strong-scaling curve (Figures 7–8) on
/// `cluster` at the given node counts.
///
/// Each node is one rank running `threads_per_node` workers over its
/// `θ/ranks` local samples; the counter arrays travel `allreduce_calls`
/// times through the α–β network model.
#[must_use]
pub fn predict_distributed(
    trace: &WorkTrace,
    cluster: &ClusterSpec,
    nodes: &[u32],
) -> Vec<ScalingPoint> {
    let rate = cluster.edge_rate_per_thread;
    nodes
        .iter()
        .map(|&ranks| {
            let ranks_eff = ranks.max(1);
            let workers = ranks_eff * cluster.threads_per_node;
            let sample_units = lpt_makespan(&trace.sample_work, workers) as f64;
            let local_theta = trace.theta as f64 / f64::from(ranks_eff);
            let select_units = trace.rrr_entries as f64
                / f64::from(ranks_eff * cluster.threads_per_node)
                + trace.selection_scan_units(local_theta);
            let counter_bytes = u64::from(trace.n) * 8;
            let comm_s = trace.allreduce_calls as f64
                * cluster.network.allreduce_time(counter_bytes, ranks_eff);
            ScalingPoint {
                units: ranks,
                sample_s: sample_units / rate,
                select_s: select_units / rate,
                comm_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(sample_work: Vec<u64>, theta: usize) -> WorkTrace {
        WorkTrace {
            n: 10_000,
            k: 50,
            theta,
            rrr_entries: sample_work.iter().sum::<u64>() / 2,
            sample_work,
            allreduce_calls: 102,
        }
    }

    #[test]
    fn trace_entries_are_the_reports_counter_under_every_layout() {
        use crate::dist::imm_distributed_with_storage;
        use crate::mt::imm_multithreaded_with_storage;
        use crate::seq::immopt_sequential_with_storage;
        use crate::{SampleEngine, SelectEngine};
        use ripples_comm::ThreadWorld;
        use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
        use ripples_graph::{generators::erdos_renyi, WeightModel};
        // The replay regenerates what the run sampled, so its work, θ and
        // entries are the run's counters — for lists, bitmaps or
        // complements (uniform probabilities span the graph), flat and
        // spill-kind, on shared memory and across ranks (whose counters the
        // engine globalizes).
        let sparse = erdos_renyi(300, 2400, WeightModel::WeightedCascade, false, 21);
        let lt = erdos_renyi(300, 2400, WeightModel::WeightedCascade, true, 21);
        let dense = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 3 }, false, 21);
        let ic = DiffusionModel::IndependentCascade;
        let cases = [
            (&sparse, ic, RrrStoreKind::Flat),
            (&dense, ic, RrrStoreKind::Flat),
            (&sparse, ic, RrrStoreKind::Spill),
            (&lt, DiffusionModel::LinearThreshold, RrrStoreKind::Flat),
        ];
        for (graph, model, kind) in cases {
            let params = ImmParams::new(5, 0.5, model, 7);
            let storage = StorageConfig::of(kind);
            let opt = immopt_sequential_with_storage(
                graph,
                &params,
                SelectEngine::Auto,
                SampleEngine::Reference,
                storage,
            );
            let mt = imm_multithreaded_with_storage(
                graph,
                &params,
                2,
                SelectEngine::Auto,
                SampleEngine::Reference,
                storage,
            );
            let dist = ThreadWorld::new(3)
                .run(|comm| imm_distributed_with_storage(comm, graph, &params, storage));
            for (engine, result) in [("opt", &opt), ("mt", &mt), ("dist", &dist[0])] {
                let counters = &result.report.counters;
                let case = format!("{engine} {model} {kind:?}");
                assert!(counters.rrr_entries > 0, "{case}");
                let spans = std::ptr::eq(graph, &dense);
                let dense_sets = counters.rrr_sets_bitmap + counters.rrr_sets_complement;
                assert!(dense_sets > 0 || !spans, "{case}");
                let trace = WorkTrace::replay(graph, &params, result.theta, 4);
                assert_eq!(trace.theta as u64, counters.theta_final, "{case}");
                assert_eq!(trace.rrr_entries, counters.rrr_entries, "{case}");
                assert_eq!(trace.total_sample_work(), counters.edges_examined, "{case}");
            }
        }
    }

    #[test]
    fn lpt_basics() {
        assert_eq!(lpt_makespan(&[], 4), 0);
        assert_eq!(lpt_makespan(&[10], 4), 10);
        assert_eq!(lpt_makespan(&[5, 5, 5, 5], 2), 10);
        // A giant task bounds the makespan regardless of workers.
        assert_eq!(lpt_makespan(&[100, 1, 1, 1], 64), 100);
        assert_eq!(lpt_makespan(&[3, 3, 3], 0), 0);
    }

    #[test]
    fn lpt_monotone_in_workers() {
        let work: Vec<u64> = (1..200).collect();
        let mut prev = u64::MAX;
        for p in [1u32, 2, 4, 8, 16] {
            let m = lpt_makespan(&work, p);
            assert!(m <= prev, "makespan increased at p={p}");
            prev = m;
        }
    }

    #[test]
    fn mt_prediction_scales_sampling() {
        let t = trace(vec![100; 10_000], 10_000);
        let pts = predict_multithreaded(&t, &[1, 2, 4, 8], 1e6);
        // Sampling should halve with each doubling (uniform tasks).
        for w in pts.windows(2) {
            let ratio = w[0].sample_s / w[1].sample_s;
            assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
        }
        // Selection has a non-scaling component: it shrinks slower.
        assert!(pts[3].select_s > pts[0].select_s / 8.0);
    }

    #[test]
    fn dist_prediction_charges_comm() {
        let t = trace(vec![100; 50_000], 50_000);
        let cluster = ClusterSpec::puma();
        let pts = predict_distributed(&t, &cluster, &[2, 4, 8, 16]);
        for p in &pts {
            assert!(p.comm_s > 0.0);
        }
        // Communication grows with rank count (log factor).
        assert!(pts[3].comm_s > pts[0].comm_s);
        // Total should still fall from 2 to 16 nodes for this large trace.
        assert!(pts[3].total_s() < pts[0].total_s());
    }

    #[test]
    fn straggler_bounds_scaling() {
        // One sample holds half the work: no amount of parallelism helps
        // beyond 2×.
        let mut work = vec![1u64; 1000];
        work.push(1000);
        let t = trace(work, 1001);
        let pts = predict_multithreaded(&t, &[1, 64], 1e6);
        assert!(
            pts[1].sample_s >= pts[0].sample_s / 2.5,
            "straggler ignored: {} vs {}",
            pts[1].sample_s,
            pts[0].sample_s
        );
    }

    #[test]
    fn calibration() {
        assert!((calibrate_rate(1_000_000, 2.0) - 500_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn calibration_rejects_zero_time() {
        let _ = calibrate_rate(1, 0.0);
    }
}
