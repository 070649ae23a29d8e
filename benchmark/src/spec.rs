//! The frozen definition of the benchmark: workloads, their parameters and
//! the metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds (a unit test compares them).

use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
use ripples_graph::WeightModel;

/// RNG seed of every IMM run. Fixed, so θ, the seed set and every counter
/// of a workload repeat exactly for a given workload seed.
pub const IMM_SEED: u64 = 7;
/// Seconds the timed phases of one workload take on the reference host, all
/// rounds together. The batch solves are sized for it once and frozen;
/// `--seconds` scales only the closed query loop of `serve_mix`.
pub const DEFAULT_SECONDS: u64 = 12;
/// Interleaved rounds of an invocation, each in a fresh child process; every
/// round metric is the median of its rounds.
pub const ROUNDS: usize = 3;
/// Lifecycles a `serve_mix` child runs; it reports their median.
pub const LIFECYCLES: usize = 3;
/// Share of `--seconds` one round's closed query loop lasts.
pub const SERVE_LOOP_SHARE: f64 = 0.17;
/// Forward Monte-Carlo trials behind `spread_fraction`.
pub const SPREAD_TRIALS: u32 = 200;
pub const SPREAD_SEED: u64 = 99;
/// Queries after which the mix repeats its composition (two `topk` in
/// four take 10 to go through their five `k`, one `topk_excluding` in four
/// takes 12); the closed loop stops on a multiple of it.
pub const SERVE_PERIOD: usize = 60;
/// Length of the query sequence the closed loop cycles through.
pub const SERVE_SEQUENCE: usize = 8 * SERVE_PERIOD;
pub const SERVE_TOPK_KS: [u32; 5] = [1, 4, 8, 16, 32];
pub const SERVE_EXCLUDING_KS: [u32; 3] = [4, 8, 16];
pub const SERVE_BANNED: usize = 8;
pub const SERVE_BANNED_BELOW: u64 = 2000;
pub const SERVE_ESTIMATE_SEEDS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Barabási–Albert, n = 200 000, m = 8: 3.2 M directed edges.
    Sparse,
    /// Barabási–Albert, n = 50 000, m = 8: 0.8 M directed edges.
    Dense,
}

impl GraphKind {
    pub const ATTACH: u32 = 8;

    pub fn tag(self) -> &'static str {
        match self {
            GraphKind::Sparse => "sparse",
            GraphKind::Dense => "dense",
        }
    }

    pub fn vertices(self, smoke: bool) -> u32 {
        let full = match self {
            GraphKind::Sparse => 200_000,
            GraphKind::Dense => 50_000,
        };
        if smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }
}

/// The smoke tier shrinks graphs, replay sizes and loop lengths by this.
pub const SMOKE_DIVISOR: u32 = 20;

/// In-edges each thread of the reference kernel probes in one slice (see
/// `reference.rs`).
pub const REFERENCE_PROBES: u64 = 30_000_000;
/// Seconds one slice of the reference kernel takes on the reference host
/// while the batch solves take the 3.0-3.5 s they were sized for
/// (2026-09-29). Time metrics are scaled by this over the median slice
/// measured in the same child; it fixes their scale and cancels in every
/// comparison.
pub const REFERENCE_QUIET_SLICE_S: f64 = 0.1;

/// Probes per thread of one slice of the reference kernel and the seconds
/// they take on the quiet reference host.
pub fn reference_slice(smoke: bool) -> (u64, f64) {
    let divisor = if smoke { SMOKE_DIVISOR } else { 1 };
    (
        REFERENCE_PROBES / u64::from(divisor),
        REFERENCE_QUIET_SLICE_S / f64::from(divisor),
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weights {
    /// `1 / in-degree`: tiny cascades, in-weights sum to one (valid for LT).
    WeightedCascade,
    /// Uniform `[0, 1)` per edge, the paper's §4 setting: cascades span
    /// most of the graph.
    Uniform,
}

impl Weights {
    pub fn model(self, workload_seed: u64) -> WeightModel {
        match self {
            Weights::WeightedCascade => WeightModel::WeightedCascade,
            Weights::Uniform => WeightModel::UniformRandom {
                seed: workload_seed,
            },
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `mt::imm_multithreaded_with_storage(T, Auto, Auto, storage)`.
    Mt(StorageConfig),
    /// `SketchService` lifecycle, then a closed query loop.
    Serve,
}

/// Values the default workload seed must reproduce at full scale.
#[derive(Clone, Copy, Debug)]
pub struct Frozen {
    pub theta: u64,
    pub edges_examined: u64,
    pub seeds_fingerprint: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: GraphKind,
    pub weights: Weights,
    pub model: DiffusionModel,
    /// Seed-set size; `k_max` of the sketch for `serve_mix`.
    pub k: u32,
    pub epsilon: f64,
    pub call: Call,
    /// Samples the traced replay draws, about θ / 4.
    pub trace_theta: usize,
    /// `spread_fraction` below this fails the run (any workload seed).
    pub spread_floor: f64,
    /// What `--seed 1` must reproduce.
    pub frozen: Frozen,
}

impl Workload {
    /// Threads the timed phases keep busy, of the `threads` the host
    /// offers: the reference kernel runs on as many.
    pub fn busy_threads(&self, threads: usize) -> usize {
        match self.call {
            Call::Serve => 1,
            Call::Mt(_) => threads,
        }
    }

    pub fn storage(&self) -> StorageConfig {
        match self.call {
            Call::Mt(storage) => storage,
            Call::Serve => StorageConfig::default(),
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ic_sparse_mt",
        why: "a million tiny RRR sets: per-sample cost and selection dominate, RNG rate and store format do not",
        graph: GraphKind::Sparse,
        weights: Weights::WeightedCascade,
        model: DiffusionModel::IndependentCascade,
        k: 50,
        epsilon: 0.08,
        call: Call::Mt(StorageConfig {
            kind: RrrStoreKind::Flat,
            budget: None,
        }),
        trace_theta: 310_000,
        spread_floor: 0.05,
        frozen: Frozen {
            theta: 1_238_996,
            edges_examined: 1_005_645_692,
            seeds_fingerprint: 489_121_126_523_605_179,
        },
    },
    Workload {
        name: "ic_dense_mt",
        why: "a thousand graph-spanning RRR sets: edge traversal, RNG draws and memory bandwidth dominate; peak RSS is RRR storage",
        graph: GraphKind::Dense,
        weights: Weights::Uniform,
        model: DiffusionModel::IndependentCascade,
        k: 10,
        epsilon: 0.5,
        call: Call::Mt(StorageConfig {
            kind: RrrStoreKind::Flat,
            budget: None,
        }),
        trace_theta: 368,
        spread_floor: 0.5,
        frozen: Frozen {
            theta: 1_468,
            edges_examined: 1_171_800_068,
            seeds_fingerprint: 14_421_500_436_731_957_017,
        },
    },
    Workload {
        name: "lt_spill_mt",
        why: "every sample is varint-encoded and spilled while sampling, then streamed back and decoded in every selection round: the store layer is the cost",
        graph: GraphKind::Sparse,
        weights: Weights::WeightedCascade,
        model: DiffusionModel::LinearThreshold,
        k: 50,
        epsilon: 0.074,
        call: Call::Mt(StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(8 << 20),
        }),
        trace_theta: 204_000,
        spread_floor: 0.05,
        frozen: Frozen {
            theta: 816_811,
            edges_examined: 349_500_960,
            seeds_fingerprint: 1_209_757_553_208_698_406,
        },
    },
    Workload {
        name: "serve_mix",
        why: "no sampling in the timed query phase: per-query greedy selection over a sealed sketch is everything, one closed-loop client",
        graph: GraphKind::Sparse,
        weights: Weights::WeightedCascade,
        model: DiffusionModel::IndependentCascade,
        k: 32,
        epsilon: 0.6,
        call: Call::Serve,
        trace_theta: 9_250,
        spread_floor: 0.04,
        frozen: Frozen {
            theta: 37_038,
            edges_examined: 30_321_236,
            seeds_fingerprint: 7_343_523_278_106_652_464,
        },
    },
];

/// The workload whose replay also measures what needs measuring once: the
/// `rng` layer, what an enabled `ripples_trace` costs the sampler (it draws
/// the most samples), and the sharded engine on its graph, model and `k`.
pub const WIDE_REPLAY_WORKLOAD: &str = "ic_sparse_mt";
/// ε of the sharded solve in that replay: θ = 66 842 and ~1.7e4 posted
/// frontier exchanges between the two ranks at seed 1.
pub const SHARDED_EPSILON: f64 = 0.4;
/// Samples `sharded.sample_batch` draws, about a quarter of that θ.
pub const SHARDED_TRACE_THETA: usize = 16_640;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a round of a workload measures, one value per invocation: the
/// median of the rounds. On the three batch workloads one query is one whole
/// solve, so `queries_per_s` is `1 / time_to_seeds_s` and both percentiles
/// are the solve time.
///
/// The metrics with a bound are the benchmark's gated end-to-end metrics.
/// The `timing.` metrics are end-to-end too - what a user waits for - and
/// are measured, aggregated, printed and A/A-compared the same way, but
/// they are reported with the per-layer metrics, unbounded: on the shared
/// build host their medians of three >= 3 s rounds spread by 6-30% between
/// runs of the same code even after scaling to the host's speed, which no
/// bound of at most 10% survives (see the README).
pub const ROUND_METRICS: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_bytes", "bytes", Lower, 0.10),
    e2e("spread_fraction", "fraction", Higher, 0.10),
    e2e("success_share", "fraction", Higher, 0.001),
    layer("timing.time_to_seeds_s", "s", Lower),
    layer("timing.cpu_s", "s", Lower),
    layer("timing.queries_per_s", "1/s", Higher),
    layer("timing.query_p50_ms", "ms", Lower),
    layer("timing.query_p95_ms", "ms", Lower),
];

/// The round metrics that are times or rates: scaled to the reference
/// host's speed, and listed round by round in the noise report.
pub const TIME_METRICS: [&str; 6] = [
    "setup_s",
    "timing.time_to_seeds_s",
    "timing.cpu_s",
    "timing.queries_per_s",
    "timing.query_p50_ms",
    "timing.query_p95_ms",
];

/// The gated metrics: what `--trace 0` reports.
pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    ROUND_METRICS.iter().filter(|m| m.bound.is_some())
}

/// What `--trace 1` reports: the ungated round metrics, then the layers.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    ROUND_METRICS
        .iter()
        .filter(|m| m.bound.is_none())
        .chain(&LAYER_METRICS)
}

/// Layer = module name. A layer a workload does not run reports 0.
pub const LAYER_METRICS: [Metric; 49] = [
    layer("host.speed", "ratio", Higher),
    layer("host.measured_time_to_seeds_s", "s", Lower),
    layer("graph.load_edges_per_s", "1/s", Higher),
    layer("graph.resident_bytes", "bytes", Lower),
    layer("partition.build_s", "s", Lower),
    layer("partition.shard_bytes_max", "bytes", Lower),
    layer("rng.stream_setup_ns", "ns", Lower),
    layer("rng.draws_per_s", "1/s", Higher),
    layer("sampler.samples_per_s", "1/s", Higher),
    layer("sampler.edges_per_s", "1/s", Higher),
    layer("sampler.entries_per_s", "1/s", Higher),
    layer("sampler.edges_examined", "count", Lower),
    layer("sampler.mean_set_size", "count", Lower),
    layer("sampler.fused", "count", Higher),
    layer("sampler.fused_passes", "count", Lower),
    layer("sampler.t1_over_tT", "ratio", Higher),
    layer("store.encode_entries_per_s", "1/s", Higher),
    layer("store.decode_entries_per_s", "1/s", Higher),
    layer("store.bytes_per_entry", "bytes", Lower),
    layer("store.resident_bytes_peak", "bytes", Lower),
    layer("store.spill_bytes_written", "bytes", Lower),
    layer("select.greedy_s", "s", Lower),
    layer("select.entries_per_s", "1/s", Higher),
    layer("select.entries_touched", "count", Lower),
    layer("select.index_build_s", "s", Lower),
    layer("select.iterations", "count", Lower),
    layer("driver.theta", "count", Lower),
    layer("driver.theta_rounds", "count", Lower),
    layer("driver.samples_generated", "count", Lower),
    layer("driver.unattributed_fraction", "fraction", Lower),
    layer("comm.allreduce_bytes_per_s", "bytes/s", Higher),
    layer("comm.exchange_latency_us", "us", Lower),
    layer("comm.exchange_bytes_per_s", "bytes/s", Higher),
    layer("comm.bytes_total", "bytes", Lower),
    layer("comm.frontier_exchanges", "count", Lower),
    layer("comm.overlap_fraction", "fraction", Higher),
    layer("sharded.time_to_seeds_s", "s", Lower),
    layer("sharded.samples_per_s", "1/s", Higher),
    layer("sharded.vs_mt_sampling_ratio", "ratio", Lower),
    layer("serve.build_s", "s", Lower),
    layer("serve.topk_p50_ms", "ms", Lower),
    layer("serve.topk_excluding_p50_ms", "ms", Lower),
    layer("serve.spread_estimate_p50_ms", "ms", Lower),
    layer("serve.topk_ops_time_share", "fraction", Lower),
    layer("serve.entries_touched_per_query", "count", Lower),
    layer("serve.sketch_bytes", "bytes", Lower),
    layer("serve.snapshot_write_bytes_per_s", "bytes/s", Higher),
    layer("serve.restore_bytes_per_s", "bytes/s", Higher),
    layer("telemetry.trace_on_overhead_fraction", "fraction", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The text of the `"<section>": [...]` array of `BENCHMARK.json`.
    fn section(name: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{name}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {name} array"));
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find("\n  ]").expect("array end")]
    }

    fn entries(name: &str) -> usize {
        section(name).matches("{\"name\":").count()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        assert_eq!(entries("workloads"), WORKLOADS.len());
        for w in &WORKLOADS {
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(section("workloads").contains(&row), "missing {row}");
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics() {
        assert_eq!(entries("end_to_end"), end_to_end().count());
        for m in end_to_end() {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.tag(),
                m.bound.expect("end-to-end metrics are bounded")
            );
            assert!(section("end_to_end").contains(&row), "missing {row}");
        }
        assert_eq!(entries("per_layer"), per_layer().count());
        for m in per_layer() {
            assert!(m.bound.is_none(), "{} is bounded", m.name);
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.tag()
            );
            assert!(section("per_layer").contains(&row), "missing {row}");
        }
    }

    #[test]
    fn every_time_metric_is_a_round_metric() {
        for name in TIME_METRICS {
            assert!(ROUND_METRICS.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn default_seconds_is_what_benchmark_json_runs() {
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }
}
