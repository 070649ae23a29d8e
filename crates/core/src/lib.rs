//! Parallel IMM influence maximization — the core library of the CLUSTER'19
//! reproduction.
//!
//! Given a directed probabilistic graph `G`, a diffusion model `M ∈ {IC,
//! LT}`, a seed-set size `k`, and an accuracy parameter `ε`, the IMM
//! algorithm of Tang et al. (SIGMOD'15) returns a seed set whose expected
//! influence is a `(1 − 1/e − ε)`-approximation of the optimum with
//! probability ≥ `1 − 1/n^ℓ`. This crate implements the paper's four
//! implementations of it:
//!
//! | Entry point | Paper name | Description |
//! |---|---|---|
//! | [`seq::imm_baseline`] | IMM | Sequential, Tang-style two-direction hypergraph storage |
//! | [`seq::immopt_sequential`] | IMMOPT | Sequential, compact one-direction sorted-list storage (§3.1) |
//! | [`mt::imm_multithreaded`] | IMMmt | Shared-memory parallel: parallel sampling + interval-partitioned seed selection (Algorithm 4) |
//! | [`dist::imm_distributed`] | IMMdist | Distributed: θ partitioned across ranks, All-Reduce counter aggregation (§3.2) |
//!
//! plus the predecessor and comparator algorithms the paper discusses —
//! TIM⁺ ([`tim`]), the Monte-Carlo greedy with CELF lazy evaluation
//! ([`celf`]), and degree-discount and other heuristics ([`heuristics`]) —
//! the paper's future-work extension of running IMM over a *partitioned* input
//! graph, vertex-cut sharded with batched asynchronous frontier exchange
//! ([`dist_sharded`]),
//! instrumentation matching the paper's phase
//! breakdown ([`phases`]), RRR-storage memory accounting ([`memory`]), and
//! the strong-scaling replay model ([`scaling`]) that substitutes for the
//! clusters this reproduction does not have (see DESIGN.md).
//!
//! # The driver and its engine hooks
//!
//! All of the IMM entry points above run one martingale loop, the private
//! `driver` module's `run_imm` (`EstimateTheta → Sample → SelectSeeds`,
//! Algorithm 1). An engine is a small value that owns its sample store and
//! supplies four hooks: *grow the global population to `total` samples*
//! (recording the sampling counters and histograms of the new samples),
//! *how many bytes are resident*, *one greedy pass for `k` seeds*, and
//! *finish the report* (store-derived counters; for the communicator
//! engines also the cross-rank reductions, the `comm` section and the
//! gathered trace). In return the driver guarantees, for every engine:
//! the span names (`EstimateTheta/round-x/{sample,select}`, `Sample`,
//! `SelectSeeds`); the counter set (`theta_rounds`, `round_budgets`,
//! `round_coverage`, `select_iterations`, `theta_final`, `rrr_bytes_peak`
//! and the [`SelectStats`] totals); the θ semantics (rounds sized by
//! [`ImmParams::sizing_k`], `theta` is the global population of the final
//! pass); the `n < 2` result under the engine's own label; and the LT
//! in-weight check. [`seq`] holds the shared-memory and Tang engines,
//! [`dist`] the per-rank engine the two communicator engines specialise
//! with their batch sampler. See DESIGN.md §3.1.
//!
//! # Quickstart
//!
//! ```
//! use ripples_core::{ImmParams, maximize_influence};
//! use ripples_graph::{generators::erdos_renyi, WeightModel};
//! use ripples_diffusion::DiffusionModel;
//!
//! let graph = erdos_renyi(200, 1200, WeightModel::Constant(0.1), false, 42);
//! let params = ImmParams::new(10, 0.5, DiffusionModel::IndependentCascade, 1);
//! let result = maximize_influence(&graph, &params);
//! assert_eq!(result.seeds.len(), 10);
//! ```

#![warn(missing_docs)]

pub mod celf;
pub mod dist;
pub mod dist_sharded;
mod driver;
pub mod heuristics;
pub mod memory;
pub mod mt;
pub mod obs;
pub mod params;
pub mod phases;
pub mod result;
pub mod sample;
pub mod scaling;
pub mod select;
pub mod seq;
pub mod sketch;
pub mod theta;
pub mod tim;

pub use memory::MemoryStats;
pub use obs::RunReport;
pub use params::ImmParams;
pub use phases::{Phase, PhaseTimers};
pub use result::ImmResult;
pub use sample::{fused_sampling_is_profitable, SampleEngine, SamplerDispatch};
pub use select::{
    coverage_of, fused_is_profitable, select_with_engine_banned, select_with_engine_store,
    SelectEngine, SelectStats,
};
pub use sketch::{build_resident_sketch, ResidentSketchBuild};

/// Runs influence maximization with the recommended engine (multithreaded
/// IMM on all available cores) and returns the seed set plus full
/// instrumentation; the quickstart above calls it.
///
/// Equivalent to `mt::imm_multithreaded(graph, params, 0)`; call the
/// module-level entry points when you need a specific engine, thread
/// count, or communicator.
#[must_use]
pub fn maximize_influence(graph: &ripples_graph::Graph, params: &ImmParams) -> ImmResult {
    mt::imm_multithreaded(graph, params, 0)
}
