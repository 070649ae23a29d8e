//! Regression: un-normalized Linear Threshold input is rejected in *every*
//! engine profile.
//!
//! LT sampling treats a vertex's in-weights as a probability partition of
//! `[0, 1]`; if they sum past 1 the threshold draw is silently biased.
//! Every engine entry point now validates the contract and panics with a
//! message naming the offending vertex, instead of quietly producing wrong
//! influence estimates.

use ripples_core::sample::SampleEngine;
use ripples_core::select::SelectEngine;
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A graph whose in-weight sums exceed 1 for many vertices (uniform random
/// weights, no LT normalization pass).
fn unnormalized() -> Graph {
    erdos_renyi(120, 1400, WeightModel::UniformRandom { seed: 5 }, false, 17)
}

/// The same topology with the LT normalization pass applied.
fn normalized() -> Graph {
    erdos_renyi(120, 1400, WeightModel::UniformRandom { seed: 5 }, true, 17)
}

fn lt_params() -> ImmParams {
    ImmParams::new(4, 0.5, DiffusionModel::LinearThreshold, 3)
}

/// Asserts that `run` panics and that the panic message names the LT
/// in-weight contract.
fn assert_rejected(profile: &str, run: impl FnOnce()) {
    let err = catch_unwind(AssertUnwindSafe(run))
        .expect_err(&format!("{profile}: un-normalized LT input was accepted"));
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("in-weight sum"),
        "{profile}: panic message does not name the offending vertex: {msg}"
    );
}

#[test]
fn unnormalized_lt_rejected_in_every_profile() {
    let g = unnormalized();
    let p = lt_params();
    assert_rejected("immopt", || {
        let _ = ripples_core::seq::immopt_sequential(&g, &p);
    });
    assert_rejected("baseline", || {
        let _ = ripples_core::seq::imm_baseline(&g, &p);
    });
    assert_rejected("mt", || {
        let _ = ripples_core::mt::imm_multithreaded(&g, &p, 2);
    });
    assert_rejected("tim", || {
        let _ = ripples_core::tim::tim_plus(&g, &p);
    });
    assert_rejected("dist", || {
        let comm = ripples_comm::SelfComm::new();
        let _ = ripples_core::dist::imm_distributed(&comm, &g, &p);
    });
    assert_rejected("sharded", || {
        let comm = ripples_comm::SelfComm::new();
        let _ = ripples_core::dist_sharded::imm_sharded(&comm, &g, &p);
    });
    assert_rejected("immopt --sample fused", || {
        let _ = ripples_core::seq::immopt_sequential_with_storage(
            &g,
            &p,
            SelectEngine::Sequential,
            SampleEngine::Fused,
            ripples_diffusion::StorageConfig::default(),
        );
    });
}

#[test]
fn normalized_lt_accepted_in_every_profile() {
    let g = normalized();
    let p = lt_params();
    assert_eq!(ripples_core::seq::immopt_sequential(&g, &p).seeds.len(), 4);
    assert_eq!(ripples_core::seq::imm_baseline(&g, &p).seeds.len(), 4);
    assert_eq!(
        ripples_core::mt::imm_multithreaded(&g, &p, 2).seeds.len(),
        4
    );
    assert_eq!(ripples_core::tim::tim_plus(&g, &p).seeds.len(), 4);
    let comm = ripples_comm::SelfComm::new();
    assert_eq!(
        ripples_core::dist::imm_distributed(&comm, &g, &p)
            .seeds
            .len(),
        4
    );
    assert_eq!(
        ripples_core::dist_sharded::imm_sharded(&comm, &g, &p)
            .seeds
            .len(),
        4
    );
}
