//! The classic Monte-Carlo greedy baseline with CELF lazy evaluation.
//!
//! Kempe et al. (2003) select seeds by greedy hill climbing on a
//! Monte-Carlo oracle for `E[|I(S)|]`; Leskovec et al. (2007) observed that
//! submodularity lets the greedy skip most marginal-gain re-evaluations
//! (CELF). The paper's related-work section positions IMM against exactly
//! this lineage, and the test suite uses this implementation to
//! cross-validate IMM's output quality on small graphs: both should find
//! seed sets of comparable expected influence.
//!
//! Complexity makes this baseline unusable beyond toy sizes (the paper: the
//! Kempe-era flow "could be run only on small networks"), which is itself
//! one of the reproduction's observable claims (`ripples --engine celf`
//! against `--engine opt` on the same input).

use crate::phases::PhaseTimers;
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a CELF greedy run.
#[derive(Clone, Debug)]
pub struct CelfResult {
    /// Selected seeds in selection order.
    pub seeds: Vec<Vertex>,
    /// Estimated expected influence after each prefix of `seeds`.
    pub spreads: Vec<f64>,
    /// Number of spread evaluations performed (the quantity CELF saves).
    pub evaluations: u64,
    /// Wall-clock timers (everything accrues to `Other`).
    pub timers: PhaseTimers,
}

/// Greedy seed selection on a Monte-Carlo spread oracle with CELF lazy
/// evaluation.
///
/// `trials` Monte-Carlo cascades are averaged per oracle call, with common
/// random numbers across calls (the same per-trial RNG streams), which
/// keeps marginal-gain estimates consistent and the lazy bound valid in
/// practice.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn celf_greedy(
    graph: &Graph,
    model: DiffusionModel,
    k: u32,
    trials: u32,
    seed: u64,
) -> CelfResult {
    assert!(trials > 0, "need at least one Monte-Carlo trial");
    let n = graph.num_vertices();
    let k = k.min(n);
    let factory = StreamFactory::new(seed);
    let mut timers = PhaseTimers::new();
    let mut evaluations = 0u64;

    let start = std::time::Instant::now();
    let mut seeds: Vec<Vertex> = Vec::with_capacity(k as usize);
    let mut spreads: Vec<f64> = Vec::with_capacity(k as usize);
    let mut current_spread = 0.0f64;

    // Initial pass: spread({v}) for every vertex.
    // f64 bit-ordering: spreads are non-negative, so to_bits is monotone.
    let mut heap: BinaryHeap<(u64, Reverse<Vertex>, u32)> = BinaryHeap::with_capacity(n as usize);
    let mut scratch: Vec<Vertex> = Vec::with_capacity(k as usize + 1);
    for v in 0..n {
        let s = estimate_spread(graph, model, &[v], trials, &factory);
        evaluations += 1;
        heap.push((s.to_bits(), Reverse(v), 0));
    }

    let mut round = 0u32;
    while seeds.len() < k as usize {
        let Some((gain_bits, Reverse(v), validated)) = heap.pop() else {
            break;
        };
        if validated < round {
            // Stale upper bound: re-evaluate v's marginal gain against the
            // current seed set and reinsert.
            scratch.clear();
            scratch.extend_from_slice(&seeds);
            scratch.push(v);
            let s = estimate_spread(graph, model, &scratch, trials, &factory);
            evaluations += 1;
            let marginal = (s - current_spread).max(0.0);
            heap.push((marginal.to_bits(), Reverse(v), round));
            continue;
        }
        seeds.push(v);
        current_spread += f64::from_bits(gain_bits);
        spreads.push(current_spread);
        round += 1;
    }
    timers.add(crate::phases::Phase::Other, start.elapsed());

    CelfResult {
        seeds,
        spreads,
        evaluations,
        timers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::{generators::erdos_renyi, GraphBuilder, WeightModel};

    #[test]
    fn picks_the_dominant_hub() {
        // Star with certain edges: center spreads to everything.
        let mut b = GraphBuilder::new(8);
        for v in 1..8 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let r = celf_greedy(&g, DiffusionModel::IndependentCascade, 1, 16, 3);
        assert_eq!(r.seeds, vec![0]);
        assert!((r.spreads[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn spreads_are_monotone() {
        let g = erdos_renyi(60, 360, WeightModel::Constant(0.15), false, 4);
        let r = celf_greedy(&g, DiffusionModel::IndependentCascade, 5, 64, 1);
        assert_eq!(r.seeds.len(), 5);
        for w in r.spreads.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "spread decreased: {:?}", r.spreads);
        }
    }

    #[test]
    fn lazy_saves_evaluations() {
        let g = erdos_renyi(80, 480, WeightModel::Constant(0.1), false, 7);
        let k = 5;
        let r = celf_greedy(&g, DiffusionModel::IndependentCascade, k, 32, 2);
        // Naive greedy would do n evaluations per round: n*k total.
        let naive = u64::from(g.num_vertices()) * u64::from(k);
        assert!(
            r.evaluations < naive / 2,
            "CELF used {} evaluations, naive would use {naive}",
            r.evaluations
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = erdos_renyi(50, 300, WeightModel::Constant(0.2), false, 9);
        let a = celf_greedy(&g, DiffusionModel::LinearThreshold, 3, 32, 5);
        let b = celf_greedy(&g, DiffusionModel::LinearThreshold, 3, 32, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn k_clamps_to_n() {
        let g = erdos_renyi(5, 10, WeightModel::Constant(0.5), false, 2);
        let r = celf_greedy(&g, DiffusionModel::IndependentCascade, 50, 8, 1);
        assert_eq!(r.seeds.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_trials_panics() {
        let g = erdos_renyi(5, 10, WeightModel::Constant(0.5), false, 2);
        let _ = celf_greedy(&g, DiffusionModel::IndependentCascade, 1, 0, 1);
    }
}
