//! Community-based influence maximization (the CIM heuristic family).
//!
//! The paper's related work (§2) covers approaches that accelerate
//! influence maximization by mining communities independently — including
//! the authors' own prior system (Halappanavar et al., reference \[14\]:
//! community detection + proportional seed allocation) — and names their
//! "major shortcoming …: the inability to include the effects of
//! inter-community edges since the subgraphs are disjoint."
//!
//! This module implements that heuristic so the claim is *measurable*: on
//! modular graphs the heuristic is competitive and cheap; as inter-community
//! coupling grows, exact IMM pulls ahead (see
//! `examples`/`tests/quality.rs`).

use crate::params::ImmParams;
use crate::phases::PhaseTimers;
use crate::seq::immopt_sequential;
use ripples_centrality::community::label_propagation;
use ripples_graph::{split_by_labels, Graph, Vertex};

/// Result of the community-based heuristic.
#[derive(Clone, Debug)]
pub struct CommunityImmResult {
    /// The combined seed set (parent-graph vertex ids).
    pub seeds: Vec<Vertex>,
    /// Number of communities detected.
    pub communities: u32,
    /// Seeds allocated per community (aligned with community labels).
    pub allocation: Vec<u32>,
    /// Wall-clock timers (detection charged to `Other`).
    pub timers: PhaseTimers,
}

/// Proportional seat allocation: community `c` gets
/// `round(k · size_c / n)` seeds, with largest-remainder correction so the
/// total is exactly `min(k, n)` and no community exceeds its size.
fn allocate_seats(sizes: &[usize], k: u32) -> Vec<u32> {
    let n: usize = sizes.iter().sum();
    if n == 0 {
        return vec![0; sizes.len()];
    }
    let k = (k as usize).min(n);
    // Floor allocation + fractional remainders.
    let mut seats: Vec<u32> = Vec::with_capacity(sizes.len());
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(sizes.len());
    let mut assigned = 0usize;
    for (c, &s) in sizes.iter().enumerate() {
        let exact = k as f64 * s as f64 / n as f64;
        let floor = (exact.floor() as usize).min(s);
        seats.push(floor as u32);
        assigned += floor;
        remainders.push((exact - floor as f64, c));
    }
    // Largest remainders get the leftover seats (ties by community id for
    // determinism), skipping communities already at capacity. `total_cmp`
    // is a total order over every f64 bit pattern, so degenerate
    // remainders (−0.0, values that round-trip to NaN under future
    // arithmetic changes) can never panic the sort the way
    // `partial_cmp(..).unwrap()` could.
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = k - assigned;
    let mut idx = 0usize;
    while leftover > 0 {
        let (_, c) = remainders[idx % remainders.len()];
        if (seats[c] as usize) < sizes[c] {
            seats[c] += 1;
            leftover -= 1;
        }
        idx += 1;
        // Safety: k ≤ n guarantees capacity exists somewhere.
    }
    seats
}

/// Runs the community-based heuristic: label-propagation communities,
/// proportional seat allocation, independent IMM per community subgraph.
///
/// Same parameter semantics as the exact algorithms; `params.k` is the
/// *total* budget. Communities allocated zero seats are skipped entirely —
/// the source of both the speed advantage and the quality gap.
#[must_use]
pub fn community_imm(graph: &Graph, params: &ImmParams) -> CommunityImmResult {
    let mut timers = PhaseTimers::new();
    let communities = timers.record(crate::phases::Phase::Other, || {
        label_propagation(graph, 32, params.seed ^ 0xC1A)
    });
    if communities.count == 0 {
        return CommunityImmResult {
            seeds: Vec::new(),
            communities: 0,
            allocation: Vec::new(),
            timers,
        };
    }
    let sizes = communities.sizes();
    let allocation = allocate_seats(&sizes, params.effective_k(graph.num_vertices()));
    let parts = split_by_labels(graph, &communities.labels, communities.count);

    let mut seeds: Vec<Vertex> = Vec::with_capacity(params.k as usize);
    for (c, part) in parts.iter().enumerate() {
        let k_c = allocation[c];
        if k_c == 0 {
            continue;
        }
        let sub_params =
            ImmParams::new(k_c, params.epsilon, params.model, params.seed ^ (c as u64))
                .with_ell(params.ell);
        let sub_result = immopt_sequential(&part.graph, &sub_params);
        timers.merge(&sub_result.timers);
        seeds.extend(sub_result.seeds.iter().map(|&v| part.to_parent(v)));
    }
    CommunityImmResult {
        seeds,
        communities: communities.count,
        allocation,
        timers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::{estimate_spread, DiffusionModel};
    use ripples_graph::generators::{coexpression, CoexpressionConfig};
    use ripples_graph::{GraphBuilder, WeightModel};
    use ripples_rng::StreamFactory;

    #[test]
    fn seats_proportional_and_exact() {
        assert_eq!(allocate_seats(&[50, 30, 20], 10), vec![5, 3, 2]);
        let seats = allocate_seats(&[10, 10, 10], 10);
        assert_eq!(seats.iter().sum::<u32>(), 10);
        // Rounding remainder lands deterministically.
        let seats = allocate_seats(&[7, 5, 3], 4);
        assert_eq!(seats.iter().sum::<u32>(), 4);
    }

    #[test]
    fn seats_capped_by_community_size() {
        let seats = allocate_seats(&[2, 98], 50);
        assert!(seats[0] <= 2);
        assert_eq!(seats.iter().sum::<u32>(), 50);
    }

    #[test]
    fn seats_handle_k_exceeding_n() {
        let seats = allocate_seats(&[3, 2], 100);
        assert_eq!(seats, vec![3, 2]);
    }

    #[test]
    fn seats_survive_degenerate_remainders() {
        // Exact divisions give every community remainder 0.0 (some
        // computed as `exact - floor` where the subtraction can produce
        // -0.0): the tie-break must stay total and deterministic.
        let seats = allocate_seats(&[25, 25, 25, 25], 8);
        assert_eq!(seats, vec![2, 2, 2, 2]);
        // A single-vertex sea of communities: all remainders equal, the
        // id tie-break hands leftovers to the lowest ids.
        let sizes = vec![1usize; 7];
        let seats = allocate_seats(&sizes, 3);
        assert_eq!(seats, vec![1, 1, 1, 0, 0, 0, 0]);
        // Mix of zero-size (remainder exactly 0.0, capacity 0) and tiny
        // communities: zero-size entries sort without panicking and never
        // receive a seat.
        let seats = allocate_seats(&[0, 4, 0, 4], 5);
        assert_eq!(seats[0], 0);
        assert_eq!(seats[2], 0);
        assert_eq!(seats.iter().sum::<u32>(), 5);
        // Large counts whose f64 products are inexact still allocate the
        // full budget.
        let sizes = vec![3usize; 333];
        let seats = allocate_seats(&sizes, 100);
        assert_eq!(seats.iter().sum::<u32>(), 100);
        assert!(seats.iter().all(|&s| s <= 3));
    }

    #[test]
    fn returns_full_budget_on_modular_graph() {
        let cfg = CoexpressionConfig {
            modules: 6,
            module_size: 30,
            hubs: 0,
            intra_density: 0.3,
            inter_edges_per_pair: 0.2,
            hub_coverage: 0.0,
            seed: 5,
        };
        let g = coexpression(&cfg, WeightModel::WeightedCascade, false);
        let p = ImmParams::new(12, 0.5, DiffusionModel::IndependentCascade, 3);
        let r = community_imm(&g, &p);
        assert_eq!(r.seeds.len(), 12);
        assert!(r.communities >= 2, "found {} communities", r.communities);
        let mut sorted = r.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "duplicate seeds across communities");
        assert_eq!(r.allocation.iter().sum::<u32>(), 12);
    }

    #[test]
    fn competitive_on_modular_weak_on_coupled() {
        // The paper's stated shortcoming, measured: the heuristic tracks
        // exact IMM on a strongly modular graph, and exact IMM stays at
        // least as good everywhere.
        let modular_cfg = CoexpressionConfig {
            modules: 8,
            module_size: 40,
            hubs: 0,
            intra_density: 0.25,
            inter_edges_per_pair: 0.2,
            hub_coverage: 0.0,
            seed: 8,
        };
        let g = coexpression(&modular_cfg, WeightModel::WeightedCascade, false);
        let model = DiffusionModel::IndependentCascade;
        let p = ImmParams::new(8, 0.5, model, 9);
        let exact = immopt_sequential(&g, &p);
        let heur = community_imm(&g, &p);
        let factory = StreamFactory::new(71);
        let exact_spread = estimate_spread(&g, model, &exact.seeds, 600, &factory);
        let heur_spread = estimate_spread(&g, model, &heur.seeds, 600, &factory);
        assert!(
            heur_spread >= 0.75 * exact_spread,
            "heuristic collapsed on modular input: {heur_spread} vs {exact_spread}"
        );
        assert!(
            exact_spread >= 0.95 * heur_spread,
            "exact IMM lost to the heuristic: {exact_spread} vs {heur_spread}"
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = community_imm(&g, &p);
        assert!(r.seeds.is_empty());
        assert_eq!(r.communities, 0);
    }
}
