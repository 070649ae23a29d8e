//! Classic seed-selection heuristics from the paper's related work, used as
//! quality baselines: DegreeDiscount (Chen et al., KDD'09) and plain
//! high-degree / random selection.
//!
//! The paper (§2) credits degree discounting with "excellent speedups … on
//! relatively large datasets" while noting it forfeits the approximation
//! guarantee — a trade the quality tests quantify against IMM.

use ripples_graph::{Graph, Vertex};
use ripples_rng::SplitMix64;

/// DegreeDiscountIC (Chen, Wang, Yang 2009), tuned for the Independent
/// Cascade model with a representative propagation probability `p`.
///
/// Each round picks the vertex maximizing the discounted degree
/// `dd(v) = d(v) − 2·t(v) − (d(v) − t(v))·t(v)·p`, where `t(v)` counts v's
/// already-selected neighbors. Runs in `O(k·log n + m)` with a lazy
/// rescoring pass (here: simple argmax per round, adequate at library
/// scale).
///
/// # Panics
///
/// Panics unless `p ∈ [0, 1]`.
#[must_use]
pub fn degree_discount_ic(graph: &Graph, k: u32, p: f64) -> Vec<Vertex> {
    assert!((0.0..=1.0).contains(&p), "propagation probability in [0,1]");
    let n = graph.num_vertices();
    let k = k.min(n);
    let degree: Vec<f64> = (0..n).map(|v| graph.out_degree(v) as f64).collect();
    let mut tickets = vec![0.0f64; n as usize]; // t(v): selected neighbors
    let mut selected = vec![false; n as usize];
    let mut seeds = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let mut best: Option<(f64, Vertex)> = None;
        for v in 0..n {
            if selected[v as usize] {
                continue;
            }
            let d = degree[v as usize];
            let t = tickets[v as usize];
            let dd = d - 2.0 * t - (d - t) * t * p;
            match best {
                Some((bd, bv)) if bd > dd || (bd == dd && bv < v) => {}
                _ => best = Some((dd, v)),
            }
        }
        let Some((_, v)) = best else { break };
        selected[v as usize] = true;
        seeds.push(v);
        // Discount the neighbors' scores.
        for u in graph
            .out_neighbors(v)
            .iter()
            .copied()
            .chain(graph.in_neighbors(v))
        {
            if !selected[u as usize] {
                tickets[u as usize] += 1.0;
            }
        }
    }
    seeds
}

/// The `k` highest out-degree vertices (ties by id).
#[must_use]
pub fn high_degree_seeds(graph: &Graph, k: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let k = k.min(n) as usize;
    let mut order: Vec<Vertex> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
    order.truncate(k);
    order
}

/// `k` distinct uniform-random vertices (deterministic in `seed`).
#[must_use]
pub fn random_seeds(graph: &Graph, k: u32, seed: u64) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let k = k.min(n) as usize;
    let mut rng = SplitMix64::for_stream(seed, 0x52_41_4E_44);
    let mut pool: Vec<Vertex> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.bounded_u64((n as usize - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::barabasi_albert;
    use ripples_graph::{GraphBuilder, WeightModel};

    #[test]
    fn degree_discount_starts_with_top_degree() {
        let g = barabasi_albert(500, 3, WeightModel::Constant(0.05), false, 5);
        let dd = degree_discount_ic(&g, 1, 0.05);
        let hd = high_degree_seeds(&g, 1);
        assert_eq!(dd, hd, "first pick must be the max-degree vertex");
    }

    #[test]
    fn degree_discount_spreads_out_of_neighborhoods() {
        // Two stars; k = 2 should take both centers, not a center + spoke.
        let mut b = GraphBuilder::new(12);
        for v in 1..6 {
            b.add_undirected(0, v, 0.1).unwrap();
        }
        for v in 7..12 {
            b.add_undirected(6, v, 0.1).unwrap();
        }
        let g = b.build().unwrap();
        let dd = degree_discount_ic(&g, 2, 0.1);
        assert_eq!(dd, vec![0, 6]);
    }

    #[test]
    fn degree_discount_distinct_and_sized() {
        let g = barabasi_albert(300, 4, WeightModel::Constant(0.1), false, 6);
        let dd = degree_discount_ic(&g, 25, 0.1);
        assert_eq!(dd.len(), 25);
        let mut s = dd.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn high_degree_ordering() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 0, 1.0).unwrap();
        b.add_edge(2, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(1, 0, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(high_degree_seeds(&g, 2), vec![2, 1]);
    }

    #[test]
    fn random_seeds_distinct_and_deterministic() {
        let g = barabasi_albert(100, 2, WeightModel::Constant(0.1), false, 3);
        let a = random_seeds(&g, 20, 7);
        let b = random_seeds(&g, 20, 7);
        let c = random_seeds(&g, 20, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn k_clamps() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(degree_discount_ic(&g, 10, 0.1).len(), 3);
        assert_eq!(high_degree_seeds(&g, 10).len(), 3);
        assert_eq!(random_seeds(&g, 10, 1).len(), 3);
    }
}
