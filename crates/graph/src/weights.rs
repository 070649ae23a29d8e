//! Edge-probability models.
//!
//! The paper assigns IC probabilities "uniformly at random in the range
//! [0; 1]" (§4, Experimental Setup), explicitly contrasting with Tang et
//! al.'s constant 0.10, and notes that the choice changes runtimes
//! nonlinearly. The weighted-cascade and trivalency schemes are the other
//! two standard assignments in the influence-maximization literature and are
//! provided for parameter-sensitivity studies.

use crate::csr::ProbStore;
use crate::rows::Rows;
use ripples_rng::SplitMix64;

/// How activation probabilities are assigned to edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightModel {
    /// Every edge gets an independent uniform draw from `[0, 1)` — the
    /// paper's setting. The seed makes assignment deterministic.
    UniformRandom {
        /// Seed for the per-edge stream derivation.
        seed: u64,
    },
    /// Every edge gets the same probability (Tang et al. use 0.10).
    Constant(
        /// The shared probability.
        f32,
    ),
    /// Edge `(u, v)` gets `1 / in-degree(v)` — the weighted-cascade model of
    /// Kempe et al., under which every vertex's incoming weight sums to
    /// exactly one.
    WeightedCascade,
    /// Every edge draws uniformly from the trivalency set {0.1, 0.01, 0.001}
    /// (Chen et al.).
    Trivalency {
        /// Seed for the per-edge stream derivation.
        seed: u64,
    },
}

impl WeightModel {
    /// Whether the model draws one probability per edge.
    pub(crate) fn draws_per_edge(self) -> bool {
        matches!(
            self,
            WeightModel::UniformRandom { .. } | WeightModel::Trivalency { .. }
        )
    }

    /// The probabilities of a deduplicated graph given as its coded
    /// reverse rows and their edge offsets; a model that [draws per
    /// edge](WeightModel::draws_per_edge) is also handed `out_offsets`,
    /// where each source's out-edges start in forward order.
    ///
    /// Weighted cascade and a constant give one value per in-row. The
    /// randomized models key each edge's draw on its *position in forward
    /// CSR order* (by source, then by target), so the assignment is a pure
    /// function of (model, edge set), whatever order edges were inserted in.
    pub(crate) fn assign(
        self,
        rows: &Rows,
        in_offsets: Vec<u32>,
        out_offsets: Option<Vec<u32>>,
    ) -> ProbStore {
        let out_offsets = || out_offsets.expect("a per-edge model is handed the out-offsets");
        match self {
            WeightModel::UniformRandom { seed } => {
                // The stream is a counter, so any draw can be made on its own.
                let rng = SplitMix64::for_stream(seed, 0x57_45_49_47);
                per_edge(rows, out_offsets(), in_offsets, |position| {
                    let mut rng = rng.clone();
                    rng.skip(position as u64);
                    rng.unit_f64() as f32
                })
            }
            WeightModel::Constant(p) => per_vertex(&in_offsets, |_| p.clamp(0.0, 1.0)),
            WeightModel::WeightedCascade => per_vertex(&in_offsets, |degree| 1.0 / degree as f32),
            WeightModel::Trivalency { seed } => {
                // A rejected draw would shift the rest: draw them in order.
                const LEVELS: [f32; 3] = [0.1, 0.01, 0.001];
                let mut rng = SplitMix64::for_stream(seed, 0x54_52_49_56);
                let mut drawn = vec![0.0; rows.num_edges()];
                drawn.fill_with(|| LEVELS[rng.bounded_u64(3) as usize]);
                per_edge(rows, out_offsets(), in_offsets, |position| drawn[position])
            }
        }
    }
}

/// `value(in-degree)` for every vertex with in-edges, 0.0 for the others.
fn per_vertex(in_offsets: &[u32], value: impl Fn(usize) -> f32) -> ProbStore {
    let degrees = in_offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
    let probs = degrees.map(|d| if d == 0 { 0.0 } else { value(d) });
    ProbStore::PerVertex(probs.collect())
}

/// `value(position)` for every edge, its position in forward order, stored
/// in in-row order. A cursor per source, starting at its out-offset, gives
/// the positions: in-rows are visited by ascending target.
fn per_edge(
    rows: &Rows,
    mut next: Vec<u32>,
    in_offsets: Vec<u32>,
    value: impl Fn(usize) -> f32,
) -> ProbStore {
    let mut probs = Vec::with_capacity(rows.num_edges());
    rows.sources().for_each(|u| {
        next[u as usize] += 1;
        probs.push(value(next[u as usize] as usize - 1));
    });
    ProbStore::new(in_offsets, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star(model: WeightModel) -> crate::Graph {
        // Edges 0->3, 1->3, 2->3 plus 3->0.
        let mut b = GraphBuilder::new(4).assign_weights(model);
        for u in 0..3 {
            b.add_arc(u, 3).unwrap();
        }
        b.add_arc(3, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn constant_assigns_everywhere() {
        let g = star(WeightModel::Constant(0.1));
        for (_, _, p) in g.edges() {
            assert!((p - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_clamps() {
        let g = star(WeightModel::Constant(7.0));
        for (_, _, p) in g.edges() {
            assert_eq!(p, 1.0);
        }
    }

    #[test]
    fn weighted_cascade_sums_to_one() {
        let g = star(WeightModel::WeightedCascade);
        assert!((g.in_weight_sum(3) - 1.0).abs() < 1e-6);
        assert!((g.in_weight_sum(0) - 1.0).abs() < 1e-6);
        for (_, v, p) in g.edges() {
            assert!((p - 1.0 / g.in_degree(v) as f32).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let a = star(WeightModel::UniformRandom { seed: 5 });
        let b = star(WeightModel::UniformRandom { seed: 5 });
        let c = star(WeightModel::UniformRandom { seed: 6 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_random_in_unit_interval() {
        let g = star(WeightModel::UniformRandom { seed: 1 });
        for (_, _, p) in g.edges() {
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn trivalency_uses_levels() {
        let g = star(WeightModel::Trivalency { seed: 9 });
        for (_, _, p) in g.edges() {
            assert!([0.1f32, 0.01, 0.001].iter().any(|&l| (p - l).abs() < 1e-9));
        }
    }

    #[test]
    fn model_is_copy_and_comparable() {
        let m = WeightModel::UniformRandom { seed: 42 };
        let m2 = m;
        assert_eq!(m, m2);
        assert_ne!(m, WeightModel::WeightedCascade);
    }
}
