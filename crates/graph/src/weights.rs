//! Edge-probability models.
//!
//! The paper assigns IC probabilities "uniformly at random in the range
//! [0; 1]" (§4, Experimental Setup), explicitly contrasting with Tang et
//! al.'s constant 0.10, and notes that the choice changes runtimes
//! nonlinearly. The weighted-cascade and trivalency schemes are the other
//! two standard assignments in the influence-maximization literature and are
//! provided for parameter-sensitivity studies.

use crate::types::Vertex;
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
    /// The probabilities of the deduplicated edges whose targets are
    /// `targets`, in forward CSR order (by source, then by target).
    ///
    /// Randomized models key each edge's draw on its *position in that
    /// order*, so the assignment is a pure function of (model, edge set) —
    /// independent of the order edges were inserted in.
    pub(crate) fn assign(self, num_vertices: u32, targets: &[Vertex]) -> Vec<f32> {
        match self {
            WeightModel::UniformRandom { seed } => {
                let mut rng = SplitMix64::for_stream(seed, 0x57_45_49_47);
                targets.iter().map(|_| rng.unit_f64() as f32).collect()
            }
            WeightModel::Constant(p) => vec![p.clamp(0.0, 1.0); targets.len()],
            WeightModel::WeightedCascade => {
                let mut in_deg = vec![0u32; num_vertices as usize];
                for &v in targets {
                    in_deg[v as usize] += 1;
                }
                targets
                    .iter()
                    .map(|&v| 1.0 / in_deg[v as usize] as f32)
                    .collect()
            }
            WeightModel::Trivalency { seed } => {
                const LEVELS: [f32; 3] = [0.1, 0.01, 0.001];
                let mut rng = SplitMix64::for_stream(seed, 0x54_52_49_56);
                targets
                    .iter()
                    .map(|_| LEVELS[rng.bounded_u64(3) as usize])
                    .collect()
            }
        }
    }
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
