//! Scaled-down synthetic analogues of the paper's eight SNAP datasets.
//!
//! Table 2 of the paper evaluates on eight SNAP graphs that cannot be
//! redistributed here. Each [`StandinSpec`] records the original graph's
//! vitals (vertex count, edge count, directedness) and R-MAT skew parameters
//! chosen so the stand-in reproduces the original's qualitative degree
//! profile (heavy-tailed for the social networks, milder for com-Amazon /
//! com-DBLP, extreme for com-YouTube). Building at `divisor = d` produces a
//! graph with roughly `n/d` vertices and `m/d` edges — average degree, the
//! quantity that drives sampling cost, is preserved at every divisor.
//!
//! Experiments that want the real datasets can load them with
//! [`crate::io::read_edge_list_file`] and reuse every downstream harness
//! unchanged.

use super::rmat::{rmat, RmatConfig};
use crate::csr::Graph;
use crate::weights::WeightModel;

/// A catalogue entry describing one SNAP graph and its stand-in generator.
#[derive(Clone, Copy, Debug)]
pub struct StandinSpec {
    /// SNAP dataset name (e.g. `"cit-HepTh"`).
    pub name: &'static str,
    /// Vertex count of the original dataset.
    pub orig_nodes: u64,
    /// Edge count of the original dataset (undirected count for the `com-*`
    /// graphs, matching the paper's Table 2).
    pub orig_edges: u64,
    /// Whether the original is a directed graph.
    pub directed: bool,
    /// R-MAT top-left quadrant probability (degree skew knob).
    pub rmat_a: f64,
    /// R-MAT top-right quadrant probability.
    pub rmat_b: f64,
    /// R-MAT bottom-left quadrant probability.
    pub rmat_c: f64,
    /// Divisor giving a single-node-friendly default size.
    pub default_divisor: u32,
}

impl StandinSpec {
    /// Builds the stand-in scaled down by `divisor` (1 = full size).
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    #[must_use]
    pub fn build(&self, divisor: u32, model: WeightModel, lt_normalize: bool) -> Graph {
        assert!(divisor > 0, "divisor must be positive");
        let target_nodes = (self.orig_nodes / u64::from(divisor)).max(64);
        let target_edges = (self.orig_edges / u64::from(divisor)).max(128) as usize;
        // R-MAT vertex-id spaces are powers of two; round up so the realized
        // average degree errs slightly low rather than high.
        let scale = 64 - (target_nodes - 1).leading_zeros();
        let config = RmatConfig {
            scale,
            edges: target_edges,
            a: self.rmat_a,
            b: self.rmat_b,
            c: self.rmat_c,
            undirected: !self.directed,
            seed: stable_name_seed(self.name),
        };
        rmat(&config, model, lt_normalize)
    }

    /// The paper's average degree for the original dataset (out+in for the
    /// undirected graphs, as in Table 2).
    #[must_use]
    pub fn orig_avg_degree(&self) -> f64 {
        let deg_edges = if self.directed {
            self.orig_edges
        } else {
            2 * self.orig_edges
        };
        deg_edges as f64 / self.orig_nodes as f64
    }
}

/// Deterministic per-name seed so each stand-in is stable across runs.
fn stable_name_seed(name: &str) -> u64 {
    // FNV-1a; any stable string hash works.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The eight graphs of the paper's Table 2, in the paper's order.
#[must_use]
pub fn standin_catalog() -> &'static [StandinSpec] {
    const CATALOG: [StandinSpec; 8] = [
        StandinSpec {
            name: "cit-HepTh",
            orig_nodes: 27_770,
            orig_edges: 352_807,
            directed: true,
            rmat_a: 0.55,
            rmat_b: 0.20,
            rmat_c: 0.20,
            default_divisor: 8,
        },
        StandinSpec {
            name: "soc-Epinions1",
            orig_nodes: 75_879,
            orig_edges: 508_837,
            directed: true,
            rmat_a: 0.57,
            rmat_b: 0.19,
            rmat_c: 0.19,
            default_divisor: 8,
        },
        StandinSpec {
            name: "com-Amazon",
            orig_nodes: 334_863,
            orig_edges: 925_872,
            directed: false,
            rmat_a: 0.45,
            rmat_b: 0.22,
            rmat_c: 0.22,
            default_divisor: 16,
        },
        StandinSpec {
            name: "com-DBLP",
            orig_nodes: 317_080,
            orig_edges: 1_049_866,
            directed: false,
            rmat_a: 0.45,
            rmat_b: 0.22,
            rmat_c: 0.22,
            default_divisor: 16,
        },
        StandinSpec {
            name: "com-YouTube",
            orig_nodes: 1_134_890,
            orig_edges: 2_987_624,
            directed: false,
            rmat_a: 0.63,
            rmat_b: 0.17,
            rmat_c: 0.17,
            default_divisor: 32,
        },
        StandinSpec {
            name: "soc-Pokec",
            orig_nodes: 1_632_803,
            orig_edges: 30_622_564,
            directed: true,
            rmat_a: 0.57,
            rmat_b: 0.19,
            rmat_c: 0.19,
            default_divisor: 64,
        },
        StandinSpec {
            name: "soc-LiveJournal1",
            orig_nodes: 4_847_571,
            orig_edges: 68_993_773,
            directed: true,
            rmat_a: 0.57,
            rmat_b: 0.19,
            rmat_c: 0.19,
            default_divisor: 128,
        },
        StandinSpec {
            name: "com-Orkut",
            orig_nodes: 3_072_441,
            orig_edges: 117_185_083,
            directed: false,
            rmat_a: 0.57,
            rmat_b: 0.19,
            rmat_c: 0.19,
            default_divisor: 128,
        },
    ];
    &CATALOG
}

/// Looks a stand-in up by its SNAP name (case-insensitive).
#[must_use]
pub fn standin(name: &str) -> Option<&'static StandinSpec> {
    standin_catalog()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn catalog_has_paper_order() {
        let names: Vec<&str> = standin_catalog().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "cit-HepTh",
                "soc-Epinions1",
                "com-Amazon",
                "com-DBLP",
                "com-YouTube",
                "soc-Pokec",
                "soc-LiveJournal1",
                "com-Orkut"
            ]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(standin("CIT-HEPTH").is_some());
        assert!(standin("nope").is_none());
    }

    #[test]
    fn orig_avg_degree_matches_table2() {
        // Paper's Table 2: cit-HepTh 12.70, com-Amazon 5.53.
        let hep = standin("cit-HepTh").unwrap();
        assert!((hep.orig_avg_degree() - 12.70).abs() < 0.02);
        let amz = standin("com-Amazon").unwrap();
        assert!((amz.orig_avg_degree() - 5.53).abs() < 0.02);
    }

    #[test]
    fn builds_at_small_scale() {
        // Use a large divisor so the test is fast.
        let spec = standin("cit-HepTh").unwrap();
        let g = spec.build(32, WeightModel::Constant(0.1), false);
        assert!(g.num_vertices() >= 64);
        assert!(g.num_edges() > 1_000);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic_per_name() {
        let spec = standin("soc-Epinions1").unwrap();
        let a = spec.build(64, WeightModel::Constant(0.1), false);
        let b = spec.build(64, WeightModel::Constant(0.1), false);
        assert_eq!(a, b);
    }

    #[test]
    fn degree_preserved_across_divisors() {
        let spec = standin("soc-Epinions1").unwrap();
        let coarse = spec.build(64, WeightModel::Constant(0.1), false);
        let fine = spec.build(32, WeightModel::Constant(0.1), false);
        let d_coarse = GraphStats::of(&coarse).avg_degree;
        let d_fine = GraphStats::of(&fine).avg_degree;
        // Dedup losses differ slightly between sizes; degrees stay close.
        assert!(
            (d_coarse - d_fine).abs() / d_fine < 0.5,
            "avg degree drifted: {d_coarse} vs {d_fine}"
        );
    }

    #[test]
    fn undirected_standins_are_symmetric() {
        let spec = standin("com-Amazon").unwrap();
        let g = spec.build(64, WeightModel::Constant(0.1), false);
        for (u, v, _) in g.edges().take(500) {
            assert!(g.has_edge(v, u));
        }
    }
}
