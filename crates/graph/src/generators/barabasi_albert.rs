//! Barabási–Albert preferential-attachment graphs.

use super::arcs_to_graph;
use crate::csr::Graph;
use crate::types::Vertex;
use crate::weights::WeightModel;
use ripples_rng::SplitMix64;

/// Generates an undirected Barabási–Albert graph (emitted as arcs in both
/// directions) with `n` vertices, each new vertex attaching to `attach`
/// existing vertices chosen proportionally to degree.
///
/// Uses the standard repeated-endpoint trick: sampling a uniform entry of
/// the running endpoint list is exactly degree-proportional sampling. The
/// arcs are that list: each edge adds both of its arcs, so the sources of
/// the arcs so far name every vertex as often as its degree.
///
/// # Panics
///
/// Panics if `attach == 0` or `n <= attach`.
#[must_use]
pub fn barabasi_albert(
    n: u32,
    attach: u32,
    model: WeightModel,
    lt_normalize: bool,
    seed: u64,
) -> Graph {
    assert!(attach > 0, "attach must be positive");
    assert!(n > attach, "need more vertices than attachments per vertex");
    let mut rng = SplitMix64::for_stream(seed, 0x4241);
    // Arc sources: vertex v is the source of deg(v) arcs.
    let mut arcs: Vec<(Vertex, Vertex)> = Vec::with_capacity(2 * (n as usize) * (attach as usize));

    // Seed clique-ish core: a path over the first `attach + 1` vertices so
    // every early vertex has nonzero degree.
    for v in 0..attach {
        let u = v;
        let w = v + 1;
        arcs.push((u, w));
        arcs.push((w, u));
    }

    let mut picked: Vec<Vertex> = Vec::with_capacity(attach as usize);
    for v in (attach + 1)..n {
        picked.clear();
        // Rejection loop: distinct targets for this vertex.
        while picked.len() < attach as usize {
            let t = arcs[rng.bounded_u64(arcs.len() as u64) as usize].0;
            if t != v && !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            arcs.push((v, t));
            arcs.push((t, v));
        }
    }
    arcs_to_graph(n, &arcs, model, lt_normalize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{out_degree_histogram, powerlaw_exponent_estimate};

    #[test]
    fn size_and_symmetry() {
        let g = barabasi_albert(300, 3, WeightModel::Constant(0.1), false, 5);
        assert_eq!(g.num_vertices(), 300);
        for (u, v, _) in g.edges() {
            assert!(g.has_edge(v, u), "missing reverse of ({u},{v})");
        }
        g.validate().unwrap();
    }

    #[test]
    fn heavy_tail() {
        let g = barabasi_albert(2000, 4, WeightModel::Constant(0.1), false, 9);
        let hist = out_degree_histogram(&g);
        let max_deg = hist.len() - 1;
        // Preferential attachment must grow hubs well past the attach count.
        assert!(max_deg > 20, "max degree {max_deg} suspiciously small");
        let gamma = powerlaw_exponent_estimate(&g, 8).expect("enough mass");
        assert!(
            (1.5..4.5).contains(&gamma),
            "exponent {gamma} outside scale-free range"
        );
    }

    #[test]
    fn deterministic() {
        let a = barabasi_albert(100, 2, WeightModel::Constant(0.1), false, 1);
        let b = barabasi_albert(100, 2, WeightModel::Constant(0.1), false, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn minimum_viable() {
        let g = barabasi_albert(3, 1, WeightModel::Constant(0.5), false, 2);
        assert_eq!(g.num_vertices(), 3);
        assert!(g.num_edges() >= 4);
    }

    #[test]
    #[should_panic(expected = "attach must be positive")]
    fn zero_attach_panics() {
        let _ = barabasi_albert(10, 0, WeightModel::Constant(0.1), false, 1);
    }
}
