//! Graph summary statistics (the columns of the paper's Table 2).

use crate::csr::Graph;

/// The per-graph summary the paper reports in Table 2: vertex count, edge
/// count, average degree, and maximum degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub nodes: u32,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree (m / n).
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
}

impl GraphStats {
    /// Computes the summary for `graph`.
    #[must_use]
    pub fn of(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let max_in = (0..n).map(|v| graph.in_degree(v)).max().unwrap_or(0);
        Self {
            nodes: n,
            edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / f64::from(n) },
            max_out_degree: out_degrees(graph).into_iter().max().unwrap_or(0),
            max_in_degree: max_in,
        }
    }
}

/// Every vertex's out-degree, counted in one pass over the reverse CSR's
/// sources, so that a summary never builds the graph's forward view.
fn out_degrees(graph: &Graph) -> Vec<usize> {
    let mut degrees = vec![0; graph.num_vertices() as usize];
    graph.rows.sources().for_each(|u| degrees[u as usize] += 1);
    degrees
}

/// Histogram of out-degrees: entry `d` counts vertices with out-degree `d`.
/// The vector is truncated after the last nonzero entry.
#[must_use]
pub fn out_degree_histogram(graph: &Graph) -> Vec<usize> {
    let mut hist = Vec::new();
    for d in out_degrees(graph) {
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// An empirical estimate of the power-law exponent of the degree
/// distribution via the Hill estimator over degrees ≥ `d_min`.
///
/// Returns `None` when fewer than 10 vertices meet the cut-off. Used by the
/// generator tests to confirm the SNAP stand-ins are heavy-tailed.
#[must_use]
pub fn powerlaw_exponent_estimate(graph: &Graph, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let mut log_sum = 0.0f64;
    let mut count = 0usize;
    for d in out_degrees(graph) {
        if d >= d_min {
            log_sum += (d as f64 / d_min as f64).ln();
            count += 1;
        }
    }
    if count < 10 {
        return None;
    }
    Some(1.0 + count as f64 / log_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_on_star() {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 4);
        assert!((s.avg_degree - 0.8).abs() < 1e-9);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
    }

    #[test]
    fn stats_on_empty() {
        let g = GraphBuilder::new(0).build().unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn histogram_counts() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let h = out_degree_histogram(&g);
        // degrees: 0 -> 2, 1 -> 1, 2 -> 0, 3 -> 0
        assert_eq!(h, vec![2, 1, 1]);
    }

    #[test]
    fn summaries_do_not_build_the_forward_view() {
        let g = crate::generators::barabasi_albert(
            300,
            3,
            crate::WeightModel::WeightedCascade,
            false,
            2,
        );
        let before = g.resident_bytes();
        let s = GraphStats::of(&g);
        let h = out_degree_histogram(&g);
        assert_eq!(g.resident_bytes(), before);
        // The same figures as the forward view gives.
        let max_out = (0..g.num_vertices()).map(|v| g.out_degree(v)).max();
        assert_eq!(Some(s.max_out_degree), max_out);
        assert_eq!(h.iter().sum::<usize>(), 300);
        assert!(g.resident_bytes() > before, "out_degree builds the view");
    }

    #[test]
    fn powerlaw_estimate_requires_mass() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert!(powerlaw_exponent_estimate(&g, 1).is_none());
    }
}
