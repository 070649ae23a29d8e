//! Betweenness centrality via Brandes' algorithm.
//!
//! §5 of the paper compares IMM seed sets against betweenness rankings on
//! the biology networks ("a measure of how many shortest paths linking two
//! random nodes pass through the node in question"). Brandes (2001) computes
//! exact betweenness in O(nm) for unweighted graphs by accumulating
//! dependencies over one BFS DAG per source; sources are embarrassingly
//! parallel, which rayon exploits here.

use rayon::prelude::*;
use ripples_graph::{Graph, Vertex};

/// Per-source Brandes accumulation state.
struct BrandesScratch {
    dist: Vec<i32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<Vertex>,
    queue: std::collections::VecDeque<Vertex>,
}

impl BrandesScratch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![-1; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Accumulates source `s`'s dependency contribution into `out`.
    fn accumulate(&mut self, graph: &Graph, s: Vertex, out: &mut [f64]) {
        self.dist.fill(-1);
        self.sigma.fill(0.0);
        self.delta.fill(0.0);
        self.order.clear();
        self.queue.clear();

        self.dist[s as usize] = 0;
        self.sigma[s as usize] = 1.0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            self.order.push(u);
            let du = self.dist[u as usize];
            for &v in graph.out_neighbors(u) {
                let vi = v as usize;
                if self.dist[vi] < 0 {
                    self.dist[vi] = du + 1;
                    self.queue.push_back(v);
                }
                if self.dist[vi] == du + 1 {
                    self.sigma[vi] += self.sigma[u as usize];
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        for &u in self.order.iter().rev() {
            let du = self.dist[u as usize];
            for &v in graph.out_neighbors(u) {
                if self.dist[v as usize] == du + 1 {
                    let share = self.sigma[u as usize] / self.sigma[v as usize]
                        * (1.0 + self.delta[v as usize]);
                    self.delta[u as usize] += share;
                }
            }
            if u != s {
                out[u as usize] += self.delta[u as usize];
            }
        }
    }
}

/// Exact betweenness centrality (directed; unweighted shortest paths).
#[must_use]
pub fn betweenness_centrality(graph: &Graph) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let sources: Vec<Vertex> = (0..graph.num_vertices()).collect();
    sources
        .par_chunks(64.max(sources.len() / 64))
        .map(|chunk| {
            let mut scratch = BrandesScratch::new(n);
            let mut local = vec![0.0f64; n];
            for &s in chunk {
                scratch.accumulate(graph, s, &mut local);
            }
            local
        })
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::GraphBuilder;

    /// Undirected path 0-1-2-3-4 encoded as two directed edges per link.
    fn path5() -> Graph {
        let mut b = GraphBuilder::new(5);
        for u in 0..4 {
            b.add_undirected(u, u + 1, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn path_betweenness_known_values() {
        // For the undirected path counted over ordered pairs:
        // vertex 2 lies on 0-3,0-4,1-3,1-4,3-0,4-0,3-1,4-1 → 8 pairs
        // plus 1↔3 through 2 … classic values: [0, 6, 8, 6, 0] (ordered).
        let g = path5();
        let b = betweenness_centrality(&g);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 0.0);
        assert!((b[1] - 6.0).abs() < 1e-9, "b1 = {}", b[1]);
        assert!((b[2] - 8.0).abs() < 1e-9, "b2 = {}", b[2]);
        assert!((b[3] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_dominates() {
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_undirected(0, v, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let bc = betweenness_centrality(&g);
        // Center lies on every spoke-to-spoke shortest path: 5*4 = 20.
        assert!((bc[0] - 20.0).abs() < 1e-9);
        for b in bc.iter().skip(1) {
            assert_eq!(*b, 0.0);
        }
    }

    #[test]
    fn parallel_split_matches_reference() {
        // Two shortest paths 0->1->3 and 0->2->3 share credit.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let bc = betweenness_centrality(&g);
        assert!((bc[1] - 0.5).abs() < 1e-9);
        assert!((bc[2] - 0.5).abs() < 1e-9);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[3], 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(betweenness_centrality(&g).is_empty());
    }
}
