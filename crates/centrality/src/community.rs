//! Community detection by synchronous label propagation.
//!
//! The paper's related work (§2) discusses a line of influence-maximization
//! accelerations that mine communities first — including the authors' own
//! prior system (Halappanavar et al. \[14\]) — and notes their "major
//! shortcoming": disjoint subgraphs cannot account for inter-community
//! edges. To reproduce that comparison (`ripples_core::community`), we need
//! a community detector; label propagation (Raghavan et al. 2007) is the
//! standard near-linear-time choice.

use ripples_graph::{Graph, Vertex};
use ripples_rng::SplitMix64;

/// Result of a community detection pass.
#[derive(Clone, Debug)]
pub struct Communities {
    /// Dense community label per vertex (`0..count`).
    pub labels: Vec<u32>,
    /// Number of communities.
    pub count: u32,
}

impl Communities {
    /// Community sizes indexed by label.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count as usize];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Label propagation over the undirected view of `graph`.
///
/// Each round, every vertex adopts the most frequent label among its
/// (in+out) neighbors, ties broken by smallest label; iteration stops at a
/// fixed point or after `max_rounds`. Vertex visit order is shuffled once
/// with `seed` to break the synchronous-update oscillation pathologies.
/// Labels are densified before returning.
#[must_use]
pub fn label_propagation(graph: &Graph, max_rounds: u32, seed: u64) -> Communities {
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Communities {
            labels: Vec::new(),
            count: 0,
        };
    }
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // Fixed random visit order (asynchronous updates within a round).
    let mut order: Vec<Vertex> = (0..n as u32).collect();
    let mut rng = SplitMix64::for_stream(seed, 0x4C50);
    for i in (1..n).rev() {
        let j = rng.bounded_u64((i + 1) as u64) as usize;
        order.swap(i, j);
    }

    let mut freq: Vec<u32> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..max_rounds {
        let mut changed = false;
        for &v in &order {
            touched.clear();
            let mut best_label = labels[v as usize];
            let mut best_count = 0u32;
            for &u in graph
                .out_neighbors(v)
                .iter()
                .chain(graph.in_neighbors(v).iter())
            {
                let l = labels[u as usize];
                if freq[l as usize] == 0 {
                    touched.push(l);
                }
                freq[l as usize] += 1;
                let c = freq[l as usize];
                if c > best_count || (c == best_count && l < best_label) {
                    best_count = c;
                    best_label = l;
                }
            }
            for &l in &touched {
                freq[l as usize] = 0;
            }
            if best_count > 0 && best_label != labels[v as usize] {
                labels[v as usize] = best_label;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Densify labels to 0..count in order of first appearance.
    let mut remap = vec![u32::MAX; n];
    let mut count = 0u32;
    for l in &mut labels {
        let slot = &mut remap[*l as usize];
        if *slot == u32::MAX {
            *slot = count;
            count += 1;
        }
        *l = *slot;
    }
    Communities { labels, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::GraphBuilder;

    /// Two dense cliques with one bridge.
    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6u32 {
                for j in (i + 1)..6 {
                    b.add_undirected(base + i, base + j, 0.5).unwrap();
                }
            }
        }
        b.add_undirected(0, 6, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn separates_cliques() {
        let g = two_cliques();
        let c = label_propagation(&g, 20, 1);
        assert!(c.count >= 2, "found only {} communities", c.count);
        // Vertices within each clique share a label.
        for i in 1..6 {
            assert_eq!(c.labels[i], c.labels[1], "first clique fragmented");
        }
        for i in 7..12 {
            assert_eq!(c.labels[i], c.labels[7], "second clique fragmented");
        }
        assert_ne!(c.labels[1], c.labels[7], "cliques merged");
    }

    #[test]
    fn labels_are_dense() {
        let g = two_cliques();
        let c = label_propagation(&g, 20, 3);
        let max = c.labels.iter().copied().max().unwrap();
        assert_eq!(max + 1, c.count);
        let sizes = c.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        let c = label_propagation(&g, 5, 1);
        assert_eq!(c.count, 0);
        assert!(c.labels.is_empty());
    }

    #[test]
    fn isolated_vertices_keep_own_labels() {
        let g = GraphBuilder::new(4).build().unwrap();
        let c = label_propagation(&g, 5, 1);
        assert_eq!(c.count, 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = two_cliques();
        let a = label_propagation(&g, 20, 9);
        let b = label_propagation(&g, 20, 9);
        assert_eq!(a.labels, b.labels);
    }
}
