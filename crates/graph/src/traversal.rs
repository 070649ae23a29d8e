//! Deterministic traversal: weakly-connected components.
//!
//! A *non-probabilistic* utility; the co-expression generator's test uses
//! it to check that the network is connected. The probabilistic BFS
//! variants at the heart of the paper live in `ripples-diffusion`, and the
//! Brandes BFS in `ripples-centrality`.

use crate::csr::Graph;
use crate::types::Vertex;
use std::collections::VecDeque;

/// Labels weakly-connected components (edges treated as undirected).
///
/// Returns `(labels, component_count)`; labels are dense in
/// `0..component_count`, assigned in order of the smallest vertex in each
/// component.
#[must_use]
pub fn weakly_connected_components(graph: &Graph) -> (Vec<u32>, u32) {
    let n = graph.num_vertices() as usize;
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start as Vertex);
        while let Some(u) = queue.pop_front() {
            for &v in graph
                .out_neighbors(u)
                .iter()
                .chain(graph.in_neighbors(u).iter())
            {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn components_on_disjoint_paths() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(3, 4, 1.0).unwrap();
        let g = b.build().unwrap();
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_ne!(labels[5], labels[3]);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_graph_traversals() {
        let g = GraphBuilder::new(0).build().unwrap();
        let (labels, count) = weakly_connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
