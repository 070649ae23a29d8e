//! Graph-centrality toolkit and rank-comparison metrics.
//!
//! The paper's Section 5 case study compares IMM seed sets against the
//! topological measures biologists traditionally use — vertex degree and
//! betweenness centrality — and §4 validates implementation outputs with
//! rank-biased overlap. This crate provides those comparators from scratch:
//!
//! * [`degree`] — degree rankings.
//! * [`betweenness`] — Brandes' exact algorithm (parallel over sources).
//! * [`rbo`] — rank-biased overlap (Webber et al.), the measure the paper
//!   uses to validate IMMOPT against the reference implementation.
//! * [`overlap`] — plain top-k intersection count.

#![warn(missing_docs)]

pub mod betweenness;
pub mod degree;
pub mod overlap;
pub mod rbo;

pub use betweenness::betweenness_centrality;
pub use degree::{degree_ranking, DegreeKind};
pub use overlap::top_k_overlap;
pub use rbo::rank_biased_overlap;

/// Returns vertex ids sorted by descending score, ties broken by id so the
/// ranking is deterministic.
#[must_use]
pub fn ranking_from_scores(scores: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_sorts_desc_with_stable_ties() {
        let r = ranking_from_scores(&[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(r, vec![1, 2, 0, 3]);
    }

    #[test]
    fn ranking_empty() {
        assert!(ranking_from_scores(&[]).is_empty());
    }
}
