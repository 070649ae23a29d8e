//! Plain top-k set overlap, as used by the §5 case-study comparison
//! ("nine of them (9/30, 30%) were also predicted by IMM…").

use std::collections::HashSet;

/// Number of common elements in the two top-`k` prefixes.
#[must_use]
pub fn top_k_overlap(a: &[u32], b: &[u32], k: usize) -> usize {
    let ka: HashSet<u32> = a.iter().take(k).copied().collect();
    b.iter().take(k).filter(|v| ka.contains(v)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_counts() {
        assert_eq!(top_k_overlap(&[1, 2, 3, 4], &[3, 4, 5, 6], 4), 2);
        assert_eq!(top_k_overlap(&[1, 2, 3, 4], &[3, 4, 5, 6], 2), 0);
        assert_eq!(top_k_overlap(&[], &[1], 3), 0);
    }

    #[test]
    fn k_truncates() {
        // Only the prefixes participate.
        assert_eq!(top_k_overlap(&[9, 1, 2], &[9, 7, 8], 1), 1);
    }
}
