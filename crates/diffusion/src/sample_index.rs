//! The inverted index (vertex → the samples containing it) that lets seed
//! selection walk one row per chosen seed instead of probing every sample.
//!
//! *"Previous implementations store this information in two directions using
//! the notion of a hypergraph, where each RRR set (or sample) is a hyperedge
//! consisting of a subset of vertices in the input graph. Information for
//! each vertex about the samples that it participates in is also maintained.
//! Thus, each association between a sample and a vertex is stored twice.
//! While this information aids in faster selection of seed set later, the
//! memory footprint can become a limitation."* (§3.1)
//!
//! [`SampleIndex`] keeps the fast selection and drops most of the cost: it
//! is built over the compact one-direction [`RrrCollection`] only for the
//! duration of a selection pass, borrows the samples instead of copying
//! them, and stores each association as one `u32`. (The two-direction
//! layout itself, kept as the measured baseline of Tables 2 and 3, is
//! `TangStorage` in `ripples-core`.)

use crate::rrr::RrrCollection;
use ripples_graph::Vertex;

/// A u32-offset CSR inverted index (vertex → containing samples) built
/// *over* an existing [`RrrCollection`] without copying the samples: each
/// association is stored once as a `u32` sample id with `u32` offsets,
/// which is what makes "fast selection" affordable within the paper's
/// compact-layout memory budget (§3.1's 2×-memory caveat).
///
/// The build is a parallel counting sort with the same vertex-interval
/// ownership as Algorithm 4's partitioned counters: each of `p` owners
/// counts and then fills only its interval's rows, navigating each sorted
/// sample by binary search — disjoint writes, no atomics.
#[derive(Clone, Debug)]
pub struct SampleIndex {
    /// CSR offsets into `samples`, one slot per vertex plus a sentinel.
    offsets: Vec<u32>,
    /// Sample ids, grouped by vertex, ascending within each vertex.
    samples: Vec<u32>,
}

impl SampleIndex {
    /// Builds the index with `partitions` parallel interval owners
    /// (clamped to `[1, num_vertices]`; 1 runs serially with no task
    /// spawns, which the per-rank distributed selection path relies on).
    ///
    /// # Panics
    ///
    /// Panics if a sample references a vertex ≥ `num_vertices`, or if the
    /// sample count or total entry count overflows `u32`.
    #[must_use]
    pub fn build(sets: &RrrCollection, num_vertices: u32, partitions: usize) -> Self {
        let n = num_vertices as usize;
        assert!(
            sets.len() < u32::MAX as usize,
            "too many samples for u32 ids"
        );
        assert!(
            sets.total_entries() < u32::MAX as usize,
            "too many associations for u32 offsets"
        );
        let p = partitions.clamp(1, n.max(1));
        let bounds: Vec<(Vertex, Vertex)> = (0..p)
            .map(|t| (((n * t) / p) as Vertex, ((n * (t + 1)) / p) as Vertex))
            .collect();

        // Counting pass: occurrences per vertex, each interval owner
        // writing only its disjoint slice.
        let mut counts = vec![0u32; n];
        if p == 1 {
            for set in sets.iter() {
                for &v in set {
                    assert!((v as usize) < n, "sample vertex {v} out of range");
                    counts[v as usize] += 1;
                }
            }
        } else {
            let mut rest: &mut [u32] = &mut counts;
            rayon::scope(|s| {
                for &(vl, vh) in &bounds {
                    let (slice, tail) = rest.split_at_mut((vh - vl) as usize);
                    rest = tail;
                    s.spawn(move |_| {
                        for j in 0..sets.len() {
                            for &u in sets.partition_slice(j, vl, vh) {
                                slice[(u - vl) as usize] += 1;
                            }
                        }
                    });
                }
            });
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        // In the parallel pass an out-of-range vertex lands in no interval
        // and is silently skipped; the totals check catches it here.
        assert_eq!(
            acc as usize,
            sets.total_entries(),
            "sample vertex out of range"
        );

        // Fill pass: vertex `v`'s row occupies `offsets[v]..offsets[v+1]`,
        // so an owner's rows form one contiguous region — again disjoint.
        // Iterating samples in ascending id keeps every row sorted.
        let mut samples = vec![0u32; sets.total_entries()];
        if p == 1 {
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            for (j, set) in sets.iter().enumerate() {
                for &v in set {
                    let c = &mut cursor[v as usize];
                    samples[*c as usize] = j as u32;
                    *c += 1;
                }
            }
        } else {
            let offsets_ref = &offsets;
            let mut rest: &mut [u32] = &mut samples;
            rayon::scope(|s| {
                for &(vl, vh) in &bounds {
                    let base = offsets_ref[vl as usize];
                    let len = (offsets_ref[vh as usize] - base) as usize;
                    let (region, tail) = rest.split_at_mut(len);
                    rest = tail;
                    s.spawn(move |_| {
                        let mut cursor: Vec<u32> = offsets_ref[vl as usize..vh as usize]
                            .iter()
                            .map(|&o| o - base)
                            .collect();
                        for j in 0..sets.len() {
                            for &u in sets.partition_slice(j, vl, vh) {
                                let c = &mut cursor[(u - vl) as usize];
                                region[*c as usize] = j as u32;
                                *c += 1;
                            }
                        }
                    });
                }
            });
        }
        Self { offsets, samples }
    }

    /// Sample ids containing `v`, ascending.
    #[inline]
    #[must_use]
    pub fn samples_containing(&self, v: Vertex) -> &[u32] {
        let v = v as usize;
        &self.samples[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Occurrence count of `v` across samples — the initial greedy counter.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: Vertex) -> u64 {
        u64::from(self.offsets[v as usize + 1] - self.offsets[v as usize])
    }

    /// Total associations stored (equals the collection's entry count).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.samples.len()
    }

    /// Reserved bytes of the index alone (the collection is borrowed, not
    /// copied — add [`RrrCollection::resident_bytes`] for the full pair).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.offsets.capacity() + self.samples.capacity()) * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sets() -> RrrCollection {
        let mut c = RrrCollection::new();
        c.push(&[0, 2, 4]);
        c.push(&[2]);
        c.push(&[1, 2, 3]);
        c
    }

    #[test]
    fn sample_index_matches_the_definition_at_any_partition_count() {
        let sets = sample_sets();
        // 5 is in no sample.
        let rows: [&[u32]; 6] = [&[0], &[2], &[0, 1, 2], &[2], &[0], &[]];
        for p in [1, 2, 3, 5, 16] {
            let idx = SampleIndex::build(&sets, 6, p);
            assert_eq!(idx.total_entries(), sets.total_entries());
            for (v, row) in rows.iter().enumerate() {
                assert_eq!(
                    idx.samples_containing(v as Vertex),
                    *row,
                    "vertex {v} at p={p}"
                );
                assert_eq!(idx.degree(v as Vertex), row.len() as u64);
            }
        }
    }

    #[test]
    fn sample_index_rows_are_sorted() {
        let mut c = RrrCollection::new();
        for j in 0..20u32 {
            // Vertex 0 appears in every sample, vertex 1 in every other.
            if j % 2 == 0 {
                c.push(&[0, 1]);
            } else {
                c.push(&[0]);
            }
        }
        let idx = SampleIndex::build(&c, 2, 3);
        let row: Vec<u32> = idx.samples_containing(0).to_vec();
        assert_eq!(row, (0..20).collect::<Vec<u32>>());
        assert!(idx.samples_containing(1).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sample_index_rejects_out_of_range_vertex_serial() {
        let mut c = RrrCollection::new();
        c.push(&[7]);
        let _ = SampleIndex::build(&c, 3, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sample_index_rejects_out_of_range_vertex_parallel() {
        let mut c = RrrCollection::new();
        c.push(&[7]);
        let _ = SampleIndex::build(&c, 3, 2);
    }

    #[test]
    fn sample_index_empty_collection() {
        let idx = SampleIndex::build(&RrrCollection::new(), 4, 2);
        assert_eq!(idx.total_entries(), 0);
        assert_eq!(idx.degree(0), 0);
        assert!(idx.samples_containing(3).is_empty());
    }
}
