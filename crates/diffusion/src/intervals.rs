//! Vertex-interval ownership: how Algorithm 4 splits work over threads
//! without atomics. *"The vertex space is partitioned into intervals
//! [vl, vh) … each thread updates only the counters of its interval"*
//! (§3.1). Two loops run this way — the greedy max-cover in `ripples-core`
//! and the counting sort that grows the inverted index
//! ([`crate::SampleIndex::absorb`]) — and each owner walks its part of a
//! stored set with [`crate::RrrSetRef::for_each_in`]: the binary-searched
//! sub-slice of a list, one word range of a bitmap, the interval less the
//! binary-searched missing ids of a complement.

use ripples_graph::Vertex;

/// Owners' interval bounds are multiples of this many vertices, so that an
/// interval is whole words of every bitmap.
const ALIGN: usize = 64;

/// The intervals of up to `partitions` owners over `n` vertices, in order:
/// vl = n·t/p, vh = n·(t+1)/p (Algorithm 4), in units of 64 vertices, so
/// only `n > 64` runs more than one owner.
#[must_use]
pub fn owner_intervals(n: u32, partitions: usize) -> Vec<(Vertex, Vertex)> {
    let n = n as usize;
    let units = n.div_ceil(ALIGN);
    let p = partitions.clamp(1, units.max(1));
    let bound = |t: usize| (ALIGN * (units * t / p)).min(n) as Vertex;
    (0..p).map(|t| (bound(t), bound(t + 1))).collect()
}

/// Runs `f` once per owner: the first owner on the calling thread, one
/// task for each of the others.
pub fn fork_owners<O: Send>(owners: &mut [O], f: impl Fn(&mut O) + Sync) {
    let Some((first, others)) = owners.split_first_mut() else {
        return;
    };
    let f = &f;
    rayon::scope(|s| {
        for owner in others {
            s.spawn(move |_| f(owner));
        }
        f(first);
    });
}
