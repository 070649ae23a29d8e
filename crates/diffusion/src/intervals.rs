//! Vertex-interval ownership: how Algorithm 4 splits work over threads
//! without atomics. *"The vertex space is partitioned into intervals
//! [vl, vh) … each thread updates only the counters of its interval"*
//! (§3.1). Two loops run this way — the greedy max-cover in `ripples-core`
//! and the counting sort that grows the inverted index
//! ([`crate::SampleIndex::absorb`]) — over three views of a store.

use crate::mixed::MixedRrrCollection;
use crate::rrr::RrrCollection;
use crate::store::RrrStore;
use ripples_graph::Vertex;

/// What interval owners ask of a sample collection, beyond what any store
/// answers: a walk over the part of a sample that falls into one owner's
/// vertex interval, and a way to run the owners.
pub trait IntervalSets {
    /// Owners' interval bounds are multiples of this many vertices.
    const ALIGN: usize;
    /// The most owners the collection can serve.
    const MAX_OWNERS: usize = usize::MAX;
    /// The store the view reads.
    type Store: RrrStore;

    /// The samples themselves: their number, sizes and membership.
    fn store(&self) -> &Self::Store;

    /// Streams the vertices of sample `j` in `[vl, vh)` (`vl` a multiple of
    /// [`Self::ALIGN`]) to `f`.
    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex));

    /// Runs `f` once per owner. `f` is handed the collection rather than
    /// capturing it, so only a collection that runs its owners on other
    /// threads has to be `Sync`.
    fn for_each_owner<O: Send>(&self, owners: &mut [O], f: impl Fn(&Self, &mut O) + Sync);

    /// The intervals of up to `partitions` owners over `n` vertices, in
    /// order: vl = n·t/p, vh = n·(t+1)/p (Algorithm 4), in units of
    /// [`Self::ALIGN`] vertices.
    #[must_use]
    fn intervals(n: u32, partitions: usize) -> Vec<(Vertex, Vertex)> {
        let n = n as usize;
        let units = n.div_ceil(Self::ALIGN);
        let p = partitions.clamp(1, units.max(1)).min(Self::MAX_OWNERS);
        let bound = |t: usize| (Self::ALIGN * (units * t / p)).min(n) as Vertex;
        (0..p).map(|t| (bound(t), bound(t + 1))).collect()
    }
}

/// The first owner on the calling thread, one task for each of the others.
fn fork_owners<S: Sync, O: Send>(sets: &S, owners: &mut [O], f: impl Fn(&S, &mut O) + Sync) {
    let Some((first, others)) = owners.split_first_mut() else {
        return;
    };
    let f = &f;
    rayon::scope(|s| {
        for owner in others {
            s.spawn(move |_| f(sets, owner));
        }
        f(sets, first);
    });
}

/// Sorted lists: "vl and vh can be efficiently found using binary search".
impl IntervalSets for RrrCollection {
    const ALIGN: usize = 1;
    type Store = Self;

    fn store(&self) -> &Self {
        self
    }

    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex)) {
        self.partition_slice(j, vl, vh).iter().copied().for_each(f);
    }

    fn for_each_owner<O: Send>(&self, owners: &mut [O], f: impl Fn(&Self, &mut O) + Sync) {
        fork_owners(self, owners, f);
    }
}

/// Lists, bitmaps or complements: an owner's interval is one word range of
/// every bitmap, so membership is a bit test and the walk a word scan, and
/// of a complement the interval less its binary-searched missing ids.
impl IntervalSets for MixedRrrCollection {
    const ALIGN: usize = 64;
    type Store = Self;

    fn store(&self) -> &Self {
        self
    }

    fn for_each_in(&self, j: usize, vl: Vertex, vh: Vertex, f: impl FnMut(Vertex)) {
        self.set(j).for_each_in(vl, vh, f);
    }

    fn for_each_owner<O: Send>(&self, owners: &mut [O], f: impl Fn(&Self, &mut O) + Sync) {
        fork_owners(self, owners, f);
    }
}

/// Any store, streamed through [`RrrStore::for_each_vertex`]: the one view
/// that asks nothing of a store's layout, so it has no sub-range to hand a
/// second owner and no `Sync` bound to rely on.
pub struct Streamed<'a, S>(pub &'a S);

impl<S: RrrStore> IntervalSets for Streamed<'_, S> {
    const ALIGN: usize = 1;
    const MAX_OWNERS: usize = 1;
    type Store = S;

    fn store(&self) -> &S {
        self.0
    }

    /// The one owner's interval is every vertex.
    fn for_each_in(&self, j: usize, _vl: Vertex, _vh: Vertex, f: impl FnMut(Vertex)) {
        self.0.for_each_vertex(j, f);
    }

    fn for_each_owner<O: Send>(&self, owners: &mut [O], f: impl Fn(&Self, &mut O) + Sync) {
        for owner in owners {
            f(self, owner);
        }
    }
}
