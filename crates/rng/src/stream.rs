//! Deterministic stream derivation: one master seed fans out to a generator
//! per RRR sample and per forward Monte-Carlo trial.
//!
//! The distributed IMM algorithm assigns RRR sample `i` to some rank; which
//! rank depends on the world size. The paper draws from one leap-frogged LCG
//! per rank, so the *content* of sample `i` changes whenever the rank count
//! does. [`StreamFactory`] instead keys every generator by a stable
//! *logical* index — the global sample id or the trial id — so that:
//!
//! * sequential, multithreaded, and distributed runs with the same master
//!   seed produce **identical RRR sets and identical seed sets**;
//! * results are reproducible regardless of scheduling.
//!
//! The oracle's parity grids and the benchmark's frozen fingerprints rely on
//! both properties.

use crate::SplitMix64;

/// Domain-separation tags so that generators for different purposes never
/// collide even when their logical indices do.
#[derive(Clone, Copy)]
enum StreamKind {
    /// One stream per RRR sample (keyed by global sample index).
    Sample,
    /// One stream per forward Monte-Carlo trial.
    ForwardTrial,
}

impl StreamKind {
    const fn tag(self) -> u64 {
        match self {
            StreamKind::Sample => 0x5151_0001,
            StreamKind::ForwardTrial => 0x5151_0002,
        }
    }
}

/// Fans a master seed out into independent logical streams.
#[derive(Clone, Copy, Debug)]
pub struct StreamFactory {
    master: u64,
}

impl StreamFactory {
    /// Creates a factory from the experiment's master seed.
    #[must_use]
    pub const fn new(master: u64) -> Self {
        Self { master }
    }

    /// Generator for logical stream `index` of `kind`.
    #[inline]
    fn stream(&self, kind: StreamKind, index: u64) -> SplitMix64 {
        SplitMix64::for_stream(self.master ^ kind.tag().rotate_left(32), index)
    }

    /// The stream of RRR sample `sample_index`.
    #[inline]
    #[must_use]
    pub fn sample_stream(&self, sample_index: u64) -> SplitMix64 {
        self.stream(StreamKind::Sample, sample_index)
    }

    /// The stream of forward trial `trial_index`.
    #[inline]
    #[must_use]
    pub fn trial_stream(&self, trial_index: u64) -> SplitMix64 {
        self.stream(StreamKind::ForwardTrial, trial_index)
    }

    /// A derived factory for a sub-experiment (e.g. one estimation round).
    #[must_use]
    pub fn child(&self, label: u64) -> Self {
        Self {
            master: crate::splitmix::mix64(self.master ^ label.rotate_left(17)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_domain_separated() {
        let f = StreamFactory::new(123);
        let mut a = f.stream(StreamKind::Sample, 5);
        let mut b = f.stream(StreamKind::ForwardTrial, 5);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn same_index_same_stream() {
        let f = StreamFactory::new(9);
        let mut a = f.sample_stream(42);
        let mut b = f.sample_stream(42);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn child_differs_from_parent() {
        let f = StreamFactory::new(7);
        let c = f.child(1);
        let mut a = f.sample_stream(0);
        let mut b = c.sample_stream(0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    /// Every sample, trial and seed in the workspace descends from these
    /// streams; a changed tag or derivation shows here first.
    #[test]
    fn streams_are_frozen() {
        let f = StreamFactory::new(1);
        let two = |mut g: SplitMix64| [g.next_u64(), g.next_u64()];
        assert_eq!(
            two(f.sample_stream(0)),
            [5_780_523_913_777_723_217, 5_447_190_215_740_452_404]
        );
        assert_eq!(
            two(f.trial_stream(0)),
            [1_987_955_486_777_364_771, 4_050_816_040_083_216_037]
        );
        assert_eq!(
            two(f.child(1).sample_stream(0)),
            [7_071_420_439_252_079_013, 12_862_327_848_347_829_078]
        );
    }
}
