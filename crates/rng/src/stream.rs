//! Deterministic stream derivation: one master seed fans out to per-rank,
//! per-sample, and per-phase generators.
//!
//! The distributed IMM algorithm assigns RRR sample `i` to some rank; which
//! rank depends on the partition (θ/p each). If randomness were drawn from
//! per-rank sequences, the *content* of sample `i` would change whenever `p`
//! changes, making cross-configuration testing (and debugging) miserable.
//! [`StreamFactory`] instead keys every generator by a stable *logical*
//! index — the global sample id, the vertex id, the Monte-Carlo trial id —
//! so that:
//!
//! * sequential, multithreaded, and distributed runs with the same master
//!   seed produce **identical RRR sets and identical seed sets**;
//! * results are reproducible regardless of scheduling.
//!
//! The paper-faithful leap-frog mode ([`RankStream`]) is kept for the
//! distributed implementation benchmarks and for the RNG ablation study.

use crate::{Lcg64, LeapFrog, SplitMix64};

/// Domain-separation tags so that generators for different purposes never
/// collide even when their logical indices do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// One stream per RRR sample (keyed by global sample index).
    Sample,
    /// One stream per forward Monte-Carlo trial.
    ForwardTrial,
    /// One stream per estimation-round sample batch.
    Estimation,
    /// Anything else (graph generation, shuffling, …).
    Auxiliary,
}

impl StreamKind {
    const fn tag(self) -> u64 {
        match self {
            StreamKind::Sample => 0x5151_0001,
            StreamKind::ForwardTrial => 0x5151_0002,
            StreamKind::Estimation => 0x5151_0003,
            StreamKind::Auxiliary => 0x5151_0004,
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

    /// The master seed.
    #[must_use]
    pub const fn master(&self) -> u64 {
        self.master
    }

    /// Generator for logical stream `index` of `kind`.
    #[inline]
    #[must_use]
    pub fn stream(&self, kind: StreamKind, index: u64) -> SplitMix64 {
        SplitMix64::for_stream(self.master ^ kind.tag().rotate_left(32), index)
    }

    /// Shorthand for the per-RRR-sample stream.
    #[inline]
    #[must_use]
    pub fn sample_stream(&self, sample_index: u64) -> SplitMix64 {
        self.stream(StreamKind::Sample, sample_index)
    }

    /// Shorthand for the per-forward-trial stream.
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

/// Paper-faithful per-rank stream: leap-frog split of one global LCG.
///
/// Rank `r` of `p` sees draws `x_r, x_{r+p}, …` of the base sequence seeded
/// by the master seed. Used by the distributed implementation when running
/// in `RngMode::LeapFrog` (see `ripples-core`), the alternative to the
/// per-sample SplitMix derivation.
#[derive(Clone, Debug)]
pub struct RankStream {
    lf: LeapFrog,
}

impl RankStream {
    /// Creates the leap-frog stream for `rank` of `world` from the master
    /// seed.
    #[must_use]
    pub fn new(master: u64, rank: u32, world: u32) -> Self {
        let base = Lcg64::new(master);
        Self {
            lf: LeapFrog::new(&base, rank, world),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        self.lf.unit_f64()
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.lf.next_u64()
    }

    /// Uniform integer in `[0, bound)` (multiply-shift; the negligible bias
    /// of not rejecting is acceptable for vertex selection and matches what
    /// the original C++ implementation does with `std::uniform_int` over an
    /// LCG).
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
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
        assert_ne!(f.master(), c.master());
        let mut a = f.sample_stream(0);
        let mut b = c.sample_stream(0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn rank_streams_partition_base_sequence() {
        // Union of all rank streams == serial LCG sequence.
        let master = 555;
        let world = 3;
        let mut serial = Lcg64::new(master);
        let mut ranks: Vec<RankStream> = (0..world)
            .map(|r| RankStream::new(master, r, world))
            .collect();
        for _ in 0..20 {
            for r in ranks.iter_mut() {
                assert_eq!(r.lf.step(), serial.step());
            }
        }
    }

    #[test]
    fn bounded_u64_in_range() {
        let mut r = RankStream::new(1, 0, 2);
        for _ in 0..1000 {
            assert!(r.bounded_u64(17) < 17);
        }
    }
}
