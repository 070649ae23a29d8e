//! The minimal random-source interface the diffusion kernels consume.
//!
//! Keeping the kernels generic over this trait lets the same probabilistic
//! BFS run off per-sample SplitMix64 streams (the reproducibility-preserving
//! default) or the paper's leap-frogged LCG ranks (`dist::DistRngMode` in
//! `ripples-core` switches between them).

/// A stream of uniform random numbers.
pub trait RandomSource {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        crate::distributions::u64_to_unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, bound)` by multiply-shift (negligible bias
    /// for the bounds used here; `SplitMix64` overrides with exact Lemire
    /// rejection).
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

impl RandomSource for crate::SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        crate::SplitMix64::next_u64(self)
    }

    #[inline]
    fn unit_f64(&mut self) -> f64 {
        crate::SplitMix64::unit_f64(self)
    }

    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        crate::SplitMix64::bounded_u64(self, bound)
    }
}

impl RandomSource for crate::Lcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        crate::Lcg64::next_u64(self)
    }

    #[inline]
    fn unit_f64(&mut self) -> f64 {
        crate::Lcg64::unit_f64(self)
    }
}

impl RandomSource for crate::LeapFrog {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        crate::LeapFrog::next_u64(self)
    }

    #[inline]
    fn unit_f64(&mut self) -> f64 {
        crate::LeapFrog::unit_f64(self)
    }
}

impl RandomSource for crate::stream::RankStream {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        crate::stream::RankStream::next_u64(self)
    }

    #[inline]
    fn unit_f64(&mut self) -> f64 {
        crate::stream::RankStream::unit_f64(self)
    }

    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        crate::stream::RankStream::bounded_u64(self, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lcg64, SplitMix64};

    fn exercise<R: RandomSource>(mut r: R) {
        for _ in 0..200 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
            assert!(r.bounded_u64(13) < 13);
        }
        assert!(!(0..100).any(|_| r.bernoulli(0.0)));
        assert!((0..100).all(|_| r.bernoulli(1.0)));
    }

    #[test]
    fn all_sources_conform() {
        exercise(SplitMix64::new(1));
        exercise(Lcg64::new(1));
        let base = Lcg64::new(2);
        exercise(crate::LeapFrog::new(&base, 0, 4));
        exercise(crate::stream::RankStream::new(3, 1, 4));
    }

    #[test]
    fn trait_and_inherent_agree_for_splitmix() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..32 {
            assert_eq!(RandomSource::next_u64(&mut a), SplitMix64::next_u64(&mut b));
        }
    }
}
