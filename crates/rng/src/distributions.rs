//! The two draws the influence-maximization kernels need from raw bits: a
//! uniform `f64` in `[0, 1)` and an unbiased bounded integer.
//!
//! Hot loops in `ripples-diffusion` draw millions of these per second, so
//! both are branch-light and allocation-free.

use crate::SplitMix64;

/// Converts 64 random bits into a uniform `f64` in `[0, 1)`.
///
/// Uses the top 53 bits (the significand width of `f64`).
#[inline]
#[must_use]
pub(crate) fn u64_to_unit_f64(bits: u64) -> f64 {
    // 2^-53 as a constant; (bits >> 11) is uniform on [0, 2^53).
    const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
    ((bits >> 11) as f64) * SCALE
}

/// Draws a uniform integer in `[0, bound)` without modulo bias using Lemire's
/// multiply-shift rejection method.
///
/// # Panics
///
/// Panics if `bound == 0` — in **every** build profile. An earlier revision
/// `debug_assert!`ed and silently returned 0 in release, which meant the
/// same program could panic or not depending on compiler flags; a
/// release-with-debug-assertions CI leg (the oracle job) would then disagree
/// with a plain release build. The empty range `[0, 0)` has no uniform
/// value, so the only profile-independent contract is to reject it.
#[inline]
pub(crate) fn bounded_u64(rng: &mut SplitMix64, bound: u64) -> u64 {
    assert!(bound > 0, "bounded_u64 requires bound > 0");
    // Lemire 2019: x*bound / 2^64 is uniform once low-product rejection
    // removes the bias region of size (2^64 mod bound).
    let mut x = rng.next_u64();
    let mut m = (u128::from(x)) * (u128::from(bound));
    let mut lo = m as u64;
    if lo < bound {
        let threshold = bound.wrapping_neg() % bound;
        while lo < threshold {
            x = rng.next_u64();
            m = (u128::from(x)) * (u128::from(bound));
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_f64_extremes() {
        assert_eq!(u64_to_unit_f64(0), 0.0);
        let max = u64_to_unit_f64(u64::MAX);
        assert!(max < 1.0);
        assert!(max > 0.9999999);
    }

    #[test]
    fn bounded_u64_in_range_and_covers() {
        let mut rng = SplitMix64::new(17);
        let bound = 10;
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = bounded_u64(&mut rng, bound);
            assert!(v < bound);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never drawn");
    }

    #[test]
    fn bounded_u64_bound_one() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(bounded_u64(&mut rng, 1), 0);
        }
    }

    /// Regression (ISSUE 5): a zero bound must panic in *both* profiles.
    /// The pre-fix code panicked in debug but silently returned 0 in
    /// release, so this test fails under `cargo test --release` against it.
    #[test]
    #[should_panic(expected = "bound > 0")]
    fn bounded_u64_zero_bound_panics_in_every_profile() {
        let mut rng = SplitMix64::new(1);
        let _ = bounded_u64(&mut rng, 0);
    }

    #[test]
    fn bounded_u64_uniformity() {
        let mut rng = SplitMix64::new(99);
        let bound = 7u64;
        let n = 140_000;
        let mut counts = [0u32; 7];
        for _ in 0..n {
            counts[bounded_u64(&mut rng, bound) as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.05, "residue {i} off by {dev}");
        }
    }
}
