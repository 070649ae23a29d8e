//! Property-based tests for the RNG substrate.

use proptest::prelude::*;
use ripples_rng::SplitMix64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unit uniforms always land in [0, 1).
    #[test]
    fn unit_uniform_range(seed in any::<u64>()) {
        let mut g = SplitMix64::new(seed);
        for _ in 0..100 {
            let u = g.unit_f64();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Bounded draws always land in range for any bound ≥ 1.
    #[test]
    fn bounded_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut g = SplitMix64::new(seed);
        for _ in 0..50 {
            prop_assert!(g.bounded_u64(bound) < bound);
        }
    }

    /// Stream derivation is a pure function of (seed, index).
    #[test]
    fn stream_derivation_deterministic(seed in any::<u64>(), idx in any::<u64>()) {
        let mut a = SplitMix64::for_stream(seed, idx);
        let mut b = SplitMix64::for_stream(seed, idx);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Distinct stream indices yield distinct first outputs (mix64 is a
    /// bijection, so collisions would imply equal pre-images).
    #[test]
    fn stream_indices_distinct(seed in any::<u64>(), i in 0u64..1_000, j in 0u64..1_000) {
        prop_assume!(i != j);
        let mut a = SplitMix64::for_stream(seed, i);
        let mut b = SplitMix64::for_stream(seed, j);
        prop_assert_ne!(a.next_u64(), b.next_u64());
    }
}
