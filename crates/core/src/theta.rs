//! The martingale θ-estimation mathematics of Tang et al. (SIGMOD'15),
//! which the paper's Algorithm 2 wraps.
//!
//! All formulas use natural logarithms. With `ε′ = √2·ε` and `ℓ` inflated
//! by `(1 + ln 2 / ln n)` to absorb the extra union bound:
//!
//! ```text
//! λ′ = (2 + ⅔ε′) · (ln C(n,k) + ℓ·ln n + ln log₂ n) · n / ε′²
//! θₓ = λ′ / (n / 2ˣ)                                (round-x sample budget)
//! α  = √(ℓ·ln n + ln 2)
//! β  = √((1 − 1/e) · (ln C(n,k) + ℓ·ln n + ln 2))
//! λ* = 2n · ((1 − 1/e)·α + β)² / ε²
//! θ  = λ* / LB                                      (final sample count)
//! ```
//!
//! The estimation loop stops at round `x` once the greedy seed set covers
//! enough mass: `n·F_R(S) ≥ (1 + ε′)·(n/2ˣ)`, and then lower-bounds the
//! optimum with `LB = n·F_R(S) / (1 + ε′)`.

/// `ln C(n, k)` computed stably in O(min(k, n−k)).
///
/// # Panics
///
/// Panics if `k > n`.
#[must_use]
pub fn log_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "k ({k}) must not exceed n ({n})");
    let k = k.min(n - k);
    // ln C(n,k) = Σ_{i=1..k} ln(n − k + i) − ln(i)
    let mut acc = 0.0f64;
    for i in 1..=k {
        acc += ((n - k + i) as f64).ln() - (i as f64).ln();
    }
    acc
}

/// Precomputed θ-estimation schedule for one `(n, k, ε, ℓ)` tuple.
#[derive(Clone, Copy, Debug)]
pub struct ThetaSchedule {
    n: f64,
    k: f64,
    epsilon: f64,
    eps_prime: f64,
    lambda_prime: f64,
    lambda_star: f64,
    max_rounds: u32,
}

impl ThetaSchedule {
    /// Builds the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k == 0`, `k > n`, or `ε ∉ (0, 1)`.
    #[must_use]
    pub fn new(n: u64, k: u64, epsilon: f64, ell: f64) -> Self {
        assert!(n >= 2, "need at least two vertices, got {n}");
        assert!(k >= 1 && k <= n, "k ({k}) out of range for n ({n})");
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        let nf = n as f64;
        let ln_n = nf.ln();
        // ℓ ← ℓ·(1 + ln2/ln n) so the whole algorithm succeeds w.p. 1 − n^−ℓ.
        let ell = ell * (1.0 + std::f64::consts::LN_2 / ln_n);
        let logcnk = log_binomial(n, k);
        let eps_prime = std::f64::consts::SQRT_2 * epsilon;
        let log2_n = nf.log2();
        let lambda_prime = (2.0 + 2.0 / 3.0 * eps_prime) * (logcnk + ell * ln_n + log2_n.ln()) * nf
            / (eps_prime * eps_prime);
        let one_minus_inv_e = 1.0 - std::f64::consts::E.recip();
        let alpha = (ell * ln_n + std::f64::consts::LN_2).sqrt();
        let beta = (one_minus_inv_e * (logcnk + ell * ln_n + std::f64::consts::LN_2)).sqrt();
        let lambda_star = 2.0 * nf * (one_minus_inv_e * alpha + beta).powi(2) / (epsilon * epsilon);
        Self {
            n: nf,
            k: k as f64,
            epsilon,
            eps_prime,
            lambda_prime,
            lambda_star,
            max_rounds: log2_n.floor().max(1.0) as u32,
        }
    }

    /// `ε′ = √2 ε`.
    #[must_use]
    pub fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    /// The `ε` this schedule was built with.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of estimation rounds (`x = 1 ..= max_rounds`, i.e. `log₂ n`).
    #[must_use]
    pub fn max_rounds(&self) -> u32 {
        self.max_rounds
    }

    /// Sample budget `θₓ` for estimation round `x` (1-based), the paper's
    /// `f(x, k, ε, |V|)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds [`ThetaSchedule::max_rounds`].
    #[must_use]
    pub fn round_budget(&self, x: u32) -> usize {
        assert!(x >= 1 && x <= self.max_rounds, "round {x} out of range");
        let x_i = self.n / 2f64.powi(x as i32);
        (self.lambda_prime / x_i).ceil() as usize
    }

    /// Whether round `x`'s coverage `fraction = F_R(S)` certifies the lower
    /// bound (the `n·F ≥ (1+ε′)·n/2ˣ` test).
    #[must_use]
    pub fn round_succeeds(&self, x: u32, fraction: f64) -> bool {
        self.n * fraction >= (1.0 + self.eps_prime) * (self.n / 2f64.powi(x as i32))
    }

    /// The lower bound on OPT derived from a successful round.
    #[must_use]
    pub fn lower_bound(&self, fraction: f64) -> f64 {
        self.n * fraction / (1.0 + self.eps_prime)
    }

    /// Final sample count `θ = λ*/LB`, the paper's `f′(k, ε, |V|, LB)`.
    ///
    /// # Panics
    ///
    /// Panics if `lb ≤ 0`.
    #[must_use]
    pub fn final_theta(&self, lb: f64) -> usize {
        assert!(lb > 0.0, "lower bound must be positive, got {lb}");
        (self.lambda_star / lb).ceil() as usize
    }

    /// The largest sample population a run on this schedule can hold.
    ///
    /// Greedy's `k` seeds cover at least `k/n` of any samples: a sample no
    /// seed covers still holds its root, an unselected vertex, so the next
    /// seed covers at least `1/(n − i)` of the uncovered ones. `n·F ≥ k`
    /// therefore passes every round `x` with `(1 + ε′)·n/2ˣ ≤ k`, so no run
    /// goes past the first of them, and it bounds every certified
    /// `LB = n·F/(1 + ε′)` below by `k/(1 + ε′)` (the fallback's `LB = k`
    /// is larger). Both use `k/2` for `k`, a margin for the floating-point
    /// `F` the driver compares.
    #[must_use]
    pub fn max_population(&self) -> usize {
        let k = self.k / 2.0;
        let last = (1..=self.max_rounds)
            .find(|&x| self.round_succeeds(x, k / self.n))
            .unwrap_or(self.max_rounds);
        let theta = self.final_theta(k / (1.0 + self.eps_prime));
        self.round_budget(last).max(theta)
    }

    /// Fallback θ when no estimation round certifies a bound: the paper and
    /// Tang's code fall back to `LB = 1`. The k-vertex seed set always has
    /// `OPT ≥ k`, so `LB = k` is a sound, tighter fallback; we keep `LB = k`
    /// and document the deviation (it only fires on degenerate inputs).
    #[must_use]
    pub fn fallback_theta(&self, k: u64) -> usize {
        self.final_theta(k as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_binomial_known_values() {
        assert!((log_binomial(5, 2) - 10f64.ln()).abs() < 1e-9);
        assert!((log_binomial(10, 0)).abs() < 1e-12);
        assert!((log_binomial(10, 10)).abs() < 1e-12);
        assert!((log_binomial(52, 5) - (2_598_960f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn log_binomial_symmetry() {
        assert!((log_binomial(100, 3) - log_binomial(100, 97)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn log_binomial_rejects_k_gt_n() {
        let _ = log_binomial(3, 4);
    }

    #[test]
    fn budgets_grow_per_round() {
        let s = ThetaSchedule::new(10_000, 50, 0.5, 1.0);
        let mut prev = 0;
        for x in 1..=s.max_rounds() {
            let b = s.round_budget(x);
            assert!(b > prev, "round {x} budget {b} not increasing");
            prev = b;
        }
    }

    #[test]
    fn theta_grows_as_epsilon_shrinks() {
        // The Figure 2 relationship.
        let tight = ThetaSchedule::new(27_770, 50, 0.2, 1.0);
        let loose = ThetaSchedule::new(27_770, 50, 0.5, 1.0);
        let lb = 1000.0;
        assert!(tight.final_theta(lb) > 4 * loose.final_theta(lb));
    }

    #[test]
    fn theta_grows_with_k() {
        let small_k = ThetaSchedule::new(27_770, 10, 0.5, 1.0);
        let large_k = ThetaSchedule::new(27_770, 100, 0.5, 1.0);
        let lb = 1000.0;
        assert!(large_k.final_theta(lb) > small_k.final_theta(lb));
    }

    #[test]
    fn theta_can_exceed_n() {
        // Figure 2's observation: θ quickly exceeds n at high precision.
        let s = ThetaSchedule::new(27_770, 100, 0.2, 1.0);
        // Even with a generous lower bound, θ > n.
        assert!(s.final_theta(2000.0) > 27_770);
    }

    #[test]
    fn round_success_threshold() {
        let s = ThetaSchedule::new(1024, 10, 0.5, 1.0);
        // Round 1: needs n·F ≥ (1+ε′)·n/2 → F ≥ (1+ε′)/2 ≈ 0.8536.
        assert!(!s.round_succeeds(1, 0.5));
        assert!(s.round_succeeds(1, 0.9));
        // Deeper rounds need less coverage.
        assert!(s.round_succeeds(5, 0.1));
    }

    #[test]
    fn lower_bound_and_final_theta_consistent() {
        let s = ThetaSchedule::new(4096, 20, 0.4, 1.0);
        let lb = s.lower_bound(0.5);
        assert!(lb > 0.0 && lb < 4096.0);
        let theta = s.final_theta(lb);
        assert!(theta > 0);
        // Larger LB → smaller θ.
        assert!(s.final_theta(lb * 2.0) < theta);
    }

    #[test]
    fn fallback_uses_k() {
        let s = ThetaSchedule::new(4096, 20, 0.4, 1.0);
        assert_eq!(s.fallback_theta(20), s.final_theta(20.0));
    }

    #[test]
    #[should_panic(expected = "round")]
    fn round_budget_bounds_checked() {
        let s = ThetaSchedule::new(1024, 10, 0.5, 1.0);
        let _ = s.round_budget(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Budget monotonicity over the whole admissible parameter
            /// space, not just one tuple: θₓ = λ′·2ˣ/n doubles (before
            /// ceiling) every round, and since θ₁ ≥ 1 the ceiled budgets
            /// are *strictly* increasing — the estimation loop always makes
            /// progress and never re-runs selection on an unchanged
            /// collection.
            #[test]
            fn round_budgets_strictly_increase(
                n in 2u64..200_000,
                k_frac in 0.0f64..1.0,
                epsilon in 0.05f64..0.95,
                ell in 0.5f64..2.0,
            ) {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let k = (1 + ((n - 1) as f64 * k_frac) as u64).min(n);
                let s = ThetaSchedule::new(n, k, epsilon, ell);
                prop_assert!(s.max_rounds() >= 1);
                let mut prev = 0usize;
                for x in 1..=s.max_rounds() {
                    let b = s.round_budget(x);
                    prop_assert!(
                        b > prev,
                        "n={} k={} eps={} ell={}: round {} budget {} <= prev {}",
                        n, k, epsilon, ell, x, b, prev
                    );
                    prev = b;
                }
            }

            /// No population the driver can hold passes `max_population`,
            /// whatever coverage each round's greedy reaches (at least `k/n`
            /// of the samples, which its seeds always cover).
            #[test]
            fn max_population_bounds_every_reachable_theta(
                n in 2u64..200_000,
                k_frac in 0.0f64..1.0,
                epsilon in 0.05f64..0.95,
                coverage in prop::collection::vec(0.0f64..=1.0, 32),
            ) {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let k = (1 + ((n - 1) as f64 * k_frac) as u64).min(n);
                let s = ThetaSchedule::new(n, k, epsilon, 1.0);
                let max = s.max_population();
                let floor = k as f64 / n as f64;
                let mut theta = s.fallback_theta(k);
                for x in 1..=s.max_rounds() {
                    prop_assert!(s.round_budget(x) <= max, "round {} of {}", x, s.max_rounds());
                    let fraction = floor + (1.0 - floor) * coverage[x as usize % 32];
                    if s.round_succeeds(x, fraction) {
                        theta = s.final_theta(s.lower_bound(fraction));
                        break;
                    }
                }
                prop_assert!(theta <= max);
            }

            /// A schedule past the index's 32-bit sample ids says so.
            #[test]
            fn max_population_grows_past_u32_for_huge_graphs(epsilon in 0.01f64..0.05) {
                let s = ThetaSchedule::new(1 << 31, 1, epsilon, 1.0);
                prop_assert!(s.max_population() >= u32::MAX as usize);
            }

            /// The success threshold loosens monotonically with depth: a
            /// coverage fraction that certifies round x also certifies any
            /// deeper round.
            #[test]
            fn success_threshold_monotone_in_round(
                n in 2u64..200_000,
                epsilon in 0.05f64..0.95,
                fraction in 0.0f64..1.0,
            ) {
                let s = ThetaSchedule::new(n, 1, epsilon, 1.0);
                let mut succeeded = false;
                for x in 1..=s.max_rounds() {
                    let now = s.round_succeeds(x, fraction);
                    prop_assert!(
                        now || !succeeded,
                        "round {} failed after a shallower round succeeded",
                        x
                    );
                    succeeded = succeeded || now;
                }
            }
        }
    }
}
