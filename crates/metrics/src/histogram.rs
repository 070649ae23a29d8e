//! The power-of-two histogram shared by the run report, the registry's
//! atomic RRR-size histogram and the serve mode's latency quantiles.

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs everything
/// beyond `2^31`.
pub const HIST_BUCKETS: usize = 33;

/// A fixed-size power-of-two histogram of `u64` observations, bucketed as
/// [`HIST_BUCKETS`] says. Cheap enough to update per sample and mergeable
/// across ranks with one All-Reduce (see [`Histogram::to_flat`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for `value`.
    #[inline]
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Records `times` observations of the same `value` at once — the bulk
    /// form used to fold pre-aggregated counts (e.g. the fused sampler's
    /// lane-width tallies) into a histogram.
    #[inline]
    pub fn record_n(&mut self, value: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += times;
        self.count += times;
        self.sum += value * times;
        self.max = self.max.max(value);
    }

    /// Adds every observation of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper-bound estimate of the `q`-quantile (`q ∈ [0, 1]`): walks the
    /// buckets to the smallest one whose cumulative count reaches
    /// `ceil(q · count)` and returns that bucket's exclusive upper bound,
    /// clamped to the observed `max` — a bucket bound can exceed every value
    /// actually recorded (a histogram holding only the value 3 would
    /// otherwise report quantile 4), and no quantile of real observations
    /// can be larger than the largest of them. Returns 0 on an empty
    /// histogram. This is the p50/p99 estimator the serve mode exports for
    /// query latencies.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == HIST_BUCKETS - 1 {
                    self.max
                } else {
                    Self::bucket_bounds(i).1.min(self.max)
                };
            }
        }
        self.max
    }

    /// Inclusive-exclusive value bounds of bucket `i`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Flattens the summable state (buckets, count, sum — *not* max) into a
    /// `Vec<u64>` suitable for an element-wise All-Reduce across ranks.
    #[must_use]
    pub fn to_flat(&self) -> Vec<u64> {
        let mut flat = self.buckets.to_vec();
        flat.push(self.count);
        flat.push(self.sum);
        flat
    }

    /// Restores state from a reduced [`Histogram::to_flat`] buffer plus a
    /// separately max-reduced `max`.
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not have the [`Histogram::to_flat`] length.
    pub fn set_from_flat(&mut self, flat: &[u64], max: u64) {
        assert_eq!(flat.len(), HIST_BUCKETS + 2, "flat buffer length");
        self.buckets.copy_from_slice(&flat[..HIST_BUCKETS]);
        self.count = flat[HIST_BUCKETS];
        self.sum = flat[HIST_BUCKETS + 1];
        self.max = max;
    }
}
