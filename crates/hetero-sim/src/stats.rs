//! Counters, histograms and running statistics.

use std::fmt;

/// A saturating event counter.
///
/// # Examples
///
/// ```
/// use hetero_sim::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter, saturating.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Power-of-two bucketed histogram for latency-like values.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; bucket 0 also covers the value 0.
///
/// # Examples
///
/// ```
/// use hetero_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) <= 100);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`q` in `[0,1]`) as a bucket upper bound,
    /// clamped to the largest recorded sample.
    ///
    /// The clamp matters: a single sample of `5` lands in bucket `[4,8)`,
    /// whose raw upper bound `7` would overshoot every observed value.
    /// Clamping guarantees `percentile(1.0) == max()`.
    ///
    /// Returns `0` when empty. `percentile(0.0)` anchors at [`min`]
    /// exactly (the first bucket's upper bound can overshoot the smallest
    /// sample the same way the last one overshoots the largest), and the
    /// result is nondecreasing in `q`.
    ///
    /// [`min`]: Histogram::min
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i, clamped to the observed max.
                let bound = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// Welford running mean/variance.
///
/// # Examples
///
/// ```
/// use hetero_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, `0.0` with fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample, `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl crate::snap::Snap for Counter {
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        Ok(Counter(r.take_u64()?))
    }
}

crate::impl_snap!(struct Histogram { buckets, count, sum, min, max });

crate::impl_snap!(struct RunningStats { n, mean, m2, min, max });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.take(), 11);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn histogram_tracks_min_max_mean() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(1.0), 0); // clamped to the observed max
    }

    #[test]
    fn histogram_percentile_never_exceeds_max() {
        // A lone sample of 5 sits in bucket [4,8); the raw bucket upper
        // bound 7 used to leak out of `percentile`.
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(1.0), h.max());

        // Same overshoot at the large end: one sample deep in a wide bucket.
        let mut big = Histogram::new();
        big.record(1 << 40);
        assert_eq!(big.percentile(1.0), 1 << 40);
        assert_eq!(big.percentile(1.0), big.max());
    }

    #[test]
    fn histogram_percentile_orders() {
        let mut h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        assert!(h.percentile(0.1) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(0.99));
    }

    #[test]
    fn histogram_percentile_zero_anchors_at_min() {
        // A lone sample of 5 sits in bucket [4,8); `percentile(0.0)` used
        // to return the bucket's upper bound 7 instead of the sample.
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(0.0), 5);
    }

    #[test]
    fn histogram_percentile_anchors_and_monotonicity_property() {
        // Property over random value sets: percentile(0.0) == min(),
        // percentile(1.0) == max(), and the quantile curve is nondecreasing
        // in q — including across the q=0 anchor special-case.
        for trial in 0..64u64 {
            let mut rng = crate::SimRng::seed_from(trial.wrapping_mul(0x9e37_79b9));
            let mut h = Histogram::new();
            for _ in 0..rng.next_range(1, 200) {
                // Mix magnitudes so samples land in many different buckets.
                let shift = rng.next_range(0, 40) as u32;
                h.record(rng.next_range(0, 1 << 20) << shift);
            }
            assert_eq!(h.percentile(0.0), h.min(), "trial {trial}");
            assert_eq!(h.percentile(1.0), h.max(), "trial {trial}");
            let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                assert!(
                    h.percentile(w[0]) <= h.percentile(w[1]),
                    "trial {trial}: percentile({}) > percentile({})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn histogram_huge_value() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn running_stats_single_sample() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn running_stats_tracks_extremes() {
        let mut s = RunningStats::new();
        for v in [5.0, -2.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.min(), -2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 3);
    }
}
