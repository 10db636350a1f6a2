//! Deterministic random number generation.
//!
//! Experiments must be reproducible bit-for-bit, so the workspace uses its own
//! small generator rather than a platform-seeded one. [`SimRng`] is
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64 — the standard
//! construction, good enough statistically for workload sampling while being
//! a few lines of dependency-free code.

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use hetero_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including zero) produces a valid, non-degenerate state.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "next_range requires lo < hi (got {lo}..{hi})");
        let span = hi - lo;
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Rounds `x` to an integer stochastically, preserving the mean.
    ///
    /// `stochastic_round(2.3)` returns 3 with probability 0.3, else 2. Used
    /// to convert fractional per-epoch page counts into whole pages without
    /// systematic bias.
    pub fn stochastic_round(&mut self, x: f64) -> u64 {
        if x <= 0.0 {
            return 0;
        }
        let floor = x.floor();
        let frac = x - floor;
        floor as u64 + u64::from(self.chance(frac))
    }

    /// Exponential variate with the given mean (inverse-CDF transform):
    /// the inter-arrival time of a Poisson process with rate `1 / mean`.
    ///
    /// Non-positive or non-finite means return 0 — a degenerate process
    /// where every arrival is immediate — rather than NaN.
    pub fn next_exponential(&mut self, mean: f64) -> f64 {
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        // u ∈ [0, 1) ⇒ 1 − u ∈ (0, 1]: ln stays finite.
        -(1.0 - self.next_f64()).ln() * mean
    }

    /// Derives an independent generator (for per-VM streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

impl crate::snap::Snap for SimRng {
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        self.s.snap(w);
    }
    fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        Ok(SimRng {
            s: crate::snap::Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ (matched {same}/64)");
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::seed_from(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn next_range_stays_in_bounds() {
        let mut r = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let v = r.next_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn next_range_hits_all_values() {
        let mut r = SimRng::seed_from(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn next_range_rejects_empty_range() {
        SimRng::seed_from(0).next_range(5, 5);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut r = SimRng::seed_from(77);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_f64_mean_is_roughly_half() {
        let mut r = SimRng::seed_from(8);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn stochastic_round_preserves_mean() {
        let mut r = SimRng::seed_from(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.stochastic_round(2.25)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.25).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn stochastic_round_negative_is_zero() {
        assert_eq!(SimRng::seed_from(0).stochastic_round(-3.5), 0);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from(6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.next_exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((0..1000).all(|_| r.next_exponential(1.0) >= 0.0));
    }

    #[test]
    fn exponential_degenerate_means_are_zero() {
        let mut r = SimRng::seed_from(1);
        assert_eq!(r.next_exponential(0.0), 0.0);
        assert_eq!(r.next_exponential(-2.0), 0.0);
        assert_eq!(r.next_exponential(f64::NAN), 0.0);
        assert_eq!(r.next_exponential(f64::INFINITY), 0.0);
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SimRng::seed_from(42);
        let mut child = a.fork();
        assert_ne!(a.next_u64(), child.next_u64());
    }
}
