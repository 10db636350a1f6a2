//! The architectural-hint interval controller (Equation 1, §4.1).
//!
//! Software cannot see whether page accesses hit or miss the processor
//! cache, so migrating "hot" pages during a cache-friendly phase wastes
//! migration cost. HeteroOS monitors the LLC-miss counter the VMM exports
//! and adapts the hotness-tracking interval:
//!
//! ```text
//! ΔLLCMiss = (LLCMissᵢ − LLCMissᵢ₋₁) / LLCMissᵢ₋₁
//! Interval = Interval − ΔLLCMiss × Interval
//! ```
//!
//! Rising misses shorten the interval (track/migrate more eagerly); falling
//! misses lengthen it.

use hetero_sim::Nanos;

/// Eq. 1 controller with clamping.
///
/// # Examples
///
/// ```
/// use hetero_core::adaptive::IntervalController;
/// use hetero_sim::Nanos;
///
/// let mut c = IntervalController::new(
///     Nanos::from_millis(100),
///     Nanos::from_millis(50),
///     Nanos::from_secs(1),
/// );
/// c.observe(1000.0);
/// c.observe(2000.0); // misses doubled → interval shrinks
/// assert!(c.interval() < Nanos::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IntervalController {
    interval: Nanos,
    min: Nanos,
    max: Nanos,
    prev_misses: Option<f64>,
}

impl IntervalController {
    /// Creates a controller starting at `initial`, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `min` is zero.
    pub fn new(initial: Nanos, min: Nanos, max: Nanos) -> Self {
        assert!(min <= max, "min interval exceeds max");
        assert!(!min.is_zero(), "min interval must be non-zero");
        IntervalController {
            interval: initial.max(min).min(max),
            min,
            max,
            prev_misses: None,
        }
    }

    /// Current tracking interval.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    /// Feeds one epoch's LLC-miss count; applies Eq. 1.
    pub fn observe(&mut self, llc_misses: f64) {
        if let Some(prev) = self.prev_misses {
            if prev > 0.0 {
                let delta = (llc_misses - prev) / prev;
                // Interval = Interval − Δ × Interval, clamped. A clamp on Δ
                // keeps a single spike from zeroing the interval.
                let factor = (1.0 - delta).clamp(0.25, 4.0);
                self.interval = self.interval.mul_f64(factor).max(self.min).min(self.max);
            }
        }
        self.prev_misses = Some(llc_misses);
    }

    /// Resets miss history (phase boundary).
    pub fn reset(&mut self) {
        self.prev_misses = None;
    }

    /// Multiplies the interval by `factor` (≥ 1), clamped to the maximum —
    /// used by yield-aware backoff when tracking stops finding work.
    pub fn back_off(&mut self, factor: f64) {
        self.interval = self.interval.mul_f64(factor.max(1.0)).min(self.max);
    }
}

hetero_sim::impl_snap!(struct IntervalController { interval, min, max, prev_misses });

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> IntervalController {
        IntervalController::new(
            Nanos::from_millis(100),
            Nanos::from_millis(50),
            Nanos::from_secs(1),
        )
    }

    #[test]
    fn first_observation_changes_nothing() {
        let mut c = controller();
        c.observe(5000.0);
        assert_eq!(c.interval(), Nanos::from_millis(100));
    }

    #[test]
    fn rising_misses_shorten_interval() {
        let mut c = controller();
        c.observe(1000.0);
        c.observe(1500.0);
        assert!(c.interval() < Nanos::from_millis(100));
    }

    #[test]
    fn falling_misses_lengthen_interval() {
        let mut c = controller();
        c.observe(1000.0);
        c.observe(500.0);
        assert!(c.interval() > Nanos::from_millis(100));
    }

    #[test]
    fn interval_respects_clamps() {
        let mut c = controller();
        // Steadily exploding misses pin the interval at the minimum.
        let mut misses = 1.0;
        for _ in 0..50 {
            c.observe(misses);
            misses *= 10.0;
            assert!(c.interval() >= Nanos::from_millis(50));
        }
        assert_eq!(c.interval(), Nanos::from_millis(50));
        // Steadily collapsing misses stretch it to the maximum.
        for _ in 0..50 {
            c.observe(misses);
            misses /= 10.0;
        }
        assert_eq!(c.interval(), Nanos::from_secs(1));
    }

    #[test]
    fn zero_previous_misses_is_safe() {
        let mut c = controller();
        c.observe(0.0);
        c.observe(100.0);
        assert_eq!(c.interval(), Nanos::from_millis(100));
    }

    #[test]
    fn reset_forgets_history() {
        let mut c = controller();
        c.observe(100.0);
        c.reset();
        c.observe(1e9); // would have been a huge delta
        assert_eq!(c.interval(), Nanos::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "min interval")]
    fn inverted_bounds_rejected() {
        IntervalController::new(
            Nanos::from_millis(100),
            Nanos::from_secs(2),
            Nanos::from_secs(1),
        );
    }
}
