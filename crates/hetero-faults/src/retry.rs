//! Bounded retry with exponential backoff — the defense the channel fault
//! family exercises.
//!
//! The guest front-end's posts can fail transiently (ring backpressure,
//! injected storms). Rather than abort or spin, callers wrap the operation
//! in [`retry_with_backoff`]: each failed attempt charges simulated wait
//! time to the clock and retries, up to a bound. The bound matters — an
//! unbounded retry against a wedged VMM is a livelock, so exhaustion is a
//! typed error the caller must handle (typically by degrading placement).

use std::fmt;

use hetero_sim::{Clock, Nanos};

/// Backoff schedule: `base * multiplier^attempt`, capped at `cap`, at most
/// `max_attempts` tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Wait after the first failure.
    pub base: Nanos,
    /// Growth factor per attempt.
    pub multiplier: u32,
    /// Ceiling on a single wait.
    pub cap: Nanos,
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
}

impl Backoff {
    /// The channel default: 1 µs base, doubling, 100 µs cap, 6 attempts —
    /// comfortably longer than a VMM pump interval, far shorter than an
    /// epoch.
    pub fn channel_default() -> Self {
        Backoff {
            base: Nanos::from_micros(1),
            multiplier: 2,
            cap: Nanos::from_micros(100),
            max_attempts: 6,
        }
    }

    /// Wait before retry number `attempt` (0-based).
    pub fn delay_for(&self, attempt: u32) -> Nanos {
        let factor = u64::from(self.multiplier).saturating_pow(attempt);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// All attempts failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryExhausted<E> {
    /// Attempts made.
    pub attempts: u32,
    /// The final attempt's error.
    pub last: E,
}

impl<E: fmt::Display> fmt::Display for RetryExhausted<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gave up after {} attempts: {}", self.attempts, self.last)
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for RetryExhausted<E> {}

/// Runs `op` until it succeeds or the backoff is exhausted. Each failure
/// advances `clock` by the schedule's delay, modelling the guest actually
/// waiting. Between attempts `recover` runs — the hook where a driver
/// drains the other end of the ring (or a test pumps the VMM).
///
/// Returns the success value and the number of attempts used (≥ 1).
///
/// # Errors
///
/// Returns [`RetryExhausted`] wrapping the last error once `max_attempts`
/// failures accumulate.
pub fn retry_with_backoff<T, E>(
    backoff: &Backoff,
    clock: &mut Clock,
    mut op: impl FnMut() -> Result<T, E>,
    mut recover: impl FnMut(),
) -> Result<(T, u32), RetryExhausted<E>> {
    let attempts = backoff.max_attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match op() {
            Ok(v) => return Ok((v, attempt + 1)),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < attempts {
                    clock.advance(backoff.delay_for(attempt));
                    recover();
                }
            }
        }
    }
    Err(RetryExhausted {
        attempts,
        last: last.expect("loop ran at least once"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_charges_nothing() {
        let mut clock = Clock::new();
        let r = retry_with_backoff(
            &Backoff::channel_default(),
            &mut clock,
            || Ok::<_, &str>(7),
            || {},
        );
        assert_eq!(r, Ok((7, 1)));
        assert_eq!(clock.now(), Nanos::ZERO);
    }

    #[test]
    fn retries_until_recover_unblocks() {
        let mut clock = Clock::new();
        let ok_after = std::cell::Cell::new(3u32);
        let r = retry_with_backoff(
            &Backoff::channel_default(),
            &mut clock,
            || {
                if ok_after.get() == 0 {
                    Ok(())
                } else {
                    Err("busy")
                }
            },
            || ok_after.set(ok_after.get() - 1),
        );
        assert_eq!(r, Ok(((), 4)));
        // 1 + 2 + 4 µs of waiting.
        assert_eq!(clock.now(), Nanos::from_micros(7));
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let mut clock = Clock::new();
        let r: Result<((), u32), _> = retry_with_backoff(
            &Backoff {
                base: Nanos::from_micros(1),
                multiplier: 2,
                cap: Nanos::from_micros(2),
                max_attempts: 4,
            },
            &mut clock,
            || Err::<(), _>("wedged"),
            || {},
        );
        let err = r.unwrap_err();
        assert_eq!(err.attempts, 4);
        assert_eq!(err.last, "wedged");
        // 1 + 2 + 2 µs (cap applies), no wait after the final failure.
        assert_eq!(clock.now(), Nanos::from_micros(5));
        assert!(err.to_string().contains("4 attempts"));
    }

    #[test]
    fn delay_schedule_is_capped_exponential() {
        let b = Backoff::channel_default();
        assert_eq!(b.delay_for(0), Nanos::from_micros(1));
        assert_eq!(b.delay_for(3), Nanos::from_micros(8));
        assert_eq!(b.delay_for(20), Nanos::from_micros(100));
    }
}
