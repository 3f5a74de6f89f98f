//! Panic containment and retry pacing for supervised execution.
//!
//! [`catch`] is the boundary between "code that may unwind" (worker
//! closures, pipeline stages with failpoints, third-party panics) and
//! "code that reasons about failures": it converts any unwind into a
//! typed [`ResilienceError`], recognising the payloads this crate's
//! failpoints and watchdog raise. [`Backoff`] produces the bounded
//! exponential delays a supervisor sleeps between retries.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Panic payload raised by a failpoint in `error` mode.
///
/// Error-mode failpoints unwind with this payload instead of changing
/// infallible function signatures; [`catch`] downcasts it back into
/// [`ResilienceError::Injected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint site that fired (e.g. `core.interleave`).
    pub site: String,
    /// The configured fault message.
    pub message: String,
}

/// Panic payload raised by the [`crate::watchdog`] when a deadline
/// passes; [`catch`] turns it into [`ResilienceError::Timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The cancellation point that observed the expired deadline.
    pub site: String,
}

/// A failure a supervisor isolated: what went wrong, in a form a caller
/// can match on, log, and convert into the workspace error type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResilienceError {
    /// A failpoint in `error` mode fired.
    Injected {
        /// The site that fired.
        site: String,
        /// The configured message.
        message: String,
    },
    /// Code under supervision panicked (including `panic`-mode
    /// failpoints).
    Panic {
        /// The panic message, or a placeholder for non-string payloads.
        message: String,
    },
    /// A watchdog deadline expired.
    Timeout {
        /// The cancellation point that observed the expiry.
        site: String,
    },
}

impl ResilienceError {
    /// Classifies a caught panic payload.
    pub fn from_panic_payload(payload: Box<dyn Any + Send>) -> Self {
        let payload = match payload.downcast::<InjectedFault>() {
            Ok(fault) => {
                return ResilienceError::Injected {
                    site: fault.site,
                    message: fault.message,
                }
            }
            Err(other) => other,
        };
        let payload = match payload.downcast::<DeadlineExceeded>() {
            Ok(deadline) => {
                return ResilienceError::Timeout {
                    site: deadline.site,
                }
            }
            Err(other) => other,
        };
        let message = if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        };
        ResilienceError::Panic { message }
    }

    /// Unwinds with this fault's payload, which [`catch`] reads back as
    /// the same fault.
    pub fn resume(self) -> ! {
        let payload: Box<dyn Any + Send> = match self {
            ResilienceError::Injected { site, message } => {
                Box::new(InjectedFault { site, message })
            }
            ResilienceError::Timeout { site } => Box::new(DeadlineExceeded { site }),
            ResilienceError::Panic { message } => Box::new(message),
        };
        std::panic::resume_unwind(payload)
    }

    /// Whether retrying the failed work could plausibly succeed.
    ///
    /// A timeout is a pressure signal — the same work will hit it again —
    /// so a supervisor should degrade instead of retrying.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ResilienceError::Injected { .. } | ResilienceError::Panic { .. }
        )
    }
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Injected { site, message } => {
                write!(f, "injected fault at '{site}': {message}")
            }
            ResilienceError::Panic { message } => write!(f, "isolated panic: {message}"),
            ResilienceError::Timeout { site } => {
                write!(f, "deadline exceeded (observed at '{site}')")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// Runs `f`, converting any unwind into a typed [`ResilienceError`].
///
/// This is the supervisor's containment boundary: failpoint unwinds come
/// back as [`ResilienceError::Injected`] / [`ResilienceError::Timeout`],
/// genuine panics as [`ResilienceError::Panic`].
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, ResilienceError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(ResilienceError::from_panic_payload)
}

/// Bounded exponential backoff: each [`Backoff::delay`] call returns the
/// next sleep, doubling from `base` up to `cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    next: Duration,
    cap: Duration,
}

impl Backoff {
    /// A backoff starting at `base` and capped at `64 * base`.
    pub fn new(base: Duration) -> Self {
        Backoff {
            base,
            next: base,
            cap: base.saturating_mul(64),
        }
    }

    /// A backoff starting at `base`, never exceeding `cap`.
    pub fn with_cap(base: Duration, cap: Duration) -> Self {
        Backoff {
            base: base.min(cap),
            next: base.min(cap),
            cap,
        }
    }

    /// The delay to sleep before the next retry; doubles on each call.
    pub fn delay(&mut self) -> Duration {
        let current = self.next;
        self.next = self.next.saturating_mul(2).min(self.cap);
        current
    }

    /// A decorrelated-jitter delay: uniform in `[base, 3 * previous]`,
    /// capped, where "previous" is whatever this call last returned.
    ///
    /// Jitter spreads retry storms: clients that failed together retry
    /// apart. The randomness comes from the caller's [`crate::DetRng`],
    /// so a fixed seed replays the exact same delay sequence — chaos
    /// tests and retry-after hints stay deterministic.
    pub fn delay_jittered(&mut self, rng: &mut crate::DetRng) -> Duration {
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.next.as_nanos().min(u128::from(u64::MAX)) as u64;
        let hi = prev.saturating_mul(3).max(base.saturating_add(1));
        let nanos = base + rng.below(hi - base);
        let current = Duration::from_nanos(nanos).min(self.cap).max(self.base);
        self.next = current;
        current
    }

    /// Forgets accumulated growth: the next delay starts from `base`
    /// again. Admission ladders call this when pressure clears.
    pub fn reset(&mut self) {
        self.next = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_passes_values_through() {
        assert_eq!(catch(|| 7), Ok(7));
    }

    #[test]
    fn catch_classifies_injected_faults() {
        let err = catch(|| {
            std::panic::panic_any(InjectedFault {
                site: "core.interleave".into(),
                message: "boom".into(),
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            ResilienceError::Injected {
                site: "core.interleave".into(),
                message: "boom".into()
            }
        );
        assert!(err.is_retryable());
        assert!(err.to_string().contains("core.interleave"));
    }

    #[test]
    fn catch_classifies_deadlines_as_timeouts() {
        let err = catch(|| {
            std::panic::panic_any(DeadlineExceeded {
                site: "core.shard_detect".into(),
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            ResilienceError::Timeout {
                site: "core.shard_detect".into()
            }
        );
        assert!(!err.is_retryable());
    }

    #[test]
    fn catch_classifies_plain_panics() {
        let err = catch(|| panic!("kaput {}", 3)).unwrap_err();
        assert_eq!(
            err,
            ResilienceError::Panic {
                message: "kaput 3".into()
            }
        );
        let err = catch(|| std::panic::panic_any(42u32)).unwrap_err();
        assert!(matches!(err, ResilienceError::Panic { .. }));
    }

    #[test]
    fn resume_unwinds_with_a_payload_catch_reads_back() {
        for fault in [
            ResilienceError::Injected {
                site: "core.shard_detect".into(),
                message: "boom".into(),
            },
            ResilienceError::Timeout {
                site: "core.shard_detect".into(),
            },
            ResilienceError::Panic {
                message: "kaput".into(),
            },
        ] {
            let again = fault.clone();
            assert_eq!(catch(move || again.resume()).unwrap_err(), fault);
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap() {
        let mut b = Backoff::with_cap(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(b.delay(), Duration::from_millis(10));
        assert_eq!(b.delay(), Duration::from_millis(20));
        assert_eq!(b.delay(), Duration::from_millis(35));
        assert_eq!(b.delay(), Duration::from_millis(35));
    }

    #[test]
    fn jittered_delays_stay_within_base_and_cap() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_millis(200);
        let mut b = Backoff::with_cap(base, cap);
        let mut rng = crate::DetRng::new(99);
        for _ in 0..500 {
            let d = b.delay_jittered(&mut rng);
            assert!(d >= base, "delay {d:?} under base");
            assert!(d <= cap, "delay {d:?} over cap");
        }
    }

    #[test]
    fn jittered_delays_are_deterministic_per_seed_and_actually_jitter() {
        let mk = || Backoff::with_cap(Duration::from_millis(10), Duration::from_secs(1));
        let seq = |seed: u64| {
            let mut b = mk();
            let mut rng = crate::DetRng::new(seed);
            (0..20)
                .map(|_| b.delay_jittered(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7), "equal seeds must replay equal delays");
        assert_ne!(seq(7), seq(8), "different seeds must diverge");
        let s = seq(7);
        assert!(
            s.windows(2).any(|w| w[0] != w[1]),
            "a jittered sequence must vary: {s:?}"
        );
    }

    #[test]
    fn jittered_backoff_resets_to_base_pressure() {
        let base = Duration::from_millis(10);
        let mut b = Backoff::with_cap(base, Duration::from_secs(5));
        let mut rng = crate::DetRng::new(1);
        // Let it grow, then reset: the next delay is again bounded by
        // the first-call window [base, 3*base).
        for _ in 0..50 {
            b.delay_jittered(&mut rng);
        }
        b.reset();
        let d = b.delay_jittered(&mut rng);
        assert!(d < base * 3, "after reset the window restarts: {d:?}");
    }
}
