//! A cooperative deadline watchdog.
//!
//! Safe Rust cannot kill a stuck thread, so the watchdog is cooperative:
//! the supervisor [`arm`]s a deadline, and every
//! [`failpoint!`](macro@crate::failpoint) site doubles as a cancellation point
//! that [`observe`]s it. When the deadline has passed, the observing
//! thread unwinds with a [`DeadlineExceeded`] payload, which
//! [`supervisor::catch`](crate::supervisor::catch) converts into
//! [`ResilienceError::Timeout`](crate::ResilienceError::Timeout).
//!
//! A deadline belongs to the thread that armed it and to the threads it
//! starts through [`spawn_scoped`](crate::spawn_scoped), the
//! same scope as [`failpoint::scoped`](crate::failpoint::scoped): a run's
//! workers are cancelled with it, while concurrent runs — a daemon's
//! requests, or unit tests side by side — keep their own budgets.
//!
//! Granularity therefore equals failpoint-site density: a stage with no
//! sites in its inner loop is only cancelled at its boundaries. Delay-mode
//! failpoints sleep in small slices and observe between them, so injected
//! stalls never outlive the deadline by more than one slice.
//!
//! Disarmed, [`observe`] costs one relaxed atomic load.

use crate::supervisor::DeadlineExceeded;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How many threads hold a deadline; lets [`observe`] skip the
/// thread-local read entirely when none does. `Relaxed` is enough: the
/// count publishes no data, and a thread that armed a deadline always
/// sees its own increment.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Arms a deadline for the calling thread and the threads it starts
/// through [`spawn_scoped`](crate::spawn_scoped); returns a
/// guard that restores the thread's previous deadline, if any, when
/// dropped (including during an unwind).
///
/// A deadline armed under another can only shorten it: the thread runs
/// under the earlier of the two until the guard drops.
#[must_use = "the deadline is disarmed when the guard drops"]
pub fn arm(deadline: Instant) -> WatchdogGuard {
    let previous =
        DEADLINE.with(|c| c.replace(Some(c.get().map_or(deadline, |d| d.min(deadline)))));
    if previous.is_none() {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
    WatchdogGuard { previous }
}

/// Restores the thread's previous deadline on drop; returned by [`arm`].
#[derive(Debug)]
pub struct WatchdogGuard {
    previous: Option<Instant>,
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        DEADLINE.with(|c| c.set(self.previous));
        if self.previous.is_none() {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The calling thread's deadline, for the workers it starts to [`arm`].
pub(crate) fn deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Cancellation point: unwinds with [`DeadlineExceeded`] if the calling
/// thread's deadline has passed. Every failpoint site calls this.
#[inline]
pub fn observe(site: &str) {
    if ARMED.load(Ordering::Relaxed) > 0 {
        observe_armed(site);
    }
}

#[cold]
fn observe_armed(site: &str) {
    if deadline().is_some_and(|d| Instant::now() >= d) {
        std::panic::panic_any(DeadlineExceeded {
            site: site.to_string(),
        });
    }
}

/// Sleeps for `total`, observing the deadline between small slices so an
/// injected delay cannot stall past an armed deadline.
pub fn sleep_observing(total: Duration, site: &str) {
    const SLICE: Duration = Duration::from_millis(5);
    let until = Instant::now() + total;
    loop {
        observe(site);
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(SLICE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{catch, ResilienceError};

    #[test]
    fn disarmed_observe_is_a_no_op() {
        observe("any.site");
        assert_eq!(deadline(), None);
    }

    #[test]
    fn expired_deadline_unwinds_as_timeout() {
        let result = catch(|| {
            let _guard = arm(Instant::now() - Duration::from_millis(1));
            observe("core.interleave");
        });
        assert_eq!(
            result,
            Err(ResilienceError::Timeout {
                site: "core.interleave".into()
            })
        );
        assert_eq!(deadline(), None, "guard disarmed on unwind");
    }

    #[test]
    fn future_deadline_lets_work_proceed() {
        let guard = arm(Instant::now() + Duration::from_secs(60));
        observe("core.interleave");
        assert!(deadline().is_some_and(|d| d > Instant::now() + Duration::from_secs(30)));
        drop(guard);
        assert_eq!(deadline(), None);
    }

    #[test]
    fn deadlines_are_per_thread_and_reach_parallel_map_workers() {
        // This thread's deadline is already past…
        let _expired = arm(Instant::now() - Duration::from_millis(1));
        // …and the workers it starts inherit it…
        let timed_out = crate::parallel_map(vec![(); 4], 2, |_, ()| {
            catch(|| observe("core.shard_detect")).is_err()
        });
        assert_eq!(timed_out, [true; 4]);
        // …while a thread it did not start through the pool keeps its
        // own healthy budget, or none at all.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = arm(Instant::now() + Duration::from_secs(60));
                observe("server.dispatch"); // must not unwind
            })
            .join()
            .expect("the sibling thread's deadline is its own");
            s.spawn(|| observe("server.dispatch"))
                .join()
                .expect("threads without a deadline are unaffected");
        });
    }

    #[test]
    fn a_nested_deadline_can_only_shorten_the_outer_one() {
        let expired = Instant::now() - Duration::from_millis(1);
        let healthy = Instant::now() + Duration::from_secs(60);
        for (outer, inner) in [(expired, healthy), (healthy, expired)] {
            let outer_guard = arm(outer);
            let inner_guard = arm(inner);
            assert!(
                catch(|| observe("server.dispatch")).is_err(),
                "the earlier deadline holds while both are armed"
            );
            drop(inner_guard);
            assert_eq!(deadline(), Some(outer), "the outer deadline is back");
            drop(outer_guard);
        }
        observe("server.dispatch");
        assert_eq!(deadline(), None);
    }

    #[test]
    fn observed_sleep_aborts_at_the_deadline() {
        let start = Instant::now();
        let result = catch(|| {
            let _guard = arm(Instant::now() + Duration::from_millis(20));
            sleep_observing(Duration::from_secs(10), "delay.site");
        });
        assert!(matches!(result, Err(ResilienceError::Timeout { .. })));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "did not sleep 10s"
        );
    }
}
