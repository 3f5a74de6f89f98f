//! The one worker pool of the workspace: map items on scoped threads and
//! return the results in input order; and [`spawn_scoped`], the one way a
//! run starts a thread to do part of its work.

use std::sync::{Mutex, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

/// Starts `f` on a new thread of `scope`, running under the calling
/// thread's [`failpoint::scoped`](crate::failpoint::scoped) arming and
/// [`watchdog`](crate::watchdog) deadline, so the work it does for its
/// caller meets the caller's faults and cancellation.
///
/// # Example
///
/// ```
/// use bwsa_resilience::{failpoint, spawn_scoped, supervisor};
///
/// let _armed = failpoint::scoped("demo.site=error(on the helper)").unwrap();
/// let faulted = std::thread::scope(|scope| {
///     let helper = spawn_scoped(scope, || supervisor::catch(|| failpoint!("demo.site")));
///     helper.join().unwrap().is_err()
/// });
/// assert!(faulted);
/// assert_eq!(failpoint::hits("demo.site"), 1);
/// ```
pub fn spawn_scoped<'scope, T, F>(
    scope: &'scope Scope<'scope, '_>,
    f: F,
) -> ScopedJoinHandle<'scope, T>
where
    F: FnOnce() -> T + Send + 'scope,
    T: Send + 'scope,
{
    let (failpoints, deadline) = (crate::failpoint::inherit(), crate::watchdog::deadline());
    scope.spawn(move || {
        let _failpoints = crate::failpoint::adopt(failpoints);
        let _deadline = deadline.map(crate::watchdog::arm);
        f()
    })
}

/// Applies `f` to every item on `jobs` workers, returning results in item
/// order regardless of how the work was scheduled.
///
/// The calling thread is one of the workers, and the others start
/// through [`spawn_scoped`], so a run's faults and cancellation reach
/// every thread that does its work.
///
/// Items are pulled from a shared queue, so uneven per-item cost balances
/// across workers; each worker keeps its `(index, result)` pairs and the
/// pairs are sorted once every worker has joined.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`, with its payload.
///
/// # Example
///
/// ```
/// let squares = bwsa_resilience::parallel_map(vec![1u64, 2, 3], 2, |_, v| v * v);
/// assert_eq!(squares, [1, 4, 9]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = jobs.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let worker = || {
        let mut local = Vec::new();
        loop {
            // Only `next` on a vector iterator runs under the lock, and it
            // cannot panic, so no state is left half-updated.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return local;
            };
            local.push((i, f(i, item)));
        }
    };
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| spawn_scoped(scope, worker)).collect();
        let mut results = worker();
        for handle in handles {
            results.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        for jobs in [1, 2, 5, 64] {
            let squares = parallel_map((0u64..100).collect(), jobs, |i, v| {
                assert_eq!(i as u64, v);
                v * v
            });
            assert_eq!(squares, (0u64..100).map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = parallel_map(Vec::new(), 8, |_, v| v);
        assert!(empty.is_empty());
        let tiny = parallel_map(vec![5], 8, |_, v: i32| v + 1);
        assert_eq!(tiny, vec![6]);
    }

    #[test]
    fn a_worker_panic_propagates_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..8).collect(), 2, |_, v: i32| {
                if v == 5 {
                    panic!("item five");
                }
                v
            })
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
    }
}
