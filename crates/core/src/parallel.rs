//! Parallel sharded execution of the analysis pipeline.
//!
//! The interleave engine (§4.1 step 1) is inherently stateful: each
//! re-execution of a branch is compared against the *latest* stamp of
//! every other branch, so the result of record *k* depends on all records
//! before it. This module still extracts shard-level parallelism by
//! splitting the computation into two data-parallel passes joined by a
//! cheap serial combine:
//!
//! 1. **Summarise** (parallel): each time-contiguous shard computes a
//!    [`ShardBoundary`] — the latest stamp it leaves per branch.
//! 2. **Prefix-combine** (serial, O(shards × branches)): joining the
//!    boundaries left to right yields, for every shard, the exact engine
//!    state at its first record.
//! 3. **Detect** (parallel): each shard runs the seeded engine over its
//!    own records, producing a [`ShardDelta`]; deltas merge by integer
//!    sums into the whole-trace edge counts and branch statistics.
//!
//! Both joins are associative and every carry-in is exact, so the output
//! is **bit-identical** to [`AnalysisPipeline::run`] for any shard count
//! and any worker count — a property the test suite checks against
//! arbitrary traces (`crates/core/tests/parallel_prop.rs`).
//!
//! Workers are plain scoped threads fed from a shared
//! [`crossbeam::queue::SegQueue`] of shard indices; results carry their
//! index and are sorted after the scope joins, so scheduling order never
//! leaks into the output.

use crate::merge::{ShardBoundary, ShardDelta};
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, Backoff, ResilienceError};
use bwsa_trace::{Trace, TraceShard};
use crossbeam::queue::SegQueue;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How a parallel analysis splits and schedules its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to run (≥ 1).
    pub jobs: NonZeroUsize,
    /// Shards to split the trace into; `None` means one per worker.
    /// The result is bit-identical for every value.
    pub shards: Option<NonZeroUsize>,
}

impl ParallelConfig {
    /// A configuration running `jobs` workers, one shard per worker.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> Self {
        ParallelConfig {
            jobs: NonZeroUsize::new(jobs).expect("jobs must be positive"),
            shards: None,
        }
    }

    /// One worker per available hardware thread (at least one).
    pub fn available() -> Self {
        Self::with_jobs(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The shard count this configuration resolves to.
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(self.jobs).get()
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::available()
    }
}

/// Applies `f` to every item on `jobs` worker threads, returning results
/// in item order regardless of how the work was scheduled.
///
/// Items are pulled from a shared queue, so uneven per-item cost balances
/// across workers; each worker accumulates `(index, result)` pairs locally
/// and merges them under one lock when its queue runs dry.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
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
    let queue: SegQueue<(usize, T)> = items.into_iter().enumerate().collect();
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let mut local = Vec::new();
                while let Some((i, item)) = queue.pop() {
                    local.push((i, f(i, item)));
                }
                collected.lock().expect("results poisoned").extend(local);
            });
        }
    })
    .expect("parallel_map worker panicked");
    let mut results = collected.into_inner().expect("results poisoned");
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Retry policy for supervised shard execution.
///
/// A failed shard (an unwind caught at the shard boundary) is re-queued
/// up to `retries` times with exponential backoff between rounds; only
/// the failed shards re-run, successful results are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRetryPolicy {
    /// Additional attempts granted to each failed shard.
    pub retries: u32,
    /// Base delay for the exponential backoff between retry rounds.
    pub backoff_base: Duration,
}

impl Default for ShardRetryPolicy {
    fn default() -> Self {
        ShardRetryPolicy {
            retries: 2,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// Strategy for running the two data-parallel shard passes.
///
/// The analysis body is generic over this so the plain (fail-fast) and
/// supervised (isolate-and-retry) engines share one implementation and
/// cannot drift apart.
trait ShardMapper {
    fn map<T, R, F>(&self, items: Vec<T>, jobs: usize, f: F) -> Result<Vec<R>, ResilienceError>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync;
}

/// Fail-fast mapper: a worker panic propagates, exactly as before
/// supervision existed.
struct PlainMapper;

impl ShardMapper for PlainMapper {
    fn map<T, R, F>(&self, items: Vec<T>, jobs: usize, f: F) -> Result<Vec<R>, ResilienceError>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        Ok(parallel_map(items, jobs, f))
    }
}

/// Isolating mapper: each shard runs inside a `catch` boundary *in the
/// worker closure* — this must happen before the scoped-thread join,
/// because a scoped thread that unwinds surfaces only a generic
/// "scoped thread panicked" message and the typed payload
/// ([`bwsa_resilience::supervisor::InjectedFault`], deadline markers)
/// would be lost. Failed shards retry per [`ShardRetryPolicy`]; every
/// retry increments the shared counter so the run report can show it.
struct RetryMapper<'a> {
    policy: ShardRetryPolicy,
    retries: &'a AtomicU64,
}

impl ShardMapper for RetryMapper<'_> {
    fn map<T, R, F>(&self, items: Vec<T>, jobs: usize, f: F) -> Result<Vec<R>, ResilienceError>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut pending: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(pending.len(), || None);
        let mut backoff = Backoff::new(self.policy.backoff_base);
        let mut round: u32 = 0;
        loop {
            let outcomes = parallel_map(pending.clone(), jobs, |_, (original, item)| {
                (original, catch(|| f(original, item)))
            });
            let mut failed: Vec<(usize, ResilienceError)> = Vec::new();
            for (original, outcome) in outcomes {
                match outcome {
                    Ok(result) => results[original] = Some(result),
                    Err(fault) => failed.push((original, fault)),
                }
            }
            if failed.is_empty() {
                return Ok(results
                    .into_iter()
                    .map(|r| r.expect("every shard resolved"))
                    .collect());
            }
            // Deterministic error choice: the lowest-index shard's fault.
            failed.sort_by_key(|&(i, _)| i);
            let exhausted = round >= self.policy.retries;
            let fatal = failed.iter().any(|(_, fault)| !fault.is_retryable());
            if exhausted || fatal {
                let (_, fault) = failed.swap_remove(0);
                return Err(fault);
            }
            self.retries
                .fetch_add(failed.len() as u64, Ordering::Relaxed);
            let failed_indices: Vec<usize> = failed.iter().map(|&(i, _)| i).collect();
            pending.retain(|(i, _)| failed_indices.contains(i));
            round += 1;
            std::thread::sleep(backoff.delay());
        }
    }
}

fn shard_times<'a>(shard: &'a TraceShard<'a>) -> impl Iterator<Item = (u32, u64)> + 'a {
    shard
        .indexed_records()
        .map(|(id, r)| (id.as_u32(), r.time.get()))
}

fn shard_records<'a>(shard: &'a TraceShard<'a>) -> impl Iterator<Item = (u32, u64, bool)> + 'a {
    shard
        .indexed_records()
        .map(|(id, r)| (id.as_u32(), r.time.get(), r.is_taken()))
}

/// Runs the full pipeline over `trace` using sharded parallel passes.
///
/// The output is bit-identical to a serial
/// [`AnalysisPipeline::run_observed`]; see the module docs for why.
pub fn analyze_parallel(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
) -> Analysis {
    analyze_parallel_observed(pipeline, trace, config, &Obs::noop())
}

/// [`analyze_parallel`] with stage timings (`shard_summarize`,
/// `shard_combine`, `shard_detect`, then the shared downstream stages)
/// and counters reported into `obs`.
///
/// The observer never participates in the computation, so the result is
/// bit-identical whether or not it records.
pub fn analyze_parallel_observed(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
) -> Analysis {
    match analyze_parallel_with(pipeline, trace, config, obs, &PlainMapper) {
        Ok(analysis) => analysis,
        Err(_) => unreachable!("the plain mapper is infallible"),
    }
}

/// [`analyze_parallel_observed`] with per-shard fault isolation.
///
/// Every shard computation runs inside an unwind boundary: a shard that
/// panics (or hits an injected fault) fails alone, is retried per
/// `policy`, and — only once its retry budget is spent or the fault is
/// non-retryable (a deadline, say) — surfaces as a typed
/// [`ResilienceError`] instead of a process-killing panic. Retries are
/// counted into `retry_counter` for run reports.
///
/// On success the result is still bit-identical to the serial pipeline:
/// isolation and retry change only *whether* an answer is produced,
/// never its value.
///
/// # Errors
///
/// Returns the lowest-index failed shard's fault once retries are
/// exhausted, or the first non-retryable fault observed.
pub fn analyze_parallel_supervised(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
    policy: &ShardRetryPolicy,
    retry_counter: &AtomicU64,
) -> Result<Analysis, ResilienceError> {
    analyze_parallel_with(
        pipeline,
        trace,
        config,
        obs,
        &RetryMapper {
            policy: *policy,
            retries: retry_counter,
        },
    )
}

fn analyze_parallel_with<M: ShardMapper>(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
    mapper: &M,
) -> Result<Analysis, ResilienceError> {
    let n = trace.static_branch_count();
    let jobs = config.jobs.get();
    let shards = trace.shards(config.shard_count());

    // Pass A: per-shard latest-stamp summaries, in parallel.
    let boundaries = {
        let _span = obs.span("shard_summarize");
        mapper.map(shards.clone(), jobs, |_, shard| {
            bwsa_resilience::failpoint!("core.shard_summarize");
            ShardBoundary::of_records(n, shard_times(&shard))
        })?
    };

    // Serial exclusive-prefix combine: carry[i] is the exact engine state
    // at shard i's first record.
    let combine_span = obs.span("shard_combine");
    let mut carries = Vec::with_capacity(shards.len());
    let mut acc = ShardBoundary::empty(n);
    for boundary in &boundaries {
        carries.push(acc.clone());
        acc.join(boundary);
    }
    combine_span.finish();

    // Pass B: seeded detection per shard, in parallel.
    let deltas = {
        let _span = obs.span("shard_detect");
        mapper.map(
            shards.into_iter().zip(carries).collect(),
            jobs,
            |_, (shard, carry): (TraceShard<'_>, ShardBoundary)| {
                bwsa_resilience::failpoint!("core.shard_detect");
                ShardDelta::of_shard(n, &carry, shard_records(&shard))
            },
        )?
    };
    obs.add("core.shards_merged", deltas.len() as u64);

    // Associative fold, then the same assembly as a streaming finish.
    bwsa_resilience::failpoint!("core.shard_merge");
    let mut total = ShardDelta::empty(n);
    for delta in &deltas {
        total.merge(delta);
    }
    Ok(total.into_analysis(pipeline, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 7;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 13 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let squares = parallel_map((0u64..100).collect(), 4, |i, v| {
            assert_eq!(i as u64, v);
            v * v
        });
        assert_eq!(squares, (0u64..100).map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = parallel_map(Vec::new(), 8, |_, v| v);
        assert!(empty.is_empty());
        let tiny = parallel_map(vec![5], 8, |_, v: i32| v + 1);
        assert_eq!(tiny, vec![6]);
    }

    #[test]
    fn parallel_analysis_matches_serial_bitwise() {
        let trace = busy_trace(700);
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        for jobs in [1, 2, 3, 8] {
            let parallel = analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(jobs));
            assert_eq!(parallel, serial, "jobs {jobs}");
        }
    }

    #[test]
    fn shard_count_does_not_leak_into_the_result() {
        let trace = busy_trace(200);
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        for shards in [1, 2, 7, 199, 200, 500] {
            let cfg = ParallelConfig {
                jobs: NonZeroUsize::new(3).unwrap(),
                shards: NonZeroUsize::new(shards),
            };
            assert_eq!(
                analyze_parallel(&pipeline, &trace, &cfg),
                serial,
                "shards {shards}"
            );
        }
    }

    /// Serialises the failpoint-using tests below: the registry is
    /// process-global, so concurrent scoped configurations would stomp
    /// each other.
    static FAILPOINT_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn supervised_run_retries_injected_shard_faults_and_matches_serial() {
        let _serialised = FAILPOINT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let trace = busy_trace(400);
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        let cfg = ParallelConfig {
            jobs: NonZeroUsize::new(3).unwrap(),
            shards: NonZeroUsize::new(5),
        };
        let retries = AtomicU64::new(0);
        let policy = ShardRetryPolicy {
            retries: 3,
            backoff_base: Duration::from_millis(1),
        };
        let _fp = bwsa_resilience::failpoint::scoped("core.shard_detect=2*error(shard fault)")
            .expect("valid spec");
        let result =
            analyze_parallel_supervised(&pipeline, &trace, &cfg, &Obs::noop(), &policy, &retries)
                .expect("two injected faults retry away");
        assert_eq!(result, serial, "retried run stays bit-identical");
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_shard_retries_surface_a_typed_fault() {
        let _serialised = FAILPOINT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let trace = busy_trace(100);
        let pipeline = AnalysisPipeline::new();
        let cfg = ParallelConfig {
            jobs: NonZeroUsize::new(2).unwrap(),
            shards: NonZeroUsize::new(4),
        };
        let retries = AtomicU64::new(0);
        let policy = ShardRetryPolicy {
            retries: 1,
            backoff_base: Duration::from_millis(1),
        };
        let _fp = bwsa_resilience::failpoint::scoped("core.shard_summarize=error(persistent)")
            .expect("valid spec");
        let err =
            analyze_parallel_supervised(&pipeline, &trace, &cfg, &Obs::noop(), &policy, &retries)
                .expect_err("the fault never clears");
        match err {
            ResilienceError::Injected { ref site, .. } => {
                assert_eq!(site, "core.shard_summarize")
            }
            ref other => panic!("expected an injected fault, got {other}"),
        }
        assert!(retries.load(Ordering::Relaxed) >= 1, "one retry round ran");
    }

    #[test]
    fn empty_trace_analyses_cleanly() {
        let trace = TraceBuilder::new("empty").finish();
        let pipeline = AnalysisPipeline::new();
        assert_eq!(
            analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(4)),
            pipeline.run_observed(&trace, &Obs::noop())
        );
    }
}
