//! Multi-threaded execution of the analysis pipeline, split by branch
//! ownership.
//!
//! The interleave engine (§4.1 step 1) is inherently stateful: each
//! re-execution of a branch is compared against the *latest* stamp of
//! every other branch, so the credits of record *k* depend on every
//! record before it. But Figure 1 credits a re-execution to the branch
//! that re-executed, so the credits partition by branch:
//!
//! 1. **Detect** (parallel): every worker reads every record, from an
//!    in-memory trace or from the blocks of a `BWSS2` or `BWSS3` file
//!    decoded once for all the workers, into its own accumulator. Worker
//!    `w` of `n`
//!    owns the branches whose id is `w` modulo `n`: it credits their
//!    re-executions and keeps their execution statistics, and only stamps
//!    the others, so at every record it holds exactly the latest-stamp
//!    state of the serial pass. A file's ids are numbered by first
//!    appearance as they are read, so the workers agree on them with no
//!    pass before the workers start.
//! 2. **Stitch** (serial): the workers' rows and statistics are disjoint,
//!    so each row moves whole into one accumulator, and no counter is
//!    added or copied; the thresholded compile and assembly every engine
//!    shares finish the run.
//!
//! No worker needs another's state, so the output is **bit-identical**
//! to [`AnalysisPipeline::run_observed`] for any worker count — a
//! property the test suite checks against arbitrary traces
//! (`crates/core/tests/parallel_prop.rs`) — and the rows take the serial
//! engine's memory. A run has `jobs` workers; over an in-memory trace,
//! whose static branches are known, at most one per branch.
//!
//! Workers are [`parallel_map`]'s scoped threads; results carry their
//! index and are sorted after the scope joins, so scheduling order never
//! leaks into the output.

use crate::interleave::Accumulator;
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::source::{Block, Feed, Ingested, Pages, SharedStream};
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, Backoff, ResilienceError};
use bwsa_trace::{Trace, TraceError};
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use bwsa_resilience::parallel_map;

/// How many workers a parallel analysis runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to run (≥ 1); each owns a share of the static
    /// branches and reads every record.
    pub jobs: NonZeroUsize,
}

impl ParallelConfig {
    /// A configuration running `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> Self {
        ParallelConfig {
            jobs: NonZeroUsize::new(jobs).expect("jobs must be positive"),
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
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::available()
    }
}

/// Retry policy for supervised parallel execution.
///
/// A failed worker (an unwind caught at the worker boundary) is
/// re-queued up to `retries` times with exponential backoff between
/// rounds; only the failed workers re-run, successful results are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRetryPolicy {
    /// Additional attempts granted to each failed worker.
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

/// Maps `f` over `items` on `jobs` workers, each item inside a `catch`
/// boundary *in the worker closure* — before the scoped-thread join, so
/// the typed payload ([`bwsa_resilience::supervisor::InjectedFault`],
/// deadline markers) reaches the caller. Failed items re-run per
/// `policy`, and every retry increments `retries` so the run report can
/// show it; only the failed items re-run, successful results are kept.
fn map_isolated<T, R, F>(
    items: Vec<T>,
    jobs: usize,
    policy: &ShardRetryPolicy,
    retries: &AtomicU64,
    f: F,
) -> Result<Vec<R>, ResilienceError>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut pending: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(pending.len(), || None);
    let mut backoff = Backoff::new(policy.backoff_base);
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
                .map(|r| r.expect("every worker resolved"))
                .collect());
        }
        // Deterministic error choice: the lowest-index worker's fault.
        failed.sort_by_key(|&(i, _)| i);
        let exhausted = round >= policy.retries;
        let fatal = failed.iter().any(|(_, fault)| !fault.is_retryable());
        if exhausted || fatal {
            let (_, fault) = failed.swap_remove(0);
            return Err(fault);
        }
        retries.fetch_add(failed.len() as u64, Ordering::Relaxed);
        let failed_indices: Vec<usize> = failed.iter().map(|&(i, _)| i).collect();
        pending.retain(|(i, _)| failed_indices.contains(i));
        round += 1;
        std::thread::sleep(backoff.delay());
    }
}

/// One worker's accumulator: every record moves its branch's stamp and
/// counts toward the records, and only the records of the branches the
/// worker owns (`id % workers == worker`) credit and enter statistics.
struct Share {
    acc: Accumulator,
    /// `mine[id]`: whether the worker owns branch `id`, for every id seen.
    mine: Vec<bool>,
    worker: usize,
    workers: usize,
}

impl Share {
    /// Worker `worker` of `workers`, over `nodes` branches so far.
    fn new(nodes: usize, worker: usize, workers: usize) -> Self {
        let mut share = Share {
            acc: Accumulator::new(nodes),
            mine: Vec::new(),
            worker,
            workers,
        };
        share.cover(nodes);
        share
    }

    /// Extends `mine` to the first `len` ids.
    #[cold]
    fn cover(&mut self, len: usize) {
        let (worker, workers) = (self.worker, self.workers);
        let seen = self.mine.len();
        self.mine
            .extend((seen..len).map(|id| id % workers == worker));
    }

    /// Consumes one record of branch `id` at `stamp`.
    #[inline]
    fn push(&mut self, id: u32, stamp: u64, taken: bool) {
        let i = id as usize;
        if i >= self.mine.len() {
            self.cover(i + 1);
        }
        if self.mine[i] {
            self.acc.push(id, stamp, taken);
        } else {
            self.acc.pass(id, stamp);
        }
    }
}

/// The workers' accumulators moved into one, which holds every credit and
/// statistic of the serial pass; no workers stitch to an empty one. A
/// recording `obs` gets the most credits one worker gave as
/// `core.shard_credits_max`.
fn stitch(shares: Vec<Accumulator>, obs: &Obs) -> Accumulator {
    let workers = shares.len();
    let mut shares = shares.into_iter();
    let mut total = shares.next().unwrap_or_else(|| Accumulator::new(0));
    let credits = |acc: &Accumulator| {
        if obs.is_recording() {
            obs.record_max("core.shard_credits_max", acc.detector.credits());
        }
    };
    credits(&total);
    for (worker, share) in (1..).zip(shares) {
        credits(&share);
        let owned = total.stats.iter_mut().zip(share.stats).skip(worker);
        owned.step_by(workers).for_each(|(total, own)| *total = own);
        total.detector.absorb(share.detector);
    }
    total
}

/// Runs the workers of one parallel pass, `walk` feeding each its
/// records, and stitches their accumulators, with what worker 0's walk
/// returned: each worker inside an unwind boundary and retried per the
/// policy of `shards`, counting into its counter, when supervised, and
/// unwinding the caller with a worker's own payload otherwise. Each
/// worker's pass is timed as `shard_detect`, and `core.shards_merged`
/// counts the workers. A walk starts by passing the `core.shard_detect`
/// failpoint. The outer error is a worker's fault, the inner one the
/// first worker's error from `walk`.
fn detect<R: Send, E: Send>(
    workers: usize,
    nodes: usize,
    obs: &Obs,
    shards: Option<(&ShardRetryPolicy, &AtomicU64)>,
    walk: impl Fn(&mut Share) -> Result<R, E> + Sync,
) -> Result<Result<(Accumulator, Option<R>), E>, ResilienceError> {
    let work = |_, worker| {
        let _span = obs.span("shard_detect");
        let mut share = Share::new(nodes, worker, workers);
        walk(&mut share).map(|read| (share.acc, read))
    };
    let items = (0..workers).collect();
    let shares = match shards {
        Some((policy, retries)) => map_isolated(items, workers, policy, retries, work)?,
        None => parallel_map(items, workers, work),
    };
    let shares = match shares.into_iter().collect::<Result<Vec<_>, E>>() {
        Ok(shares) => shares,
        Err(error) => return Ok(Err(error)),
    };
    let (shares, reads): (Vec<_>, Vec<_>) = shares.into_iter().unzip();
    obs.add("core.shards_merged", workers as u64);
    bwsa_resilience::failpoint!("core.shard_merge");
    Ok(Ok((stitch(shares, obs), reads.into_iter().next())))
}

/// The parallel pass over a `BWSS3` or `BWSS2` file, on `config.jobs`
/// workers. The file is decoded once into a [`SharedStream`] that every
/// worker reads; a retried worker, or every worker once the shared read
/// stops short under a fault, streams the file alone from its start.
/// Errors as `detect`'s, the inner one a file that does not decode.
pub(crate) fn detect_file(
    feed: Feed<'_>,
    config: &ParallelConfig,
    obs: &Obs,
    shards: Option<(&ShardRetryPolicy, &AtomicU64)>,
) -> Result<Result<(Accumulator, Option<Ingested>), TraceError>, ResilienceError> {
    let workers = config.jobs.get();
    // Reader 0 is the shared stream; reader `1 + w` is worker `w` reading
    // alone, idle until then.
    let pages = Pages::new(feed.bytes(), 1 + workers);
    (1..=workers).for_each(|reader| pages.done(reader));
    let shared = match SharedStream::open(feed, &pages, workers) {
        Ok(shared) => shared,
        Err(error) => return Ok(Err(error)),
    };
    let walk = |share: &mut Share| {
        let (worker, mut started) = (share.worker, false);
        let start = || {
            started = true;
            bwsa_resilience::failpoint!("core.shard_detect");
        };
        let push = |block: Block<'_>| block.each(|id, stamp, taken| share.push(id, stamp, taken));
        if let Some(read) = shared.replay(worker, start, push) {
            return read;
        }
        if !started {
            bwsa_resilience::failpoint!("core.shard_detect");
        }
        *share = Share::new(0, worker, workers);
        let push = |block: Block<'_>| block.each(|id, stamp, taken| share.push(id, stamp, taken));
        feed.replay(&pages, 1 + worker, push)
    };
    detect(workers, 0, obs, shards, walk)
}

/// The parallel pass over an in-memory trace, at most one worker per
/// static branch.
fn detect_trace(
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
    shards: Option<(&ShardRetryPolicy, &AtomicU64)>,
) -> Result<Accumulator, ResilienceError> {
    let nodes = trace.static_branch_count();
    let walk = |share: &mut Share| {
        bwsa_resilience::failpoint!("core.shard_detect");
        for (id, record) in trace.indexed_records() {
            share.push(id.as_u32(), record.time.get(), record.is_taken());
        }
        Ok::<_, Infallible>(())
    };
    let Ok((acc, _)) = detect(config.jobs.get().min(nodes), nodes, obs, shards, walk)?;
    Ok(acc)
}

/// Runs the full pipeline over `trace` on the ownership-split workers.
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

/// [`analyze_parallel`] with stage timings (`shard_detect` for each
/// worker's pass, then the shared tail from `compile` on) and counters
/// reported into `obs`: `core.shards_merged` counts the workers that
/// ran, and `core.shard_credits_max` is the most Figure 1 credits one of
/// them gave. A worker's fault unwinds the caller with its own payload.
///
/// The observer never participates in the computation, so the result is
/// bit-identical whether or not it records.
pub fn analyze_parallel_observed(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
) -> Analysis {
    match detect_trace(trace, config, obs, None) {
        Ok(acc) => acc.into_analysis(pipeline, obs),
        Err(fault) => fault.resume(),
    }
}

/// [`analyze_parallel_observed`] with per-worker fault isolation.
///
/// Every worker runs inside an unwind boundary: a worker that panics (or
/// hits an injected fault) fails alone, is retried per `policy`, and —
/// only once its retry budget is spent or the fault is non-retryable (a
/// deadline, say) — surfaces as a typed [`ResilienceError`] instead of a
/// process-killing panic. Retries are counted into `retry_counter` for
/// run reports.
///
/// On success the result is still bit-identical to the serial pipeline:
/// isolation and retry change only *whether* an answer is produced,
/// never its value.
///
/// # Errors
///
/// Returns the lowest-index failed worker's fault once retries are
/// exhausted, or the first non-retryable fault observed.
pub fn analyze_parallel_supervised(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    config: &ParallelConfig,
    obs: &Obs,
    policy: &ShardRetryPolicy,
    retry_counter: &AtomicU64,
) -> Result<Analysis, ResilienceError> {
    let acc = detect_trace(trace, config, obs, Some((policy, retry_counter)))?;
    Ok(acc.into_analysis(pipeline, obs))
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
    fn parallel_analysis_matches_serial_bitwise() {
        let trace = busy_trace(700);
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        for jobs in [1, 2, 3, 8] {
            let parallel = analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(jobs));
            assert_eq!(parallel, serial, "jobs {jobs}");
        }
    }

    /// Worker `worker` of `workers` after every record of `trace`.
    fn share_of(trace: &Trace, nodes: usize, worker: usize, workers: usize) -> Accumulator {
        let mut share = Share::new(nodes, worker, workers);
        for (id, record) in trace.indexed_records() {
            share.push(id.as_u32(), record.time.get(), record.is_taken());
        }
        share.acc
    }

    #[test]
    fn a_worker_credits_and_counts_only_the_ids_it_owns() {
        let trace = busy_trace(300);
        let profile = bwsa_trace::profile::BranchProfile::from_trace(&trace);
        for worker in 0..3 {
            let share = share_of(&trace, 0, worker, 3);
            assert_eq!(share.records, 300, "every worker counts every record");
            assert_eq!(share.stats.len(), trace.static_branch_count());
            for (id, stats) in share.stats.iter().enumerate() {
                let mine = id % 3 == worker;
                let owned = *profile.stats(bwsa_trace::BranchId::new(id as u32));
                let expected = if mine { owned } else { Default::default() };
                assert_eq!(stats, &expected, "worker {worker}, branch {id}");
            }
        }
    }

    /// A trace over 16 hot branches. A wide one first runs
    /// `HEAD_NODES + PAGE + 8` branches once each and keeps eight hot
    /// branches inside the heads and four on each side of the page
    /// boundary above them, so pairs across the heads' end and across
    /// pages take credits from both of their owners, in heads and pages.
    fn hot_trace(steps: &[(u8, u64)], wide: bool) -> Trace {
        let head = crate::interleave::HEAD_NODES as u64;
        let page = crate::interleave::PAGE as u64;
        let mut b = TraceBuilder::new("owned");
        let mut t = 1;
        if wide {
            for id in 0..head + page + 8 {
                b.record(0x10_0000 + id * 4, true, t);
                t += 1;
            }
        }
        for &(slot, dt) in steps {
            t += dt; // dt = 0 repeats a stamp: equal stamps never interleave
            let id = match u64::from(slot) {
                low if low < 8 || !wide => low,
                high if high < 12 => head + high - 8,
                high => head + page + high - 12,
            };
            b.record(0x10_0000 + id * 4, slot % 3 == 0, t);
        }
        b.finish()
    }

    proptest::proptest! {
        #[test]
        fn any_worker_count_stitches_to_the_serial_pass(
            steps in proptest::collection::vec((0u8..16, 0u64..3), 1..300),
            wide in proptest::arbitrary::any::<bool>(),
            workers in 1usize..5,
            grown in proptest::arbitrary::any::<bool>(),
        ) {
            let trace = hot_trace(&steps, wide);
            // A file's workers start from no branches, a trace's from all.
            let nodes = if grown { 0 } else { trace.static_branch_count() };
            let shares = (0..workers)
                .map(|worker| share_of(&trace, nodes, worker, workers))
                .collect();
            let stitched = stitch(shares, &Obs::noop());
            let profile = bwsa_trace::profile::BranchProfile::from_trace(&trace);
            proptest::prop_assert_eq!(
                bwsa_trace::profile::BranchProfile::from_parts(stitched.stats, stitched.records),
                profile
            );
            // Threshold 1 keeps every pair: the compiles are the raw graphs.
            let keep_all = crate::ConflictConfig { threshold: 1 };
            proptest::prop_assert_eq!(
                stitched.detector.compile(keep_all),
                crate::interleave::detect(&trace).compile(keep_all)
            );
        }
    }

    #[test]
    fn supervised_run_retries_injected_shard_faults_and_matches_serial() {
        let trace = busy_trace(400);
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        let cfg = ParallelConfig::with_jobs(3);
        let retries = AtomicU64::new(0);
        let policy = ShardRetryPolicy {
            retries: 3,
            backoff_base: Duration::from_millis(1),
        };
        let _fp = bwsa_resilience::failpoint::scoped("core.shard_detect=2*error(worker fault)")
            .expect("valid spec");
        let result =
            analyze_parallel_supervised(&pipeline, &trace, &cfg, &Obs::noop(), &policy, &retries)
                .expect("two injected faults retry away");
        assert_eq!(result, serial, "retried run stays bit-identical");
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_shard_retries_surface_a_typed_fault() {
        let trace = busy_trace(100);
        let pipeline = AnalysisPipeline::new();
        let cfg = ParallelConfig::with_jobs(2);
        let retries = AtomicU64::new(0);
        let policy = ShardRetryPolicy {
            retries: 1,
            backoff_base: Duration::from_millis(1),
        };
        let _fp = bwsa_resilience::failpoint::scoped("core.shard_detect=error(persistent)")
            .expect("valid spec");
        let err =
            analyze_parallel_supervised(&pipeline, &trace, &cfg, &Obs::noop(), &policy, &retries)
                .expect_err("the fault never clears");
        match err {
            ResilienceError::Injected { ref site, .. } => assert_eq!(site, "core.shard_detect"),
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
