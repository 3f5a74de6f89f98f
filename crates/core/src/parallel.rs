//! Multi-threaded execution of the analysis pipeline, split by branch
//! ownership.
//!
//! The interleave engine (§4.1 step 1) is inherently stateful: each
//! re-execution of a branch is compared against the *latest* stamp of
//! every other branch, so the credits of record *k* depend on every
//! record before it. But Figure 1 credits a re-execution to the branch
//! that re-executed, so the credits partition by branch:
//!
//! 1. **Own** (serial): a profile pass gives each static branch one of
//!    `min(jobs, static branches)` workers, the branch with the most
//!    executions going to the least-loaded worker.
//! 2. **Detect** (parallel): every worker walks the whole trace into its
//!    own detector. It credits the re-executions of the branches it owns
//!    and only stamps the others, so at every record it holds exactly the
//!    latest-stamp state of the serial pass.
//! 3. **Stitch** (serial): the workers' rows are disjoint, so they move
//!    into one detector and their spill tables add; the serial compile
//!    and assembly finish the run.
//!
//! No worker needs another's state, so the output is **bit-identical**
//! to [`AnalysisPipeline::run_observed`] for any worker count — a
//! property the test suite checks against arbitrary traces
//! (`crates/core/tests/parallel_prop.rs`) — and the rows take the serial
//! engine's memory.
//!
//! Workers are [`parallel_map`]'s scoped threads; results carry their
//! index and are sorted after the scope joins, so scheduling order never
//! leaks into the output.

use crate::interleave::Detector;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, Backoff, ResilienceError};
use bwsa_trace::profile::BranchProfile;
use bwsa_trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use bwsa_resilience::parallel_map;

/// How many workers a parallel analysis runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to run (≥ 1); each owns a share of the static
    /// branches and reads the whole trace.
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

/// Strategy for running the parallel detection workers.
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

/// Isolating mapper: each worker runs inside a `catch` boundary *in the
/// worker closure* — this must happen before the scoped-thread join,
/// because a scoped thread that unwinds surfaces only a generic
/// "scoped thread panicked" message and the typed payload
/// ([`bwsa_resilience::supervisor::InjectedFault`], deadline markers)
/// would be lost. Failed workers retry per [`ShardRetryPolicy`]; every
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
                    .map(|r| r.expect("every worker resolved"))
                    .collect());
            }
            // Deterministic error choice: the lowest-index worker's fault.
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

/// Each static branch's worker, and how many workers there are:
/// `min(jobs, static branches)`. Branches are dealt in descending order
/// of execution count (ties by id), each to the worker with the fewest
/// executions so far (ties by worker index).
fn owners(profile: &BranchProfile, jobs: usize) -> (Vec<u32>, u32) {
    let workers = jobs.min(profile.static_count()) as u32;
    let mut load: BinaryHeap<Reverse<(u64, u32)>> =
        (0..workers).map(|worker| Reverse((0, worker))).collect();
    let mut owner = vec![0; profile.static_count()];
    for id in profile.ids_by_frequency() {
        let Reverse((executions, worker)) = load.pop().expect("a branch means a worker");
        owner[id.index()] = worker;
        load.push(Reverse((executions + profile.stats(id).executions, worker)));
    }
    (owner, workers)
}

/// One worker's detector: every record moves its branch's stamp, and only
/// the re-executions of the branches `owner` gives to `worker` credit.
fn detect_owned(trace: &Trace, owner: &[u32], worker: u32) -> Detector {
    let mut detector = Detector::new(trace.static_branch_count());
    for (id, record) in trace.indexed_records() {
        let (node, stamp) = (id.as_u32(), record.time.get());
        if owner[id.index()] == worker {
            detector.push(node, stamp);
        } else {
            detector.pass(node, stamp);
        }
    }
    detector
}

/// The workers' detectors moved into one, which holds every credit of
/// the serial pass. Only a trace without branches runs no worker.
fn stitch(detectors: Vec<Detector>) -> Detector {
    let mut detectors = detectors.into_iter();
    let mut total = detectors.next().unwrap_or_else(|| Detector::new(0));
    for detector in detectors {
        total.absorb(detector);
    }
    total
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

/// [`analyze_parallel`] with stage timings (`profile`, `shard_detect`,
/// `compile`, then the shared downstream stages) and counters reported
/// into `obs`; `core.shards_merged` counts the workers that ran.
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
    let profile = {
        let _span = obs.span("profile");
        BranchProfile::from_trace(trace)
    };
    let (owner, workers) = owners(&profile, config.jobs.get());
    let detectors = {
        let _span = obs.span("shard_detect");
        mapper.map(
            (0..workers).collect(),
            workers as usize,
            |_, worker: u32| {
                bwsa_resilience::failpoint!("core.shard_detect");
                detect_owned(trace, &owner, worker)
            },
        )?
    };
    obs.add("core.shards_merged", detectors.len() as u64);

    bwsa_resilience::failpoint!("core.shard_merge");
    let raw = {
        let _span = obs.span("compile");
        stitch(detectors).into_graph()
    };
    Ok(pipeline.assemble(profile, raw, obs))
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

    #[test]
    fn owners_deal_the_heaviest_branch_to_the_least_loaded_worker() {
        // Executions 5, 3, 3, 1, 1 (ids in first-appearance order).
        let mut b = TraceBuilder::new("deal");
        let mut t = 0;
        for (pc, runs) in [(0x10, 5), (0x14, 3), (0x18, 3), (0x1c, 1), (0x20, 1)] {
            for _ in 0..runs {
                t += 1;
                b.record(pc, true, t);
            }
        }
        let profile = BranchProfile::from_trace(&b.finish());
        // Loads after each deal: (5, 0) (5, 3) (5, 6) (6, 6) (7, 6).
        assert_eq!(owners(&profile, 2), (vec![0, 1, 1, 0, 0], 2));
        assert_eq!(owners(&profile, 8), (vec![0, 1, 2, 3, 4], 5));
        assert_eq!(owners(&profile, 1), (vec![0; 5], 1));
    }

    /// A trace over 16 hot branches. A wide one first runs
    /// `DENSE_NODES + 8` branches once each and keeps eight hot branches
    /// on each side of the dense cap, so pairs across it take spill
    /// credits from both of their owners.
    fn hot_trace(steps: &[(u8, u64)], wide: bool) -> Trace {
        let dense = crate::interleave::DENSE_NODES as u64;
        let mut b = TraceBuilder::new("owned");
        let mut t = 1;
        if wide {
            for id in 0..dense + 8 {
                b.record(0x10_0000 + id * 4, true, t);
                t += 1;
            }
        }
        for &(slot, dt) in steps {
            t += dt; // dt = 0 repeats a stamp: equal stamps never interleave
            let id = match u64::from(slot) {
                low if low < 8 || !wide => low,
                high => dense + high - 8,
            };
            b.record(0x10_0000 + id * 4, slot % 3 == 0, t);
        }
        b.finish()
    }

    proptest::proptest! {
        #[test]
        fn any_owner_map_stitches_to_the_serial_graph(
            steps in proptest::collection::vec((0u8..16, 0u64..3), 1..300),
            wide in proptest::arbitrary::any::<bool>(),
            workers in 1u32..5,
            split in 0u8..4,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let trace = hot_trace(&steps, wide);
            let n = trace.static_branch_count();
            let owner: Vec<u32> = (0..n as u64)
                .map(|b| {
                    let mixed = (b ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                    match split {
                        0 => (mixed % u64::from(workers)) as u32,
                        1 => workers - 1,
                        2 => (b % u64::from(workers)) as u32,
                        // Only even workers own branches.
                        _ => (mixed % u64::from(workers.div_ceil(2))) as u32 * 2,
                    }
                })
                .collect();
            let detectors = (0..workers)
                .map(|worker| detect_owned(&trace, &owner, worker))
                .collect();
            proptest::prop_assert_eq!(
                stitch(detectors).into_graph(),
                crate::interleave::detect(&trace).into_graph()
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
