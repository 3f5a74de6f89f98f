//! Supervised pipeline execution: retries, deadlines and graceful
//! degradation.
//!
//! A supervised run walks a **degradation ladder**: the parallel rung
//! (only when the session asked for it; per-worker isolation and retry,
//! as [`crate::parallel::analyze_parallel_supervised`] runs it, each
//! worker streaming a `BWSS2` or `BWSS3` file itself and a retried
//! worker reading it again from its start), then the serial rung
//! (whole-run attempts with exponential backoff between retries,
//! streaming a `BWSS2` or `BWSS3` file as an unsupervised serial run
//! does). Both rungs produce a bit-identical answer when they
//! succeed, so downgrading trades only throughput. A rung is abandoned
//! when its retries are spent or it hits a non-retryable fault (a
//! deadline), and the drop is recorded as a [`Downgrade`]; only a failed
//! serial rung surfaces a typed [`Error`], never a raw panic. A trace
//! that does not decode is bad data, not a fault: its [`Error::Trace`]
//! ends the run at once, with no retry and no downgrade.
//!
//! Deadlines are cooperative: [`SupervisorConfig::max_wall`] arms a
//! [`bwsa_resilience::watchdog`] deadline per attempt for the calling
//! thread and the workers it starts, and every failpoint site doubles
//! as a cancellation point.

use crate::error::Error;
use crate::parallel::{ParallelConfig, ShardRetryPolicy};
use crate::session::Execution;
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, Backoff, ResilienceError};
use bwsa_resilience::watchdog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Limits and retry policy for a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Additional attempts per rung (and per worker on the parallel
    /// rung) before downgrading.
    pub retries: u32,
    /// Base delay for exponential backoff between retries.
    pub backoff_base: Duration,
    /// Cooperative wall-clock deadline per attempt; `None` disables the
    /// watchdog.
    pub max_wall: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retries: 2,
            backoff_base: Duration::from_millis(25),
            max_wall: None,
        }
    }
}

/// One recorded drop down the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Downgrade {
    /// The rung that failed ("parallel").
    pub from: &'static str,
    /// The rung the run fell back to ("serial").
    pub to: &'static str,
    /// The fault that forced the drop, rendered for humans.
    pub reason: String,
}

/// What a supervised run survived: attempts, retries, downgrades, and
/// every fault observed along the way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// Whole-rung attempts made (min 1 for a run that executed).
    pub attempts: u64,
    /// Retries granted, counting both whole-rung retries and per-worker
    /// retries inside the parallel rung.
    pub retries: u64,
    /// Each drop down the degradation ladder, in order.
    pub downgrades: Vec<Downgrade>,
    /// Every fault observed, rendered for humans, in order.
    pub faults: Vec<String>,
}

/// A rung of the ladder: the engine one attempt runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    Parallel(ParallelConfig),
    Serial,
}

impl Rung {
    /// The rung an unsupervised run of `execution` takes.
    pub(crate) fn of(execution: &Execution) -> Self {
        match execution {
            Execution::Parallel(c) => Rung::Parallel(*c),
            Execution::Serial => Rung::Serial,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Rung::Parallel(_) => "parallel",
            Rung::Serial => "serial",
        }
    }
}

/// Runs `attempt` down the degradation ladder of `execution`: each
/// attempt inside an unwind boundary and under the deadline, given the
/// per-worker retry policy and a counter of the worker retries it spent.
///
/// Returns the first successful attempt's value (or the serial rung's
/// fault as a typed [`Error`]) *and* the [`ResilienceSummary`] of
/// everything survived along the way — the summary is meaningful even
/// when the run fails, so callers can still report what was attempted.
/// An attempt's own error other than [`Error::Resilience`] ends the walk
/// at once.
pub(crate) fn run_supervised<T>(
    execution: &Execution,
    config: &SupervisorConfig,
    obs: &Obs,
    attempt: impl Fn(Rung, (&ShardRetryPolicy, &AtomicU64)) -> Result<T, Error>,
) -> (Result<T, Error>, ResilienceSummary) {
    let rungs = match Rung::of(execution) {
        Rung::Serial => vec![Rung::Serial],
        parallel => vec![parallel, Rung::Serial],
    };
    let shard_retries = AtomicU64::new(0);
    let policy = ShardRetryPolicy {
        retries: config.retries,
        backoff_base: config.backoff_base,
    };
    let mut summary = ResilienceSummary::default();
    for (index, &rung) in rungs.iter().enumerate() {
        // The parallel rung retries at worker granularity inside the
        // mapper; whole-rung retries apply to the serial rung.
        let rung_retries = match rung {
            Rung::Parallel(_) => 0,
            Rung::Serial => config.retries,
        };
        let mut backoff = Backoff::new(config.backoff_base);
        let mut last_fault: Option<ResilienceError> = None;
        for tries in 0..=rung_retries {
            summary.attempts += 1;
            obs.add("resilience.attempts", 1);
            let _watchdog = config
                .max_wall
                .map(|wall| watchdog::arm(Instant::now() + wall));
            // The catch contains faults raised outside the worker mapper
            // (the stitch and the tail stages after it).
            let outcome = catch(|| attempt(rung, (&policy, &shard_retries)));
            summary.retries += shard_retries.swap(0, Ordering::Relaxed);
            let fault = match outcome {
                Ok(Ok(value)) => return (Ok(value), summary),
                Ok(Err(Error::Resilience(fault))) | Err(fault) => fault,
                Ok(Err(error)) => return (Err(error), summary),
            };
            obs.add("resilience.faults", 1);
            summary.faults.push(fault.to_string());
            let retryable = fault.is_retryable();
            last_fault = Some(fault);
            if !retryable {
                break;
            }
            if tries < rung_retries {
                summary.retries += 1;
                obs.add("resilience.retries", 1);
                std::thread::sleep(backoff.delay());
            }
        }
        let fault = last_fault.expect("a failed rung recorded its fault");
        let Some(next) = rungs.get(index + 1) else {
            return (Err(Error::Resilience(fault)), summary);
        };
        obs.add("resilience.downgrades", 1);
        summary.downgrades.push(Downgrade {
            from: rung.name(),
            to: next.name(),
            reason: fault.to_string(),
        });
    }
    unreachable!("the ladder always ends with the serial rung");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Analysis, AnalysisPipeline};
    use crate::Session;
    use bwsa_resilience::failpoint;
    use bwsa_trace::{Trace, TraceBuilder};

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 3;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 9 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        }
    }

    fn parallel() -> Execution {
        Execution::Parallel(ParallelConfig::with_jobs(2))
    }

    /// A supervised session's answer and what it survived.
    fn supervised(
        trace: &Trace,
        execution: Execution,
        config: SupervisorConfig,
    ) -> (Result<Analysis, Error>, ResilienceSummary) {
        let session = Session::new(trace)
            .with_execution(execution)
            .with_supervisor(config);
        let result = session.run().cloned();
        (result, session.resilience_summary().unwrap().clone())
    }

    #[test]
    fn fault_free_supervision_matches_the_plain_pipeline() {
        let trace = busy_trace(500);
        let plain = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        for execution in [Execution::Serial, parallel()] {
            let (result, summary) = supervised(&trace, execution, quick_config());
            assert_eq!(result.expect("no faults"), plain);
            assert_eq!(summary.attempts, 1);
            assert_eq!(summary.retries, 0);
            assert!(summary.downgrades.is_empty());
            assert!(summary.faults.is_empty());
        }
    }

    #[test]
    fn a_parallel_only_fault_downgrades_to_serial_bit_identically() {
        let trace = busy_trace(400);
        let plain = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        // core.shard_detect only exists in the parallel workers; the
        // serial rung does not traverse it, so the ladder recovers there.
        let _fp = failpoint::scoped("core.shard_detect=error(worker blew up)").expect("valid spec");
        let (result, summary) = supervised(&trace, parallel(), quick_config());
        assert_eq!(result.expect("serial rung recovers"), plain);
        assert_eq!(summary.attempts, 2, "one parallel attempt + serial");
        assert!(summary.retries >= 1, "the failed workers were retried");
        assert_eq!(
            summary.downgrades,
            vec![Downgrade {
                from: "parallel",
                to: "serial",
                reason: "injected fault at 'core.shard_detect': worker blew up".into(),
            }]
        );
    }

    #[test]
    fn a_fault_on_every_rung_surfaces_typed_not_as_a_panic() {
        let trace = busy_trace(200);
        // The thresholded compile runs on both rungs: the parallel tail
        // and the serial pipeline. Nothing can succeed.
        let _fp = failpoint::scoped("core.conflict_prune=error(persistent)").expect("valid spec");
        let (result, summary) = supervised(&trace, parallel(), quick_config());
        match result {
            Err(Error::Resilience(ResilienceError::Injected { site, .. })) => {
                assert_eq!(site, "core.conflict_prune")
            }
            other => panic!("expected a typed injected fault, got {other:?}"),
        }
        assert_eq!(summary.downgrades.len(), 1, "parallel -> serial");
        assert_eq!(summary.attempts, 3, "parallel, then serial and its retry");
    }

    #[test]
    fn a_deadline_is_not_retried_on_the_same_rung() {
        let trace = busy_trace(300);
        let plain = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        // A 30ms delay at a parallel-only site against a 5ms deadline: the
        // sliced sleep observes the watchdog and cancels the rung. The
        // serial rung never traverses the site and finishes in time.
        let _fp = failpoint::scoped("core.shard_detect=delay(30)").expect("valid spec");
        let config = SupervisorConfig {
            retries: 3,
            backoff_base: Duration::from_millis(1),
            max_wall: Some(Duration::from_millis(5)),
        };
        let (result, summary) = supervised(&trace, parallel(), config);
        assert_eq!(result.expect("serial rung recovers"), plain);
        assert_eq!(
            summary.attempts, 2,
            "a timeout downgrades immediately, no same-rung retry"
        );
        assert_eq!(summary.retries, 0);
        assert!(summary.faults[0].contains("deadline exceeded"));
    }

    #[test]
    fn a_retry_reads_a_streamed_file_from_its_start() {
        let trace = busy_trace(300);
        let plain = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        let mut bwss = Vec::new();
        bwsa_trace::Format::Bwss
            .write(&trace, &mut bwss)
            .expect("encodes");
        // The first attempt reads the whole file, then fails.
        let _fp = failpoint::scoped("core.working_sets=1*error(once)").expect("valid spec");
        let session = Session::over(crate::Source::File {
            bytes: &bwss,
            policy: bwsa_trace::stream::RecoveryPolicy::Strict,
        })
        .with_supervisor(quick_config());
        assert_eq!(session.run().expect("the retry recovers"), &plain);
        let summary = session.resilience_summary().unwrap();
        assert_eq!((summary.attempts, summary.retries), (2, 1));
    }

    #[test]
    fn a_decode_error_ends_the_run_without_retry_or_downgrade() {
        let bytes = b"BWSS\x02\x00\x04\x00\x00\x00tornxx";
        let session = Session::over(crate::Source::File {
            bytes,
            policy: bwsa_trace::stream::RecoveryPolicy::Strict,
        })
        .with_execution(parallel())
        .with_supervisor(quick_config());
        assert!(matches!(session.run(), Err(Error::Trace(_))));
        let summary = session.resilience_summary().unwrap();
        assert_eq!(summary.attempts, 1);
        assert!(summary.faults.is_empty() && summary.downgrades.is_empty());
    }
}
