//! Supervised pipeline execution: retries, deadlines, memory budgets,
//! and graceful degradation.
//!
//! A supervised run walks a **degradation ladder** instead of trusting
//! one engine:
//!
//! 1. **Parallel** (only when the session asked for it) — the
//!    ownership-split engine with per-worker fault isolation and retry
//!    ([`crate::parallel::analyze_parallel_supervised`]).
//! 2. **Serial** — the reference implementation, whole-run attempts with
//!    exponential backoff between retries.
//! 3. **Streaming** — the record-at-a-time accumulator behind
//!    [`crate::StreamingAnalysis`], the last resort and the low-memory
//!    path.
//!
//! Every rung produces a bit-identical [`Analysis`] when it succeeds
//! (the workspace's serial-equivalence guarantees), so downgrading
//! trades only throughput, never correctness. A rung is abandoned when
//! its retry budget is spent or it hits a non-retryable fault (a
//! deadline, a blown memory budget); the walk then drops one rung and
//! records a [`Downgrade`]. Only when the *last* rung fails does the
//! run surface a typed [`Error`] — a supervised run never escapes as a
//! raw panic.
//!
//! Deadlines are cooperative: [`SupervisorConfig::max_wall`] arms a
//! [`bwsa_resilience::watchdog`] deadline for the calling thread and the
//! workers it starts, and every failpoint site doubles as a cancellation
//! point. Memory budgets are soft: before each
//! non-final rung the peak RSS is compared against
//! [`SupervisorConfig::max_rss_bytes`], and a run already over budget
//! skips straight to the streaming rung.

use crate::error::Error;
use crate::interleave::Accumulator;
use crate::parallel::{analyze_parallel_supervised, ParallelConfig, ShardRetryPolicy};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::session::Execution;
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, Backoff, ResilienceError};
use bwsa_resilience::watchdog;
use bwsa_trace::Trace;
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
    /// Soft peak-RSS budget in bytes; a run already over it skips
    /// straight to the streaming rung. `None` disables the check.
    pub max_rss_bytes: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retries: 2,
            backoff_base: Duration::from_millis(25),
            max_wall: None,
            max_rss_bytes: None,
        }
    }
}

/// One recorded drop down the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Downgrade {
    /// The rung that failed ("parallel", "serial").
    pub from: &'static str,
    /// The rung the run fell back to ("serial", "streaming").
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Parallel(ParallelConfig),
    Serial,
    Streaming,
}

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::Parallel(_) => "parallel",
            Rung::Serial => "serial",
            Rung::Streaming => "streaming",
        }
    }
}

/// The streaming rung: the trace's records pushed one at a time into the
/// accumulator the streaming engines share, past neither the
/// `core.profile` nor the `core.interleave` site.
fn streaming_replay(pipeline: &AnalysisPipeline, trace: &Trace, obs: &Obs) -> Analysis {
    let mut acc = Accumulator::new(trace.static_branch_count());
    for (id, record) in trace.indexed_records() {
        acc.push(id.as_u32(), record.time.get(), record.is_taken());
    }
    acc.into_analysis(pipeline, obs)
}

/// Runs the pipeline under supervision, walking the degradation ladder.
///
/// Returns the analysis (or the last rung's fault as a typed [`Error`])
/// *and* the [`ResilienceSummary`] of everything survived along the way
/// — the summary is meaningful even when the run fails, so callers can
/// still report what was attempted.
pub(crate) fn run_supervised(
    pipeline: &AnalysisPipeline,
    trace: &Trace,
    execution: &Execution,
    config: &SupervisorConfig,
    obs: &Obs,
) -> (Result<Analysis, Error>, ResilienceSummary) {
    let rungs: Vec<Rung> = match execution {
        Execution::Parallel(c) => vec![Rung::Parallel(*c), Rung::Serial, Rung::Streaming],
        _ => vec![Rung::Serial, Rung::Streaming],
    };
    let shard_retries = AtomicU64::new(0);
    let policy = ShardRetryPolicy {
        retries: config.retries,
        backoff_base: config.backoff_base,
    };
    let mut summary = ResilienceSummary::default();
    let mut index = 0;
    while index < rungs.len() {
        let rung = rungs[index];
        let last_rung = index + 1 == rungs.len();

        // Soft memory budget: when the process is already over it, the
        // heavier rungs are pointless — jump to the final (streaming)
        // rung rather than the next one.
        if !last_rung {
            if let (Some(budget), Some(peak)) =
                (config.max_rss_bytes, bwsa_obs::rss::peak_rss_bytes())
            {
                if peak > budget {
                    let fault = ResilienceError::MemoryBudget {
                        peak_bytes: peak,
                        budget_bytes: budget,
                    };
                    obs.add("resilience.faults", 1);
                    obs.add("resilience.downgrades", 1);
                    summary.faults.push(fault.to_string());
                    summary.downgrades.push(Downgrade {
                        from: rung.name(),
                        to: Rung::Streaming.name(),
                        reason: fault.to_string(),
                    });
                    index = rungs.len() - 1;
                    continue;
                }
            }
        }

        // The parallel rung retries at worker granularity inside the
        // mapper; whole-rung retries apply to the serial rungs.
        let rung_retries = match rung {
            Rung::Parallel(_) => 0,
            _ => config.retries,
        };
        let mut backoff = Backoff::new(config.backoff_base);
        let mut last_fault: Option<ResilienceError> = None;
        for attempt in 0..=rung_retries {
            summary.attempts += 1;
            obs.add("resilience.attempts", 1);
            let _watchdog = config
                .max_wall
                .map(|wall| watchdog::arm(Instant::now() + wall));
            let outcome: Result<Analysis, ResilienceError> = match rung {
                // The outer catch contains faults raised outside the worker
                // mapper (the stitch and the tail stages after it).
                Rung::Parallel(c) => catch(|| {
                    analyze_parallel_supervised(pipeline, trace, &c, obs, &policy, &shard_retries)
                })
                .and_then(|inner| inner),
                Rung::Serial => catch(|| pipeline.run_observed(trace, obs)),
                Rung::Streaming => catch(|| streaming_replay(pipeline, trace, obs)),
            };
            summary.retries += shard_retries.swap(0, Ordering::Relaxed);
            match outcome {
                Ok(analysis) => return (Ok(analysis), summary),
                Err(fault) => {
                    obs.add("resilience.faults", 1);
                    summary.faults.push(fault.to_string());
                    let retryable = fault.is_retryable();
                    last_fault = Some(fault);
                    if !retryable {
                        break;
                    }
                    if attempt < rung_retries {
                        summary.retries += 1;
                        obs.add("resilience.retries", 1);
                        std::thread::sleep(backoff.delay());
                    }
                }
            }
        }

        let fault = last_fault.expect("a failed rung recorded its fault");
        if last_rung {
            return (Err(Error::Resilience(fault)), summary);
        }
        obs.add("resilience.downgrades", 1);
        summary.downgrades.push(Downgrade {
            from: rung.name(),
            to: rungs[index + 1].name(),
            reason: fault.to_string(),
        });
        index += 1;
    }
    unreachable!("the ladder always has at least one rung");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_resilience::failpoint;
    use bwsa_trace::TraceBuilder;

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

    #[test]
    fn fault_free_supervision_matches_the_plain_pipeline() {
        let trace = busy_trace(500);
        let pipeline = AnalysisPipeline::new();
        let plain = pipeline.run_observed(&trace, &Obs::noop());
        for execution in [
            Execution::Serial,
            Execution::Parallel(ParallelConfig::with_jobs(3)),
        ] {
            let (result, summary) =
                run_supervised(&pipeline, &trace, &execution, &quick_config(), &Obs::noop());
            assert_eq!(result.expect("no faults"), plain);
            assert_eq!(summary.attempts, 1);
            assert_eq!(summary.retries, 0);
            assert!(summary.downgrades.is_empty());
            assert!(summary.faults.is_empty());
        }
    }

    #[test]
    fn a_serial_only_fault_downgrades_to_streaming_bit_identically() {
        let trace = busy_trace(400);
        let pipeline = AnalysisPipeline::new();
        let plain = pipeline.run_observed(&trace, &Obs::noop());
        // core.profile only exists on the serial path; the streaming
        // rung does not traverse it, so the ladder recovers there.
        let _fp = failpoint::scoped("core.profile=error(stage blew up)").expect("valid spec");
        let (result, summary) = run_supervised(
            &pipeline,
            &trace,
            &Execution::Serial,
            &quick_config(),
            &Obs::noop(),
        );
        assert_eq!(result.expect("streaming rung recovers"), plain);
        assert_eq!(summary.attempts, 3, "two serial attempts + streaming");
        assert_eq!(summary.retries, 1);
        assert_eq!(summary.faults.len(), 2);
        assert_eq!(
            summary.downgrades,
            vec![Downgrade {
                from: "serial",
                to: "streaming",
                reason: "injected fault at 'core.profile': stage blew up".into(),
            }]
        );
    }

    #[test]
    fn a_fault_on_every_rung_surfaces_typed_not_as_a_panic() {
        let trace = busy_trace(200);
        let pipeline = AnalysisPipeline::new();
        // The thresholded compile runs on every rung: serial, parallel
        // tail, and the streaming finish. Nothing can succeed.
        let _fp = failpoint::scoped("core.conflict_prune=error(persistent)").expect("valid spec");
        let (result, summary) = run_supervised(
            &pipeline,
            &trace,
            &Execution::Serial,
            &quick_config(),
            &Obs::noop(),
        );
        match result {
            Err(Error::Resilience(ResilienceError::Injected { site, .. })) => {
                assert_eq!(site, "core.conflict_prune")
            }
            other => panic!("expected a typed injected fault, got {other:?}"),
        }
        assert_eq!(summary.downgrades.len(), 1, "serial -> streaming");
        assert!(summary.attempts >= 3);
    }

    #[test]
    fn a_deadline_is_not_retried_on_the_same_rung() {
        let trace = busy_trace(300);
        let pipeline = AnalysisPipeline::new();
        let plain = pipeline.run_observed(&trace, &Obs::noop());
        // A 30ms delay at a serial-only site against a 5ms deadline: the
        // sliced sleep observes the watchdog and cancels the rung. The
        // streaming rung never traverses the site and finishes in time.
        let _fp = failpoint::scoped("core.interleave=delay(30)").expect("valid spec");
        let config = SupervisorConfig {
            retries: 3,
            backoff_base: Duration::from_millis(1),
            max_wall: Some(Duration::from_millis(5)),
            ..SupervisorConfig::default()
        };
        let (result, summary) =
            run_supervised(&pipeline, &trace, &Execution::Serial, &config, &Obs::noop());
        assert_eq!(result.expect("streaming rung recovers"), plain);
        assert_eq!(
            summary.attempts, 2,
            "a timeout downgrades immediately, no same-rung retry"
        );
        assert_eq!(summary.retries, 0);
        assert!(summary.faults[0].contains("deadline exceeded"));
    }

    #[test]
    fn an_exhausted_memory_budget_skips_to_the_streaming_rung() {
        let trace = busy_trace(300);
        let pipeline = AnalysisPipeline::new();
        let plain = pipeline.run_observed(&trace, &Obs::noop());
        let config = SupervisorConfig {
            max_rss_bytes: Some(1), // any real process is over this
            ..quick_config()
        };
        let execution = Execution::Parallel(ParallelConfig::with_jobs(2));
        let (result, summary) =
            run_supervised(&pipeline, &trace, &execution, &config, &Obs::noop());
        assert_eq!(result.expect("streaming still runs"), plain);
        assert_eq!(summary.attempts, 1, "parallel and serial never attempted");
        assert_eq!(
            summary.downgrades,
            vec![Downgrade {
                from: "parallel",
                to: "streaming",
                reason: summary.faults[0].clone(),
            }]
        );
        assert!(summary.faults[0].contains("memory budget"));
    }
}
