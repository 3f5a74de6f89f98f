//! The unified **Session** entry point: one builder that owns the
//! association of trace, pipeline configuration, execution strategy, and
//! observer, and exposes every analysis product behind a single
//! `Result<_, Error>` surface.
//!
//! A [`Session`] replaces the 0.4-era pairs of pipeline methods
//! (deleted in 0.9.0) with configuration values: [`Execution`] picks
//! serial or ownership-parallel execution and [`Classified`] picks plain
//! §5.1 or classified §5.2 allocation. The analysis is computed once on
//! first use and cached for the session's lifetime, so interleaved
//! `allocate`/`required_bht_size` calls never re-run the pipeline.
//!
//! ```
//! use bwsa_core::{Classified, Execution, Session};
//! use bwsa_obs::Obs;
//! use bwsa_trace::TraceBuilder;
//!
//! let mut t = TraceBuilder::new("demo");
//! for i in 0..1000u64 {
//!     t.record(0x100 + (i % 3) * 4, i % 2 == 0, i + 1);
//! }
//! let trace = t.finish();
//!
//! let session = Session::new(&trace)
//!     .with_execution(Execution::Serial)
//!     .with_observer(Obs::recording());
//! let analysis = session.run().unwrap();
//! assert_eq!(analysis.working_sets.report.total_sets, 1);
//!
//! // Allocation reuses the cached analysis; no second pipeline run.
//! let alloc = session.allocate(Classified(false), 4).unwrap();
//! assert_eq!(alloc.table_size(), 4);
//!
//! let metrics = session.metrics().unwrap();
//! assert!(metrics.stage("interleave").is_some());
//! ```

use crate::allocation::{Allocation, RequiredSize};
use crate::error::Error;
use crate::parallel::{analyze_parallel_observed, ParallelConfig};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::supervise::{self, ResilienceSummary, SupervisorConfig};
use crate::window::{WindowConfig, WindowedAnalysis, WindowedResult};
use bwsa_obs::json::Json;
use bwsa_obs::report::{DowngradeReport, ResilienceReport, WindowsReport};
use bwsa_obs::{Metrics, Obs, RunReport};
use bwsa_trace::Trace;
use std::sync::OnceLock;

/// Whether allocation uses branch classification (§5.2) or not (§5.1).
///
/// A transparent wrapper rather than a bare `bool` so call sites read as
/// `session.allocate(Classified(true), 1024)` instead of an anonymous
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Classified(pub bool);

/// How a session executes the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Execution {
    /// Single-threaded, the reference implementation.
    #[default]
    Serial,
    /// The static branches split among worker threads; bit-identical to
    /// serial for every worker count (see [`crate::parallel`]).
    Parallel(ParallelConfig),
}

/// A configured analysis run over one trace.
///
/// Built with [`Session::new`] plus the `with_*` setters; see the
/// [module docs](self) for the full picture. The session borrows the
/// trace, so it can be created cheaply for an already-loaded trace and
/// dropped without giving it up.
#[derive(Debug)]
pub struct Session<'t> {
    trace: &'t Trace,
    pipeline: AnalysisPipeline,
    execution: Execution,
    supervisor: Option<SupervisorConfig>,
    windowing: Option<WindowConfig>,
    obs: Obs,
    analysis: OnceLock<Analysis>,
    resilience: OnceLock<ResilienceSummary>,
    windowed: OnceLock<WindowedResult>,
}

impl<'t> Session<'t> {
    /// A session over `trace` with the paper's default configuration,
    /// serial execution, and no observer.
    pub fn new(trace: &'t Trace) -> Self {
        Session {
            trace,
            pipeline: AnalysisPipeline::default(),
            execution: Execution::Serial,
            supervisor: None,
            windowing: None,
            obs: Obs::noop(),
            analysis: OnceLock::new(),
            resilience: OnceLock::new(),
            windowed: OnceLock::new(),
        }
    }

    /// Replaces the pipeline configuration.
    pub fn with_pipeline(mut self, pipeline: AnalysisPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Picks serial or parallel execution.
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Runs the pipeline under supervision: worker isolation, retries
    /// with backoff, cooperative deadlines, a soft memory budget, and
    /// graceful degradation down the ladder described in
    /// [`crate::supervise`]. Every attempt, retry, and downgrade is
    /// recorded in [`Session::resilience_summary`] and in run reports.
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = Some(config);
        self
    }

    /// Enables online windowed analysis: [`Session::windowed`] replays
    /// the trace through a [`WindowedAnalysis`] at `config`'s reset
    /// interval, emitting per-window summaries whose fold is bit-identical
    /// to the whole-trace answer. [`Session::run`] then returns that fold,
    /// so the trace is detected once, serially: the [`Execution`] choice
    /// and the supervisor's retry and degradation ladder do not apply.
    pub fn with_windowing(mut self, config: WindowConfig) -> Self {
        self.windowing = Some(config);
        self
    }

    /// Attaches an observer; pass [`Obs::recording`] to collect stage
    /// timings and counters, retrievable via [`Session::metrics`].
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The trace this session analyses.
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// Runs the pipeline (validating the configuration first), or returns
    /// the cached result of an earlier call. A windowed session answers
    /// with [`Session::windowed`]'s folded [`WindowedResult::analysis`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Core`] when the configuration fails
    /// [`AnalysisPipeline::validate`]; a supervised session additionally
    /// returns [`Error::Resilience`] when the whole degradation ladder
    /// fails.
    pub fn run(&self) -> Result<&Analysis, Error> {
        if self.windowing.is_some() {
            return self.windowed().map(|windowed| &windowed.analysis);
        }
        if let Some(analysis) = self.analysis.get() {
            return Ok(analysis);
        }
        self.pipeline.validate()?;
        let analysis = match &self.supervisor {
            Some(config) => {
                let (result, summary) = supervise::run_supervised(
                    &self.pipeline,
                    self.trace,
                    &self.execution,
                    config,
                    &self.obs,
                );
                let _ = self.resilience.set(summary);
                result?
            }
            None => match &self.execution {
                Execution::Serial => self.pipeline.run_observed(self.trace, &self.obs),
                Execution::Parallel(config) => {
                    analyze_parallel_observed(&self.pipeline, self.trace, config, &self.obs)
                }
            },
        };
        // A concurrent caller may have won the race; either value is
        // identical, so return whichever landed.
        Ok(self.analysis.get_or_init(|| analysis))
    }

    /// Runs the online windowed analysis configured by
    /// [`Session::with_windowing`], or returns the cached result of an
    /// earlier call. The windowed path is one serial replay of the trace,
    /// and its folded [`WindowedResult::analysis`] — bit-identical to the
    /// whole-trace answer of any engine — is also what [`Session::run`]
    /// and everything built on it return for this session.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] when no windowing is configured or the pipeline
    /// configuration fails [`AnalysisPipeline::validate`].
    pub fn windowed(&self) -> Result<&WindowedResult, Error> {
        if let Some(result) = self.windowed.get() {
            return Ok(result);
        }
        let config = self.windowing.ok_or_else(|| {
            Error::from(crate::CoreError::config(
                "windowed() needs with_windowing(WindowConfig)",
            ))
        })?;
        self.pipeline.validate()?;
        let mut engine =
            WindowedAnalysis::new(config, self.pipeline).with_observer(self.obs.clone());
        {
            let _span = self.obs.span("windowed_analysis");
            for (id, record) in self.trace.indexed_records() {
                engine.push(id.as_u32(), record.time.get(), record.is_taken());
            }
        }
        let result = engine.finish();
        Ok(self.windowed.get_or_init(|| result))
    }

    /// What a supervised run survived — attempts, retries, downgrades,
    /// faults. `None` before [`Session::run`] or without
    /// [`Session::with_supervisor`]. Populated even when the run failed,
    /// so error paths can still report what was attempted.
    pub fn resilience_summary(&self) -> Option<&ResilienceSummary> {
        self.resilience.get()
    }

    /// Branch allocation into a `table_size`-entry BHT, running the
    /// pipeline first if needed.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`Session::run`], plus
    /// [`Error::Core`] for an unusable `table_size` (zero, or below 3
    /// with classification).
    pub fn allocate(&self, classified: Classified, table_size: usize) -> Result<Allocation, Error> {
        let allocation_cfg = self.pipeline.allocation;
        let analysis = self.run()?;
        let _span = self.obs.span("allocate");
        let result = analysis.allocation(classified, table_size, &allocation_cfg)?;
        self.obs.add("core.allocations", 1);
        Ok(result)
    }

    /// The minimum BHT size for allocation to beat a conventional
    /// `baseline`-entry table (Tables 3–4), running the pipeline first if
    /// needed.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`Session::run`], plus [`Error::Core`]
    /// for a zero `baseline`.
    pub fn required_bht_size(
        &self,
        classified: Classified,
        baseline: usize,
    ) -> Result<RequiredSize, Error> {
        let allocation_cfg = self.pipeline.allocation;
        let analysis = self.run()?;
        let _span = self.obs.span("required_size_search");
        analysis.required_size(classified, self.trace, baseline, &allocation_cfg)
    }

    /// Everything the observer recorded so far; `None` without a
    /// recording observer.
    pub fn metrics(&self) -> Option<Metrics> {
        self.obs.snapshot()
    }

    /// The session's configuration as an ordered JSON object — the
    /// `config` echo embedded in run reports. A windowed session echoes
    /// the one serial replay it runs, whatever its [`Execution`].
    pub fn config_json(&self) -> Json {
        let (mode, jobs) = match (&self.windowing, &self.execution) {
            (Some(_), _) => ("windowed", 1),
            (None, Execution::Serial) => ("serial", 1),
            (None, Execution::Parallel(c)) => ("parallel", c.jobs.get() as u64),
        };
        self.pipeline
            .config_json(mode, jobs, self.windowing.as_ref())
    }

    /// Builds a [`RunReport`] for this session's trace and recorded
    /// metrics; `None` without a recording observer.
    ///
    /// The caller (typically the CLI) appends result digests before
    /// emitting it.
    pub fn run_report(&self, command: &str) -> Option<RunReport> {
        let metrics = self.metrics()?;
        let mut report = RunReport::new(
            command,
            self.trace.meta().name.clone(),
            self.trace.len() as u64,
            self.trace.static_branch_count() as u64,
            self.config_json(),
            &metrics,
        );
        if let Some(summary) = self.resilience_summary() {
            report.set_resilience(ResilienceReport {
                supervised: true,
                attempts: summary.attempts,
                retries: summary.retries,
                downgrades: summary
                    .downgrades
                    .iter()
                    .map(|d| DowngradeReport {
                        from: d.from.to_string(),
                        to: d.to.to_string(),
                        reason: d.reason.clone(),
                    })
                    .collect(),
                faults: summary.faults.clone(),
            });
        }
        if let Some(windowed) = self.windowed.get() {
            report.set_windows(WindowsReport {
                enabled: true,
                interval: windowed.config.interval(),
                unit: windowed.config.unit().label().to_owned(),
                count: windowed.windows.len() as u64,
                records: windowed.records,
                recolors: windowed.recolors,
                mean_stability: windowed.mean_stability,
                phase_changes: windowed.phase_changes,
            });
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 5;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 11 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    #[test]
    fn serial_and_parallel_sessions_agree() {
        let trace = busy_trace(600);
        let serial = Session::new(&trace);
        let parallel =
            Session::new(&trace).with_execution(Execution::Parallel(ParallelConfig::with_jobs(3)));
        assert_eq!(serial.run().unwrap(), parallel.run().unwrap());
    }

    #[test]
    fn run_is_cached() {
        let trace = busy_trace(200);
        let session = Session::new(&trace).with_observer(Obs::recording());
        session.run().unwrap();
        session.run().unwrap();
        session.allocate(Classified(false), 8).unwrap();
        // One pipeline run: the interleave stage ran exactly once.
        let metrics = session.metrics().unwrap();
        assert_eq!(metrics.stage("interleave").unwrap().count, 1);
        assert_eq!(metrics.stage("allocate").unwrap().count, 1);
    }

    #[test]
    fn invalid_config_surfaces_as_one_error_type() {
        let trace = busy_trace(50);
        let pipeline = AnalysisPipeline {
            taken_threshold: 7.0,
            ..AnalysisPipeline::default()
        };
        let session = Session::new(&trace).with_pipeline(pipeline);
        match session.run() {
            Err(Error::Core(e)) => assert!(e.to_string().contains("taken_threshold")),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn classified_flag_switches_the_allocation_scheme() {
        let trace = busy_trace(800);
        let session = Session::new(&trace);
        let plain = session.allocate(Classified(false), 8).unwrap();
        let classified = session.allocate(Classified(true), 8).unwrap();
        // Classified reserves entries 0 and 1 for the biased classes; the
        // two schemes are genuinely different assignments.
        assert_eq!(plain.table_size(), classified.table_size());
        assert!(session.required_bht_size(Classified(false), 1024).is_ok());
        assert!(session.required_bht_size(Classified(true), 1024).is_ok());
    }

    #[test]
    fn run_report_carries_config_stages_and_trace_shape() {
        let trace = busy_trace(300);
        let session = Session::new(&trace)
            .with_execution(Execution::Parallel(ParallelConfig::with_jobs(2)))
            .with_observer(Obs::recording());
        session.run().unwrap();
        let report = session.run_report("analyze").unwrap();
        assert_eq!(report.trace_records, 300);
        assert_eq!(
            report.config.get("execution").and_then(Json::as_str),
            Some("parallel")
        );
        assert!(report.stages.iter().any(|s| s.name == "shard_detect"));
        assert!(report
            .counters
            .iter()
            .any(|(k, _)| k == "core.shards_merged"));
    }

    #[test]
    fn sessions_without_observer_report_nothing() {
        let trace = busy_trace(50);
        let session = Session::new(&trace);
        session.run().unwrap();
        assert!(session.metrics().is_none());
        assert!(session.run_report("analyze").is_none());
    }
}
