//! The unified **Session** entry point: one builder that owns the
//! association of a record [`Source`], pipeline configuration, execution
//! strategy and observer, and exposes every analysis product behind a
//! single `Result<_, Error>` surface.
//!
//! A session runs over an in-memory trace ([`Session::new`]) or over the
//! bytes of a trace file in any format ([`Session::over`]). [`Execution`]
//! picks serial or ownership-parallel execution and [`Classified`] plain
//! §5.1 or classified §5.2 allocation. Every run streams a `BWSS2` or
//! `BWSS3` file block by block through the one block decoder of
//! [`crate::source`] and builds no trace; a parallel run decodes each
//! block once for all its workers. A `BWST` file is decoded once and
//! held. The analysis is computed once on first use and cached, so
//! interleaved `allocate`/`required_bht_size` calls never re-run the
//! pipeline. A run keeps no state to save or resume: it reads the
//! whole source each time, which costs less than saving its pair counts
//! would.
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
use crate::error::{CoreError, Error};
use crate::interleave::Accumulator;
use crate::parallel::{
    self, analyze_parallel_observed, analyze_parallel_supervised, ParallelConfig, ShardRetryPolicy,
};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::source::{Block, Feed, Ingested, Pages, Source};
use crate::supervise::{self, ResilienceSummary, Rung, SupervisorConfig};
use crate::window::{self, WindowConfig, WindowedAnalysis, WindowedResult};
use bwsa_obs::json::Json;
use bwsa_obs::report::{DowngradeReport, ResilienceReport, WindowsReport};
use bwsa_obs::{Metrics, Obs, RunReport};
use bwsa_resilience::watchdog;
use bwsa_trace::{Trace, TraceError};
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;
use std::time::Instant;

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

/// A configured analysis run over one record [`Source`], which it
/// borrows.
///
/// Built with [`Session::new`] or [`Session::over`] plus the `with_*`
/// setters; see the [module docs](self) for the full picture.
#[derive(Debug)]
pub struct Session<'t> {
    source: Source<'t>,
    pipeline: AnalysisPipeline,
    execution: Execution,
    supervisor: Option<SupervisorConfig>,
    windowing: Option<WindowConfig>,
    obs: Obs,
    /// A file source decoded whole: a `BWST` file, or any file for the
    /// required-size search.
    decoded: OnceLock<(Trace, Ingested)>,
    ingested: OnceLock<Ingested>,
    analysis: OnceLock<Analysis>,
    resilience: OnceLock<ResilienceSummary>,
    windowed: OnceLock<WindowedResult>,
}

impl<'t> Session<'t> {
    /// A session over an in-memory `trace`: [`Session::over`] with
    /// [`Source::Trace`].
    pub fn new(trace: &'t Trace) -> Self {
        Self::over(Source::Trace(trace))
    }

    /// A session over `source` with the paper's default configuration,
    /// serial execution, and no observer.
    pub fn over(source: Source<'t>) -> Self {
        Session {
            source,
            pipeline: AnalysisPipeline::default(),
            execution: Execution::Serial,
            supervisor: None,
            windowing: None,
            obs: Obs::noop(),
            decoded: OnceLock::new(),
            ingested: OnceLock::new(),
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
    /// with backoff, cooperative deadlines, and graceful degradation down
    /// the ladder described in [`crate::supervise`]. Every attempt,
    /// retry, and downgrade is recorded in
    /// [`Session::resilience_summary`] and in run reports.
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = Some(config);
        self
    }

    /// Enables online windowed analysis: [`Session::windowed`] replays
    /// the source through a [`WindowedAnalysis`] at `config`'s reset
    /// interval, emitting per-window summaries whose fold is bit-identical
    /// to the whole-trace answer. [`Session::run`] then returns that fold,
    /// so the records are detected once, on the calling thread. Under
    /// [`Execution::Parallel`] with two or more jobs, each window is
    /// re-colored on one helper thread while the next is detected;
    /// otherwise inline. The supervisor's retry and degradation ladder do
    /// not apply, though its deadline does, on both threads.
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

    /// Runs the pipeline (validating the configuration first), or returns
    /// the cached result of an earlier call. A windowed session answers
    /// with [`Session::windowed`]'s folded [`WindowedResult::analysis`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Core`] for a bad configuration, [`Error::Trace`]
    /// when a file does not decode, and, for a supervised session,
    /// [`Error::Resilience`] when the whole degradation ladder fails.
    pub fn run(&self) -> Result<&Analysis, Error> {
        if self.windowing.is_some() {
            return self.windowed().map(|windowed| &windowed.analysis);
        }
        if let Some(analysis) = self.analysis.get() {
            return Ok(analysis);
        }
        self.pipeline.validate()?;
        let (analysis, ingested) = match &self.supervisor {
            Some(config) => {
                let (result, summary) = supervise::run_supervised(
                    &self.execution,
                    config,
                    &self.obs,
                    |rung, shards| self.attempt(rung, Some(shards)),
                );
                let _ = self.resilience.set(summary);
                result?
            }
            None => self.attempt(Rung::of(&self.execution), None)?,
        };
        self.record(ingested);
        // A concurrent caller may have won the race; either value is
        // identical, so return whichever landed.
        Ok(self.analysis.get_or_init(|| analysis))
    }

    /// Runs the online windowed analysis configured by
    /// [`Session::with_windowing`], or returns the cached result of an
    /// earlier call: one replay of the source's blocks, its windows
    /// re-colored on a helper thread under a parallel [`Execution`] (see
    /// [`Session::with_windowing`]), under the supervisor's deadline when
    /// one is set. Its folded
    /// [`WindowedResult::analysis`] — bit-identical to the whole-trace
    /// answer of any engine — is what [`Session::run`] returns too.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] without windowing or for a bad configuration, and
    /// [`Error::Trace`] when a file does not decode.
    pub fn windowed(&self) -> Result<&WindowedResult, Error> {
        if let Some(result) = self.windowed.get() {
            return Ok(result);
        }
        let reason = "windowed() needs with_windowing(WindowConfig)";
        let unset = || Error::from(CoreError::config(reason));
        let config = self.windowing.ok_or_else(unset)?;
        self.pipeline.validate()?;
        let _watchdog = self
            .supervisor
            .and_then(|c| c.max_wall)
            .map(|wall| watchdog::arm(Instant::now() + wall));
        let (result, ingested) = window::run(
            config,
            self.pipeline,
            &self.obs,
            self.colors_on_helper(),
            |engine| self.replay(engine),
        )?;
        self.record(ingested);
        Ok(self.windowed.get_or_init(|| result))
    }

    /// What a supervised run survived — attempts, retries, downgrades,
    /// faults. `None` before [`Session::run`] or without
    /// [`Session::with_supervisor`]. Populated even when the run failed,
    /// so error paths can still report what was attempted.
    pub fn resilience_summary(&self) -> Option<&ResilienceSummary> {
        self.resilience.get()
    }

    /// What a successful run read from a file source; `None` for a
    /// [`Source::Trace`].
    pub fn ingested(&self) -> Option<&Ingested> {
        self.ingested.get()
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
    /// needed. The search decodes a file source whole.
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
        let (trace, _) = self.whole()?;
        let _span = self.obs.span("required_size_search");
        analysis.required_size(classified, trace, baseline, &allocation_cfg)
    }

    /// Everything the observer recorded so far; `None` without a
    /// recording observer.
    pub fn metrics(&self) -> Option<Metrics> {
        self.obs.snapshot()
    }

    /// The session's configuration as an ordered JSON object — the
    /// `config` echo embedded in run reports, with `null` window keys when
    /// unwindowed. A windowed session echoes the threads its replay runs
    /// on: 1, or 2 when a helper thread re-colors the windows.
    pub fn config_json(&self) -> Json {
        let (mode, jobs) = match (&self.windowing, &self.execution) {
            (Some(_), _) => ("windowed", 1 + u64::from(self.colors_on_helper())),
            (None, Execution::Serial) => ("serial", 1),
            (None, Execution::Parallel(c)) => ("parallel", c.jobs.get() as u64),
        };
        let (p, window) = (&self.pipeline, self.windowing.as_ref());
        Json::object([
            ("conflict_threshold", Json::UInt(p.conflict.threshold)),
            (
                "working_set_definition",
                Json::from(format!("{:?}", p.definition)),
            ),
            ("taken_threshold", Json::Float(p.taken_threshold)),
            ("not_taken_threshold", Json::Float(p.not_taken_threshold)),
            ("execution", Json::from(mode)),
            ("jobs", Json::UInt(jobs)),
            (
                "window_interval",
                window.map_or(Json::Null, |w| Json::UInt(w.interval())),
            ),
            (
                "window_unit",
                window.map_or(Json::Null, |w| Json::from(w.unit().label())),
            ),
        ])
    }

    /// Builds a [`RunReport`] for this session's run and recorded
    /// metrics; `None` without a recording observer. The trace name comes
    /// from the source, the counts from the analysis profile.
    ///
    /// The caller (typically the CLI) appends result digests before
    /// emitting it.
    pub fn run_report(&self, command: &str) -> Option<RunReport> {
        let metrics = self.metrics()?;
        let analysis = self
            .analysis
            .get()
            .or(self.windowed.get().map(|w| &w.analysis));
        let profile = analysis.map(|a| &a.profile);
        let meta = match self.source {
            Source::Trace(trace) => Some(trace.meta()),
            Source::File { .. } => self.ingested().map(|i| &i.meta),
        };
        let mut report = RunReport::new(
            command,
            meta.map_or_else(String::new, |m| m.name.clone()),
            profile.map_or(0, |p| p.total_dynamic()),
            profile.map_or(0, |p| p.static_count() as u64),
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

    /// Whether a windowed run re-colors its windows on a helper thread:
    /// under [`Execution::Parallel`] with two or more jobs.
    fn colors_on_helper(&self) -> bool {
        matches!(self.execution, Execution::Parallel(c) if c.jobs.get() > 1)
    }

    /// Pushes every record of the source into `engine`: a `BWSS2` or
    /// `BWSS3` file's blocks as they stream, else the whole trace.
    fn replay(&self, engine: &mut WindowedAnalysis) -> Result<Option<Ingested>, Error> {
        let obs = &self.obs;
        let push = |block: Block<'_>| {
            let _span = obs.span("windowed_analysis");
            block.each(|id, stamp, taken| engine.push(id, stamp, taken));
        };
        if let Some(ingested) = self.stream(push)? {
            return Ok(Some(ingested));
        }
        let (trace, ingested) = self.whole()?;
        let _span = obs.span("windowed_analysis");
        for (id, record) in trace.indexed_records() {
            engine.push(id.as_u32(), record.time.get(), record.is_taken());
        }
        Ok(ingested.cloned())
    }

    /// The source as one in-memory trace, and what reading it found: a
    /// file is decoded on first use, under `ingest`, and held, and the
    /// file's mapped pages leave memory. Runs take this only for a
    /// `BWST` file; the required-size search takes it for any file.
    fn whole(&self) -> Result<(&Trace, Option<&Ingested>), TraceError> {
        let (bytes, policy) = match self.source {
            Source::Trace(trace) => return Ok((trace, None)),
            Source::File { bytes, policy } => (bytes, policy),
        };
        let (trace, ingested) = match self.decoded.get() {
            Some(decoded) => decoded,
            None => {
                let _span = self.obs.span("ingest");
                let (trace, salvage) = bwsa_trace::decode(bytes, policy)?;
                bwsa_trace::mmap::release(bytes);
                let meta = trace.meta().clone();
                self.decoded
                    .get_or_init(|| (trace, Ingested { meta, salvage }))
            }
        };
        Ok((trace, Some(ingested)))
    }

    /// One attempt at the analysis on `rung` (with a supervised parallel
    /// rung's worker retries), and what it read: either rung streams a
    /// `BWSS2` or `BWSS3` file, a parallel one in every worker, and runs
    /// over [`Session::whole`] otherwise.
    fn attempt(
        &self,
        rung: Rung,
        shards: Option<(&ShardRetryPolicy, &AtomicU64)>,
    ) -> Result<(Analysis, Option<Ingested>), Error> {
        let (pipeline, obs) = (&self.pipeline, &self.obs);
        match rung {
            Rung::Serial => {
                let mut acc = Accumulator::new(0);
                let detect = |block: Block<'_>| {
                    let _detect = obs.span("detect");
                    block.each(|id, stamp, taken| acc.push(id, stamp, taken));
                };
                if let Some(ingested) = self.stream(detect)? {
                    return Ok((acc.into_analysis(pipeline, obs), Some(ingested)));
                }
            }
            Rung::Parallel(c) => {
                if let Some(feed) = Feed::of(self.source)? {
                    let ingest = obs.span("ingest");
                    let (acc, ingested) = parallel::detect_file(feed, &c, obs, shards)??;
                    ingest.finish();
                    return Ok((acc.into_analysis(pipeline, obs), ingested));
                }
            }
        }
        let (trace, ingested) = self.whole()?;
        let analysis = match (rung, shards) {
            (Rung::Parallel(c), Some((policy, retries))) => {
                analyze_parallel_supervised(pipeline, trace, &c, obs, policy, retries)?
            }
            (Rung::Parallel(c), None) => analyze_parallel_observed(pipeline, trace, &c, obs),
            (Rung::Serial, _) => pipeline.run_observed(trace, obs),
        };
        Ok((analysis, ingested.cloned()))
    }

    /// Hands a `BWSS2` or `BWSS3` file source's blocks, inside `ingest`,
    /// to `sink` through [`Feed::replay`], as a retried parallel worker
    /// reads them, and returns what the read found; `None` for any other
    /// source.
    fn stream(&self, sink: impl FnMut(Block<'_>)) -> Result<Option<Ingested>, Error> {
        let Some(feed) = Feed::of(self.source)? else {
            return Ok(None);
        };
        let _ingest = self.obs.span("ingest");
        let pages = Pages::new(feed.bytes(), 1);
        Ok(Some(feed.replay(&pages, 0, sink)?))
    }

    /// Keeps what the answering run read, counted into `trace.*` once.
    fn record(&self, ingested: Option<Ingested>) {
        if let Some(ingested) = ingested {
            let salvage = &ingested.salvage;
            self.obs
                .add("trace.records_read", salvage.records_recovered);
            self.obs.add("trace.chunks_ok", salvage.chunks_ok);
            self.obs.add("trace.chunks_dropped", salvage.chunks_dropped);
            let _ = self.ingested.set(ingested);
        }
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
