//! One-call orchestration of the full analysis.
//!
//! [`Session`](crate::Session) is the preferred entry point; the methods
//! here are the engine it drives. The instrumented variants
//! ([`AnalysisPipeline::run_observed`]) thread an [`Obs`] handle through
//! every stage; with the default no-op handle they are free and the
//! results are bit-identical either way (checked by
//! `crates/core/tests/observed_equivalence.rs`).

use crate::allocation::{
    allocate, allocate_classified, required_bht_size, required_bht_size_classified, Allocation,
    AllocationConfig, RequiredSize,
};
use crate::classify::{classify_with, Classification};
use crate::conflict::{ConflictAnalysis, ConflictConfig};
use crate::error::Error;
use crate::interleave::Detector;
use crate::session::Classified;
use crate::working_set::{working_sets, WorkingSetDefinition, WorkingSets};
use crate::CoreError;
use bwsa_obs::Obs;
use bwsa_trace::{profile::BranchProfile, Trace};

/// Configuration of the end-to-end analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisPipeline {
    /// Conflict-graph thresholding (§4.2; default 100).
    pub conflict: ConflictConfig,
    /// Working-set extraction method (§4.1 step 3).
    pub definition: WorkingSetDefinition,
    /// Classification thresholds (§5.2; defaults 0.99 / 0.01).
    pub taken_threshold: f64,
    /// See [`AnalysisPipeline::taken_threshold`].
    pub not_taken_threshold: f64,
    /// Allocation options (§5.1).
    pub allocation: AllocationConfig,
}

impl Default for AnalysisPipeline {
    fn default() -> Self {
        AnalysisPipeline {
            conflict: ConflictConfig::default(),
            definition: WorkingSetDefinition::Partition,
            taken_threshold: 0.99,
            not_taken_threshold: 0.01,
            allocation: AllocationConfig::default(),
        }
    }
}

/// Everything the paper computes about one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-branch execution statistics.
    pub profile: BranchProfile,
    /// Steps 1–2: thresholded conflict graph.
    pub conflict: ConflictAnalysis,
    /// Step 3: working sets and the Table 2 statistics.
    pub working_sets: WorkingSets,
    /// §5.2 bias classes.
    pub classification: Classification,
}

impl AnalysisPipeline {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks that every configured value is usable: thresholds in
    /// `[0, 1]` with `not_taken ≤ taken`, and a nonzero conflict
    /// threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first bad
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.conflict.threshold == 0 {
            return Err(CoreError::config("conflict threshold must be at least 1"));
        }
        for (name, v) in [
            ("taken_threshold", self.taken_threshold),
            ("not_taken_threshold", self.not_taken_threshold),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CoreError::config(format!("{name} {v} outside [0, 1]")));
            }
        }
        if self.not_taken_threshold > self.taken_threshold {
            return Err(CoreError::config(format!(
                "not_taken_threshold {} exceeds taken_threshold {}",
                self.not_taken_threshold, self.taken_threshold
            )));
        }
        Ok(())
    }

    /// Runs steps 1–3 plus classification on a trace, reporting stage
    /// timings and counters into `obs`.
    ///
    /// With [`Obs::noop`] this is exactly the uninstrumented pipeline;
    /// the result is bit-identical whether or not `obs` records.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_core::pipeline::AnalysisPipeline;
    /// use bwsa_obs::Obs;
    /// use bwsa_trace::TraceBuilder;
    ///
    /// let mut t = TraceBuilder::new("demo");
    /// for i in 0..1000u64 {
    ///     t.record(0x100 + (i % 3) * 4, i % 2 == 0, i + 1);
    /// }
    /// let obs = Obs::recording();
    /// let analysis = AnalysisPipeline::new().run_observed(&t.finish(), &obs);
    /// assert_eq!(analysis.working_sets.report.total_sets, 1);
    /// assert_eq!(analysis.working_sets.report.max_size, 3);
    /// let metrics = obs.snapshot().unwrap();
    /// assert!(metrics.stage("interleave").is_some());
    /// assert!(metrics.counter("core.interleave_pairs") > 0);
    /// ```
    pub fn run_observed(&self, trace: &Trace, obs: &Obs) -> Analysis {
        let profile = {
            let _span = obs.span("profile");
            bwsa_resilience::failpoint!("core.profile");
            BranchProfile::from_trace(trace)
        };
        let detector = {
            let _span = obs.span("interleave");
            bwsa_resilience::failpoint!("core.interleave");
            crate::interleave::detect(trace)
        };
        self.assemble(profile, detector, obs)
    }

    /// The observed assembly every detecting engine runs: the row store's
    /// counters, the thresholded compile of `detector`'s rows (one walk
    /// that counts the raw pairs and weight and builds the CSR of the kept
    /// pairs only), then [`AnalysisPipeline::conclude`].
    pub(crate) fn assemble(
        &self,
        profile: BranchProfile,
        detector: Detector,
        obs: &Obs,
    ) -> Analysis {
        detector.observe(obs);
        self.conclude(profile, obs, || detector.compile(self.conflict))
    }

    /// The observed tail every engine shares: the conflict analysis
    /// `conflict` hands over (the detector's compile, or the kept graph a
    /// windowed run's colorer already holds) under the `compile` span,
    /// then working sets and classify, with their spans, the
    /// `core.interleave_*` and `core.graph_edges_*` counters, and a
    /// peak-RSS sample. The `core.conflict_prune` failpoint fires at the
    /// start of the `compile` span.
    pub(crate) fn conclude(
        &self,
        profile: BranchProfile,
        obs: &Obs,
        conflict: impl FnOnce() -> ConflictAnalysis,
    ) -> Analysis {
        let conflict = {
            let _span = obs.span("compile");
            bwsa_resilience::failpoint!("core.conflict_prune");
            conflict()
        };
        obs.add("core.interleave_pairs", conflict.raw_edge_count as u64);
        obs.add("core.interleave_weight", conflict.raw_total_weight);
        obs.add("core.graph_edges_raw", conflict.raw_edge_count as u64);
        obs.add("core.graph_edges_kept", conflict.graph.edge_count() as u64);
        let working = {
            let _span = obs.span("working_sets");
            bwsa_resilience::failpoint!("core.working_sets");
            working_sets(&conflict.graph, &profile, self.definition)
        };
        let classification = {
            let _span = obs.span("classify");
            bwsa_resilience::failpoint!("core.classify");
            classify_with(&profile, self.taken_threshold, self.not_taken_threshold)
        };
        obs.sample_peak_rss();
        Analysis {
            profile,
            conflict,
            working_sets: working,
            classification,
        }
    }
}

impl Analysis {
    /// The analysis products as an ordered JSON object: the Table 2
    /// working-set report, classification counts, and conflict-graph
    /// shape.
    ///
    /// This is the **one canonical rendering** shared by every remote
    /// consumer — the `bwsa-server` analyze response builds exactly this
    /// object, so a served result can be compared byte-for-byte against
    /// a local [`Session`](crate::Session) run of the same trace.
    pub fn summary_json(&self) -> bwsa_obs::json::Json {
        use bwsa_obs::json::Json;
        let r = &self.working_sets.report;
        let (taken, not_taken, mixed) = self.classification.counts();
        Json::object([
            (
                "working_sets",
                Json::object([
                    ("total_sets", Json::UInt(r.total_sets as u64)),
                    ("max_size", Json::UInt(r.max_size as u64)),
                    ("avg_static_size", Json::Float(r.avg_static_size)),
                    ("avg_dynamic_size", Json::Float(r.avg_dynamic_size)),
                ]),
            ),
            (
                "classification",
                Json::object([
                    ("biased_taken", Json::UInt(taken as u64)),
                    ("biased_not_taken", Json::UInt(not_taken as u64)),
                    ("mixed", Json::UInt(mixed as u64)),
                ]),
            ),
            (
                "conflict_graph",
                Json::object([
                    (
                        "edges_kept",
                        Json::UInt(self.conflict.graph.edge_count() as u64),
                    ),
                    ("raw_edges", Json::UInt(self.conflict.raw_edge_count as u64)),
                    ("nodes", Json::UInt(self.conflict.graph.node_count() as u64)),
                ]),
            ),
        ])
    }

    /// Branch allocation into a `table_size`-entry BHT, plain (§5.1) or
    /// classified (§5.2) according to `classified`.
    ///
    /// This is the single allocation entry point (the pre-0.9 shim pair
    /// is gone); bad table sizes are errors, not panics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Core`] when `table_size` is zero, or below the 3
    /// entries classified allocation needs (two reserved biased entries
    /// plus at least one for the mixed branches).
    pub fn allocation(
        &self,
        classified: Classified,
        table_size: usize,
        config: &AllocationConfig,
    ) -> Result<Allocation, Error> {
        if classified.0 {
            if table_size < 3 {
                return Err(CoreError::config(format!(
                    "classified allocation needs a table of at least 3 entries, got {table_size}"
                ))
                .into());
            }
            Ok(allocate_classified(
                &self.conflict.graph,
                &self.classification,
                table_size,
                config,
            ))
        } else {
            if table_size == 0 && self.conflict.graph.node_count() > 0 {
                return Err(
                    CoreError::config("cannot allocate branches into a zero-entry table").into(),
                );
            }
            Ok(allocate(&self.conflict.graph, table_size, config))
        }
    }

    /// The Table 3 / Table 4 cell: minimum BHT size for (plain or
    /// classified) allocation to beat a conventional `baseline`-entry
    /// table, for the trace this analysis was computed from.
    ///
    /// This is the single required-size entry point (the pre-0.9 shim
    /// pair is gone); a zero baseline is an error, not a panic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Core`] when `baseline` is zero.
    pub fn required_size(
        &self,
        classified: Classified,
        trace: &Trace,
        baseline: usize,
        config: &AllocationConfig,
    ) -> Result<RequiredSize, Error> {
        if baseline == 0 {
            return Err(
                CoreError::config("required-size search needs a nonzero baseline table").into(),
            );
        }
        Ok(if classified.0 {
            required_bht_size_classified(
                &self.conflict.graph,
                &self.classification,
                trace.table(),
                baseline,
                config,
            )
        } else {
            required_bht_size(&self.conflict.graph, trace.table(), baseline, config)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    /// Two phases of three branches each, revisited enough that intra-phase
    /// edges clear the threshold but cross-phase edges do not.
    fn phased_trace() -> Trace {
        let mut t = TraceBuilder::new("phased");
        let mut time = 0;
        for phase_round in 0..6 {
            for phase in 0..2u64 {
                if phase_round >= 3 && phase == 1 {
                    continue; // phase 1 visited less
                }
                for _ in 0..60 {
                    for b in 0..3u64 {
                        time += 1;
                        t.record(0x1000 * (phase + 1) + b * 4, (time % 3) != 0, time);
                    }
                }
            }
        }
        t.finish()
    }

    #[test]
    fn summary_json_is_stable_and_parses() {
        let analysis = AnalysisPipeline::new().run_observed(&phased_trace(), &Obs::noop());
        let doc = analysis.summary_json();
        let ws = doc.get("working_sets").unwrap();
        assert_eq!(
            ws.get("total_sets").and_then(bwsa_obs::json::Json::as_u64),
            Some(analysis.working_sets.report.total_sets as u64)
        );
        let (t, n, m) = analysis.classification.counts();
        let cls = doc.get("classification").unwrap();
        assert_eq!(
            cls.get("biased_taken")
                .and_then(bwsa_obs::json::Json::as_u64),
            Some(t as u64)
        );
        assert_eq!(
            cls.get("biased_not_taken")
                .and_then(bwsa_obs::json::Json::as_u64),
            Some(n as u64)
        );
        assert_eq!(
            cls.get("mixed").and_then(bwsa_obs::json::Json::as_u64),
            Some(m as u64)
        );
        // Equal analyses render identically: the server-vs-local
        // bit-identity comparison rests on this.
        let again = AnalysisPipeline::new().run_observed(&phased_trace(), &Obs::noop());
        assert_eq!(
            again.summary_json().to_pretty_string(),
            doc.to_pretty_string()
        );
        bwsa_obs::json::Json::parse(&doc.to_pretty_string()).unwrap();
    }

    #[test]
    fn pipeline_finds_the_phase_structure() {
        let analysis = AnalysisPipeline::new().run_observed(&phased_trace(), &Obs::noop());
        assert_eq!(analysis.working_sets.report.total_sets, 2);
        assert_eq!(analysis.working_sets.report.max_size, 3);
        assert_eq!(analysis.profile.static_count(), 6);
    }

    #[test]
    fn allocation_methods_agree_with_direct_calls() {
        let trace = phased_trace();
        let analysis = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        let cfg = AllocationConfig::default();
        let a = analysis.allocation(Classified(false), 4, &cfg).unwrap();
        let direct = crate::allocation::allocate(&analysis.conflict.graph, 4, &cfg);
        assert_eq!(a, direct);
        let r = analysis
            .required_size(Classified(false), &trace, 1024, &cfg)
            .unwrap();
        assert!(r.size <= 6);
    }

    #[test]
    fn classified_primitives_agree_with_direct_calls() {
        let trace = phased_trace();
        let analysis = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        let cfg = AllocationConfig::default();
        assert_eq!(
            analysis.allocation(Classified(true), 4, &cfg).unwrap(),
            crate::allocation::allocate_classified(
                &analysis.conflict.graph,
                &analysis.classification,
                4,
                &cfg,
            )
        );
        assert_eq!(
            analysis
                .required_size(Classified(true), &trace, 1024, &cfg)
                .unwrap(),
            crate::allocation::required_bht_size_classified(
                &analysis.conflict.graph,
                &analysis.classification,
                trace.table(),
                1024,
                &cfg,
            )
        );
    }

    #[test]
    fn bad_allocation_requests_are_errors_not_panics() {
        let trace = phased_trace();
        let analysis = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        let cfg = AllocationConfig::default();
        assert!(analysis.allocation(Classified(true), 2, &cfg).is_err());
        assert!(analysis.allocation(Classified(false), 0, &cfg).is_err());
        assert!(analysis
            .required_size(Classified(false), &trace, 0, &cfg)
            .is_err());
    }

    #[test]
    fn classified_required_size_not_larger() {
        let trace = phased_trace();
        let analysis = AnalysisPipeline::new().run_observed(&trace, &Obs::noop());
        let cfg = AllocationConfig::default();
        let plain = analysis
            .required_size(Classified(false), &trace, 2, &cfg)
            .unwrap();
        let classified = analysis
            .required_size(Classified(true), &trace, 2, &cfg)
            .unwrap();
        // Classified needs at least 3 (reserved), but never more than
        // plain + 2.
        assert!(classified.size <= plain.size + 2);
    }

    #[test]
    fn default_config_matches_paper() {
        let p = AnalysisPipeline::new();
        assert_eq!(p.conflict.threshold, 100);
        assert_eq!(p.taken_threshold, 0.99);
        assert_eq!(p.not_taken_threshold, 0.01);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_thresholds() {
        let mut p = AnalysisPipeline::new();
        p.taken_threshold = 1.5;
        assert!(p.validate().is_err());
        let mut p = AnalysisPipeline::new();
        p.not_taken_threshold = 0.995; // above taken_threshold
        assert!(p.validate().is_err());
        let mut p = AnalysisPipeline::new();
        p.conflict.threshold = 0;
        assert!(p.validate().is_err());
    }
}
