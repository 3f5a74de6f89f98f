//! Property test: instrumentation must be **observation only**. For
//! arbitrary traces, configurations, and execution strategies, a run with
//! a recording observer produces results bit-identical to a run with the
//! no-op observer — and the recording run actually covers every pipeline
//! stage with a span.

use bwsa_core::pipeline::AnalysisPipeline;
use bwsa_core::{
    analyze_parallel_observed, Classified, ConflictConfig, Execution, ParallelConfig, Session,
    Source, SupervisorConfig,
};
use bwsa_obs::Obs;
use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::{Format, Trace, TraceBuilder};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u8..12, any::<bool>(), 0u64..3), 1..300).prop_map(|steps| {
        let mut b = TraceBuilder::new("prop");
        let mut t = 1u64;
        for (slot, taken, dt) in steps {
            t += dt;
            b.record(0x2000 + u64::from(slot) * 4, taken, t);
        }
        b.finish()
    })
}

fn arb_pipeline() -> impl Strategy<Value = AnalysisPipeline> {
    (1u64..200).prop_map(|threshold| AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    })
}

proptest! {
    #[test]
    fn serial_run_is_identical_with_and_without_observer(
        trace in arb_trace(),
        pipeline in arb_pipeline(),
    ) {
        let obs = Obs::recording();
        let observed = pipeline.run_observed(&trace, &obs);
        let plain = pipeline.run_observed(&trace, &Obs::noop());
        prop_assert_eq!(&observed, &plain);

        // And the observation is complete: every serial stage has a span.
        let metrics = obs.snapshot().unwrap();
        for stage in ["profile", "interleave", "compile", "working_sets", "classify"] {
            prop_assert!(metrics.stage(stage).is_some(), "missing span {}", stage);
        }
        prop_assert_eq!(
            metrics.counter("core.graph_edges_kept"),
            observed.conflict.graph.edge_count() as u64
        );
        prop_assert_eq!(
            metrics.counter("core.graph_edges_raw"),
            observed.conflict.raw_edge_count as u64
        );
    }

    #[test]
    fn parallel_run_is_identical_with_and_without_observer(
        trace in arb_trace(),
        pipeline in arb_pipeline(),
        jobs in 1usize..5,
    ) {
        let cfg = ParallelConfig::with_jobs(jobs);
        let obs = Obs::recording();
        let observed = analyze_parallel_observed(&pipeline, &trace, &cfg, &obs);
        let plain = analyze_parallel_observed(&pipeline, &trace, &cfg, &Obs::noop());
        prop_assert_eq!(&observed, &plain);
        prop_assert_eq!(&observed, &pipeline.run_observed(&trace, &Obs::noop()));

        let metrics = obs.snapshot().unwrap();
        // The workers count the profile as they detect: no profile pass.
        for stage in ["shard_detect", "compile", "working_sets", "classify"] {
            prop_assert!(metrics.stage(stage).is_some(), "missing span {}", stage);
        }
        let workers = jobs.min(trace.static_branch_count());
        prop_assert_eq!(metrics.counter("core.shards_merged"), workers as u64);
    }

    #[test]
    fn observed_sessions_allocate_identically(
        trace in arb_trace(),
        table in 3usize..16,
        classified in any::<bool>(),
    ) {
        let observed = Session::new(&trace).with_observer(Obs::recording());
        let plain = Session::new(&trace);
        prop_assert_eq!(
            observed.allocate(Classified(classified), table).unwrap(),
            plain.allocate(Classified(classified), table).unwrap()
        );
        prop_assert_eq!(
            observed.required_bht_size(Classified(classified), 1024).unwrap(),
            plain.required_bht_size(Classified(classified), 1024).unwrap()
        );
    }

    #[test]
    fn streamed_session_is_identical_with_and_without_observer(
        trace in arb_trace(),
        pipeline in arb_pipeline(),
    ) {
        let mut bwss = Vec::new();
        Format::Bwss.write(&trace, &mut bwss).unwrap();
        let source = Source::File {
            bytes: &bwss,
            policy: RecoveryPolicy::Strict,
        };
        let observed = Session::over(source)
            .with_pipeline(pipeline)
            .with_observer(Obs::recording());
        let plain = Session::over(source).with_pipeline(pipeline);
        prop_assert_eq!(observed.run().unwrap(), plain.run().unwrap());
        prop_assert_eq!(plain.run().unwrap(), &pipeline.run_observed(&trace, &Obs::noop()));

        // A serial session streams the file's blocks inside `ingest`.
        let metrics = observed.metrics().unwrap();
        for stage in ["ingest", "detect", "compile", "working_sets", "classify"] {
            prop_assert!(metrics.stage(stage).is_some(), "missing span {}", stage);
        }
    }

    #[test]
    fn execution_strategy_is_invisible_in_session_results(
        trace in arb_trace(),
        jobs in 1usize..5,
    ) {
        let serial = Session::new(&trace).with_execution(Execution::Serial);
        let parallel = Session::new(&trace)
            .with_execution(Execution::Parallel(ParallelConfig::with_jobs(jobs)))
            .with_observer(Obs::recording());
        prop_assert_eq!(serial.run().unwrap(), parallel.run().unwrap());
    }

    #[test]
    fn supervision_is_invisible_when_no_faults_fire(
        trace in arb_trace(),
        jobs in 1usize..5,
    ) {
        // The supervisor is pure mechanism: with failpoints disabled it
        // must neither change results nor take extra attempts.
        let baseline = Session::new(&trace);
        let plain = baseline.run().unwrap();
        for execution in [
            Execution::Serial,
            Execution::Parallel(ParallelConfig::with_jobs(jobs)),
        ] {
            let session = Session::new(&trace)
                .with_execution(execution)
                .with_supervisor(SupervisorConfig::default())
                .with_observer(Obs::recording());
            let supervised = session.run().unwrap();
            prop_assert_eq!(&supervised, &plain);
            let summary = session.resilience_summary().unwrap();
            prop_assert_eq!(summary.attempts, 1);
            prop_assert_eq!(summary.retries, 0);
            prop_assert!(summary.downgrades.is_empty());
            prop_assert!(summary.faults.is_empty());
        }
    }
}
