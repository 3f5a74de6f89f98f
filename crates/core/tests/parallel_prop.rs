//! Property tests for the ownership-parallel engine: for arbitrary traces
//! and worker counts, the parallel pipeline must be **bit-identical** to
//! the serial one — same `Analysis`, same conflict graph, same allocation
//! tables — including when there are more workers than static branches.
//!
//! Timestamps here may repeat (`dt` can be 0), deliberately: equal stamps
//! do NOT interleave under the paper's strictly-greater rule, and a worker
//! that stamps another worker's branch must apply the same rule.

use bwsa_core::allocation::AllocationConfig;
use bwsa_core::pipeline::AnalysisPipeline;
use bwsa_core::{
    analyze_parallel, analyze_parallel_observed, parallel_map, Classified, ParallelConfig,
};
use bwsa_obs::Obs;
use bwsa_trace::{Trace, TraceBuilder};
use proptest::prelude::*;

/// Traces with up to 10 static branches and repeatable timestamps.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u8..10, any::<bool>(), 0u64..3), 1..250).prop_map(|steps| {
        let mut b = TraceBuilder::new("prop");
        let mut t = 1u64;
        for (slot, taken, dt) in steps {
            t += dt; // dt = 0 keeps the previous stamp: equal-time records
            b.record(0x1000 + u64::from(slot) * 4, taken, t);
        }
        b.finish()
    })
}

proptest! {
    #[test]
    fn parallel_analysis_is_bit_identical_to_serial(
        trace in arb_trace(),
        jobs in 1usize..13,
    ) {
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        let parallel = analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(jobs));
        prop_assert_eq!(&parallel, &serial);
        // The conflict graphs compare above as part of Analysis, but make
        // the edge-level identity explicit for the raw (unthresholded)
        // builder output too.
        prop_assert_eq!(
            parallel.conflict.raw_edge_count,
            serial.conflict.raw_edge_count
        );
    }

    #[test]
    fn allocation_tables_agree_between_serial_and_parallel(
        trace in arb_trace(),
        jobs in 1usize..5,
        table in 1usize..12,
    ) {
        let pipeline = AnalysisPipeline {
            conflict: bwsa_core::ConflictConfig::with_threshold(1).unwrap(),
            ..AnalysisPipeline::new()
        };
        let cfg = AllocationConfig::default();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        let parallel = analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(jobs));
        prop_assert_eq!(
            parallel.allocation(Classified(false), table, &cfg).unwrap(),
            serial.allocation(Classified(false), table, &cfg).unwrap()
        );
        prop_assert_eq!(
            parallel.allocation(Classified(true), table.max(3), &cfg).unwrap(),
            serial.allocation(Classified(true), table.max(3), &cfg).unwrap()
        );
    }

    #[test]
    fn parallel_map_is_order_preserving_for_any_job_count(
        items in prop::collection::vec(0u64..1000, 0..60),
        jobs in 1usize..9,
    ) {
        let expect: Vec<u64> = items.iter().map(|v| v.wrapping_mul(7) ^ 13).collect();
        let got = parallel_map(items, jobs, |_, v| v.wrapping_mul(7) ^ 13);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn supervised_shard_mapper_is_identical_when_no_faults_fire(
        trace in arb_trace(),
        jobs in 1usize..6,
    ) {
        use bwsa_core::{analyze_parallel_supervised, ShardRetryPolicy};
        use std::sync::atomic::{AtomicU64, Ordering};
        let pipeline = AnalysisPipeline::new();
        let serial = pipeline.run_observed(&trace, &Obs::noop());
        let retries = AtomicU64::new(0);
        let supervised = analyze_parallel_supervised(
            &pipeline,
            &trace,
            &ParallelConfig::with_jobs(jobs),
            &Obs::noop(),
            &ShardRetryPolicy::default(),
            &retries,
        )
        .unwrap();
        prop_assert_eq!(&supervised, &serial);
        prop_assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn predictor_sweep_matches_serial_simulation(trace in arb_trace(), jobs in 1usize..6) {
        use bwsa_predictor::{simulate, sweep, Bimodal, Gshare, Pag, SweepCell};
        let serial = vec![
            simulate(&mut Pag::paper_baseline(), &trace),
            simulate(&mut Bimodal::new(64), &trace),
            simulate(&mut Gshare::new(8), &trace),
        ];
        let cells = vec![
            SweepCell::plain(Pag::paper_baseline(), &trace),
            SweepCell::plain(Bimodal::new(64), &trace),
            SweepCell::plain(Gshare::new(8), &trace),
        ];
        prop_assert_eq!(sweep(cells, jobs).unwrap(), serial);
    }
}

/// The parallel run of `trace` on `jobs` workers equals the serial run,
/// and reports `workers` of them as merged.
fn assert_parallel_matches_serial(trace: &Trace, jobs: usize, workers: u64) {
    let pipeline = AnalysisPipeline::new();
    let obs = Obs::recording();
    let config = ParallelConfig::with_jobs(jobs);
    let parallel = analyze_parallel_observed(&pipeline, trace, &config, &obs);
    let serial = pipeline.run_observed(trace, &Obs::noop());
    assert_eq!(parallel, serial, "jobs {jobs}");
    let merged = obs.snapshot().unwrap().counter("core.shards_merged");
    assert_eq!(merged, workers, "jobs {jobs}");
}

#[test]
fn more_jobs_than_branches_run_one_worker_per_branch() {
    let mut b = TraceBuilder::new("three");
    for i in 0..90u64 {
        b.record(0x40 + i % 3 * 4, i % 2 == 0, i + 1);
    }
    let trace = b.finish();
    for jobs in [3, 4, 16] {
        assert_parallel_matches_serial(&trace, jobs, 3);
    }
}

#[test]
fn one_branch_runs_one_worker() {
    let mut b = TraceBuilder::new("one");
    for i in 0..50u64 {
        b.record(0x40, i % 3 == 0, i + 1);
    }
    let trace = b.finish();
    for jobs in [1, 2, 5] {
        assert_parallel_matches_serial(&trace, jobs, 1);
    }
}

#[test]
fn an_empty_trace_runs_no_worker() {
    let trace = TraceBuilder::new("empty").finish();
    for jobs in [1, 4] {
        assert_parallel_matches_serial(&trace, jobs, 0);
    }
}
