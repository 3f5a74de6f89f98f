//! Every engine built on the Figure 1 kernel against the linear-scan
//! oracle, sized for the default `cargo test`: a fast tier of the engine
//! agreement in `crates/core/tests/hotpath_prop.rs`.
//!
//! The traces are seeded runs over a few hot branches whose stamps advance
//! by 0 to 2, so ties occur and re-executions leave superseded entries in
//! the recency ring. Every other trace first runs 4104 branches once
//! each, then gives the even hot slots ids below the detector's 4096
//! dense rows and the odd ones ids past them, so pairs below, across and
//! above the cap all occur. Each trace goes through the serial pipeline,
//! a record-by-record stream, a stream checkpointed and resumed partway,
//! and 2 ownership-parallel workers. At thresholds 1, 2 and 100 each one
//! compiles the oracle's raw graph pruned, with its raw pair count and
//! weight.

use bwsa::core::pipeline::AnalysisPipeline;
use bwsa::core::{
    analyze_parallel, interleave_counts_naive, Analysis, ConflictConfig, ParallelConfig,
    StreamingAnalysis,
};
use bwsa::obs::Obs;
use bwsa::trace::{Trace, TraceBuilder};

/// The first id past the detector's dense rows.
const DENSE_NODES: u64 = 4096;

/// A seeded trace of 400 records over `spread` hot branches, and how many
/// records of a wide trace's sweep precede them.
fn hot_trace(seed: u64, wide: bool, spread: u64) -> (Trace, usize) {
    let mut lcg = seed;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut b = TraceBuilder::new("agreement");
    let mut t = 1;
    let cold = if wide { DENSE_NODES + 8 } else { 0 };
    for id in 0..cold {
        b.record(0x10_0000 + id * 4, true, t);
        t += 1;
    }
    for _ in 0..400 {
        let r = next();
        t += r % 3; // 0 repeats a stamp: equal stamps never interleave
        let slot = r / 3 % spread;
        let id = match (wide, slot % 2) {
            (true, 1) => DENSE_NODES + slot / 2,
            (true, _) => slot / 2,
            (false, _) => slot,
        };
        b.record(0x10_0000 + id * 4, r & 64 == 0, t);
    }
    (b.finish(), cold as usize)
}

fn pipeline_at(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

/// `trace` pushed record by record; with `resume_at`, the engine is saved
/// after that many records and the rest go to the loaded copy.
fn streamed(trace: &Trace, resume_at: Option<usize>, pipeline: &AnalysisPipeline) -> Analysis {
    let records = trace.records();
    let split = resume_at.unwrap_or(records.len());
    let mut engine = StreamingAnalysis::new("agreement");
    for rec in &records[..split] {
        engine.push(rec);
    }
    if resume_at.is_some() {
        engine = StreamingAnalysis::load(&engine.save()).unwrap();
    }
    for rec in &records[split..] {
        engine.push(rec);
    }
    engine.finish(pipeline)
}

#[test]
fn every_engine_compiles_the_pruned_oracle_graph() {
    for seed in 1..=6u64 {
        let wide = seed % 2 == 0;
        let spread = 2 + seed * 5 % 15;
        let (trace, cold) = hot_trace(seed, wide, spread);
        assert_eq!(trace.static_branch_count() > 4096, wide, "seed {seed}");
        let raw = interleave_counts_naive(&trace).build();
        assert!(
            raw.edge_count() > 0,
            "seed {seed}: the hot branches interleave"
        );
        let split = cold + (trace.len() - cold) * seed as usize / 7;
        for threshold in [1, 2, 100] {
            let pipeline = pipeline_at(threshold);
            let pruned = raw.pruned(threshold);
            for (engine, analysis) in [
                ("serial", pipeline.run_observed(&trace, &Obs::noop())),
                ("streamed", streamed(&trace, None, &pipeline)),
                ("resumed", streamed(&trace, Some(split), &pipeline)),
                (
                    "2 workers",
                    analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(2)),
                ),
            ] {
                let case = format!("seed {seed}, threshold {threshold}, {engine}");
                let conflict = &analysis.conflict;
                assert_eq!(conflict.graph, pruned, "{case}");
                assert_eq!(conflict.raw_edge_count, raw.edge_count(), "{case}");
                assert_eq!(conflict.raw_total_weight, raw.total_weight(), "{case}");
            }
        }
    }
}
