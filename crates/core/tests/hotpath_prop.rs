//! Property tests pinning the flat hot-path engine to its independent
//! oracle: for arbitrary monotone-timestamp traces — including runs of
//! equal stamps and stamps pressed against `u64::MAX` — the ring-indexed
//! [`bwsa_core::interleave_counts`], the record-by-record
//! [`bwsa_core::StreamingAnalysis`] (its graph at threshold 1), and the
//! linear-scan [`bwsa_core::interleave_counts_naive`] must produce
//! identical edge sets.
//!
//! The naive oracle shares nothing with the fast engine but the paper's
//! strictly-greater rule itself, so agreement here is evidence about the
//! rule, not about a shared bug.
//!
//! The detector counts pairs of branch ids below 4096 in dense per-branch
//! rows and every other pair in a spill table. The property traces stay
//! far below that cap, so a seeded trace with more than 4096 static
//! branches drives the spill path, row growth and the merge of rows with
//! spill through every engine built on the detector.

use bwsa_core::pipeline::AnalysisPipeline;
use bwsa_core::{
    analyze_parallel, interleave_counts, interleave_counts_naive, Analysis, ConflictConfig,
    ParallelConfig, StreamingAnalysis, WindowConfig, WindowedAnalysis,
};
use bwsa_graph::ConflictGraph;
use bwsa_trace::{Trace, TraceBuilder};
use proptest::prelude::*;

/// Sorted `(a, b, weight)` edges of a builder — the comparison key.
fn sorted_edges(builder: &bwsa_graph::GraphBuilder) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<_> = builder.edges().collect();
    edges.sort_unstable();
    edges
}

/// Traces over up to 12 static branches with nondecreasing stamps.
/// `dt = 0` produces ties (which must NOT interleave); `base` optionally
/// pushes the whole trace to the top of the timestamp range, where the
/// old `prev + 1` range scan overflowed.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0u8..12, any::<bool>(), 0u64..4), 1..300),
        any::<bool>(),
    )
        .prop_map(|(steps, near_max)| {
            let total_dt: u64 = steps.iter().map(|&(_, _, dt)| dt).sum();
            let mut t = if near_max {
                // End exactly at u64::MAX so the final stamps sit on the
                // boundary the legacy engine could not represent.
                u64::MAX - total_dt
            } else {
                1
            };
            let mut b = TraceBuilder::new("hotpath-prop");
            for (slot, taken, dt) in steps {
                t += dt;
                b.record(0x4000 + u64::from(slot) * 4, taken, t);
            }
            b.finish()
        })
}

proptest! {
    #[test]
    fn fast_streaming_and_naive_engines_agree(trace in arb_trace()) {
        let fast = interleave_counts(&trace);
        let naive = interleave_counts_naive(&trace);
        prop_assert_eq!(sorted_edges(&fast), sorted_edges(&naive));

        let streamed = streaming(&trace);
        prop_assert_eq!(streamed.profile.static_count(), trace.static_branch_count());
        prop_assert_eq!(streamed.conflict.graph, naive.build());
    }

    #[test]
    fn built_graphs_are_identical_too(trace in arb_trace()) {
        // `build()` sorts adjacency, so CSR equality is the end-to-end
        // bit-identity claim.
        prop_assert_eq!(
            interleave_counts(&trace).build(),
            interleave_counts_naive(&trace).build()
        );
    }
}

/// A trace that sweeps once through `sweep` cold branches while three
/// anchor branches keep running, and every `revisit`-th swept branch runs
/// again 8 and 16 records later. Ids pass 4096 partway through: the
/// anchors' rows grow with the sweep and pair low ids with high ones, and
/// a revisited branch above 4096 is counted in the spill table only.
/// Stamps advance by 0..=2, so ties occur.
fn sweep_trace(seed: u64, sweep: u64, revisit: u64) -> Trace {
    let mut lcg = seed;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut b = TraceBuilder::new("sweep");
    let mut t = 1u64;
    let mut emit = |slot: u64, r: u64| {
        t += r % 3;
        b.record(0x8000 + slot * 4, r & 8 == 0, t);
    };
    for i in 0..sweep {
        let r = next();
        emit(3 + i, r);
        if r % 4 == 0 {
            emit(r / 4 % 3, next());
        }
        for back in [8, 16] {
            if i >= back && (i - back) % revisit == 0 {
                emit(3 + i - back, next());
            }
        }
    }
    b.finish()
}

/// Threshold 1 keeps every edge, so an analysis' graph is its raw graph.
fn keep_all() -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(1).unwrap(),
        ..AnalysisPipeline::new()
    }
}

fn streaming(trace: &Trace) -> Analysis {
    let mut engine = StreamingAnalysis::new("sweep");
    for rec in trace.records() {
        engine.push(rec);
    }
    engine.finish(&keep_all())
}

fn checkpointed(trace: &Trace, split: usize) -> Analysis {
    let mut first = StreamingAnalysis::new("sweep");
    for rec in &trace.records()[..split] {
        first.push(rec);
    }
    let mut resumed = StreamingAnalysis::load(&first.save()).unwrap();
    for rec in &trace.records()[split..] {
        resumed.push(rec);
    }
    resumed.finish(&keep_all())
}

fn windowed(trace: &Trace, interval: u64) -> Analysis {
    let config = WindowConfig::branches(interval).unwrap();
    let mut engine = WindowedAnalysis::new(config, keep_all());
    for (id, rec) in trace.indexed_records() {
        engine.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }
    engine.finish().analysis
}

#[test]
fn every_engine_agrees_with_the_oracle_above_the_dense_cap() {
    let trace = sweep_trace(7, 4_400, 16);
    assert!(trace.static_branch_count() > 4096);
    let naive = interleave_counts_naive(&trace);
    let expected: ConflictGraph = naive.build();
    // Pairs below, across and above the cap are all present.
    assert!(expected.iter_edges().any(|(_, b, _)| b < 4096));
    assert!(expected.iter_edges().any(|(a, b, _)| a < 4096 && b >= 4096));
    assert!(expected.iter_edges().any(|(a, _, _)| a >= 4096));

    assert_eq!(
        sorted_edges(&interleave_counts(&trace)),
        sorted_edges(&naive)
    );
    let serial = keep_all().run_observed(&trace, &bwsa_obs::Obs::noop());
    assert_eq!(serial.conflict.graph, expected, "pipeline CSR");

    assert_eq!(streaming(&trace), serial, "streaming");

    assert_eq!(checkpointed(&trace, trace.len() * 3 / 5), serial, "resumed");
    for jobs in [2, 3] {
        let sharded = analyze_parallel(&keep_all(), &trace, &ParallelConfig::with_jobs(jobs));
        assert_eq!(sharded, serial, "{jobs} jobs");
    }
    assert_eq!(windowed(&trace, 2_000), serial, "windowed");
}
