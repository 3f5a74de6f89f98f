//! Property tests pinning the flat hot-path engine to its independent
//! oracle: for arbitrary monotone-timestamp traces — including runs of
//! equal stamps and stamps pressed against `u64::MAX` — the ring-indexed
//! [`bwsa_core::interleave_counts`], a [`bwsa_core::Session`] streaming
//! the trace's `BWSS2` encoding block by block (its graph at threshold
//! 1), and the linear-scan [`bwsa_core::interleave_counts_naive`] must
//! produce identical edge sets.
//!
//! The naive oracle shares nothing with the fast engine but the paper's
//! strictly-greater rule itself, so agreement here is evidence about the
//! rule, not about a shared bug.
//!
//! The detector's rows of branch ids below 4096 count the ids below 4096
//! in a dense head, and every row counts the other ids in pages of 256.
//! The property traces stay far below 4096, so a seeded trace with more
//! than 4096 static branches drives row growth, page allocation and the
//! walk over heads and pages through every engine built on the detector.
//!
//! Every engine compiles only the thresholded graph, in one walk over
//! the rows that also counts the raw pairs and weight. A second property
//! pins that compile to the oracle's raw graph pruned: on traces that are
//! sometimes wider than the heads and a page past them, at thresholds on
//! both sides of the pair weights, serially and stitched from
//! ownership-parallel workers.
//!
//! [`WindowedAnalysis::push`] is public and accepts stamps that go
//! backwards, which no trace holds. A third property feeds it record
//! lists with backward steps, ties and stamps at `u64::MAX`, in one
//! window that covers every record, and compares the folded graph with a
//! linear scan over the same records.

use bwsa_core::pipeline::AnalysisPipeline;
use bwsa_core::{
    analyze_parallel, interleave_counts, interleave_counts_naive, Analysis, ConflictConfig,
    ParallelConfig, Session, Source, WindowConfig, WindowedAnalysis,
};
use bwsa_graph::{ConflictGraph, GraphBuilder};
use bwsa_obs::Obs;
use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::{BranchRecord, Direction, Format, InstrCount, Pc, Trace, TraceBuilder};
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

/// The first id past the detector's row heads.
const HEAD: u64 = 4096;

/// Ids per page of a detector row past its head.
const PAGE: u64 = 256;

/// A trace over `spread` hot branches with nondecreasing stamps. A wide
/// trace first runs `HEAD + PAGE + 8` branches once each and then gives
/// the even hot slots ids inside the heads and the odd ones ids on both
/// sides of the page boundary past them, so pairs inside the heads,
/// across their end, within a page and across two pages all occur. A
/// small `spread`
/// concentrates the records on a few pairs, whose weights then pass 100.
fn arb_hot_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0u8..16, any::<bool>(), 0u64..3), 1..400),
        any::<bool>(),
        2u8..17,
    )
        .prop_map(|(steps, wide, spread)| {
            let mut b = TraceBuilder::new("compile-prop");
            let mut t = 1;
            let cold = if wide { HEAD + PAGE + 8 } else { 0 };
            for id in 0..cold {
                b.record(0x10_0000 + id * 4, true, t);
                t += 1;
            }
            for (slot, taken, dt) in steps {
                t += dt; // dt = 0 repeats a stamp: equal stamps never interleave
                let slot = u64::from(slot % spread);
                let id = match (wide, slot % 4) {
                    (true, 1) => HEAD + slot / 4,
                    (true, 3) => HEAD + PAGE + slot / 4,
                    (true, _) => slot / 2,
                    (false, _) => slot,
                };
                b.record(0x10_0000 + id * 4, taken, t);
            }
            b.finish()
        })
}

fn pipeline_at(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_engine_compiles_the_pruned_oracle_graph(
        trace in arb_hot_trace(),
        jobs in 2usize..4,
    ) {
        let raw = interleave_counts_naive(&trace).build();
        for threshold in [1, 2, 100, u64::MAX] {
            let pipeline = pipeline_at(threshold);
            let pruned = raw.pruned(threshold);
            for analysis in [
                pipeline.run_observed(&trace, &Obs::noop()),
                analyze_parallel(&pipeline, &trace, &ParallelConfig::with_jobs(jobs)),
            ] {
                let conflict = &analysis.conflict;
                prop_assert_eq!(&conflict.graph, &pruned);
                prop_assert_eq!(conflict.raw_edge_count, raw.edge_count());
                prop_assert_eq!(conflict.raw_total_weight, raw.total_weight());
            }
        }
    }
}

/// A trace that sweeps once through `sweep` cold branches while three
/// anchor branches keep running, and every `revisit`-th swept branch runs
/// again 8 and 16 records later. Ids pass 4096 partway through: the
/// anchors' heads grow with the sweep, then their pages pair low ids
/// with high ones, and a revisited branch above 4096 counts in pages
/// only.
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
    pipeline_at(1)
}

/// `trace`'s analysis at threshold 1 by a session streaming its `BWSS2`
/// encoding, which interns the pcs by first appearance as it reads.
fn streaming(trace: &Trace) -> Analysis {
    let mut bytes = Vec::new();
    Format::Bwss.write(trace, &mut bytes).unwrap();
    let source = Source::File {
        bytes: &bytes,
        policy: RecoveryPolicy::Strict,
    };
    let session = Session::over(source).with_pipeline(keep_all());
    session.run().unwrap().clone()
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
    // Pairs inside the heads, across their end and past it are all
    // present.
    assert!(expected.iter_edges().any(|(_, b, _)| b < 4096));
    assert!(expected.iter_edges().any(|(a, b, _)| a < 4096 && b >= 4096));
    assert!(expected.iter_edges().any(|(a, _, _)| a >= 4096));

    assert_eq!(
        sorted_edges(&interleave_counts(&trace)),
        sorted_edges(&naive)
    );
    let serial = keep_all().run_observed(&trace, &Obs::noop());
    assert_eq!(serial.conflict.graph, expected, "pipeline CSR");

    assert_eq!(streaming(&trace), serial, "streaming");

    for jobs in [2, 3] {
        let parallel = analyze_parallel(&keep_all(), &trace, &ParallelConfig::with_jobs(jobs));
        assert_eq!(parallel, serial, "{jobs} jobs");
    }
    assert_eq!(windowed(&trace, 2_000), serial, "windowed");
}

/// Record lists over up to 12 branches whose stamps mostly rise but step
/// back now and then, repeat (ties), and optionally start just below
/// `u64::MAX`, where they soon pile up.
fn arb_unordered_records() -> impl Strategy<Value = Vec<BranchRecord>> {
    (
        prop::collection::vec((0u8..12, any::<bool>(), 0u8..12, 0u64..40), 1..300),
        any::<bool>(),
    )
        .prop_map(|(steps, near_max)| {
            let mut t = if near_max { u64::MAX - 20 } else { 1_000 };
            steps
                .into_iter()
                .map(|(slot, taken, kind, d)| {
                    t = match kind {
                        0 => t.saturating_sub(d % 16), // a backward step
                        1 | 2 => t,                    // a tie
                        _ => t.saturating_add(d % 3 + 1),
                    };
                    let pc = Pc::new(0x4000 + u64::from(slot) * 4);
                    BranchRecord::new(pc, Direction::from(taken), InstrCount::new(t))
                })
                .collect()
        })
}

/// The Figure 1 rule by linear scan over records in any stamp order: a
/// re-executing branch credits every other branch whose latest stamp is
/// strictly greater than its own previous one. It is
/// [`interleave_counts_naive`]'s rule over a record list, because a
/// [`Trace`] rejects records out of order; ids are assigned by first
/// appearance, as [`first_seen_ids`] assigns them.
fn naive_over_records(records: &[BranchRecord]) -> ConflictGraph {
    let mut pcs: Vec<Pc> = Vec::new();
    let mut latest: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new(0);
    for rec in records {
        let t = rec.time.get();
        match pcs.iter().position(|&pc| pc == rec.pc) {
            Some(node) => {
                for b in (0..pcs.len()).filter(|&b| b != node && latest[b] > latest[node]) {
                    builder.add_edge(node as u32, b as u32, 1);
                }
                latest[node] = t;
            }
            None => {
                pcs.push(rec.pc);
                latest.push(t);
                builder.ensure_nodes(pcs.len() as u32);
            }
        }
    }
    builder.build()
}

/// Each record's branch id, by first appearance of its pc.
fn first_seen_ids(records: &[BranchRecord]) -> Vec<u32> {
    let mut pcs: Vec<Pc> = Vec::new();
    let mut id = |pc| match pcs.iter().position(|&seen| seen == pc) {
        Some(id) => id as u32,
        None => {
            pcs.push(pc);
            pcs.len() as u32 - 1
        }
    };
    records.iter().map(|rec| id(rec.pc)).collect()
}

proptest! {
    #[test]
    fn out_of_order_stamps_match_the_linear_scan(records in arb_unordered_records()) {
        let config = WindowConfig::branches(records.len() as u64).unwrap();
        let mut engine = WindowedAnalysis::new(config, keep_all());
        for (rec, id) in records.iter().zip(first_seen_ids(&records)) {
            engine.push(id, rec.time.get(), rec.is_taken());
        }
        let result = engine.finish();
        prop_assert_eq!(result.windows.len(), 1);
        prop_assert_eq!(result.analysis.conflict.graph, naive_over_records(&records));
    }
}
