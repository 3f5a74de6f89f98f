//! Known-answer tests: traces whose conflict graphs follow from arithmetic
//! alone, run through every analysis engine.
//!
//! Nothing here compares one engine with another. Each expected value is
//! derived from the Figure 1 rule on a hand-shaped trace:
//!
//! * round-robin over `m` branches for `r` rounds: every branch re-executes
//!   `r − 1` times and sees the other `m − 1` each time, so every pair has
//!   weight `2(r − 1)`;
//! * with a threshold at most `2(r − 1)` that graph is one clique, so the
//!   loop is one working set of size `m`;
//! * records that share one stamp are simultaneous and give no edge;
//! * two phases that never revisit each other give no cross edge.
//!
//! The engines are the serial pipeline, the BWSS3 block stream, the
//! sharded parallel pass and the windowed fold. Each trace has `k` static
//! branches, with `k` on both sides of 4096, where the detector's dense
//! rows end and its spill table begins. The loops run over the highest
//! ids, after a prefix of branches that run once, so a loop straddles the
//! cap while its graph stays small enough for a debug build.

use bwsa::core::columnar::analyze_columnar_stream;
use bwsa::core::pipeline::AnalysisPipeline;
use bwsa::core::{
    analyze_parallel, Analysis, ConflictConfig, ParallelConfig, WindowConfig, WindowedAnalysis,
};
use bwsa::obs::Obs;
use bwsa::trace::columnar::ColumnarWriter;
use bwsa::trace::stream::RecoveryPolicy;
use bwsa::trace::{Trace, TraceBuilder};
use std::num::NonZeroUsize;

/// Static branch counts on both sides of the dense-row cap.
const SIZES: [u64; 4] = [2, 4095, 4096, 4097];

/// Branches per loop, at most.
const LOOP: u64 = 48;

fn pipeline(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

/// Records trace branches by slot, one stamp apart unless told otherwise.
struct Shape {
    trace: TraceBuilder,
    stamp: u64,
}

impl Shape {
    /// A trace whose first `cold` slots run once each, so the slots after
    /// them get the ids from `cold` up.
    fn after_cold(cold: u64) -> Self {
        let mut shape = Shape {
            trace: TraceBuilder::new("known"),
            stamp: 0,
        };
        for slot in 0..cold {
            shape.run(slot, 1);
        }
        shape
    }

    fn run(&mut self, slot: u64, dt: u64) {
        self.stamp += dt;
        self.trace
            .record(0x1_0000 + slot * 4, slot.is_multiple_of(3), self.stamp);
    }

    /// Slots `first..first + m`, in order, `r` times.
    fn round_robin(&mut self, first: u64, m: u64, r: u64) {
        for i in 0..m * r {
            self.run(first + i % m, 1);
        }
    }
}

/// The analysis of `trace` from each engine, labelled. Shards and windows
/// are `split` records long, so a boundary can fall inside a loop.
fn every_engine(
    trace: &Trace,
    pipeline: &AnalysisPipeline,
    split: u64,
) -> Vec<(&'static str, Analysis)> {
    let serial = pipeline.run_observed(trace, &Obs::noop());

    let mut bytes = Vec::new();
    let mut writer = ColumnarWriter::new(&mut bytes, "known")
        .unwrap()
        .with_block_records(1000);
    for rec in trace.records() {
        writer.push(*rec).unwrap();
    }
    writer.finish(trace.meta().total_instructions).unwrap();
    let (streamed, _) =
        analyze_columnar_stream(pipeline, &bytes, RecoveryPolicy::Strict, &Obs::noop()).unwrap();

    let shards = (trace.len() as u64).div_ceil(split) as usize;
    let parallel = ParallelConfig {
        jobs: NonZeroUsize::new(2).unwrap(),
        shards: NonZeroUsize::new(shards),
    };
    let sharded = analyze_parallel(pipeline, trace, &parallel);

    let config = WindowConfig::branches(split).unwrap();
    let mut windowed = WindowedAnalysis::new(config, *pipeline);
    for (id, rec) in trace.indexed_records() {
        windowed.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }
    vec![
        ("serial", serial),
        ("bwss3 stream", streamed),
        ("sharded", sharded),
        ("windowed", windowed.finish().analysis),
    ]
}

/// A `k`-branch trace ending in a round-robin over its top `m` ids, and
/// `m`.
fn loop_at_the_top(k: u64, r: u64) -> (Trace, u64) {
    let m = k.min(LOOP);
    let mut shape = Shape::after_cold(k - m);
    shape.round_robin(k - m, m, r);
    (shape.trace.finish(), m)
}

#[test]
fn round_robin_gives_every_pair_weight_two_per_revisit() {
    for k in SIZES {
        let r = if k == 2 { 5 } else { 2 };
        let (trace, m) = loop_at_the_top(k, r);
        let weight = 2 * (r - 1);
        let pairs = m * (m - 1) / 2;
        let split = k - m + m / 2 + 1;
        for (engine, analysis) in every_engine(&trace, &pipeline(1), split) {
            let c = &analysis.conflict;
            let case = format!("k {k}, {engine}");
            assert_eq!(c.raw_edge_count as u64, pairs, "{case}: pairs");
            assert_eq!(c.raw_total_weight, weight * pairs, "{case}: total");
            for (a, b, w) in c.graph.iter_edges() {
                assert!(a >= (k - m) as u32, "{case}: a cold branch in ({a}, {b})");
                assert_eq!(w, weight, "{case}: ({a}, {b})");
            }
        }
    }
}

#[test]
fn a_round_robin_at_its_weight_is_one_working_set() {
    for k in SIZES {
        let r = 3;
        let (trace, m) = loop_at_the_top(k, r);
        let split = k - m + m + 1;
        for (engine, analysis) in every_engine(&trace, &pipeline(2 * (r - 1)), split) {
            let ws = &analysis.working_sets;
            let case = format!("k {k}, {engine}");
            // The loop, plus one singleton per branch that ran once.
            assert_eq!(ws.report.total_sets as u64, 1 + (k - m), "{case}: sets");
            assert_eq!(ws.report.max_size as u64, m, "{case}: largest set");
            let largest = ws.sets.iter().max_by_key(|s| s.len()).unwrap();
            let ids: Vec<u64> = largest.iter().map(|b| b.index() as u64).collect();
            assert_eq!(ids, (k - m..k).collect::<Vec<_>>(), "{case}: members");
        }
    }
}

#[test]
fn records_sharing_one_stamp_never_interleave() {
    for k in SIZES {
        // Every branch runs twice, every record at the same stamp: each
        // re-execution sees only stamps equal to its own previous one.
        let mut shape = Shape::after_cold(0);
        for i in 0..k * 2 {
            shape.run(i % k, u64::from(i == 0));
        }
        let trace = shape.trace.finish();
        assert_eq!(trace.static_branch_count() as u64, k);
        for (engine, analysis) in every_engine(&trace, &pipeline(1), k + 1) {
            assert_eq!(analysis.conflict.raw_edge_count, 0, "k {k}, {engine}");
            assert_eq!(analysis.working_sets.report.max_size, 1, "k {k}, {engine}");
        }
    }
}

#[test]
fn phases_that_never_revisit_share_no_edge() {
    for k in SIZES {
        // Phase A loops twice over m branches, then phase B twice over m
        // others. No branch of one phase runs between two instances of a
        // branch of the other, so each phase is a round-robin alone.
        let m = (k / 2).min(LOOP);
        let mut shape = Shape::after_cold(k - 2 * m);
        shape.round_robin(k - 2 * m, m, 2);
        shape.round_robin(k - m, m, 2);
        let trace = shape.trace.finish();
        let within = m * (m - 1); // both phases
        for (engine, analysis) in every_engine(&trace, &pipeline(1), k - m + 1) {
            let c = &analysis.conflict;
            let case = format!("k {k}, {engine}");
            assert_eq!(c.raw_edge_count as u64, within, "{case}: pairs");
            assert_eq!(c.raw_total_weight, 2 * within, "{case}: total");
            let phase = |id: u32| u64::from(id) >= k - m;
            for (a, b, _) in c.graph.iter_edges() {
                assert_eq!(phase(a), phase(b), "{case}: cross edge ({a}, {b})");
            }
        }
    }
}
