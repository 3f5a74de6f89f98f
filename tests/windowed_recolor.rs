//! The windowed engine's incremental re-coloring against a from-scratch
//! coloring at every flush, sized for the default `cargo test`: a fast,
//! deterministic tier of `crates/core/tests/windowed_equiv.rs`'s
//! `incremental_recoloring_equals_scratch_at_every_flush`.
//!
//! Each seeded trace runs through a `WindowedAnalysis` one record at a
//! time, at thresholds 1 and 3 (so a pair can cross the threshold in a
//! later window than the one that created it) and into tables of 3 and
//! 1024 entries. After every flush, the trailing one included, the
//! engine's assignment is `color_graph` of the naive oracle's graph of
//! the records so far, pruned at the threshold, and the window's
//! `cumulative_edges_kept` is that graph's edge count. The fold is the
//! in-memory serial answer, raw pair count and weight included. One trace
//! first runs 4360 branches once each, so its hot pairs fall inside the
//! detector's row heads, which end at 4096, across their end, and on
//! both sides of the page boundary at 4352 past them.

use bwsa::core::pipeline::AnalysisPipeline;
use bwsa::core::{
    interleave_counts_naive, ConflictConfig, Session, WindowConfig, WindowedAnalysis,
};
use bwsa::graph::coloring::{color_graph, ColoringOptions};
use bwsa::graph::ConflictGraph;
use bwsa::trace::{Trace, TraceBuilder};
use std::collections::HashMap;

/// The first id past the detector's row heads.
const HEAD: u64 = 4096;

/// Ids per page of a detector row past its head.
const PAGE: u64 = 256;

/// A seeded trace of `hot` records over `spread` hot branches, after
/// `cold` branches that run once each. With `cold` past the first page
/// past the row heads, the odd hot slots take ids on both sides of that
/// page's end.
fn seeded_trace(seed: u64, cold: u64, hot: usize, spread: u64) -> Trace {
    let mut lcg = seed;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut b = TraceBuilder::new("recolor");
    let mut t = 1;
    for id in 0..cold {
        b.record(0x10_0000 + id * 4, true, t);
        t += 1;
    }
    let wide = cold > HEAD + PAGE;
    for _ in 0..hot {
        let r = next();
        t += r % 3; // 0 repeats a stamp: equal stamps never interleave
        let slot = r / 3 % spread;
        let id = match (wide, slot % 4) {
            (true, 1) => HEAD + slot / 4,
            (true, 3) => HEAD + PAGE + slot / 4,
            (true, _) => slot / 2,
            (false, _) => slot,
        };
        b.record(0x10_0000 + id * 4, r & 64 == 0, t);
    }
    b.finish()
}

/// The first `n` records of `trace`.
fn prefix(trace: &Trace, n: usize) -> Trace {
    let mut b = TraceBuilder::new("recolor");
    for rec in &trace.records()[..n] {
        b.record(rec.pc.addr(), rec.is_taken(), rec.time.get());
    }
    b.finish()
}

fn pipeline_at(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

/// Runs `trace` in windows of `window` records at every threshold and
/// table size, checking each flush against the oracle's graph of the
/// records so far; returns how many flushes were checked.
fn check_every_flush(trace: &Trace, window: u64, case: &str) -> usize {
    // The oracle's raw graph of the first n records, by n: every
    // threshold and table size checks the same flushes.
    let mut raw: HashMap<usize, ConflictGraph> = HashMap::new();
    let mut oracle = |n: usize| {
        raw.entry(n)
            .or_insert_with(|| interleave_counts_naive(&prefix(trace, n)).build())
            .clone()
    };
    let mut checked = 0;
    for threshold in [1, 3] {
        for table in [3, 1024] {
            let case = format!("{case}, threshold {threshold}, table {table}");
            let config = WindowConfig::branches(window)
                .unwrap()
                .with_table_size(table);
            let mut engine = WindowedAnalysis::new(config, pipeline_at(threshold));
            let mut flushes = 0;
            let mut check = |assignment: &[u32], kept: usize, n: usize| {
                let pruned = oracle(n).pruned(threshold);
                let scratch = color_graph(&pruned, table, &ColoringOptions::default());
                assert_eq!(assignment, &scratch.assignment[..], "{case}, {n} records");
                assert_eq!(kept, pruned.edge_count(), "{case}, {n} records");
                checked += 1;
            };
            for (n, (id, r)) in trace.indexed_records().enumerate() {
                engine.push(id.as_u32(), r.time.get(), r.is_taken());
                if engine.windows().len() > flushes {
                    flushes = engine.windows().len();
                    let kept = engine.windows()[flushes - 1].cumulative_edges_kept;
                    check(engine.assignment(), kept, n + 1);
                }
            }
            let result = engine.finish();
            if result.windows.len() > flushes {
                let kept = result.windows.last().unwrap().cumulative_edges_kept;
                check(&result.assignment, kept, trace.len());
            }
            let whole = Session::new(trace).with_pipeline(pipeline_at(threshold));
            let whole = whole.run().unwrap();
            assert_eq!(&result.analysis, whole, "{case}");
            let raw = oracle(trace.len());
            let conflict = &result.analysis.conflict;
            assert_eq!(conflict.raw_edge_count, raw.edge_count(), "{case}");
            assert_eq!(conflict.raw_total_weight, raw.total_weight(), "{case}");
        }
    }
    checked
}

#[test]
fn incremental_recoloring_equals_a_scratch_coloring_at_every_flush() {
    for (seed, spread, window) in [(1, 12, 37), (2, 6, 50), (3, 17, 128)] {
        let trace = seeded_trace(seed, 0, 600, spread);
        let checked = check_every_flush(&trace, window, &format!("seed {seed}"));
        assert!(checked >= 4 * 4, "seed {seed}: {checked} flushes checked");
    }
}

#[test]
fn recoloring_stays_exact_across_the_dense_rows() {
    let trace = seeded_trace(4, HEAD + PAGE + 8, 360, 14);
    assert!(trace.static_branch_count() > 4096);
    let raw = interleave_counts_naive(&trace).build();
    let above = |page: u64| {
        let mut pairs = raw
            .iter_edges()
            .map(|(a, b, _)| (u64::from(a), u64::from(b)));
        pairs.any(|(a, b)| a < HEAD + page && b >= HEAD + page)
    };
    assert!(above(0), "hot pairs across the heads' end");
    assert!(above(PAGE), "hot pairs across the page boundary past it");
    // Windows of 90 records: the last five hold the hot ones.
    let checked = check_every_flush(&trace, 90, "wide");
    assert_eq!(checked, 4 * trace.len().div_ceil(90));
}
