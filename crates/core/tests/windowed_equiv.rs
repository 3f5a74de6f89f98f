//! Differential equivalence harness for online windowed analysis.
//!
//! [`WindowedAnalysis`] consumes a trace in reset intervals and folds
//! every window back into cumulative state via the PR-2 merge algebra
//! ([`bwsa_core::merge`]). This suite pins the claims that make that
//! safe to trust, for **arbitrary** traces, window sizes, and worker
//! counts:
//!
//! 1. The folded result is bit-identical to the whole-trace answer —
//!    serial and parallel, for branch-count and instruction-count
//!    windows, including degenerate sizes (1, trace length,
//!    non-dividing, `u64::MAX`).
//! 2. Per-window interleave counts match a seeded naive oracle that
//!    re-derives the paper's strictly-greater stamp rule from scratch,
//!    mirroring the `interleave_counts_naive` discipline.
//! 3. The incremental re-coloring equals a from-scratch coloring of the
//!    cumulative pruned graph at **every** flush, not just the last —
//!    so the signature-gated skip is provably lossless. The kept-edge
//!    count and the recolor decision match a from-scratch prune at every
//!    flush too, across thresholds where edges cross between flushes.
//! 4. `WindowConfig` parsing is total: no input panics, the grammar
//!    roundtrips, and zero intervals are typed errors.

use bwsa_core::pipeline::AnalysisPipeline;
use bwsa_core::{
    interleave_counts_naive, ConflictConfig, Execution, ParallelConfig, Session, WindowConfig,
    WindowedAnalysis, WindowedResult,
};
use bwsa_graph::coloring::{color_graph, ColoringOptions};
use bwsa_obs::Obs;
use bwsa_trace::{Trace, TraceBuilder};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Traces with up to 10 static branches and repeatable timestamps
/// (`dt = 0` keeps the previous stamp: equal stamps must NOT interleave
/// under the strictly-greater rule, and a window boundary falling
/// between equal-stamp records is where a sloppy carry would miscount).
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u8..10, any::<bool>(), 0u64..3), 1..250).prop_map(|steps| {
        let mut b = TraceBuilder::new("windowed-prop");
        let mut t = 1u64;
        for (slot, taken, dt) in steps {
            t += dt;
            b.record(0x1000 + u64::from(slot) * 4, taken, t);
        }
        b.finish()
    })
}

/// Low-threshold pipeline so small property traces keep conflict edges.
fn sensitive_pipeline() -> AnalysisPipeline {
    pipeline_with_threshold(1)
}

fn pipeline_with_threshold(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

fn drive(trace: &Trace, config: WindowConfig, pipeline: AnalysisPipeline) -> WindowedResult {
    let mut engine = WindowedAnalysis::new(config, pipeline);
    for (id, r) in trace.indexed_records() {
        engine.push(id.as_u32(), r.time.get(), r.is_taken());
    }
    engine.finish()
}

fn parallel(jobs: usize) -> Execution {
    Execution::Parallel(ParallelConfig::with_jobs(jobs))
}

proptest! {
    #[test]
    fn windows_fold_into_the_exact_whole_trace_answer(
        trace in arb_trace(),
        window in 1u64..400,
        jobs in 1usize..4,
        instructions in any::<bool>(),
    ) {
        let config = if instructions {
            WindowConfig::instructions(window).unwrap()
        } else {
            WindowConfig::branches(window).unwrap()
        };
        let result = drive(&trace, config, AnalysisPipeline::new());

        // Identical to the serial whole-trace run...
        let serial = Session::new(&trace);
        prop_assert_eq!(&result.analysis, serial.run().unwrap());
        // ...and to the parallel engine for any worker count.
        let owned = Session::new(&trace).with_execution(parallel(jobs));
        prop_assert_eq!(&result.analysis, owned.run().unwrap());

        // The windows partition the trace: every record lands in exactly
        // one window, and the final cumulative graph is the whole answer.
        let records: u64 = result.windows.iter().map(|w| w.records).sum();
        prop_assert_eq!(records, trace.len() as u64);
        if !instructions {
            let expect = (trace.len() as u64).div_ceil(window) as usize;
            prop_assert_eq!(result.windows.len(), expect);
        }
        if let Some(last) = result.windows.last() {
            prop_assert_eq!(
                last.cumulative_edges_kept,
                result.analysis.conflict.graph.edge_count()
            );
        }
        // Raw interleave weight is conserved across the carry: summing
        // the per-window detections reproduces the naive total.
        let weight: u64 = result.windows.iter().map(|w| w.interleave_weight).sum();
        prop_assert_eq!(weight, interleave_counts_naive(&trace).build().total_weight());
    }

    #[test]
    fn degenerate_window_sizes_are_exact(trace in arb_trace(), instructions in any::<bool>()) {
        let whole = Session::new(&trace);
        let whole = whole.run().unwrap();
        let len = trace.len() as u64;
        for interval in [1, len, len + 7, u64::MAX] {
            let config = if instructions {
                WindowConfig::instructions(interval).unwrap()
            } else {
                WindowConfig::branches(interval).unwrap()
            };
            let result = drive(&trace, config, AnalysisPipeline::new());
            prop_assert_eq!(&result.analysis, whole);
            if interval == u64::MAX {
                prop_assert!(result.windows.len() <= 1, "one giant window at most");
            }
        }
    }

    #[test]
    fn final_coloring_matches_a_scratch_coloring_of_the_folded_graph(
        trace in arb_trace(),
        window in 1u64..80,
        table in 1usize..12,
    ) {
        let config = WindowConfig::branches(window).unwrap().with_table_size(table);
        let result = drive(&trace, config, sensitive_pipeline());
        let scratch = color_graph(
            &result.analysis.conflict.graph,
            table,
            &ColoringOptions::default(),
        );
        prop_assert_eq!(&result.assignment, &scratch.assignment);
    }

    #[test]
    fn incremental_recoloring_equals_scratch_at_every_flush(
        trace in arb_trace(),
        window in 1u64..60,
        table in 1usize..8,
        threshold in 1u64..=4,
    ) {
        // The oracle: after each flush, a from-scratch naive interleave
        // pass over the records consumed so far, pruned and colored
        // fresh, must agree with the engine's incrementally maintained
        // assignment — including flushes where the signature gate
        // skipped the exact re-coloring. Its kept-edge count must match
        // the engine's kept set, and the engine must re-color exactly
        // when the scratch graph's signature moved. Thresholds above 1
        // let an edge cross the threshold in a later window than the one
        // that created it.
        let config = WindowConfig::branches(window).unwrap().with_table_size(table);
        let mut engine = WindowedAnalysis::new(config, pipeline_with_threshold(threshold));
        let mut consumed: Vec<(u64, bool, u64)> = Vec::new();
        let mut flushes = 0usize;
        let mut previous_signature = None;
        for (id, r) in trace.indexed_records() {
            engine.push(id.as_u32(), r.time.get(), r.is_taken());
            consumed.push((r.pc.addr(), r.is_taken(), r.time.get()));
            if engine.windows().len() == flushes {
                continue;
            }
            flushes = engine.windows().len();
            let mut b = TraceBuilder::new("prefix");
            for &(pc, taken, t) in &consumed {
                b.record(pc, taken, t);
            }
            let prefix = b.finish();
            let pruned = interleave_counts_naive(&prefix).build().pruned(threshold);
            let scratch = color_graph(&pruned, table, &ColoringOptions::default());
            prop_assert_eq!(engine.assignment(), &scratch.assignment[..]);
            let flushed = &engine.windows()[flushes - 1];
            prop_assert_eq!(flushed.cumulative_edges_kept, pruned.edge_count());
            let signature = (pruned.node_count(), pruned.edge_count(), pruned.total_weight());
            prop_assert_eq!(
                flushed.recolor.recolored,
                previous_signature != Some(signature)
            );
            previous_signature = Some(signature);
        }
    }

    #[test]
    fn per_window_interleave_counts_match_a_seeded_naive_oracle(
        trace in arb_trace(),
        window in 1u64..100,
    ) {
        // The oracle mirrors `interleave_counts_naive`: when a branch
        // re-executes, every *other* branch whose latest stamp is
        // strictly greater than this branch's previous stamp interleaved
        // with it once. The `seen` map carries across window boundaries
        // exactly like the engine's one whole-trace detector.
        let mut seen: HashMap<u32, u64> = HashMap::new();
        let mut expected: Vec<(usize, u64)> = Vec::new();
        let mut pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut weight = 0u64;
        let mut in_window = 0u64;
        for (id, r) in trace.indexed_records() {
            let node = id.as_u32();
            if let Some(prev) = seen.get(&node).copied() {
                for (&b, &bt) in &seen {
                    if b != node && bt > prev {
                        weight += 1;
                        pairs.insert((node.min(b), node.max(b)));
                    }
                }
            }
            seen.insert(node, r.time.get());
            in_window += 1;
            if in_window == window {
                expected.push((pairs.len(), weight));
                pairs.clear();
                weight = 0;
                in_window = 0;
            }
        }
        if in_window > 0 {
            expected.push((pairs.len(), weight));
        }

        let config = WindowConfig::branches(window).unwrap();
        let result = drive(&trace, config, AnalysisPipeline::new());
        let got: Vec<(usize, u64)> = result
            .windows
            .iter()
            .map(|w| (w.interleave_pairs, w.interleave_weight))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn window_config_parsing_is_total(spec in "\\PC{0,12}") {
        // No input may panic; success implies the value reprints into a
        // spec that parses back to the same configuration.
        if let Ok(config) = WindowConfig::parse(&spec) {
            let unit = if config.unit() == bwsa_core::WindowUnit::Instructions { "i" } else { "" };
            let reprinted = format!("{}{}", config.interval(), unit);
            prop_assert_eq!(WindowConfig::parse(&reprinted).unwrap(), config);
        }
    }

    #[test]
    fn window_config_grammar_roundtrips(n in 1u64..=u64::MAX, instructions in any::<bool>()) {
        let spec = if instructions { format!("{n}i") } else { n.to_string() };
        let config = WindowConfig::parse(&spec).unwrap();
        prop_assert_eq!(config.interval(), n);
        prop_assert_eq!(
            config.unit() == bwsa_core::WindowUnit::Instructions,
            instructions
        );
    }
}

#[test]
fn zero_intervals_and_garbage_specs_are_typed_errors() {
    assert!(WindowConfig::branches(0).is_err());
    assert!(WindowConfig::instructions(0).is_err());
    for bad in ["", "0", "0i", "i", "12x", "-3", "1.5", "i12", " 12", "12 "] {
        assert!(WindowConfig::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn an_empty_trace_yields_zero_windows_in_both_units() {
    let trace = TraceBuilder::new("empty").finish();
    for config in [
        WindowConfig::branches(10).unwrap(),
        WindowConfig::instructions(10).unwrap(),
        WindowConfig::branches(u64::MAX).unwrap(),
    ] {
        let result = drive(&trace, config, AnalysisPipeline::new());
        assert!(result.windows.is_empty());
        assert_eq!(result.records, 0);
        assert_eq!(&result.analysis, Session::new(&trace).run().unwrap());
    }
}

#[test]
fn windowed_sessions_detect_once_and_run_returns_the_fold() {
    let mut b = TraceBuilder::new("busy");
    for i in 0..600u64 {
        b.record(0x1000 + (i * 7 % 11) * 4, i % 3 == 0, i + 1);
    }
    let trace = b.finish();
    let session = Session::new(&trace)
        .with_execution(parallel(2))
        .with_windowing(WindowConfig::branches(100).unwrap())
        .with_observer(Obs::recording());
    let analysis = session.run().unwrap();
    assert_eq!(analysis, Session::new(&trace).run().unwrap());
    assert!(std::ptr::eq(
        analysis,
        &session.windowed().unwrap().analysis
    ));

    // One serial detection pass, and the whole-trace stages and counters
    // still reported from the fold.
    let metrics = session.metrics().unwrap();
    assert_eq!(metrics.stage("windowed_analysis").unwrap().count, 1);
    assert!(metrics.stage("shard_detect").is_none());
    for stage in ["compile", "working_sets", "classify"] {
        assert_eq!(metrics.stage(stage).unwrap().count, 1, "{stage}");
    }
    assert_eq!(
        metrics.counter("core.graph_edges_kept"),
        analysis.conflict.graph.edge_count() as u64
    );
}
