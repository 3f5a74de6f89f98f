//! Every engine over every record source against the linear-scan oracle,
//! sized for the default `cargo test`: a fast tier of the engine
//! agreement in `crates/core/tests/hotpath_prop.rs`.
//!
//! The traces are seeded runs over a few hot branches whose stamps advance
//! by 0 to 2, so ties occur and re-executions leave superseded entries in
//! the recency ring. Every other trace first runs 4360 branches once
//! each, then gives the even hot slots ids inside the detector's row
//! heads, which end at 4096, and the odd ones ids on both sides of the
//! page boundary at 4352 past them, so pairs inside the heads, across
//! their end, within a page and across two pages all occur.
//!
//! Each trace is a [`Session`] source four ways: in memory, as `BWSS2`
//! bytes, as `BWSS3` bytes, and as a torn `BWSS3` file read under salvage
//! (its footer and partial last block lost). The first three run serially
//! and on 2 and 3 ownership-parallel workers at each of the thresholds 1,
//! 2 and 100, and as a windowed fold at one of them in turn; the torn file
//! runs through each of the four engines at one threshold in turn. Each
//! run's answer —
//! profile, conflict graph, working sets and classes — is the in-memory
//! serial answer over the records it read, which compiles the oracle's
//! raw graph of those records, pruned, with its raw pair count and weight.
//! One trace runs two branches, so a file's third worker owns none (an
//! in-memory trace runs at most one worker per branch).
//!
//! A windowed session over each of the four sources, at each threshold,
//! returns the same whole `WindowedResult` — every window, the
//! assignment, the recolor count and the mean stability — with its
//! colorer inline (1 job) and on a helper thread (2 and 3 jobs), whichever
//! thread a failpoint delay holds back.

use bwsa::core::pipeline::AnalysisPipeline;
use bwsa::core::{
    interleave_counts_naive, Analysis, ConflictConfig, Execution, ParallelConfig, Session, Source,
    WindowConfig, WindowedResult,
};
use bwsa::graph::ConflictGraph;
use bwsa::resilience::failpoint;
use bwsa::trace::columnar::ColumnarWriter;
use bwsa::trace::stream::RecoveryPolicy;
use bwsa::trace::{Format, Trace, TraceBuilder};

/// The first id past the detector's row heads.
const HEAD: u64 = 4096;

/// Ids per page of a detector row past its head.
const PAGE: u64 = 256;

/// Records per block of the `BWSS3` encodings.
const BLOCK: usize = 256;

/// A seeded trace of 400 records over `spread` hot branches.
fn hot_trace(seed: u64, wide: bool, spread: u64) -> Trace {
    let mut lcg = seed;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut b = TraceBuilder::new("agreement");
    let mut t = 1;
    let cold = if wide { HEAD + PAGE + 8 } else { 0 };
    for id in 0..cold {
        b.record(0x10_0000 + id * 4, true, t);
        t += 1;
    }
    for _ in 0..400 {
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

fn pipeline_at(threshold: u64) -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    }
}

/// `trace` in `BWSS3` blocks of [`BLOCK`] records; a torn file loses its
/// footer and the partial block the writer had not flushed.
fn columnar(trace: &Trace, torn: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = ColumnarWriter::new(&mut bytes, "agreement")
        .unwrap()
        .with_block_records(BLOCK);
    for rec in trace.records() {
        w.push(*rec).unwrap();
    }
    if !torn {
        w.finish(trace.meta().total_instructions).unwrap();
    }
    bytes
}

/// The first `n` records of `trace`.
fn prefix(trace: &Trace, n: usize) -> Trace {
    let mut b = TraceBuilder::new("agreement");
    for rec in &trace.records()[..n] {
        b.record(rec.pc.addr(), rec.is_taken(), rec.time.get());
    }
    b.finish()
}

fn file(bytes: &[u8], policy: RecoveryPolicy) -> Source<'_> {
    Source::File { bytes, policy }
}

/// The engines every source runs through.
const ENGINES: [&str; 4] = ["serial", "2 workers", "3 workers", "windowed"];

/// The conflict thresholds the runs take.
const THRESHOLDS: [u64; 3] = [1, 2, 100];

/// `source` run by `engine`: serially, on 2 or 3 workers, or as the fold
/// of about five windows of a `records`-record trace.
fn run(source: Source<'_>, engine: &str, pipeline: AnalysisPipeline, records: usize) -> Analysis {
    let session = Session::over(source).with_pipeline(pipeline);
    let session = match engine {
        "2 workers" => session.with_execution(Execution::Parallel(ParallelConfig::with_jobs(2))),
        "3 workers" => session.with_execution(Execution::Parallel(ParallelConfig::with_jobs(3))),
        "windowed" => session.with_windowing(windows(records)),
        _ => session,
    };
    session.run().unwrap().clone()
}

/// About five windows of a `records`-record trace, recolored into a
/// 64-entry table.
fn windows(records: usize) -> WindowConfig {
    let windows = WindowConfig::branches(records as u64 / 5 + 1).unwrap();
    windows.with_table_size(64)
}

/// `source`'s whole windowed result at `jobs`: the colorer runs inline at
/// 1 job and on a helper thread above.
fn windowed(source: Source<'_>, jobs: usize, threshold: u64, records: usize) -> WindowedResult {
    let session = Session::over(source)
        .with_pipeline(pipeline_at(threshold))
        .with_windowing(windows(records));
    let session = match jobs {
        1 => session,
        _ => session.with_execution(Execution::Parallel(ParallelConfig::with_jobs(jobs))),
    };
    session.windowed().unwrap().clone()
}

/// The in-memory serial answer over `records` at `threshold`, checked to
/// compile the oracle's `raw` graph of them, pruned, with its raw pair
/// count and weight.
fn expected(records: &Trace, raw: &ConflictGraph, threshold: u64, case: &str) -> Analysis {
    let analysis = run(Source::Trace(records), "serial", pipeline_at(threshold), 0);
    let conflict = &analysis.conflict;
    assert_eq!(conflict.graph, raw.pruned(threshold), "{case}");
    assert_eq!(conflict.raw_edge_count, raw.edge_count(), "{case}");
    assert_eq!(conflict.raw_total_weight, raw.total_weight(), "{case}");
    analysis
}

#[test]
fn every_engine_compiles_the_pruned_oracle_graph() {
    let mut narrowest = usize::MAX;
    for seed in 1..=6u64 {
        let wide = seed % 2 == 0;
        let spread = 2 + seed * 5 % 15;
        let trace = hot_trace(seed, wide, spread);
        assert_eq!(trace.static_branch_count() > 4096, wide, "seed {seed}");
        narrowest = narrowest.min(trace.static_branch_count());
        let raw = interleave_counts_naive(&trace).build();
        assert!(
            raw.edge_count() > 0,
            "seed {seed}: the hot branches interleave"
        );
        let mut bwss = Vec::new();
        Format::Bwss.write(&trace, &mut bwss).unwrap();
        let bws3 = columnar(&trace, false);
        let torn = columnar(&trace, true);
        let survivors = prefix(&trace, trace.len() / BLOCK * BLOCK);
        let torn_raw = interleave_counts_naive(&survivors).build();
        let sources = [
            ("in memory", Source::Trace(&trace)),
            ("bwss2", file(&bwss, RecoveryPolicy::Strict)),
            ("bwss3", file(&bws3, RecoveryPolicy::Strict)),
        ];
        let mut answers = Vec::new();
        for threshold in THRESHOLDS {
            let case = format!("seed {seed}, threshold {threshold}");
            let expected = expected(&trace, &raw, threshold, &case);
            // `expected` is the first of these runs: the in-memory serial one.
            let runs = sources.into_iter().flat_map(|(name, source)| {
                ["serial", "2 workers", "3 workers"].map(|engine| (name, source, engine))
            });
            for (name, source, engine) in runs.skip(1) {
                let analysis = run(source, engine, pipeline_at(threshold), trace.len());
                assert_eq!(analysis, expected, "{case}, {name}, {engine}");
            }
            answers.push(expected);
        }
        // The windowed fold and the torn file take one threshold per run
        // in turn, so over the seeds each run meets every threshold twice.
        let torn = ("torn bwss3", file(&torn, RecoveryPolicy::Salvage));
        let runs = sources.map(|source| (source, "windowed", false));
        let torn_runs = ENGINES.map(|engine| (torn, engine, true));
        for (turn, ((name, source), engine, torn)) in runs.into_iter().chain(torn_runs).enumerate()
        {
            let k = (seed as usize + turn) % 3;
            let threshold = THRESHOLDS[k];
            let case = format!("seed {seed}, threshold {threshold}, {name}, {engine}");
            let expected = match torn {
                true => expected(&survivors, &torn_raw, threshold, &case),
                false => answers[k].clone(),
            };
            let analysis = run(source, engine, pipeline_at(threshold), trace.len());
            assert_eq!(analysis, expected, "{case}");
        }
    }
    assert_eq!(narrowest, 2, "one trace leaves a third worker no branch");
}

#[test]
fn a_windowed_session_answers_alike_at_every_job_count() {
    // With a helper thread, each run in turn stalls neither thread, the
    // colorer (so the walk fills the channel and waits to hand over), or
    // the walk (so the colorer waits for windows).
    let stalls = ["", "core.recolor=delay(1)", "core.window_flush=delay(1)"];
    let mut turn = 0;
    for seed in 1..=4u64 {
        let trace = hot_trace(seed, seed % 2 == 0, 2 + seed * 5 % 15);
        let mut bwss = Vec::new();
        Format::Bwss.write(&trace, &mut bwss).unwrap();
        let bws3 = columnar(&trace, false);
        let torn = columnar(&trace, true);
        let sources = [
            ("in memory", Source::Trace(&trace)),
            ("bwss2", file(&bwss, RecoveryPolicy::Strict)),
            ("bwss3", file(&bws3, RecoveryPolicy::Strict)),
            ("torn bwss3", file(&torn, RecoveryPolicy::Salvage)),
        ];
        for threshold in THRESHOLDS {
            for (name, source) in sources {
                let serial = windowed(source, 1, threshold, trace.len());
                assert!(serial.windows.len() >= 4, "seed {seed}, {name}");
                for jobs in [2, 3] {
                    let stall = stalls[turn % stalls.len()];
                    turn += 1;
                    let _stall = failpoint::scoped(stall).unwrap();
                    let split = windowed(source, jobs, threshold, trace.len());
                    let case = format!("seed {seed}, threshold {threshold}, {name}, {jobs} jobs");
                    assert_eq!(split, serial, "{case}, stalling {stall:?}");
                }
            }
        }
    }
}
