//! Hot-path wall-time benchmark: the analysis engines and the fused
//! predictor loop over pinned-seed synthetic workloads at three trace
//! sizes.
//!
//! ```text
//! cargo run --release -p bwsa-bench --bin hotpath -- \
//!     [--iters N] [--quick] [--out FILE]
//! cargo run --release -p bwsa-bench --bin hotpath -- --validate FILE
//! ```
//!
//! Measures, per size (median of `--iters` runs, default 5):
//!
//! * `analysis_serial` — [`bwsa_core::interleave_counts`] + CSR build.
//! * `analysis_streaming` — the whole pipeline through a record-by-record
//!   [`bwsa_core::StreamingAnalysis`].
//! * `analysis_parallel` — the full sharded pipeline at 2 workers.
//! * `analysis_windowed` — the online [`bwsa_core::WindowedAnalysis`]
//!   engine at a 4096-branch reset interval; its checksum is the final
//!   folded conflict-graph weight, which `--validate` checks against
//!   `analysis_parallel` — same answer, different engine.
//! * `pag_simulate` — the paper-baseline PAg over the trace.
//!
//! Each size also carries a `windowed` object (window count, re-colors,
//! mean stability, phase changes) from the timed windowed run.
//!
//! `--out` writes `BENCH_hotpath.json` (schema `bwsa-bench-hotpath/1`)
//! and refuses to run in a debug build — unoptimised timings must never
//! be checked in. `--validate` parses a previously written file and
//! checks every measurement has positive time and throughput (the CI
//! smoke step).

use bwsa_core::{
    analyze_parallel, AnalysisPipeline, ParallelConfig, StreamingAnalysis, WindowConfig,
    WindowedAnalysis,
};
use bwsa_obs::json::Json;
use bwsa_predictor::{simulate, Pag};
use bwsa_workload::suite::{Benchmark, InputSet};
use std::time::Instant;

struct Args {
    iters: usize,
    quick: bool,
    out: Option<String>,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 5,
        quick: false,
        out: None,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad --iters {v:?}"))?;
                if args.iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--validate" => args.validate = Some(it.next().ok_or("--validate needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One timed measurement named `label`: median wall time over `iters`
/// runs of `f`, which returns a checksum kept in the output so the work
/// cannot be optimised away.
fn measure(label: &str, iters: usize, branches: u64, mut f: impl FnMut() -> u64) -> Json {
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    let mut checksum = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        checksum = f();
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    let median_ns = times[times.len() / 2].max(1) as u64;
    let throughput = branches as f64 * 1e9 / median_ns as f64;
    Json::object([
        ("name", Json::from(label)),
        ("median_ns", Json::from(median_ns)),
        ("throughput_branches_per_sec", Json::from(throughput)),
        ("checksum", Json::from(checksum)),
    ])
}

fn bench_size(name: &str, bench: Benchmark, scale: f64, args: &Args) -> Json {
    let trace = bench.generate_scaled(InputSet::A, scale);
    let branches = trace.len() as u64;
    eprintln!(
        "[{name}] {}@{scale}: {branches} dynamic branches",
        bench.name()
    );
    let iters = args.iters;
    let mut measurements = vec![
        measure("analysis_serial", iters, branches, || {
            let g = bwsa_core::interleave_counts(&trace).build();
            g.total_weight() ^ g.edge_count() as u64
        }),
        measure("analysis_streaming", iters, branches, || {
            let mut engine = StreamingAnalysis::new(&trace.meta().name);
            for rec in trace.records() {
                engine.push(rec);
            }
            let analysis = engine.finish(&AnalysisPipeline::new());
            analysis.conflict.graph.total_weight()
        }),
        measure("analysis_parallel", iters, branches, || {
            let analysis = analyze_parallel(
                &AnalysisPipeline::new(),
                &trace,
                &ParallelConfig::with_jobs(2),
            );
            analysis.conflict.graph.total_weight()
        }),
        measure("pag_simulate", iters, branches, || {
            simulate(&mut Pag::paper_baseline(), &trace).mispredictions
        }),
    ];
    // Online windowed engine at a 4096-branch reset interval (shrunk
    // under --quick so small smoke traces still flush several windows).
    // Checksum is the folded conflict-graph weight: identical work to
    // analysis_parallel, so --validate cross-checks the two engines.
    let interval = if args.quick { 256 } else { 4096 };
    let config = WindowConfig::branches(interval).expect("nonzero interval");
    let mut windowed_stats = Json::Null;
    measurements.push(measure("analysis_windowed", iters, branches, || {
        let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::new());
        for (id, rec) in trace.indexed_records() {
            engine.push(id.as_u32(), rec.time.get(), rec.is_taken());
        }
        let result = engine.finish();
        windowed_stats = Json::object([
            ("interval", Json::from(interval)),
            ("windows", Json::from(result.windows.len() as u64)),
            ("recolors", Json::from(result.recolors)),
            ("mean_stability", Json::from(result.mean_stability)),
            ("phase_changes", Json::from(result.phase_changes)),
        ]);
        result.analysis.conflict.graph.total_weight()
    }));
    Json::object([
        ("name", Json::from(name)),
        ("workload", Json::from(format!("{}@{scale}", bench.name()))),
        ("branches", Json::from(branches)),
        ("measurements", Json::Array(measurements)),
        ("windowed", windowed_stats),
    ])
}

/// Validates a previously written report: schema tag, and positive time
/// and throughput for every measurement.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bwsa-bench-hotpath/1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let sizes = match doc.get("sizes") {
        Some(Json::Array(sizes)) if !sizes.is_empty() => sizes,
        _ => return Err("sizes must be a non-empty array".into()),
    };
    let mut checked = 0usize;
    for size in sizes {
        let sname = size
            .get("name")
            .and_then(Json::as_str)
            .ok_or("size missing name")?;
        let measurements = match size.get("measurements") {
            Some(Json::Array(ms)) if !ms.is_empty() => ms,
            _ => return Err(format!("{sname}: measurements must be non-empty")),
        };
        for m in measurements {
            let label = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let ns = m
                .get("median_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}/{label}: missing median_ns"))?;
            if ns == 0 {
                return Err(format!("{sname}/{label}: zero median_ns"));
            }
            let ok_throughput = matches!(
                m.get("throughput_branches_per_sec"),
                Some(Json::Float(t)) if *t > 0.0
            );
            if !ok_throughput {
                return Err(format!("{sname}/{label}: throughput must be positive"));
            }
            checked += 1;
        }
        // Cross-engine checksum discipline: the windowed fold and the
        // sharded parallel engine both end at the folded conflict-graph
        // weight, so their checksums must be identical.
        let checksum_of = |metric: &str| {
            measurements
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                .and_then(|m| m.get("checksum"))
                .and_then(Json::as_u64)
        };
        if let (Some(windowed), Some(parallel)) = (
            checksum_of("analysis_windowed"),
            checksum_of("analysis_parallel"),
        ) {
            if windowed != parallel {
                return Err(format!(
                    "{sname}: windowed checksum {windowed} != parallel checksum {parallel}"
                ));
            }
            let stats = size
                .get("windowed")
                .ok_or_else(|| format!("{sname}: missing windowed stats object"))?;
            let windows = stats
                .get("windows")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}: windowed.windows missing"))?;
            let recolors = stats
                .get("recolors")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}: windowed.recolors missing"))?;
            if recolors > windows {
                return Err(format!(
                    "{sname}: {recolors} recolors exceed {windows} windows"
                ));
            }
            let ok_stability = matches!(
                stats.get("mean_stability"),
                Some(Json::Float(s)) if (0.0..=1.0).contains(s)
            );
            if !ok_stability {
                return Err(format!("{sname}: mean_stability must be within [0, 1]"));
            }
        }
    }
    println!("{path}: ok ({checked} measurements)");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: hotpath [--iters N] [--quick] [--out FILE] | --validate FILE");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        if let Err(msg) = validate(path) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.out.is_some() && cfg!(debug_assertions) {
        eprintln!(
            "error: refusing to write a benchmark report from a debug build; \
             rerun with --release"
        );
        std::process::exit(2);
    }
    // Three pinned-seed workloads spanning ~100k to ~2.5M dynamic
    // branches; --quick shrinks them two orders of magnitude for smoke
    // runs.
    let shrink = if args.quick { 0.01 } else { 1.0 };
    let sizes = [
        ("small", Benchmark::Compress, 0.25 * shrink),
        ("medium", Benchmark::Li, 1.0 * shrink),
        ("large", Benchmark::Gcc, 1.0 * shrink),
    ];
    let reports: Vec<Json> = sizes
        .iter()
        .map(|&(name, bench, scale)| bench_size(name, bench, scale, &args))
        .collect();
    let doc = Json::object([
        ("schema", Json::from("bwsa-bench-hotpath/1")),
        ("iters", Json::from(args.iters as u64)),
        ("quick", Json::from(args.quick)),
        ("sizes", Json::Array(reports)),
    ]);
    let text = doc.to_pretty_string();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
