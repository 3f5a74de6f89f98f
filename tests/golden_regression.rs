//! Golden regression fixtures: small deterministic workload traces whose
//! Table 2 / Table 3-shaped analysis output is snapshotted under
//! `tests/golden/`. Any change to the interleave engine, thresholding,
//! working-set extraction, classification, or allocation that alters the
//! numbers shows up as a readable text diff.
//!
//! The analysis runs through the *parallel* pipeline (2 workers), so
//! this also pins the parallel path to the snapshotted serial numbers. A second fixture per trace pins the online windowed engine's
//! per-window trajectory (kept edges, re-coloring, stability, phase
//! changes), which no whole-trace number reflects. To regenerate after an
//! intentional change:
//!
//! ```text
//! BWSA_UPDATE_GOLDEN=1 cargo test --test golden_regression
//! ```

use bwsa::core::analyze_parallel_observed;
use bwsa::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALE: f64 = 0.01;
/// Reset interval of the windowed fixtures, in dynamic branches.
const WINDOW: u64 = 1000;
const FIXTURES: &[(Benchmark, InputSet)] = &[
    (Benchmark::Li, InputSet::A),
    (Benchmark::Compress, InputSet::A),
    (Benchmark::Gcc, InputSet::B),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The Table 2 / Table 3-shaped summary of one benchmark run, as stable
/// text. Only integer counts and 2-decimal fixed-point values, so the
/// snapshot is byte-reproducible.
/// The paper's threshold of 100 scaled like the bench harness does, so
/// the scaled-down run thresholds proportionally.
fn scaled_threshold() -> u64 {
    ((100.0 * SCALE).round() as u64).max(2)
}

fn scaled_pipeline() -> AnalysisPipeline {
    AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(scaled_threshold()).unwrap(),
        ..AnalysisPipeline::new()
    }
}

fn snapshot(bench: Benchmark, set: InputSet) -> String {
    let trace = bench.generate_scaled(set, SCALE);
    let threshold = scaled_threshold();
    let pipeline = scaled_pipeline();
    let cfg = ParallelConfig::with_jobs(2);
    let analysis = analyze_parallel_observed(&pipeline, &trace, &cfg, &Obs::noop());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fixture {}_{} scale={}",
        bench.name(),
        set.suffix(),
        SCALE
    );
    let _ = writeln!(
        out,
        "trace: records={} static={} threshold={}",
        trace.len(),
        trace.static_branch_count(),
        threshold
    );
    let r = &analysis.working_sets.report;
    let _ = writeln!(
        out,
        "table2: sets={} avg_static={:.2} avg_dynamic={:.2} max={}",
        r.total_sets, r.avg_static_size, r.avg_dynamic_size, r.max_size
    );
    let (t, n, m) = analysis.classification.counts();
    let _ = writeln!(out, "classes: taken={t} not_taken={n} mixed={m}");
    let _ = writeln!(
        out,
        "conflict: kept_edges={} raw_edges={} total_weight={}",
        analysis.conflict.graph.edge_count(),
        analysis.conflict.raw_edge_count,
        analysis.conflict.graph.total_weight()
    );
    let alloc_cfg = AllocationConfig::default();
    let plain = analysis
        .required_size(Classified(false), &trace, 1024, &alloc_cfg)
        .unwrap();
    let classified = analysis
        .required_size(Classified(true), &trace, 1024, &alloc_cfg)
        .unwrap();
    let _ = writeln!(
        out,
        "table3: required_plain={} required_classified={}",
        plain.size, classified.size
    );
    // The ten heaviest thresholded edges, deterministically ordered:
    // weight descending, then endpoints ascending.
    let mut edges: Vec<(u32, u32, u64)> = analysis.conflict.graph.iter_edges().collect();
    edges.sort_by_key(|&(a, b, w)| (std::cmp::Reverse(w), a, b));
    let _ = writeln!(out, "top_edges:");
    for (a, b, w) in edges.into_iter().take(10) {
        let _ = writeln!(out, "  {a}-{b} {w}");
    }
    out
}

/// The windowed engine's trajectory over one benchmark run, as stable
/// text: per window its records, cumulative kept edges, whether the
/// re-colorer ran, its stability and the phase-change flag; then the run
/// totals.
fn windowed_snapshot(bench: Benchmark, set: InputSet) -> String {
    let trace = bench.generate_scaled(set, SCALE);
    let session = Session::new(&trace)
        .with_pipeline(scaled_pipeline())
        .with_windowing(WindowConfig::branches(WINDOW).unwrap());
    let result = session.windowed().unwrap();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fixture {}_{} scale={} window={} threshold={}",
        bench.name(),
        set.suffix(),
        SCALE,
        WINDOW,
        scaled_threshold()
    );
    for w in &result.windows {
        let _ = writeln!(
            out,
            "window {}: records={} kept={} recolored={} stability={:.6} phase_change={}",
            w.index,
            w.records,
            w.cumulative_edges_kept,
            w.recolor.recolored,
            w.recolor.stability,
            w.phase_change
        );
    }
    let _ = writeln!(
        out,
        "totals: windows={} records={} recolors={} mean_stability={:.6} phase_changes={}",
        result.windows.len(),
        result.records,
        result.recolors,
        result.mean_stability,
        result.phase_changes
    );
    out
}

#[test]
fn golden_fixtures_match() {
    let update = std::env::var_os("BWSA_UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let mut failures = Vec::new();
    let fixtures = FIXTURES.iter().flat_map(|&(bench, set)| {
        let stem = format!("{}_{}", bench.name(), set.suffix());
        [
            (format!("{stem}.txt"), snapshot(bench, set)),
            (format!("{stem}.windows.txt"), windowed_snapshot(bench, set)),
        ]
    });
    for (name, actual) in fixtures {
        let path = dir.join(&name);
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read golden fixture {}: {e}", path.display()));
        if actual != expected {
            failures.push(format!(
                "golden mismatch for {name}:\n--- expected\n{expected}\n--- actual\n{actual}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(if the change is intentional, regenerate with \
         BWSA_UPDATE_GOLDEN=1 cargo test --test golden_regression)",
        failures.join("\n")
    );
}

#[test]
fn snapshots_are_deterministic_across_runs() {
    let (bench, set) = FIXTURES[0];
    assert_eq!(snapshot(bench, set), snapshot(bench, set));
    assert_eq!(windowed_snapshot(bench, set), windowed_snapshot(bench, set));
}
