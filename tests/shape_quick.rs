//! Fast tier-1 variant of `shape_full_scale`: the same paper-shape
//! assertions on 5%-scale workloads, running in seconds instead of
//! minutes, with the analysis on the parallel path (2 workers) so every
//! default test run exercises parallel execution end to end.
//!
//! The full-scale versions stay `#[ignore]`d in `shape_full_scale.rs`;
//! the bands here were calibrated on the scaled traces (which have
//! proportionally scaled conflict thresholds and execution filters, per
//! the bench harness convention).

use bwsa::core::analyze_parallel_observed;
use bwsa::prelude::*;
use bwsa::trace::profile::FrequencyFilter;

const SCALE: f64 = 0.05;

fn quick_analysis(bench: Benchmark) -> (bwsa::trace::Trace, bwsa::core::pipeline::Analysis) {
    let raw = bench.generate_scaled(InputSet::A, SCALE);
    // Scale the full-run MinExecutions(20) filter and threshold 100 the
    // way the bench harness does (floor 2 for both).
    let min_exec = ((20.0 * SCALE).round() as u64).max(2);
    let threshold = ((100.0 * SCALE).round() as u64).max(2);
    let (trace, _) = FrequencyFilter::MinExecutions(min_exec).filter_trace(&raw);
    let pipeline = AnalysisPipeline {
        conflict: ConflictConfig::with_threshold(threshold).unwrap(),
        ..AnalysisPipeline::new()
    };
    let cfg = ParallelConfig::with_jobs(2);
    let analysis = analyze_parallel_observed(&pipeline, &trace, &cfg, &Obs::noop());
    // The parallel path must agree with the serial one bit for bit.
    assert_eq!(
        analysis,
        pipeline.run_observed(&trace, &Obs::noop()),
        "parallel != serial"
    );
    (trace, analysis)
}

#[test]
fn li_quick_scale_reproduces_paper_shapes() {
    let (trace, analysis) = quick_analysis(Benchmark::Li);
    let cfg = AllocationConfig::default();

    // Table 2 shape: execution-weighted working set well below the static
    // population (calibrated: avg dynamic ≈ 173 of 352 static).
    let report = &analysis.working_sets.report;
    assert!(
        report.avg_dynamic_size > 100.0 && report.avg_dynamic_size < 250.0,
        "avg dynamic {}",
        report.avg_dynamic_size
    );
    assert!(report.avg_dynamic_size < trace.static_branch_count() as f64 / 1.5);

    // Tables 3–4 shape: far fewer than 1024 entries; classification
    // shrinks the requirement (calibrated: 157 plain, 92 classified).
    let plain = analysis
        .required_size(Classified(false), &trace, 1024, &cfg)
        .unwrap();
    let classified = analysis
        .required_size(Classified(true), &trace, 1024, &cfg)
        .unwrap();
    assert!(plain.size < 400, "plain {}", plain.size);
    assert!(
        classified.size < plain.size,
        "{} vs {}",
        classified.size,
        plain.size
    );

    // Figure 4 shape: allocation recovers a solid fraction of the
    // interference loss (calibrated: ~10% relative gain, allocated within
    // a whisker of interference-free).
    let allocation = analysis.allocation(Classified(true), 1024, &cfg).unwrap();
    let conventional = simulate(&mut Pag::paper_baseline(), &trace).misprediction_rate();
    let allocated = simulate(
        &mut Pag::paper_with_indexer(BhtIndexer::Allocated(allocation.index)),
        &trace,
    )
    .misprediction_rate();
    let free = simulate(&mut Pag::interference_free(), &trace).misprediction_rate();
    let gain = (conventional - allocated) / conventional;
    assert!(gain > 0.05, "relative gain {gain}");
    assert!(
        allocated <= free * 1.10,
        "allocated {allocated} vs free {free}"
    );
}

#[test]
fn compress_quick_scale_matches_paper_table2_sizes() {
    let (_, analysis) = quick_analysis(Benchmark::Compress);
    let report = &analysis.working_sets.report;
    // Paper (full scale): avg static 41, avg dynamic 25. The scaled run
    // lands in the same neighbourhood (calibrated: avg dynamic ≈ 40).
    assert!(
        (20.0..=60.0).contains(&report.avg_dynamic_size),
        "avg dynamic {}",
        report.avg_dynamic_size
    );
    assert!(report.max_size < 100, "max {}", report.max_size);
}
