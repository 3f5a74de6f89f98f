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
//! parallel pass on 2 and 3 workers and the windowed fold. Each trace has
//! `k` static
//! branches, with `k` on both sides of 4096, where the detector's dense
//! rows end and its spill table begins. The loops run over the highest
//! ids, after a prefix of branches that run once, so a loop straddles the
//! cap while its graph stays small enough for a debug build.
//!
//! A windowed run is also checked window by window, on two disjoint loops
//! that alternate in phases: what each record credits follows from its
//! phase, round and slot alone (see [`Alternating`]). When the windows
//! are the phases, every window after the first shares no branch with
//! the one before it, and the whole-trace weights have a closed form on
//! every engine.
//!
//! Allocation has a known answer too: a table with an entry for every
//! static branch gives each branch its own entry, so PAg over it keeps
//! one history per branch and mispredicts exactly as the
//! interference-free PAg does.

use bwsa::core::columnar::analyze_columnar_stream;
use bwsa::core::pipeline::AnalysisPipeline;
use bwsa::core::{
    analyze_parallel, Analysis, Classified, ConflictConfig, ParallelConfig, Session, WindowConfig,
    WindowedAnalysis, WindowedResult,
};
use bwsa::obs::Obs;
use bwsa::predictor::{simulate, BhtIndexer, Pag};
use bwsa::trace::columnar::ColumnarWriter;
use bwsa::trace::stream::RecoveryPolicy;
use bwsa::trace::{BranchId, Trace, TraceBuilder};
use bwsa::workload::suite::{Benchmark, InputSet};
use std::collections::BTreeSet;

/// Static branch counts on both sides of the dense-row cap. At 4096 +
/// `LOOP / 2` half of a top loop sits past the cap, so pairs with one or
/// both ids past it credit through the spill table.
const SIZES: [u64; 5] = [2, 4095, 4096, 4097, 4096 + LOOP / 2];

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

/// The analysis of `trace` from each engine, labelled. Windows are
/// `split` records long, so a boundary can fall inside a loop.
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

    let config = WindowConfig::branches(split).unwrap();
    let mut windowed = WindowedAnalysis::new(config, *pipeline);
    for (id, rec) in trace.indexed_records() {
        windowed.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }
    vec![
        ("serial", serial),
        ("bwss3 stream", streamed),
        (
            "2 workers",
            analyze_parallel(pipeline, trace, &ParallelConfig::with_jobs(2)),
        ),
        (
            "3 workers",
            analyze_parallel(pipeline, trace, &ParallelConfig::with_jobs(3)),
        ),
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

/// Two disjoint round-robin loops of `m` branches that alternate in
/// phases of `rounds` rounds, after `cold` branches that run once: loop
/// A (ids `cold..cold + m`) in even phases, loop B (the next `m` ids) in
/// odd ones, one stamp per record.
///
/// A record of branch `x` in round `r` of phase `p` credits, by Figure 1,
/// every branch that ran since `x`'s previous record:
///
/// * `r ≥ 1`: the other `m − 1` branches of its loop, which ran since
///   `x`'s previous round;
/// * `r = 0`, `p ≥ 2`: those, plus all `m` branches of the other loop,
///   which ran in phase `p − 1`, after `x`'s last round in phase `p − 2`;
/// * `r = 0`, `p < 2`: nothing — `x` runs for the first time.
///
/// The once-run branches are never credited: every stamp they hold is
/// older than any loop branch's previous record.
struct Alternating {
    cold: u64,
    m: u64,
    rounds: u64,
    phases: u64,
}

impl Alternating {
    fn len(&self) -> u64 {
        self.cold + self.phases * self.rounds * self.m
    }

    fn phase_len(&self) -> u64 {
        self.rounds * self.m
    }

    /// `(phase, round, slot)` of loop record `i`.
    fn position(&self, i: u64) -> (u64, u64, u64) {
        let j = i - self.cold;
        let pos = j % self.phase_len();
        (j / self.phase_len(), pos / self.m, pos % self.m)
    }

    /// First id of the loop that runs in phase `p`.
    fn base(&self, p: u64) -> u64 {
        self.cold + (p % 2) * self.m
    }

    /// The branch id of record `i`: ids follow first appearance.
    fn id(&self, i: u64) -> u64 {
        if i < self.cold {
            return i;
        }
        let (p, _, x) = self.position(i);
        self.base(p) + x
    }

    /// The pairs record `i` credits, each once, as `(low id, high id)`.
    fn credits(&self, i: u64) -> Vec<(u64, u64)> {
        if i < self.cold {
            return Vec::new();
        }
        let (p, r, x) = self.position(i);
        if r == 0 && p < 2 {
            return Vec::new();
        }
        let own = self.base(p) + x;
        let mut seen: Vec<u64> = (0..self.m)
            .filter(|&y| y != x)
            .map(|y| self.base(p) + y)
            .collect();
        if r == 0 {
            seen.extend((0..self.m).map(|y| self.base(p + 1) + y));
        }
        seen.into_iter().map(|b| (own.min(b), own.max(b))).collect()
    }

    /// Whether record `i` is its branch's first.
    fn first_run(&self, i: u64) -> bool {
        if i < self.cold {
            return true;
        }
        let (p, r, _) = self.position(i);
        p < 2 && r == 0
    }

    fn trace(&self) -> Trace {
        let mut shape = Shape::after_cold(self.cold);
        for p in 0..self.phases {
            shape.round_robin(self.base(p), self.m, self.rounds);
        }
        shape.trace.finish()
    }
}

/// What a window of records `start..end` must report, from the credit
/// rule alone: `(records, new, executed ids, pairs, weight)`.
fn expected_window(
    alt: &Alternating,
    start: u64,
    end: u64,
) -> (u64, usize, BTreeSet<u64>, usize, u64) {
    let mut executed = BTreeSet::new();
    let mut pairs = BTreeSet::new();
    let (mut new, mut weight) = (0, 0);
    for i in start..end {
        executed.insert(alt.id(i));
        new += usize::from(alt.first_run(i));
        let credits = alt.credits(i);
        weight += credits.len() as u64;
        pairs.extend(credits);
    }
    (end - start, new, executed, pairs.len(), weight)
}

/// Drives `alt` through `window`-record windows and checks every window
/// against [`expected_window`]; returns the windowed result.
fn check_windows(alt: &Alternating, window: u64) -> WindowedResult {
    let trace = alt.trace();
    assert_eq!(trace.len() as u64, alt.len());
    let config = WindowConfig::branches(window).unwrap().with_table_size(16);
    let mut engine = WindowedAnalysis::new(config, pipeline(1));
    for (id, rec) in trace.indexed_records() {
        engine.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }
    let result = engine.finish();
    assert_eq!(result.windows.len() as u64, alt.len().div_ceil(window));
    let mut previous: Option<BTreeSet<u64>> = None;
    for (index, w) in result.windows.iter().enumerate() {
        let start = index as u64 * window;
        let end = (start + window).min(alt.len());
        let (records, new, executed, pairs, weight) = expected_window(alt, start, end);
        let case = format!("cold {}, window {window}, #{index}", alt.cold);
        assert_eq!(w.records, records, "{case}: records");
        assert_eq!(w.new_branches, new, "{case}: new branches");
        assert_eq!(w.executed_branches, executed.len(), "{case}: executed");
        assert_eq!(w.interleave_pairs, pairs, "{case}: pairs");
        assert_eq!(w.interleave_weight, weight, "{case}: weight");
        let jaccard = previous.as_ref().map_or(1.0, |prev| {
            let shared = prev.intersection(&executed).count();
            shared as f64 / (prev.len() + executed.len() - shared) as f64
        });
        assert_eq!(w.jaccard, jaccard, "{case}: Jaccard");
        let phase_change = previous.is_some() && jaccard < 0.5;
        assert_eq!(w.phase_change, phase_change, "{case}: phase change");
        previous = Some(executed);
    }
    result
}

#[test]
fn alternating_loops_give_each_window_its_closed_form() {
    // Loops of 6 over 5 rounds: 30-record phases. Windows of one phase
    // and half a phase line up with the phases; 11 and 45 cut through
    // them, so one window holds the end of a phase and the start of the
    // next, whose first round is where the cross-loop credits fall.
    let alt = Alternating {
        cold: 0,
        m: 6,
        rounds: 5,
        phases: 6,
    };
    for window in [30, 15, 11, 45] {
        check_windows(&alt, window);
    }
    // Windows of one phase run the two loops in turn: every window after
    // the first shares no branch with the one before it.
    let phases = check_windows(&alt, alt.phase_len());
    assert_eq!(phases.phase_changes, alt.phases - 1);
    for w in &phases.windows[1..] {
        assert_eq!((w.jaccard, w.phase_change), (0.0, true), "#{}", w.index);
    }
    // With windows of one phase the credit rule reduces to closed form:
    // phase p holds (rounds − 1)·m·(m − 1) credits to its own loop's
    // m(m − 1)/2 pairs, plus, from phase 2 on, m(2m − 1) at its first
    // round, m² of them to the other loop's pairs.
    let (m, rounds) = (alt.m, alt.rounds);
    for p in 0..alt.phases {
        let (records, new, executed, pairs, weight) =
            expected_window(&alt, p * alt.phase_len(), (p + 1) * alt.phase_len());
        let returning = u64::from(p >= 2);
        assert_eq!(records, rounds * m);
        assert_eq!(new as u64, m * u64::from(p < 2));
        assert_eq!(executed.len() as u64, m);
        assert_eq!(pairs as u64, m * (m - 1) / 2 + returning * m * m);
        assert_eq!(
            weight,
            (rounds - 1) * m * (m - 1) + returning * m * (2 * m - 1)
        );
    }
    // Over the whole trace, loop L runs n_L phases: as one round-robin of
    // n_L · rounds rounds, each of its pairs weighs 2(n_L · rounds − 1). A
    // cross pair gains 1 each time a loop returns after the other ran:
    // phases − 2 times in all.
    let runs = [alt.phases.div_ceil(2), alt.phases / 2];
    let own = |l: usize| 2 * (runs[l] * rounds - 1);
    let cross = alt.phases - 2;
    let total = m * (m - 1) / 2 * (own(0) + own(1)) + m * m * cross;
    for (engine, analysis) in every_engine(&alt.trace(), &pipeline(1), alt.phase_len()) {
        let c = &analysis.conflict;
        assert_eq!(c.raw_edge_count as u64, m * (m - 1) + m * m, "{engine}");
        assert_eq!(c.raw_total_weight, total, "{engine}: total");
        for (a, b, weight) in c.graph.iter_edges() {
            let (la, lb) = ((u64::from(a) / m) as usize, (u64::from(b) / m) as usize);
            let expected = if la == lb { own(la) } else { cross };
            assert_eq!(weight, expected, "{engine}: ({a}, {b})");
        }
    }
}

#[test]
fn alternating_loops_above_the_dense_cap_give_each_window_its_closed_form() {
    // The same phases after 4110 once-run branches (137 phases' worth),
    // so both loops sit above 4096: every credit goes through the spill
    // path, and each window's pairs come from its own spill credits. A
    // prefix of 4090 puts loop A below the cap and loop B above it, so
    // the cross-loop pairs spill from both sides.
    for (cold, windows) in [(4110, &[30, 45][..]), (4090, &[45])] {
        let alt = Alternating {
            cold,
            m: 6,
            rounds: 5,
            phases: 6,
        };
        for &window in windows {
            check_windows(&alt, window);
        }
    }
}

#[test]
fn an_entry_per_branch_mispredicts_exactly_as_interference_free() {
    let trace = Benchmark::Li.generate_scaled(InputSet::A, 0.01);
    let k = trace.static_branch_count();
    let free = simulate(&mut Pag::interference_free(), &trace);
    let session = Session::new(&trace).with_pipeline(pipeline(1));
    for table in [k, k + 1, 2 * k] {
        let allocation = session.allocate(Classified(false), table).unwrap();
        assert_eq!(allocation.conflict_mass, 0, "table {table}");
        assert_eq!(allocation.conflicting_pairs, 0, "table {table}");
        let entries: BTreeSet<u32> = (0..k as u32)
            .map(|id| allocation.index.entry(BranchId::new(id)))
            .map(|entry| entry.expect("every branch is assigned"))
            .collect();
        assert_eq!(entries.len(), k, "table {table}: one entry per branch");
        let mut pag = Pag::paper_with_indexer(BhtIndexer::Allocated(allocation.index));
        let allocated = simulate(&mut pag, &trace);
        assert_eq!(allocated.total, free.total);
        assert_eq!(
            allocated.mispredictions, free.mispredictions,
            "table {table}"
        );
    }
}
