//! Trace-driven simulation of predictors — the `sim-bpred` loop.

use crate::BranchPredictor;
use bwsa_trace::{BranchId, Trace};
use std::fmt;

/// Aggregate result of simulating one predictor over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Predictor label.
    pub predictor: String,
    /// Trace label.
    pub trace: String,
    /// Dynamic branches simulated.
    pub total: u64,
    /// Mispredicted dynamic branches.
    pub mispredictions: u64,
}

impl SimResult {
    /// Fraction of dynamic branches mispredicted, in `[0, 1]`.
    pub fn misprediction_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.total as f64
        }
    }

    /// Fraction predicted correctly, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {}/{} mispredicted ({:.2}%)",
            self.predictor,
            self.trace,
            self.mispredictions,
            self.total,
            100.0 * self.misprediction_rate()
        )
    }
}

/// [`SimResult`] plus per-static-branch misprediction counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedSimResult {
    /// The aggregate result.
    pub summary: SimResult,
    /// `misses[id]` / `executions[id]` per static branch.
    pub misses: Vec<u64>,
    /// Dynamic executions per static branch.
    pub executions: Vec<u64>,
}

impl DetailedSimResult {
    /// Per-branch misprediction rate, or `None` if the branch never ran.
    pub fn branch_rate(&self, id: BranchId) -> Option<f64> {
        let e = *self.executions.get(id.index())?;
        if e == 0 {
            None
        } else {
            Some(self.misses[id.index()] as f64 / e as f64)
        }
    }
}

/// Runs a predictor over a trace: predict, compare, train — once per
/// dynamic branch, in order.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, StaticPredictor};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("t");
/// b.record(0x40, true, 1).record(0x40, false, 2);
/// let r = simulate(&mut StaticPredictor::always_taken(), &b.finish());
/// assert_eq!(r.total, 2);
/// assert_eq!(r.mispredictions, 1);
/// ```
pub fn simulate<P: BranchPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> SimResult {
    bwsa_resilience::failpoint!("predictor.simulate");
    let mut mispredictions = 0u64;
    for (id, rec) in trace.indexed_records() {
        let predicted = predictor.observe(rec.pc, id, rec.direction);
        if predicted != rec.direction {
            mispredictions += 1;
        }
    }
    SimResult {
        predictor: predictor.name(),
        trace: trace.meta().name.clone(),
        total: trace.len() as u64,
        mispredictions,
    }
}

/// [`simulate`] with a `simulate` span and `predictor.lookups`,
/// `predictor.mispredicts`, and (for schemes that track it)
/// `predictor.interference_events` counters reported into `obs`.
///
/// The counters are read off the finished result, never threaded through
/// the hot loop, so the simulation is bit-identical with or without a
/// recording observer.
pub fn simulate_observed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
    obs: &bwsa_obs::Obs,
) -> SimResult {
    let events_before = predictor.interference_events();
    let span = obs.span("simulate");
    let result = simulate(predictor, trace);
    span.finish();
    obs.add("predictor.lookups", result.total);
    obs.add("predictor.mispredicts", result.mispredictions);
    if let (Some(before), Some(after)) = (events_before, predictor.interference_events()) {
        obs.add("predictor.interference_events", after - before);
    }
    result
}

/// Like [`simulate`] but also accumulates per-static-branch counts.
pub fn simulate_detailed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> DetailedSimResult {
    let n = trace.static_branch_count();
    let mut misses = vec![0u64; n];
    let mut executions = vec![0u64; n];
    let mut mispredictions = 0u64;
    for (id, rec) in trace.indexed_records() {
        let predicted = predictor.observe(rec.pc, id, rec.direction);
        executions[id.index()] += 1;
        if predicted != rec.direction {
            mispredictions += 1;
            misses[id.index()] += 1;
        }
    }
    DetailedSimResult {
        summary: SimResult {
            predictor: predictor.name(),
            trace: trace.meta().name.clone(),
            total: trace.len() as u64,
            mispredictions,
        },
        misses,
        executions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticPredictor;
    use bwsa_trace::TraceBuilder;

    fn half_taken_trace() -> Trace {
        let mut b = TraceBuilder::new("half");
        for i in 0..10u64 {
            b.record(0x100 + (i % 2) * 4, i % 2 == 0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn counts_are_exact() {
        let trace = half_taken_trace();
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(r.total, 10);
        assert_eq!(r.mispredictions, 5);
        assert_eq!(r.misprediction_rate(), 0.5);
        assert_eq!(r.accuracy(), 0.5);
    }

    #[test]
    fn detailed_splits_by_branch() {
        let trace = half_taken_trace();
        let d = simulate_detailed(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(d.summary.mispredictions, 5);
        assert_eq!(d.executions, vec![5, 5]);
        assert_eq!(d.misses, vec![0, 5]);
        assert_eq!(d.branch_rate(BranchId::new(0)), Some(0.0));
        assert_eq!(d.branch_rate(BranchId::new(1)), Some(1.0));
        assert_eq!(d.branch_rate(BranchId::new(9)), None);
    }

    #[test]
    fn empty_trace_is_zero_rate() {
        let trace = Trace::new("empty");
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(r.total, 0);
        assert_eq!(r.misprediction_rate(), 0.0);
    }

    #[test]
    fn display_shows_percentages() {
        let trace = half_taken_trace();
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert!(r.to_string().contains("50.00%"));
    }

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 7;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x2000 + (lcg >> 45) % 23 * 4, (lcg >> 13) & 3 != 0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn observed_simulation_is_identical_and_counts_its_work() {
        let mut b = TraceBuilder::new("obs");
        for i in 0..3000u64 {
            let pc = if i % 2 == 0 { 0x100 } else { 0x104 };
            b.record(pc, i % 3 != 0, i + 1);
        }
        let trace = b.finish();
        let plain = simulate(
            &mut crate::Pag::new(crate::BhtIndexer::pc_modulo(1), 4),
            &trace,
        );
        let obs = bwsa_obs::Obs::recording();
        let mut pag = crate::Pag::new(crate::BhtIndexer::pc_modulo(1), 4);
        let observed = simulate_observed(&mut pag, &trace, &obs);
        assert_eq!(observed, plain);
        let metrics = obs.snapshot().expect("recording observer");
        assert_eq!(metrics.counter("predictor.lookups"), observed.total);
        assert_eq!(
            metrics.counter("predictor.mispredicts"),
            observed.mispredictions
        );
        assert_eq!(
            metrics.counter("predictor.interference_events"),
            pag.interference_events()
        );
        assert!(
            metrics.stage("simulate").is_some(),
            "simulate span recorded"
        );
    }

    #[test]
    fn predictors_without_interference_tracking_report_no_counter() {
        let trace = {
            let mut b = TraceBuilder::new("t");
            for i in 0..100u64 {
                b.record(0x100, i % 2 == 0, i + 1);
            }
            b.finish()
        };
        let obs = bwsa_obs::Obs::recording();
        simulate_observed(&mut crate::Bimodal::new(16), &trace, &obs);
        let metrics = obs.snapshot().expect("recording observer");
        assert!(!metrics
            .counters
            .contains_key("predictor.interference_events"));
    }

    /// The fused `observe` loop must be observably identical to the
    /// split predict-then-update loop for every scheme that overrides it.
    #[test]
    fn fused_observe_matches_split_predict_update() {
        let trace = busy_trace(5000);
        let mut schemes: Vec<(Box<dyn BranchPredictor>, Box<dyn BranchPredictor>)> = vec![
            (
                Box::new(crate::Pag::paper_baseline()),
                Box::new(crate::Pag::paper_baseline()),
            ),
            (
                Box::new(crate::Pag::interference_free()),
                Box::new(crate::Pag::interference_free()),
            ),
            (
                Box::new(crate::Gshare::new(10)),
                Box::new(crate::Gshare::new(10)),
            ),
            (
                Box::new(crate::Bimodal::new(64)),
                Box::new(crate::Bimodal::new(64)),
            ),
        ];
        for (split, fused) in &mut schemes {
            let mut split_misses = 0u64;
            for (id, rec) in trace.indexed_records() {
                if split.predict(rec.pc, id) != rec.direction {
                    split_misses += 1;
                }
                split.update(rec.pc, id, rec.direction);
            }
            let r = simulate(&mut *fused, &trace);
            assert_eq!(r.mispredictions, split_misses, "{}", r.predictor);
            assert_eq!(
                split.interference_events(),
                fused.interference_events(),
                "{}",
                r.predictor
            );
        }
    }
}
