//! Parallel simulation sweeps: fan a predictor × configuration × workload
//! grid across a bounded worker pool with deterministic result ordering.
//!
//! The paper's evaluation (Figures 3–4, Tables 3–4) is a grid of
//! independent trace-driven simulations — each cell pairs one predictor
//! configuration with one workload trace. The cells share nothing, so
//! they parallelise trivially; what needs care is keeping the *output*
//! independent of scheduling. [`sweep`] runs them on
//! [`bwsa_resilience::parallel_map`], which pulls cells from a shared
//! queue (so slow cells don't serialise behind a fixed partition), tags
//! every result with its input index, and sorts before returning — the returned
//! `Vec` is always in cell order, and a failing sweep always reports the
//! lowest-index error, no matter which worker hit it first.
//!
//! [`SweepCell`] is a deferred simulation: a label plus a boxed `FnOnce`
//! producing a [`SimResult`]. The two constructors cover the workspace's
//! simulation entry points — [`SweepCell::plain`] wraps [`simulate`] for
//! any predictor, [`SweepCell::resumable`] wraps [`simulate_resumable`]
//! for [`Checkpointable`] predictors so checkpointed sweeps keep working
//! when fanned out.

use crate::checkpoint::Checkpointable;
use crate::error::PredictorError;
use crate::predictor::BranchPredictor;
use crate::sim::{simulate, simulate_resumable, SimCheckpoint, SimResult};
use bwsa_obs::Obs;
use bwsa_trace::Trace;

/// One deferred cell of a simulation sweep.
pub struct SweepCell<'a> {
    label: String,
    run: Box<dyn FnOnce() -> Result<SimResult, PredictorError> + Send + 'a>,
}

impl std::fmt::Debug for SweepCell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCell")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<'a> SweepCell<'a> {
    /// Wraps an arbitrary deferred simulation.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<SimResult, PredictorError> + Send + 'a,
    ) -> Self {
        SweepCell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// A cell running [`simulate`] — any predictor, no checkpointing.
    pub fn plain<P>(predictor: P, trace: &'a Trace) -> Self
    where
        P: BranchPredictor + Send + 'a,
    {
        let label = format!("{}@{}", predictor.name(), trace.meta().name);
        let mut predictor = predictor;
        Self::new(label, move || Ok(simulate(&mut predictor, trace)))
    }

    /// A cell running [`simulate_resumable`] — resumes from an optional
    /// checkpoint and emits new checkpoints through `on_checkpoint`, so a
    /// fanned-out sweep keeps the same durability contract as a serial
    /// checkpointed run.
    pub fn resumable<P, F>(
        predictor: P,
        trace: &'a Trace,
        resume: Option<SimCheckpoint>,
        checkpoint_every: Option<u64>,
        on_checkpoint: F,
    ) -> Self
    where
        P: Checkpointable + Send + 'a,
        F: FnMut(&SimCheckpoint) -> Result<(), PredictorError> + Send + 'a,
    {
        let label = format!("{}@{}", predictor.name(), trace.meta().name);
        let mut predictor = predictor;
        let mut on_checkpoint = on_checkpoint;
        Self::new(label, move || {
            simulate_resumable(
                &mut predictor,
                trace,
                resume.as_ref(),
                checkpoint_every,
                &mut on_checkpoint,
            )
        })
    }

    /// The cell's display label, `predictor@trace` for the built-in
    /// constructors.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn execute(self) -> Result<SimResult, PredictorError> {
        (self.run)()
    }
}

/// Runs every cell on `jobs` worker threads, returning results in cell
/// order.
///
/// Workers pull cells from a shared queue, so an expensive cell never
/// strands the rest behind it. Scheduling cannot leak into the output:
/// results come back ordered by input index, and if any cells fail the
/// error returned is always the one with the lowest index.
///
/// A cell that *unwinds* — a genuine panic or an injected fault — is
/// isolated at the cell boundary and reported as
/// [`PredictorError::CellFailed`] rather than tearing down the sweep.
///
/// # Errors
///
/// Returns the lowest-index cell's error; every cell still runs.
pub fn sweep(cells: Vec<SweepCell<'_>>, jobs: usize) -> Result<Vec<SimResult>, PredictorError> {
    sweep_observed(cells, jobs, &Obs::noop())
}

/// [`sweep`] with per-cell wall times (one `sweep:<label>` span each) and
/// aggregate `predictor.lookups` / `predictor.mispredicts` counters
/// reported into `obs`. Results are unchanged by observation.
///
/// # Errors
///
/// Exactly those of [`sweep`].
pub fn sweep_observed(
    cells: Vec<SweepCell<'_>>,
    jobs: usize,
    obs: &Obs,
) -> Result<Vec<SimResult>, PredictorError> {
    bwsa_resilience::parallel_map(cells, jobs, |_, cell| {
        let span = obs.span(format!("sweep:{}", cell.label()));
        let label = cell.label().to_string();
        // Containment boundary: a cell that unwinds (a genuine panic or
        // an injected fault) fails only itself, as a typed error — the
        // other cells and the worker pool are unaffected.
        let outcome = bwsa_resilience::supervisor::catch(|| {
            bwsa_resilience::failpoint!("predictor.sweep_cell");
            cell.execute()
        })
        .unwrap_or_else(|fault| Err(PredictorError::cell_failed(label, fault.to_string())));
        span.finish();
        if let Ok(result) = &outcome {
            obs.add("predictor.lookups", result.total);
            obs.add("predictor.mispredicts", result.mispredictions);
        }
        outcome
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bimodal, Gshare, Pag};
    use bwsa_trace::TraceBuilder;

    fn looped_trace(name: &str, branches: u64, records: u64) -> Trace {
        let mut b = TraceBuilder::new(name);
        for i in 0..records {
            b.record(0x1000 + (i % branches) * 4, i % 3 != 0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn sweep_results_are_in_cell_order_for_any_job_count() {
        let trace = looped_trace("t", 7, 4000);
        let serial: Vec<SimResult> = vec![
            simulate(&mut Pag::paper_baseline(), &trace),
            simulate(&mut Bimodal::new(64), &trace),
            simulate(&mut Gshare::new(10), &trace),
        ];
        for jobs in [1, 2, 5] {
            let cells = vec![
                SweepCell::plain(Pag::paper_baseline(), &trace),
                SweepCell::plain(Bimodal::new(64), &trace),
                SweepCell::plain(Gshare::new(10), &trace),
            ];
            assert_eq!(sweep(cells, jobs).unwrap(), serial, "jobs {jobs}");
        }
    }

    #[test]
    fn resumable_cells_match_plain_simulation() {
        let trace = looped_trace("t", 5, 2000);
        let expected = simulate(&mut Bimodal::new(64), &trace);
        let cells = vec![SweepCell::resumable(
            Bimodal::new(64),
            &trace,
            None,
            Some(500),
            |_| Ok(()),
        )];
        assert_eq!(sweep(cells, 2).unwrap(), vec![expected]);
    }

    #[test]
    fn lowest_index_error_wins_deterministically() {
        let trace = looped_trace("t", 3, 100);
        for jobs in [1, 4] {
            let cells = vec![
                SweepCell::plain(Bimodal::new(64), &trace),
                SweepCell::new("boom-1", || {
                    Err(PredictorError::checkpoint("cell 1 failed"))
                }),
                SweepCell::new("boom-2", || {
                    Err(PredictorError::checkpoint("cell 2 failed"))
                }),
            ];
            let err = sweep(cells, jobs).unwrap_err();
            assert!(
                err.to_string().contains("cell 1 failed"),
                "jobs {jobs}: {err}"
            );
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert_eq!(sweep(Vec::new(), 4).unwrap(), Vec::new());
    }

    #[test]
    fn a_panicking_cell_fails_typed_without_tearing_down_the_sweep() {
        let trace = looped_trace("t", 3, 100);
        for jobs in [1, 3] {
            let cells = vec![
                SweepCell::plain(Bimodal::new(64), &trace),
                SweepCell::new("explodes@t", || panic!("cell blew up")),
                SweepCell::plain(Gshare::new(10), &trace),
            ];
            let err = sweep(cells, jobs).unwrap_err();
            match err {
                PredictorError::CellFailed { label, reason } => {
                    assert_eq!(label, "explodes@t", "jobs {jobs}");
                    assert!(reason.contains("cell blew up"), "jobs {jobs}: {reason}");
                }
                other => panic!("jobs {jobs}: expected CellFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn observed_sweep_matches_plain_and_reports_per_cell_spans() {
        let trace = looped_trace("t", 7, 4000);
        let plain = sweep(
            vec![
                SweepCell::plain(Pag::paper_baseline(), &trace),
                SweepCell::plain(Bimodal::new(64), &trace),
            ],
            2,
        )
        .unwrap();
        let obs = Obs::recording();
        let observed = sweep_observed(
            vec![
                SweepCell::plain(Pag::paper_baseline(), &trace),
                SweepCell::plain(Bimodal::new(64), &trace),
            ],
            2,
            &obs,
        )
        .unwrap();
        assert_eq!(observed, plain);
        let metrics = obs.snapshot().expect("recording observer");
        assert_eq!(metrics.stages.len(), 2, "one span per cell");
        assert!(metrics
            .stages
            .iter()
            .all(|s| s.name.starts_with("sweep:") && s.name.contains('@')));
        let total: u64 = observed.iter().map(|r| r.total).sum();
        let misses: u64 = observed.iter().map(|r| r.mispredictions).sum();
        assert_eq!(metrics.counter("predictor.lookups"), total);
        assert_eq!(metrics.counter("predictor.mispredicts"), misses);
    }

    #[test]
    fn labels_identify_predictor_and_trace() {
        let trace = looped_trace("compress", 3, 10);
        let cell = SweepCell::plain(Bimodal::new(64), &trace);
        assert!(cell.label().contains("compress"), "{}", cell.label());
        assert!(cell.label().contains("bimodal"), "{}", cell.label());
    }
}
